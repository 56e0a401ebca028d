package core

import (
	"nocvi/internal/floorplan"
	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// sweepEnv is the context shared by every worker of one sweep: the
// spec, the library, the step-1/2 outcomes, the island supplies, the
// intermediate-switch range, the routers' island-pair cost table, the
// partition table and the pre-sorted flow list, all built by
// newSweepEnv. Workers write through it in exactly two places: the
// partition table's first-touch entries (each behind its own once
// latch) and the incumbent pruner's atomic slots.
type sweepEnv struct {
	spec        *soc.Spec
	lib         *model.Library
	opt         Options
	freqs       []float64
	maxSizes    []int
	minSwitches []int
	midFreq     float64
	maxMid      int
	volts       []float64          // NoC supply per spec island
	midV        float64            // NoC supply of the intermediate island
	costs       *route.IslandCosts // every candidate's island-pair cost terms, shared read-only
	islandCores [][]soc.CoreID
	flows       []soc.Flow // decreasing-bandwidth order, shared read-only
	table       *partTable

	// bounds is the branch-and-bound layer's precomputed environment
	// (bounds.go); nil under Options.NoPrune. pruner is the shared
	// incumbent bound; nil when pruning is off (NoPrune, or a
	// MaxDesignPoints cap in Synthesize, which keeps only bounds'
	// infeasibility proofs).
	bounds *boundsEnv
	pruner *incumbentPruner

	// ordered marks Synthesize's ordered keep-all fold: incumbent
	// witnesses must then precede the candidate they prune (see
	// evaluate). The bounded sweep collectors accept any witness.
	ordered bool
}

// buildContext is one worker's reusable build arena: the pooled
// topology under construction, the router (with its subgraph cache and
// pinned Dijkstra scratch) and the floorplanner's scratch buffers, all
// recycled across the candidates the worker evaluates. One buildContext
// must not be used by two goroutines concurrently.
//
// The reset discipline that keeps reuse invisible: the topology is
// Reset before every build and surrendered (bc.top = nil) the moment it
// escapes into a DesignPoint, so published results never alias arena
// storage; the router's Reset re-targets it at the fresh topology with
// semantics identical to route.New; the floorplan scratch holds
// temporaries that die inside one Place call, plus a placement handed
// back only by an owner that never published it (a candidate that
// failed validation, or a point the sweep collectors summarized), which
// the next Place refills from zero. Every candidate
// therefore observes exactly the state a fresh allocation would give
// it, which is what keeps the sweep bit-identical to the serial,
// arena-free path.
type buildContext struct {
	env *sweepEnv

	top     *topology.Topology // nil until first use or after handoff
	router  *route.Router      // nil until first use
	scratch graph.Scratch      // pinned to router, replaces pool traffic
	fp      floorplan.Scratch
	part    partition.Scratch // worker-owned min-cut buffers for first-touch partition-table entries
	spare   *DesignPoint      // a summarized point handed back by collectors.add, refilled by the next build

	// pruneIdx bounds the incumbent witnesses buildPoint's staged bound
	// check accepts (strictly smaller candidate index), set before each
	// evaluation. The zero value disables staged pruning (nothing
	// precedes candidate 0), which is exactly right for fresh contexts
	// such as the sweep winners' rebuild.
	pruneIdx uint64
}

// newBuildContext creates an empty arena for one worker. Buffers grow
// on first use and stabilize after the first candidate.
func newBuildContext(env *sweepEnv) *buildContext {
	return &buildContext{env: env}
}

// takeTop returns a topology ready for construction: the pooled one
// reset in place, or a fresh allocation when the previous build's
// topology escaped into a design point.
func (bc *buildContext) takeTop() *topology.Topology {
	if bc.top == nil {
		bc.top = topology.New(bc.env.spec, bc.env.lib)
	} else {
		bc.top.Reset()
	}
	return bc.top
}

// takeRouter returns the arena's router re-targeted at top.
func (bc *buildContext) takeRouter(top *topology.Topology) *route.Router {
	if bc.router == nil {
		bc.router = route.New(top, bc.env.opt.Router)
		bc.router.SetScratch(&bc.scratch)
		bc.router.SetIslandCosts(bc.env.costs)
	} else {
		bc.router.Reset(top)
	}
	return bc.router
}

// reclaim hands a design point built by this arena back to it: the
// next build resets its topology and refills its placement and the
// point itself. Only a sink that never publishes dp may reclaim it, and
// it must keep no reference into dp but dp.SwitchCounts, which no later
// build writes.
func (bc *buildContext) reclaim(dp *DesignPoint) {
	bc.top = dp.Top
	bc.fp.Recycle(dp.Placement)
	bc.spare = dp
}

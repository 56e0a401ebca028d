// Package deadlock proves freedom from routing-induced deadlock for a
// synthesized topology. In a wormhole network a packet can hold one link
// while waiting for the next, so a cycle in the Channel Dependency Graph
// (CDG) — whose vertices are the directed links and whose edges are the
// consecutive-link pairs used by some route — can produce a circular
// wait (Dally & Seitz). An acyclic CDG is a sufficient condition for
// deadlock freedom under deterministic routing, which is what the
// synthesis flow uses.
//
// The island discipline of the paper's routes (source island -> optional
// intermediate island -> destination island, never backwards) already
// prevents cross-island cycles; intra-island segments use min-cost paths
// that are usually tree-like but not provably acyclic in the CDG, so the
// checker verifies the property rather than assuming it.
package deadlock

import (
	"fmt"
	"sync"

	"nocvi/internal/graph"
	"nocvi/internal/topology"
)

// Report describes the outcome of a deadlock analysis.
type Report struct {
	// Channels is the number of directed links analyzed, Dependencies
	// the number of distinct link-to-link dependencies induced by the
	// routes.
	Channels     int
	Dependencies int

	// Cycle is a witness (sequence of LinkIDs, first == last) when the
	// CDG is cyclic, nil when the design is deadlock free.
	Cycle []topology.LinkID
}

// Free reports whether the analysis found no cycle.
func (r *Report) Free() bool { return len(r.Cycle) == 0 }

// String formats the report for logs.
func (r *Report) String() string {
	if r.Free() {
		//noclint:ignore bannedcall log-message formatting in String, not a cache key
		return fmt.Sprintf("deadlock-free: %d channels, %d dependencies, CDG acyclic",
			r.Channels, r.Dependencies)
	}
	//noclint:ignore bannedcall log-message formatting in String, not a cache key
	return fmt.Sprintf("DEADLOCK RISK: cyclic channel dependency through links %v", r.Cycle)
}

// cdgPool recycles channel dependency graphs across analyses: the
// synthesis sweep checks every routed candidate, and a pooled graph
// keeps its per-link adjacency and DFS storage, so a warm check
// allocates nothing.
var cdgPool = sync.Pool{New: func() any { return new(graph.Directed) }}

// Analyze builds the channel dependency graph from the topology's routes
// and checks it for cycles.
func Analyze(top *topology.Topology) *Report {
	rep := analyze(top)
	return &rep
}

// analyze is Analyze returning the report by value, so Check's
// deadlock-free path allocates nothing.
func analyze(top *topology.Topology) Report {
	n := len(top.Links)
	cdg := cdgPool.Get().(*graph.Directed)
	defer cdgPool.Put(cdg)
	cdg.Reset(n)
	for ri := range top.Routes {
		r := &top.Routes[ri]
		for i := 1; i < len(r.Links); i++ {
			// AddEdge merges a repeated dependency into the existing edge,
			// so the CDG holds each distinct one once, in first-use order.
			cdg.AddEdge(int(r.Links[i-1]), int(r.Links[i]), 1)
		}
	}
	rep := Report{Channels: n, Dependencies: cdg.M()}
	if has, cyc := cdg.HasCycle(); has {
		rep.Cycle = make([]topology.LinkID, len(cyc))
		for i, v := range cyc {
			rep.Cycle[i] = topology.LinkID(v)
		}
	}
	return rep
}

// Check returns an error when the topology's routes can deadlock.
func Check(top *topology.Topology) error {
	rep := analyze(top)
	if !rep.Free() {
		return fmt.Errorf("deadlock: %s", rep.String())
	}
	return nil
}

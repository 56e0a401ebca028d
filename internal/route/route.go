// Package route implements step 15 of Algorithm 1: computing least-cost
// paths for the inter-switch traffic flows, opening links on demand.
//
// Flows are processed in decreasing bandwidth order. For each flow the
// router runs Dijkstra over the switch graph where every *allowed* switch
// pair is a candidate edge — existing links are priced at their marginal
// power, absent links additionally pay the cost of opening (idle power,
// leakage, and the port they consume). The paper's island discipline
// restricts candidates: a flow from island S to island D may only touch
// switches in S, in D, or in the never-shut-down intermediate NoC island
// M, and may only move "forward" (S→S, S→M, S→D, M→M, M→D, D→D), which
// both bounds latency and guarantees shutdown safety by construction.
//
// A candidate edge is rejected outright when the bandwidth would exceed
// the link capacity or when opening it would grow either endpoint switch
// beyond the island's max_sw_size (the frequency-feasibility bound from
// Algorithm 1 step 1).
package route

import (
	"fmt"
	"math"
	"sync"

	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// Options tunes the router's cost function.
type Options struct {
	// EstLinkLengthMM is the pre-floorplan estimate of an inter-switch
	// wire length used in the power term. Zero selects 2 mm.
	EstLinkLengthMM float64

	// LatencyWeightW converts one cycle of path latency (scaled by the
	// flow's constraint tightness) into watts for the linear cost
	// combination. Zero selects 1 mW/cycle.
	LatencyWeightW float64

	// MaxSwitchSize optionally overrides the per-island switch size
	// bound (indexed by island ID including the intermediate island).
	// Nil derives the bounds from each island's clock via the library.
	MaxSwitchSize []int

	// NoNewLinks restricts routing to links that already exist in the
	// topology — used to re-route traffic on fabricated silicon (fault
	// recovery analysis), where wires cannot be added.
	NoNewLinks bool

	// BalanceLoad adds a congestion-pressure term to existing links
	// proportional to their projected utilization, spreading traffic
	// over parallel paths instead of piling onto the first cheapest
	// one. Costs a little power (less reuse), buys capacity headroom.
	BalanceLoad bool

	// Survivability requires k additional link-disjoint island-legal
	// routes per multi-hop flow: after every primary route is committed
	// (bit-identical to a k=0 run), the router strips each flow's
	// already-used directed links from the candidate graph and re-routes
	// it k times (iterative strip-and-reroute over the same pooled
	// Dijkstra scratch and deterministic tie-breaks). The alternates are
	// committed as cold-standby Route.Backups — links opened, no traffic
	// accounted. A flow for which no k-th disjoint path exists fails the
	// whole routing, making the candidate design infeasible.
	Survivability int
}

func (o Options) estLen() float64 {
	if o.EstLinkLengthMM <= 0 {
		return 2.0
	}
	return o.EstLinkLengthMM
}

func (o Options) latW() float64 {
	if o.LatencyWeightW <= 0 {
		return 1e-3
	}
	return o.LatencyWeightW
}

// Router routes flows over a topology under construction.
type Router struct {
	top    *topology.Topology
	opt    Options
	maxSz  []int   // per island
	minLat float64 // tightest latency constraint of the spec

	// costs is the island-pair term table the current topology is priced
	// from, resolved at the first query after New, Reset or
	// SetIslandCosts: the pinned shared table when it covers the
	// topology's island domains, the router's own otherwise.
	costs  *IslandCosts
	shared *IslandCosts
	own    IslandCosts

	// subs caches one admissible candidate subgraph per (source island,
	// destination island) pair, in the dense slot src*nIsl+dst over the
	// spec's islands: Dijkstra only ever visits switches in the source,
	// destination and intermediate islands, and the island discipline is
	// encoded in the subgraph's arcs instead of being re-checked inside
	// the per-edge cost closure.
	subs []*subgraph

	// free recycles subgraphs across Reset cycles: a reused Router keeps
	// the vertex/rank buffers of the previous candidate's subgraphs and
	// refills them instead of allocating. Populated only by Reset,
	// consumed by subgraphFor.
	free []*subgraph

	// islBuf holds every switch ID bucketed by island, each island's
	// IDs ascending, with island i's list at islBuf[islOff[i]:
	// islOff[i+1]] (islandSwitches; intermediate island included). It
	// is laid out at the first subgraph after New or Reset; an empty
	// islOff marks it stale. A subgraph is the merge of at most three
	// of these lists, so building one costs its own size rather than
	// the topology's switch count.
	islOff []int32
	islBuf []topology.SwitchID

	// scratch is the pooled Dijkstra state, reused across the Router's
	// flows and (through scratchPool) across candidates on a worker.
	scratch *graph.Scratch

	// pathBuf holds the switch path of the current shortest query. It
	// is overwritten by every call and never escapes: commit copies it
	// into topology-owned route storage.
	pathBuf []topology.SwitchID

	// costFn is allocated once; it prices the current query described
	// by q.
	costFn graph.CostFunc
	q      query

	// exclude is the per-query set of directed links the current
	// disjoint-path search must avoid (the flow's primary route plus its
	// already-committed backups). Empty for primary routing, so k=0
	// queries never pay for it. A linear scan: the set holds a few path
	// lengths at most.
	exclude []topology.LinkID
}

// query is the state of one shortest-path search: the flow's constant
// cost prefixes and a snapshot, by local vertex index, of the subgraph
// switches. Links only open when a path is committed, so the ports,
// sizes and islands read at query start hold for every relaxation.
type query struct {
	sub     *subgraph
	links   topology.LinkIndex
	latOnly bool
	bw      float64

	// Per-flow leading sub-products of the edge cost: bw*8*
	// LinkEnergyPerBitMM*estLen (link dynamic energy), bw*8*
	// FIFOEnergyPerBit (converter dynamic energy) and latW*tightness
	// (latency pressure).
	linkDyn float64
	fifoDyn float64
	latTerm float64

	// Per-vertex snapshot: row/col locate the vertex's island in the
	// pair table (row pre-multiplied by the table's stride), swDyn is
	// the switch dynamic power term bw*8*eBit(size)*VoltageScaleDynamic
	// of the vertex as a hop's downstream switch, and canOut/canIn
	// whether opening a link may add an output/input port to it within
	// its island's max_sw_size.
	row, col      []int32
	swDyn         []float64
	canOut, canIn []bool
}

// subgraph is the candidate graph restricted to the switches a flow
// between one island pair may touch. verts maps local vertex indices to
// switch IDs in ascending order — so local adjacency order equals the
// global ascending order the complete-graph router used, keeping
// equal-cost tie-breaks identical — and a binary search over it is the
// inverse map (localOf).
//
// The island discipline (S→S, S→M, S→D, M→M, M→D, D→D) is a total
// preorder on the admissible islands, so the candidate arcs are never
// materialized: rank stores 0 for source-island switches, 1 for
// intermediate, 2 for destination (all 0 when source == destination,
// where every move is legal), and an arc u->v exists exactly when
// rank[u] <= rank[v]. Dijkstra runs over this implicit dense graph.
type subgraph struct {
	verts []topology.SwitchID
	rank  []int8
}

// localOf returns the local vertex index of switch sw, or -1 when sw is
// outside the subgraph.
func (s *subgraph) localOf(sw topology.SwitchID) int {
	lo, hi := 0, len(s.verts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.verts[m] < sw {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.verts) && s.verts[lo] == sw {
		return lo
	}
	return -1
}

// pairCost holds the terms of an edge's cost that depend only on the
// islands of its two endpoints (u in island iu, v in island iv). Each is
// a leading sub-product or a whole additive term of the cost expression,
// computed in the expression's own operation order, so pricing from the
// table is bit-identical to evaluating the expression in full.
type pairCost struct {
	capLimit float64 // LinkCapacityBps(min(fu, fv))*(1+1e-9): bandwidth a new link admits
	hopLat   float64 // zero-load cycles of the hop: switch, link, converter when crossing
	vsdDst   float64 // VoltageScaleDynamic(vv)
	vsdMax   float64 // VoltageScaleDynamic(max(vu, vv))
	idle     float64 // opening: port idle power at both ends
	swLeak   float64 // opening: port leakage at both ends
	linkLeak float64 // opening: wire leakage
	fifoLeak float64 // opening: converter leakage (0 unless crossing)
}

// IslandCosts is the per-island-pair table of edge-cost terms for a set
// of island clocks and supplies under one Options. It relies on the
// invariant that every switch runs at its island's entry in
// Topology.IslandFreqHz and IslandVoltage, which Topology.Validate
// checks. Once built it is read-only, so one table can be shared by
// every router of a sweep (Router.SetIslandCosts).
type IslandCosts struct {
	lib     *model.Library
	estLen  float64
	freqHz  []float64
	voltage []float64
	n       int // islands covered; pairs is n×n, indexed iu*n+iv
	pairs   []pairCost
}

// NewIslandCosts builds the table for islands with the given NoC clocks
// and supplies (indexed by island ID, intermediate island included)
// under opt.
func NewIslandCosts(lib *model.Library, freqHz, voltage []float64, opt Options) *IslandCosts {
	c := new(IslandCosts)
	c.build(lib, freqHz, voltage, opt)
	return c
}

// build (re)fills the table in place.
func (c *IslandCosts) build(lib *model.Library, freqHz, voltage []float64, opt Options) {
	n := len(freqHz)
	c.lib, c.estLen, c.n = lib, opt.estLen(), n
	c.freqHz = append(c.freqHz[:0], freqHz...)
	c.voltage = append(c.voltage[:0], voltage...)
	if cap(c.pairs) < n*n {
		c.pairs = make([]pairCost, n*n)
	}
	c.pairs = c.pairs[:n*n]
	for iu := 0; iu < n; iu++ {
		fu, vu := freqHz[iu], voltage[iu]
		for iv := 0; iv < n; iv++ {
			fv, vv := freqHz[iv], voltage[iv]
			vMax := math.Max(vu, vv)
			pc := pairCost{
				capLimit: lib.LinkCapacityBps(math.Min(fu, fv)) * (1 + 1e-9),
				hopLat:   model.SwitchTraversalCycles + model.LinkTraversalCycles,
				vsdDst:   lib.VoltageScaleDynamic(vv),
				vsdMax:   lib.VoltageScaleDynamic(vMax),
				idle:     lib.SwitchIdlePerPortHz * (fu + fv) * lib.VoltageScaleDynamic(vMax),
				swLeak:   lib.SwitchLeakPowerW(1, vu) + lib.SwitchLeakPowerW(1, vv),
				linkLeak: lib.LinkLeakPowerW(c.estLen, vMax),
			}
			if iu != iv {
				pc.hopLat += model.FIFOCrossingCycles
				pc.fifoLeak = lib.FIFOLeakPowerW(vu, vv)
			}
			c.pairs[iu*n+iv] = pc
		}
	}
}

// covers reports whether the table prices top under opt: same library
// and wire estimate, and bit-identical clocks and supplies for every
// island of top.
func (c *IslandCosts) covers(top *topology.Topology, opt Options) bool {
	n := top.NumIslands()
	if c.lib != top.Lib || math.Float64bits(c.estLen) != math.Float64bits(opt.estLen()) || c.n < n {
		return false
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(c.freqHz[i]) != math.Float64bits(top.IslandFreqHz[i]) ||
			math.Float64bits(c.voltage[i]) != math.Float64bits(top.IslandVoltage[i]) {
			return false
		}
	}
	return true
}

// scratchPool recycles Dijkstra scratch state across Routers: the
// synthesis sweep creates one Router per candidate design point, and
// pooling means each sweep worker re-uses one warm buffer set instead
// of re-allocating per candidate.
var scratchPool = sync.Pool{New: func() any { return new(graph.Scratch) }}

// New creates a router for the given topology. The topology must already
// contain all switches and core attachments; links and routes are added
// by the router.
func New(top *topology.Topology, opt Options) *Router {
	r := &Router{opt: opt}
	r.costFn = func(u, v int, _ float64) float64 { return r.edgeCost(u, v) }
	r.Reset(top)
	return r
}

// Reset re-targets the router at a new topology under the same options,
// recycling the subgraph cache, the per-island size bounds, the cost
// tables and the cost closure of the previous candidate. After Reset the
// router behaves exactly like New(top, opt) with the original opt (plus
// any pinned scratch and island-cost table): the synthesis arena's
// identity guarantee rests on that equivalence.
func (r *Router) Reset(top *topology.Topology) {
	r.top = top
	r.minLat = top.Spec.MinLatencyConstraint()
	if r.opt.MaxSwitchSize != nil {
		r.maxSz = r.opt.MaxSwitchSize
	} else {
		n := top.NumIslands()
		if cap(r.maxSz) < n {
			r.maxSz = make([]int, n)
		}
		r.maxSz = r.maxSz[:n]
		for i := range r.maxSz {
			r.maxSz[i] = top.Lib.MaxSwitchSize(top.IslandFreqHz[i])
		}
	}
	for i, s := range r.subs {
		if s != nil {
			r.free = append(r.free, s)
			r.subs[i] = nil
		}
	}
	n := len(top.Spec.Islands)
	if cap(r.subs) < n*n {
		r.subs = make([]*subgraph, n*n)
	}
	r.subs = r.subs[:n*n]
	r.islOff = r.islOff[:0]
	r.costs = nil
}

// SetScratch pins caller-owned Dijkstra scratch state to the router,
// bypassing the shared pool: RouteAll then neither borrows nor returns
// pooled state. Workers of the synthesis sweep own one scratch each and
// pin it so repeated candidates never touch the pool's lock.
func (r *Router) SetScratch(sc *graph.Scratch) { r.scratch = sc }

// SetIslandCosts pins a shared, read-only island-pair table to the
// router. It is used for every topology whose island clocks and
// supplies it covers; for any other the router builds its own, so a
// pinned table never changes a result, only what is allocated. The
// synthesis sweep builds one table per call and pins it on every
// worker's router.
func (r *Router) SetIslandCosts(c *IslandCosts) {
	r.shared = c
	r.costs = nil
}

// islandCosts resolves the pair table for the current topology.
func (r *Router) islandCosts() *IslandCosts {
	if r.costs != nil {
		return r.costs
	}
	if r.shared != nil && r.shared.covers(r.top, r.opt) {
		r.costs = r.shared
		return r.costs
	}
	if !r.own.covers(r.top, r.opt) {
		r.own.build(r.top.Lib, r.top.IslandFreqHz, r.top.IslandVoltage, r.opt)
	}
	r.costs = &r.own
	return r.costs
}

// subgraphFor returns (building and caching on first use) the
// admissible subgraph for flows from srcIsl to dstIsl. The switch set
// is fixed before routing starts, so a cached subgraph stays valid for
// the Router's lifetime; only edge costs change as links open.
func (r *Router) subgraphFor(srcIsl, dstIsl soc.IslandID) *subgraph {
	slot := int(srcIsl)*len(r.top.Spec.Islands) + int(dstIsl)
	if s := r.subs[slot]; s != nil {
		return s
	}
	if len(r.islOff) == 0 {
		r.bucketSwitches()
	}
	var s *subgraph
	if k := len(r.free); k > 0 {
		s = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		s = new(subgraph)
	}
	// Merge the ascending switch lists of the source, intermediate and
	// destination islands (the destination's only when it differs), so
	// verts comes out ascending. Ranks encode the island discipline:
	// 0 source, 1 intermediate, 2 destination, and all 0 when source ==
	// destination, where every admissible move is legal.
	rd, rm := int8(2), int8(1)
	ls := r.islandSwitches(srcIsl)
	var lm, ld []topology.SwitchID
	if dstIsl != srcIsl {
		ld = r.islandSwitches(dstIsl)
	} else {
		rd, rm = 0, 0
	}
	if mid := r.top.NoCIsland; mid != soc.NoIsland {
		lm = r.islandSwitches(mid)
	}
	// Recycled subgraphs serve other island pairs after a Reset, so a
	// buffer that must grow is sized for every switch and never grows
	// again for this topology size.
	if n := len(ls) + len(lm) + len(ld); cap(s.verts) < n || cap(s.rank) < n {
		s.verts = make([]topology.SwitchID, 0, len(r.top.Switches))
		s.rank = make([]int8, 0, len(r.top.Switches))
	}
	s.verts, s.rank = s.verts[:0], s.rank[:0]
	for len(ls)+len(lm)+len(ld) > 0 {
		switch {
		case len(ls) > 0 && (len(lm) == 0 || ls[0] < lm[0]) && (len(ld) == 0 || ls[0] < ld[0]):
			s.verts, s.rank = append(s.verts, ls[0]), append(s.rank, 0)
			ls = ls[1:]
		case len(lm) > 0 && (len(ld) == 0 || lm[0] < ld[0]):
			s.verts, s.rank = append(s.verts, lm[0]), append(s.rank, rm)
			lm = lm[1:]
		default:
			s.verts, s.rank = append(s.verts, ld[0]), append(s.rank, rd)
			ld = ld[1:]
		}
	}
	r.subs[slot] = s
	return s
}

// bucketSwitches lays out the per-island switch lists: a counting
// sort of the switch IDs by island into islBuf, with island i's list at
// islBuf[islOff[i]:islOff[i+1]]. Filling in switch ID order leaves
// every list ascending.
func (r *Router) bucketSwitches() {
	top := r.top
	n := top.NumIslands()
	r.islBuf = grow(r.islBuf, len(top.Switches))
	off := grow(r.islOff, n+2)
	clear(off)
	for i := range top.Switches {
		off[top.Switches[i].Island+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// off[isl+1] now holds island isl's start; filling advances it to
	// the island's end, which is island isl+1's start.
	for i := range top.Switches {
		isl := top.Switches[i].Island
		r.islBuf[off[isl+1]] = topology.SwitchID(i)
		off[isl+1]++
	}
	r.islOff = off[:n+1]
}

// islandSwitches returns island isl's switch IDs in ascending order.
func (r *Router) islandSwitches(isl soc.IslandID) []topology.SwitchID {
	return r.islBuf[r.islOff[isl]:r.islOff[isl+1]]
}

// MaxSwitchSizes exposes the per-island bound the router enforces.
func (r *Router) MaxSwitchSizes() []int { return r.maxSz }

// RouteAll routes every flow of the spec in decreasing bandwidth order,
// mutating the topology. On failure the topology is left partially
// routed and the error identifies the first flow that could not be
// placed; callers treat that as "design point invalid". The Dijkstra
// scratch state is borrowed from the pool for the duration of the call
// and returned when it completes, whatever the outcome.
func (r *Router) RouteAll() error {
	return r.RouteFlows(r.top.Spec.SortFlowsByBandwidth())
}

// RouteFlows routes the given flows in order. The slice must hold the
// spec's flows in decreasing-bandwidth order (SortFlowsByBandwidth);
// sweeps that evaluate many candidates of one spec sort once and pass
// the shared slice, skipping the per-candidate copy and sort.
func (r *Router) RouteFlows(flows []soc.Flow) error {
	if r.scratch == nil {
		r.scratch = scratchPool.Get().(*graph.Scratch)
		defer func() {
			scratchPool.Put(r.scratch)
			r.scratch = nil
		}()
	}
	for _, f := range flows {
		if err := r.Route(f); err != nil {
			return err
		}
	}
	if r.opt.Survivability > 0 {
		return r.routeBackups(r.opt.Survivability)
	}
	return nil
}

// Route finds and commits a path for one flow.
func (r *Router) Route(f soc.Flow) error {
	src := r.top.SwitchOf[f.Src]
	dst := r.top.SwitchOf[f.Dst]
	if src < 0 || dst < 0 {
		return fmt.Errorf("route: flow %d->%d has unattached endpoint", f.Src, f.Dst)
	}
	if src == dst {
		sw := r.top.TakeRouteSwitches(1)
		sw[0] = src
		return r.top.AddRoute(topology.Route{Flow: f, Switches: sw})
	}
	// First attempt: blended power+latency cost; fall back to a pure
	// latency objective when the cheap path misses the constraint.
	path := r.shortest(f, src, dst, false)
	if path != nil && !r.latencyOK(f, path) {
		path = nil
	}
	if path == nil {
		path = r.shortest(f, src, dst, true)
		if path != nil && !r.latencyOK(f, path) {
			path = nil
		}
	}
	if path == nil {
		return &noPathError{f}
	}
	return r.commit(f, path)
}

// noPathError reports a flow no feasible path exists for. The message
// is formatted only when read: a sweep discards most of these with the
// infeasible candidate they fail.
type noPathError struct{ f soc.Flow }

func (e *noPathError) Error() string {
	f := e.f
	lat := "unconstrained"
	if f.MaxLatencyCycles > 0 {
		//noclint:ignore bannedcall error-path message formatting, not a cache key
		lat = fmt.Sprintf("lat<=%.0f", f.MaxLatencyCycles)
	}
	//noclint:ignore bannedcall error-path message formatting, not a cache key
	return fmt.Sprintf("route: no feasible path for flow %d->%d (%.0f MB/s, %s)",
		f.Src, f.Dst, f.BandwidthBps/1e6, lat)
}

// routeBackups runs the survivability pass: for every committed
// multi-hop route, in commit order, find and commit k additional
// link-disjoint paths by iterative strip-and-reroute — each search
// excludes the directed links of the flow's primary route and of the
// backups committed so far, then reuses the ordinary blended-cost
// search over the same admissible island subgraph. Backups are held to
// island legality, capacity and disjointness but NOT to the flow's
// zero-load latency budget: a backup is a degraded-mode standby whose
// job is keeping the flow connected under a fault, and an
// island-crossing detour structurally pays at least one extra
// bi-synchronous FIFO crossing, which would make every tightly
// constrained crossing flow unprotectable. Single-switch routes have no
// link a fault could sever and are skipped. The pass runs strictly
// after all primaries, so primary routes — and with them every
// k=0-visible metric — are bit-identical to a run without
// survivability.
func (r *Router) routeBackups(k int) error {
	defer func() { r.exclude = r.exclude[:0] }()
	for ri := 0; ri < len(r.top.Routes); ri++ {
		for b := 0; b < k; b++ {
			rt := &r.top.Routes[ri]
			if len(rt.Links) == 0 {
				break // single-switch route: nothing to protect
			}
			r.exclude = append(r.exclude[:0], rt.Links...)
			for bi := range rt.Backups {
				r.exclude = append(r.exclude, rt.Backups[bi].Links...)
			}
			f := rt.Flow
			src := rt.Switches[0]
			dst := rt.Switches[len(rt.Switches)-1]
			path := r.shortest(f, src, dst, false)
			if path == nil {
				return fmt.Errorf("route: no disjoint backup %d/%d for flow %d->%d (survivability %d)",
					b+1, k, f.Src, f.Dst, k)
			}
			if err := r.commitBackup(ri, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitBackup opens any missing links along a backup path and records
// it cold on route ri: AddBackup accounts no traffic, so the primary
// metrics are untouched.
func (r *Router) commitBackup(ri int, path []topology.SwitchID) error {
	f := r.top.Routes[ri].Flow
	links := r.top.TakeRouteLinks(len(path) - 1)
	for i := 1; i < len(path); i++ {
		lid, err := r.top.EnsureLink(path[i-1], path[i])
		if err != nil {
			return fmt.Errorf("route: opening backup link for flow %d->%d: %w", f.Src, f.Dst, err)
		}
		links[i-1] = lid
	}
	sw := r.top.TakeRouteSwitches(len(path))
	copy(sw, path)
	return r.top.AddBackup(ri, topology.Path{Switches: sw, Links: links})
}

// edgeCost prices candidate edge u->v, given by local vertex indices of
// the current query's subgraph. It returns +Inf when the edge is
// unusable (capacity or switch size). q.latOnly selects the
// pure-latency fallback objective.
//
// The blended objective is the marginal power of carrying the flow over
// the hop — the downstream switch, the wire, the converter when the
// edge crosses islands, and for an absent link the one-time cost of
// opening it (port idle power at both ends, port and wire leakage,
// converter leakage when crossing) — scaled by the congestion pressure,
// plus a latency term: tighter-constrained flows pay more per cycle,
// steering them onto shorter paths. The terms are added in a fixed
// order from the query's per-flow prefixes and per-vertex snapshot and
// the pair table, each computed in the order of the full expression, so
// the sum is bit-identical to evaluating it term by term.
func (r *Router) edgeCost(u, v int) float64 {
	q := &r.q
	su, sv := q.sub.verts[u], q.sub.verts[v]
	pc := &r.costs.pairs[q.row[u]+q.col[v]]

	lid, exists := q.links.Find(su, sv)
	var pressure float64
	if exists {
		for _, ex := range r.exclude {
			if ex == lid {
				return graph.Inf // disjoint-path search: link already used by this flow
			}
		}
		l := &r.top.Links[lid]
		if l.TrafficBps+q.bw > l.CapacityBps*(1+1e-9) {
			return graph.Inf
		}
		if r.opt.BalanceLoad && l.CapacityBps > 0 {
			u := (l.TrafficBps + q.bw) / l.CapacityBps
			pressure = u * u // quadratic: near-full links repel strongly
		}
	} else if r.opt.NoNewLinks || !q.canOut[u] || !q.canIn[v] || q.bw > pc.capLimit {
		// Opening u->v adds an output port at u and an input port at v,
		// and the new link must carry the flow at the slower clock.
		return graph.Inf
	}

	if q.latOnly {
		return pc.hopLat
	}

	crossing := q.col[u] != q.col[v]
	power := q.swDyn[v]
	power += q.linkDyn * pc.vsdMax
	if crossing {
		power += q.fifoDyn * pc.vsdMax
	}
	if !exists {
		power += pc.idle
		power += pc.swLeak
		power += pc.linkLeak
		if crossing {
			power += pc.fifoLeak
		}
	}
	return power*(1+pressure) + q.latTerm*pc.hopLat
}

// begin snapshots the query state for flow f over sub: the flow's cost
// prefixes and, per subgraph vertex, its pair-table coordinates, its
// downstream switch power and whether it may gain a port.
func (r *Router) begin(f soc.Flow, sub *subgraph, latOnly bool) {
	top, lib, costs := r.top, r.top.Lib, r.islandCosts()
	q := &r.q
	q.sub, q.links, q.latOnly, q.bw = sub, top.LinkIndex(), latOnly, f.BandwidthBps
	bw8 := f.BandwidthBps * 8
	q.linkDyn = bw8 * lib.LinkEnergyPerBitMM * costs.estLen
	q.fifoDyn = bw8 * lib.FIFOEnergyPerBit
	tightness := 0.0
	if f.MaxLatencyCycles > 0 && r.minLat > 0 {
		tightness = r.minLat / f.MaxLatencyCycles
	}
	q.latTerm = r.opt.latW() * tightness

	n := len(sub.verts)
	q.row, q.col = grow(q.row, n), grow(q.col, n)
	q.swDyn = grow(q.swDyn, n)
	q.canOut, q.canIn = grow(q.canOut, n), grow(q.canIn, n)
	for i, sw := range sub.verts {
		isl := top.Switches[sw].Island
		in, out := top.SwitchPorts(sw)
		size := max(in, out)
		q.row[i], q.col[i] = int32(int(isl)*costs.n), int32(isl)
		eBit := lib.SwitchEnergyBase + lib.SwitchEnergyPerPort*float64(size)
		q.swDyn[i] = bw8 * eBit * costs.pairs[int(isl)*costs.n+int(isl)].vsdDst
		q.canOut[i] = max(in, out+1) <= r.maxSz[isl]
		q.canIn[i] = max(in+1, out) <= r.maxSz[isl]
	}
}

// grow returns s resized to n, reusing its storage when large enough.
// The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// shortest runs Dijkstra over the flow's admissible subgraph. It
// returns the switch path or nil when disconnected.
func (r *Router) shortest(f soc.Flow, src, dst topology.SwitchID, latOnly bool) []topology.SwitchID {
	sub := r.subgraphFor(r.top.Spec.IslandOf[f.Src], r.top.Spec.IslandOf[f.Dst])
	ls, ld := sub.localOf(src), sub.localOf(dst)
	if ls < 0 || ld < 0 {
		return nil // endpoint switch outside the admissible islands
	}
	if r.scratch == nil {
		r.scratch = scratchPool.Get().(*graph.Scratch)
	}
	r.begin(f, sub, latOnly)
	path, c := r.scratch.ShortestPathDense(len(sub.verts), sub.rank, ls, ld, r.costFn)
	if math.IsInf(c, 1) {
		return nil
	}
	out := r.pathBuf[:0]
	for _, p := range path {
		out = append(out, sub.verts[p])
	}
	r.pathBuf = out
	return out
}

// MinZeroLoadLatencyCycles returns the smallest zero-load latency any
// route can achieve under the timing model: NI injection and ejection
// links plus one switch traversal, plus one hop when source and
// destination cannot share a switch (they sit on different switches or
// in different islands), plus one FIFO crossing when they sit in
// different islands (a detour through the intermediate island only adds
// hops and crossings). It is the admissible per-flow latency bound the
// branch-and-bound layer (internal/core/bounds.go) sums, and the floor
// below which a flow's MaxLatencyCycles is provably unsatisfiable.
func MinZeroLoadLatencyCycles(crossesSwitches, crossesIslands bool) float64 {
	lat := 2*model.LinkTraversalCycles + model.SwitchTraversalCycles
	if crossesSwitches || crossesIslands {
		lat += model.SwitchTraversalCycles + model.LinkTraversalCycles
	}
	if crossesIslands {
		lat += model.FIFOCrossingCycles
	}
	return lat
}

// latencyOK checks the flow's zero-load latency constraint on a path.
func (r *Router) latencyOK(f soc.Flow, path []topology.SwitchID) bool {
	if f.MaxLatencyCycles <= 0 {
		return true
	}
	lat := 2 * model.LinkTraversalCycles // NI injection + ejection links
	lat += model.SwitchTraversalCycles * float64(len(path))
	for i := 1; i < len(path); i++ {
		lat += model.LinkTraversalCycles
		if r.top.Switches[path[i-1]].Island != r.top.Switches[path[i]].Island {
			lat += model.FIFOCrossingCycles
		}
	}
	return lat <= f.MaxLatencyCycles
}

// commit opens any missing links along the path and records the route.
// The path (typically the router's reusable pathBuf) is copied into
// topology-owned storage, so the route survives the next query.
func (r *Router) commit(f soc.Flow, path []topology.SwitchID) error {
	links := r.top.TakeRouteLinks(len(path) - 1)
	for i := 1; i < len(path); i++ {
		lid, err := r.top.EnsureLink(path[i-1], path[i])
		if err != nil {
			return fmt.Errorf("route: opening link for flow %d->%d: %w", f.Src, f.Dst, err)
		}
		links[i-1] = lid
	}
	sw := r.top.TakeRouteSwitches(len(path))
	copy(sw, path)
	return r.top.AddRoute(topology.Route{Flow: f, Switches: sw, Links: links})
}

package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/graph"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
	"nocvi/internal/vcg"
)

// The traced run's replay: one engine op rebuilt serially through each
// layer's public calls, with a span around every call. It mirrors the
// engine's unpruned pipeline (candidate enumeration, per-island min-cut,
// build, route, deadlock check, floorplan, validate, power) closely
// enough that fidelityDiff can demand a bit-identical result from it;
// the workloads use neither Survivability nor AutoVoltage, so the
// replay omits both.

// replayStats counts layer calls over the replayed ops.
type replayStats struct {
	routeCalls, routeFails, flows, partCalls int
}

// replayOut is what one replayed op computed: the candidates it tried
// and a summary of every feasible one, in enumeration order.
type replayOut struct {
	explored int
	points   []core.SweepPoint
}

// builder holds what one replayed op reuses across candidates, as the
// engine's per-worker arena does: the topology, the router with its
// pinned scratch, and the floorplan scratch.
type builder struct {
	tr     *tracer
	parent int32
	job    *engineJob
	st     *replayStats

	freqs       []float64
	midFreq     float64
	islandCores [][]soc.CoreID
	flows       []soc.Flow

	top     *topology.Topology
	router  *route.Router
	scratch graph.Scratch
	fp      floorplan.Scratch
}

// replay rebuilds one op of job under the span parent.
func replay(tr *tracer, parent int32, job *engineJob, st *replayStats) (*replayOut, error) {
	spec, lib, opt := job.spec, job.lib, job.opt
	freqs, maxSizes, err := core.IslandClocks(spec, lib)
	if err != nil {
		return nil, err
	}
	nIsl := len(spec.Islands)
	b := &builder{tr: tr, parent: parent, job: job, st: st, freqs: freqs,
		islandCores: make([][]soc.CoreID, nIsl), flows: spec.SortFlowsByBandwidth()}
	lo := make([]int, nIsl)
	maxCores := 0
	for j := range lo {
		b.islandCores[j] = spec.CoresIn(soc.IslandID(j))
		n := len(b.islandCores[j])
		usable := maxSizes[j] - 1
		if usable < 1 {
			return nil, fmt.Errorf("island %d: no usable switch size", j)
		}
		lo[j] = max(1, (n+usable-1)/usable)
		maxCores = max(maxCores, n)
	}
	maxMid := opt.MaxIntermediateSwitches
	if maxMid <= 0 {
		maxMid = maxCores
	}
	if !opt.AllowIntermediate {
		maxMid = 0
	}
	b.midFreq = lib.FreqGridHz
	for _, f := range freqs {
		b.midFreq = max(b.midFreq, f)
	}

	s := tr.begin("vcg", parent)
	alpha := opt.Alpha
	if alpha == 0 {
		alpha = vcg.DefaultAlpha
	}
	vcgs, err := vcg.BuildAll(spec, alpha)
	caches := make([]*partition.Cache, len(vcgs))
	for j, v := range vcgs {
		pOpt := opt.Partition
		if c := maxSizes[j] - 1; pOpt.MaxPartSize == 0 || c < pOpt.MaxPartSize {
			pOpt.MaxPartSize = c
		}
		caches[j] = partition.NewCache(v.Undirected(), nil, pOpt)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	cut := func(j, k int) ([]int, error) {
		s := tr.begin("partition", parent)
		defer tr.end(s)
		st.partCalls++
		return caches[j].Partition(k)
	}

	out := &replayOut{}
	if job.sweep == nil {
		// The diagonal walk: every island's count raised in lockstep from
		// its minimum, clamped at one switch per core, duplicates
		// skipped; mid ascending within each vector.
		seen := map[string]bool{}
		idx := uint64(0)
		for i := 0; i <= maxCores; i++ {
			counts := make([]int, nIsl)
			saturated := true
			for j := range counts {
				k := lo[j] + i
				if k >= len(b.islandCores[j]) {
					k = len(b.islandCores[j])
				} else {
					saturated = false
				}
				counts[j] = k
			}
			if key := fmt.Sprint(counts); !seen[key] {
				seen[key] = true
				parts := make([][]int, nIsl)
				var perr error
				for j, k := range counts {
					if parts[j], perr = cut(j, k); perr != nil {
						break
					}
				}
				for m := 0; m <= maxMid; m++ {
					b.candidate(out, idx, counts, parts, perr, m)
					idx++
				}
			}
			if saturated {
				break
			}
		}
		return out, nil
	}

	// The full-factorial sweep: per-island ranges of at most
	// WidthPerIsland counts, every (island, count) cut resolved up
	// front, candidates decoded from their index with mid fastest.
	width := make([]int, nIsl)
	size := uint64(maxMid + 1)
	for j := range width {
		hi := max(len(b.islandCores[j]), lo[j])
		if w := job.sweep.WidthPerIsland; w > 0 && lo[j]+w-1 < hi {
			hi = lo[j] + w - 1
		}
		width[j] = hi - lo[j] + 1
		size *= uint64(width[j])
	}
	limit := size
	if l := job.sweep.Limit; l > 0 && l < limit {
		limit = l
	}
	type cutEntry struct {
		part []int
		err  error
	}
	table := make([][]cutEntry, nIsl)
	for j := range table {
		table[j] = make([]cutEntry, width[j])
		for w := range table[j] {
			part, err := cut(j, lo[j]+w)
			table[j][w] = cutEntry{part, err}
		}
	}
	counts := make([]int, nIsl)
	parts := make([][]int, nIsl)
	for idx := uint64(0); idx < limit; idx++ {
		rest := idx / uint64(maxMid+1)
		mid := int(idx % uint64(maxMid+1))
		var perr error
		for j := nIsl - 1; j >= 0; j-- {
			w := int(rest % uint64(width[j]))
			rest /= uint64(width[j])
			counts[j] = lo[j] + w
			parts[j] = table[j][w].part
			if table[j][w].err != nil {
				perr = table[j][w].err
			}
		}
		b.candidate(out, idx, counts, parts, perr, mid)
	}
	return out, nil
}

// candidate accounts one enumerated candidate and builds it unless its
// partitioning failed.
func (b *builder) candidate(out *replayOut, idx uint64, counts []int, parts [][]int, perr error, mid int) {
	out.explored++
	if perr != nil {
		return
	}
	if p, ok := b.build(counts, parts, mid); ok {
		p.Index = idx
		out.points = append(out.points, p)
	}
}

// build constructs, routes, floorplans and costs one candidate, one span
// per layer call. ok is false when a layer rejects the candidate.
func (b *builder) build(counts []int, parts [][]int, mid int) (p core.SweepPoint, ok bool) {
	tr, opt := b.tr, b.job.opt
	c := tr.begin("candidate", b.parent)
	defer tr.end(c)

	s := tr.begin("topology.build", c)
	top, err := b.assemble(counts, parts, mid)
	tr.end(s)
	if err != nil {
		return p, false
	}

	s = tr.begin("route", c)
	if b.router == nil {
		b.router = route.New(top, opt.Router)
		b.router.SetScratch(&b.scratch)
	} else {
		b.router.Reset(top)
	}
	err = b.router.RouteFlows(b.flows)
	tr.end(s)
	b.st.routeCalls++
	b.st.flows += len(top.Routes)
	if err != nil {
		b.st.routeFails++
		b.st.flows++ // the flow that could not be routed
		return p, false
	}

	s = tr.begin("deadlock", c)
	err = deadlock.Check(top)
	tr.end(s)
	if err != nil {
		return p, false
	}

	s = tr.begin("floorplan", c)
	pl, err := floorplan.PlaceWith(top, opt.Floorplan, &b.fp)
	tr.end(s)
	if err != nil {
		return p, false
	}

	s = tr.begin("topology.validate", c)
	err = top.Validate()
	tr.end(s)
	if err != nil {
		return p, false
	}

	s = tr.begin("power", c)
	p.PowerW = power.NoC(top).DynW()
	p.AreaMM2 = power.NoCAreaMM2(top)
	tr.end(s)
	p.LatencyCycles = top.MeanZeroLoadLatency()

	s = tr.begin("floorplan", c)
	p.WireViolations = len(floorplan.WireDelayViolations(top, pl))
	tr.end(s)

	p.SwitchCounts = slices.Clone(counts)
	p.MidSwitches = mid
	return p, true
}

// assemble builds the unrouted candidate topology: island clocks, one
// direct switch per partition, cores attached, and the intermediate
// island's indirect switches.
func (b *builder) assemble(counts []int, parts [][]int, mid int) (*topology.Topology, error) {
	if b.top == nil {
		b.top = topology.New(b.job.spec, b.job.lib)
	} else {
		b.top.Reset()
	}
	top := b.top
	for j, f := range b.freqs {
		top.SetIslandFreq(soc.IslandID(j), f)
	}
	for j, k := range counts {
		for p := 0; p < k; p++ {
			top.AddSwitch(soc.IslandID(j), false)
		}
	}
	base := 0
	for j, k := range counts {
		for i, c := range b.islandCores[j] {
			if err := top.AttachCore(c, topology.SwitchID(base+parts[j][i])); err != nil {
				return nil, err
			}
		}
		base += k
	}
	if mid > 0 {
		midV := b.job.opt.IntermediateVoltage
		if midV <= 0 {
			midV = 1.0
		}
		ni := top.AddNoCIsland(b.midFreq, midV)
		for p := 0; p < mid; p++ {
			top.AddSwitch(ni, true)
		}
	}
	return top, nil
}

// fidelityDiff returns nil when the replayed op reproduces the engine's
// unpruned result bit for bit: every feasible point (core.Synthesize),
// or the explored and feasible counts, the Pareto front and both argmins
// (core.SynthesizeSweep).
func fidelityDiff(out *replayOut, ref any) error {
	switch r := ref.(type) {
	case *core.Result:
		if out.explored != r.Explored || len(out.points) != r.Feasible {
			return fmt.Errorf("replay explored/feasible %d/%d, engine %d/%d", out.explored, len(out.points), r.Explored, r.Feasible)
		}
		for i := range r.Points {
			d := &r.Points[i]
			want := core.SweepPoint{Index: out.points[i].Index, SwitchCounts: d.SwitchCounts, MidSwitches: d.MidSwitches,
				PowerW: d.NoCPower.DynW(), LatencyCycles: d.MeanLatencyCycles, AreaMM2: d.NoCAreaMM2, WireViolations: d.WireViolations}
			if !samePoint(&out.points[i], &want) {
				return fmt.Errorf("point %d: replay %+v, engine %+v", i, out.points[i], want)
			}
		}
	case *core.SweepResult:
		if uint64(out.explored) != r.Explored || uint64(len(out.points)) != r.Feasible {
			return fmt.Errorf("replay explored/feasible %d/%d, engine %d/%d", out.explored, len(out.points), r.Explored, r.Feasible)
		}
		front := paretoFront(out.points)
		if len(front) != len(r.Front) {
			return fmt.Errorf("replay front has %d points, engine %d", len(front), len(r.Front))
		}
		for i := range front {
			if !samePoint(&front[i], &r.Front[i]) {
				return fmt.Errorf("front point %d: replay %+v, engine %+v", i, front[i], r.Front[i])
			}
		}
		for _, w := range []struct {
			name   string
			metric func(*core.SweepPoint) float64
			engine *core.SweepPoint
		}{
			{"best power", func(p *core.SweepPoint) float64 { return p.PowerW }, r.BestPowerPoint},
			{"best latency", func(p *core.SweepPoint) float64 { return p.LatencyCycles }, r.BestLatencyPoint},
		} {
			got := argmin(out.points, w.metric)
			if (got == nil) != (w.engine == nil) || got != nil && !samePoint(got, w.engine) {
				return fmt.Errorf("%s: replay %+v, engine %+v", w.name, got, w.engine)
			}
		}
	default:
		return fmt.Errorf("unknown engine result %T", ref)
	}
	return nil
}

// samePoint compares two summaries exactly, float bit patterns included.
func samePoint(a, b *core.SweepPoint) bool {
	bits := math.Float64bits
	return a.Index == b.Index && slices.Equal(a.SwitchCounts, b.SwitchCounts) && a.MidSwitches == b.MidSwitches &&
		bits(a.PowerW) == bits(b.PowerW) && bits(a.LatencyCycles) == bits(b.LatencyCycles) &&
		bits(a.AreaMM2) == bits(b.AreaMM2) && a.WireViolations == b.WireViolations
}

// better is the sweep's total order for its argmins: fewest wire
// violations, lowest metric, fewest direct switches, fewest intermediate
// switches, lowest index.
func better(a, b *core.SweepPoint, metric func(*core.SweepPoint) float64) bool {
	if a.WireViolations != b.WireViolations {
		return a.WireViolations < b.WireViolations
	}
	if av, bv := metric(a), metric(b); av != bv {
		return av < bv
	}
	sum := func(c []int) (n int) {
		for _, k := range c {
			n += k
		}
		return n
	}
	if as, bs := sum(a.SwitchCounts), sum(b.SwitchCounts); as != bs {
		return as < bs
	}
	if a.MidSwitches != b.MidSwitches {
		return a.MidSwitches < b.MidSwitches
	}
	return a.Index < b.Index
}

func argmin(pts []core.SweepPoint, metric func(*core.SweepPoint) float64) *core.SweepPoint {
	var best *core.SweepPoint
	for i := range pts {
		if best == nil || better(&pts[i], best, metric) {
			best = &pts[i]
		}
	}
	return best
}

// paretoFront is the exact (power, latency) front, ascending by power,
// equal pairs collapsed to the lowest index.
func paretoFront(pts []core.SweepPoint) []core.SweepPoint {
	s := slices.Clone(pts)
	sort.Slice(s, func(i, j int) bool {
		a, b := &s[i], &s[j]
		if a.PowerW != b.PowerW {
			return a.PowerW < b.PowerW
		}
		if a.LatencyCycles != b.LatencyCycles {
			return a.LatencyCycles < b.LatencyCycles
		}
		return a.Index < b.Index
	})
	var front []core.SweepPoint
	bestLat := math.Inf(1)
	for _, p := range s {
		if p.LatencyCycles < bestLat {
			front = append(front, p)
			bestLat = p.LatencyCycles
		}
	}
	return front
}

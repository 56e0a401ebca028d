package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/vcg"
)

// The sweep engine behind both Synthesize and SynthesizeSweep. One
// setup (newSweepEnv), one index space with two decode geometries
// (diagonal, factorial), one per-(island, k) partition table, one
// block-claiming driver (run) with one panic boundary (safeEval), and
// two sinks: Synthesize's ordered keep-all fold and SynthesizeSweep's
// bounded per-worker collectors.

// newSweepEnv is the setup both sweeps share: input validation (spec,
// library and options), survivability normalization, step 1 (island
// clocks and max switch sizes), step 2 (minimum switch counts), the
// intermediate-switch range, the partition table over the island VCGs,
// the bounds environment (unless Options.NoPrune) and the sorted flow
// list.
func newSweepEnv(spec *soc.Spec, lib *model.Library, opt Options) (*sweepEnv, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := lib.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	// The core survivability knob is canonical: a caller-set
	// Router.Survivability is overwritten, and every worker's router
	// reads the normalized copy through the env.
	opt.Survivability = max(opt.Survivability, 0)
	opt.Router.Survivability = opt.Survivability
	freqs, maxSizes, err := IslandClocks(spec, lib)
	if err != nil {
		return nil, err
	}
	nIsl := len(spec.Islands)
	env := &sweepEnv{
		spec:        spec,
		lib:         lib,
		opt:         opt,
		freqs:       freqs,
		maxSizes:    maxSizes,
		minSwitches: make([]int, nIsl),
		midFreq:     lib.FreqGridHz,
		islandCores: make([][]soc.CoreID, nIsl),
	}
	maxCores := 0
	for j := range nIsl {
		env.islandCores[j] = spec.CoresIn(soc.IslandID(j))
		n := len(env.islandCores[j])
		// A direct switch must keep one port free for inter-switch links.
		usable := maxSizes[j] - 1
		if usable < 1 {
			return nil, fmt.Errorf("core: island %d needs %.0f MHz, too fast for any usable switch: %w",
				j, freqs[j]/1e6, ErrInfeasible)
		}
		env.minSwitches[j] = max((n+usable-1)/usable, 1)
		maxCores = max(maxCores, n)
		env.midFreq = max(env.midFreq, freqs[j])
	}
	if opt.AllowIntermediate {
		env.maxMid = opt.MaxIntermediateSwitches
		if env.maxMid <= 0 {
			env.maxMid = maxCores
		}
	}
	// The NoC supplies every candidate's islands run at: the spec's, or
	// under AutoVoltage the lowest that meets each island's clock.
	env.volts = make([]float64, nIsl)
	for j, isl := range spec.Islands {
		env.volts[j] = isl.VoltageV
		if opt.AutoVoltage {
			env.volts[j] = lib.VoltageForFreq(freqs[j])
		}
	}
	env.midV = opt.midVoltage()
	if opt.AutoVoltage {
		env.midV = lib.VoltageForFreq(env.midFreq)
	}
	domFreqs, domVolts := freqs, env.volts
	if env.maxMid > 0 {
		domFreqs = append(slices.Clip(freqs), env.midFreq)
		domVolts = append(slices.Clip(env.volts), env.midV)
	}
	env.costs = route.NewIslandCosts(lib, domFreqs, domVolts, opt.Router)
	vcgs, err := vcg.BuildAll(spec, opt.alpha())
	if err != nil {
		return nil, err
	}
	if !opt.NoPrune {
		env.bounds = newBoundsEnv(spec, lib, opt, freqs, env.islandCores)
	}
	env.table = newPartTable(vcgs, env)
	env.flows = spec.SortFlowsByBandwidth()
	return env, nil
}

// space is an enumeration geometry: a dense candidate index space,
// intermediate-switch count varying fastest, decoded on the fly.
type space interface {
	size() uint64
	// decode writes candidate idx's switch counts into counts (len =
	// islands) and returns its intermediate-switch count.
	decode(idx uint64, counts []int) (mid int)
}

// diagonal is Synthesize's walk (Algorithm 1): step i raises every
// island's switch count in lockstep from its minimum, each clamped at
// one switch per core. Two steps before the all-saturated one never
// share a vector, so the walk ends there and needs no deduplication.
type diagonal struct {
	min, cores    []int
	steps, midDim int
}

func (env *sweepEnv) diagonal() *diagonal {
	d := &diagonal{min: env.minSwitches, cores: make([]int, len(env.islandCores)), steps: 1, midDim: env.maxMid + 1}
	for j, cs := range env.islandCores {
		d.cores[j] = len(cs)
		d.steps = max(d.steps, d.cores[j]-d.min[j]+1)
	}
	return d
}

func (d *diagonal) size() uint64 { return uint64(d.steps) * uint64(d.midDim) }

func (d *diagonal) decode(idx uint64, counts []int) int {
	i := int(idx / uint64(d.midDim))
	for j := range counts {
		counts[j] = min(d.min[j]+i, d.cores[j])
	}
	return int(idx % uint64(d.midDim))
}

// factorial is SynthesizeSweep's cross product of per-island ranges
// [min_j, min_j+width_j): mixed radix, mid fastest, then the last
// island's count, and so on.
type factorial struct {
	min, width []int
	midDim     int
}

// factorial spans each island from its minimum up to one switch per
// core, capped at widthCap values when widthCap > 0.
func (env *sweepEnv) factorial(widthCap int) *factorial {
	f := &factorial{min: env.minSwitches, width: make([]int, len(env.islandCores)), midDim: env.maxMid + 1}
	for j, cs := range env.islandCores {
		hi := max(len(cs), f.min[j])
		if widthCap > 0 {
			hi = min(hi, f.min[j]+widthCap-1)
		}
		f.width[j] = hi - f.min[j] + 1
	}
	return f
}

// size returns the cross-product size, saturating at MaxUint64.
func (f *factorial) size() uint64 {
	total := uint64(f.midDim)
	for _, w := range f.width {
		if total > math.MaxUint64/uint64(w) {
			return math.MaxUint64
		}
		total *= uint64(w)
	}
	return total
}

func (f *factorial) decode(idx uint64, counts []int) (mid int) {
	mid = int(idx % uint64(f.midDim))
	idx /= uint64(f.midDim)
	for j := len(f.width) - 1; j >= 0; j-- {
		w := uint64(f.width[j])
		counts[j] = f.min[j] + int(idx%w)
		idx /= w
	}
	return mid
}

// partTable memoizes step 11 per (island, switch count): entries[j][k]
// is island j's VCG min-cut into k switches, with its bound
// contributions. An entry resolves first-touch, on whichever worker
// first decodes a candidate using it, through that worker's partition
// scratch under the entry's once latch; later readers take no lock. It
// spans every count either geometry decodes — a few hundred entries
// even for million-point spaces.
type partTable struct {
	caches  []*partition.Cache
	bounds  *boundsEnv // nil: pruning off, entries carry no annotations
	entries [][]partEntry
}

type partEntry struct {
	once sync.Once
	part []int
	err  error

	// Branch-and-bound annotations, filled only when pruning is on:
	// islandPiece's power/latency contributions for this cut, and
	// infeas when the cut is proven unable to validate — by the stage-0
	// port arithmetic (then no min-cut runs and part stays nil) or by a
	// cross-switch flow no link can serve.
	piece  float64
	cross  int
	infeas bool
}

// newPartTable builds one partition cache per island VCG, with the
// engine selection and the MaxPartSize clamp to the island's max switch
// size; the undirected VCG views are materialized once, up front.
func newPartTable(vcgs []*vcg.VCG, env *sweepEnv) *partTable {
	opt := env.opt
	var engine partition.Engine // nil: the cache's scratch-pooled built-in KWay
	if opt.SpectralPartition {
		engine = partition.SpectralKWay
	}
	t := &partTable{caches: make([]*partition.Cache, len(vcgs)), bounds: env.bounds, entries: make([][]partEntry, len(vcgs))}
	for j, v := range vcgs {
		pOpt := opt.Partition
		if limit := env.maxSizes[j] - 1; pOpt.MaxPartSize == 0 || limit < pOpt.MaxPartSize {
			pOpt.MaxPartSize = limit
		}
		t.caches[j] = partition.NewCache(v.Undirected(), engine, pOpt)
		if opt.PartitionBacking != nil {
			// The backing receives the clamped options the cache runs with,
			// so its keys cover exactly the identity that determines the cut.
			if b := opt.PartitionBacking(j, pOpt); b != nil {
				t.caches[j].SetBacking(b)
			}
		}
		t.entries[j] = make([]partEntry, max(len(env.islandCores[j]), env.minSwitches[j])+1)
	}
	return t
}

// entry returns island j's cut into k switches, resolving it on first
// touch through sc (nil falls back to the cache's serialized scratch).
// Both partition engines are deterministic functions of (graph, k,
// options), so which caller wins the latch is immaterial, and once.Do's
// happens-before edge publishes the entry to every later reader.
func (t *partTable) entry(j, k int, sc *partition.Scratch) *partEntry {
	e := &t.entries[j][k]
	e.once.Do(func() {
		if t.bounds != nil && t.bounds.islandInfeasible(j, k) {
			e.infeas = true
			return
		}
		e.part, e.err = t.caches[j].PartitionScratch(k, sc)
		if t.bounds != nil && e.err == nil {
			e.piece, e.cross, e.infeas = t.bounds.islandPiece(j, k, e.part)
		}
	})
	return e
}

// lookup gathers the partitions of candidate counts into parts and runs
// the pre-evaluation checks, cheapest first: the spec- and port-level
// infeasibility proofs before any min-cut, then the cuts in island
// order (cut is false when one does not fit: parts is then unusable and
// the candidate infeasible), then the per-cut verdicts and the
// candidate's lower bounds.
func (t *partTable) lookup(counts []int, parts [][]int, sc *partition.Scratch) (out evalOutcome, cut bool) {
	be := t.bounds
	if be != nil {
		for j, k := range counts {
			if be.specInfeasible || be.islandInfeasible(j, k) {
				out.pruned = pruneBound // provably infeasible, partitioning skipped
				return out, false
			}
		}
	}
	for j, k := range counts {
		e := t.entry(j, k, sc)
		if e.err != nil {
			return out, false
		}
		parts[j] = e.part
	}
	if be != nil {
		var sw float64
		cross := 0
		for j, k := range counts {
			e := &t.entries[j][k]
			if e.infeas {
				out.pruned = pruneBound
				return out, false
			}
			sw += e.piece
			cross += e.cross
		}
		out.powerLB, out.latLB = be.combine(sw, cross)
	}
	return out, true
}

// evalOutcome is one candidate's disposition: a valid design point, a
// recovered panic, a prune verdict, or none of those (infeasible), plus
// the candidate's lower bounds when the bounds layer computed them.
type evalOutcome struct {
	dp     *DesignPoint
	err    *CandidateError
	pruned uint8 // pruneNone, pruneBound or pruneStage

	powerLB, latLB float64
}

// evaluate disposes of candidate idx on one worker: the table lookup,
// the incumbent bound, the build behind the panic boundary, and the
// publication of a completed violation-free point as an incumbent.
// Under the ordered fold only strictly earlier candidates may witness a
// prune, so a worker-side prune always implies the fold's own verdict
// (prunedBy); the bounded collectors accept any witness, being
// winner-invariant under strictly-dominated removals.
func (env *sweepEnv) evaluate(bc *buildContext, idx uint64, counts []int, parts [][]int, mid int) evalOutcome {
	out, cut := env.table.lookup(counts, parts, &bc.part)
	if out.pruned != pruneNone {
		return out
	}
	witness := uint64(math.MaxUint64)
	if env.ordered {
		witness = idx
	}
	if !cut {
		parts = nil
	} else if env.pruner != nil && env.pruner.dominates(witness, out.powerLB, out.latLB) {
		out.pruned = pruneBound
		return out
	}
	bc.pruneIdx = witness
	out.dp, out.err, out.pruned = safeEval(bc, counts, parts, mid)
	if env.pruner != nil && out.dp != nil && out.dp.WireViolations == 0 {
		env.pruner.publish(idx, out.dp.NoCPower.DynW(), out.dp.MeanLatencyCycles)
	}
	return out
}

// testHookEvalStart, when non-nil, runs at the top of every candidate
// evaluation — inside the panic boundary, on the evaluating goroutine,
// for exactly the candidates PruneStats counts as Evaluated. Tests use
// it to inject panics into chosen candidates and to cancel contexts
// after a deterministic number of evaluations. Always nil in
// production; set it only in tests that run sweeps sequentially.
var testHookEvalStart func(counts []int, mid int)

// safeEval builds one candidate behind the engine's panic boundary; nil
// parts marks a candidate no k-way cut fits (attempted, infeasible). A
// panic is converted into a CandidateError carrying the candidate's
// parameters and a normalized stack, and the worker's arena is dropped
// — a panic can leave the pooled topology, router or floorplan scratch
// half mutated, so the next candidate starts from fresh allocations.
func safeEval(bc *buildContext, counts []int, parts [][]int, mid int) (dp *DesignPoint, ce *CandidateError, pruned uint8) {
	defer func() {
		if r := recover(); r != nil {
			dp, pruned = nil, pruneNone
			ce = &CandidateError{
				SwitchCounts: append([]int(nil), counts...),
				MidSwitches:  mid,
				//noclint:ignore bannedcall stringifying a recovered panic value, off the hot path
				Panic: fmt.Sprint(r),
				Stack: normalizeStack(debug.Stack()),
			}
			*bc = buildContext{env: bc.env}
		}
	}()
	if testHookEvalStart != nil {
		testHookEvalStart(counts, mid)
	}
	if parts == nil {
		return nil, nil, pruneNone
	}
	dp, err := buildPoint(bc, counts, parts, mid)
	if errors.Is(err, errStagePruned) {
		return nil, nil, pruneStage
	}
	return dp, nil, pruneNone
}

// normalizeStack reduces a debug.Stack dump to the frames between the
// panic site and the evaluation boundary. The goroutine header,
// argument values, code offsets and runtime frames are stripped, and
// the walk stops at safeEval itself — the driver frames below it depend
// on the worker that ran the candidate. The same panic therefore yields
// a byte-identical stack on any worker count, which is what lets
// candidate errors compare equal across sweep configurations.
func normalizeStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	var b strings.Builder
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if line == "" || strings.HasPrefix(line, "goroutine ") || strings.HasPrefix(line, "\t") {
			continue // header, or a location line of a skipped frame
		}
		fn := line
		if j := strings.IndexByte(fn, '('); j >= 0 {
			fn = fn[:j]
		}
		if fn == "nocvi/internal/core.safeEval" {
			break // evaluation boundary
		}
		if fn == "panic" || strings.HasPrefix(fn, "runtime.") ||
			strings.HasPrefix(fn, "runtime/debug.") ||
			strings.HasPrefix(fn, "nocvi/internal/core.safeEval.func") {
			continue
		}
		loc := ""
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "\t") {
			loc = strings.TrimSpace(lines[i+1])
			if j := strings.LastIndex(loc, " +0x"); j >= 0 {
				loc = loc[:j]
			}
			i++
		}
		b.WriteString(fn)
		if loc != "" {
			b.WriteString("\n\t")
			b.WriteString(loc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sink consumes the driver's outcomes. add runs on worker w, the one
// that evaluated candidate idx inside arena bc; stopped tells the
// workers to claim no further blocks.
type sink interface {
	add(w int, bc *buildContext, idx uint64, out evalOutcome)
	stopped() bool
}

// run is the one sweep driver. Workers claim blocks of the indices
// [0, limit) of sp from an atomic cursor, decode and evaluate each
// index inside their own arena, and hand every outcome to s. Blocks are
// claimed in index order and a worker finishes any block it claimed
// before it checks ctx or s again, so the evaluated indices always form
// a contiguous prefix: a canceled sweep is exactly its evaluated
// prefix. The block size depends only on limit and the worker count —
// about 16 claims per worker, one index at a time on small spaces,
// capped so cancellation stays responsive. Workers = 1 is the same
// driver with one worker.
func (env *sweepEnv) run(ctx context.Context, sp space, limit uint64, s sink) {
	workers := max(min(uint64(env.opt.workers()), limit), 1)
	block := min(max(limit/(workers*16), 1), 4096)
	var cursor atomic.Uint64
	var wg sync.WaitGroup
	for w := range int(workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc := newBuildContext(env)
			counts := make([]int, len(env.islandCores))
			parts := make([][]int, len(counts))
			for ctx.Err() == nil && !s.stopped() {
				hi := cursor.Add(block)
				lo := hi - block
				if lo >= limit {
					return
				}
				for idx := lo; idx < min(hi, limit); idx++ {
					mid := sp.decode(idx, counts)
					s.add(w, bc, idx, env.evaluate(bc, idx, counts, parts, mid))
				}
			}
		}()
	}
	wg.Wait()
}

// stopReason names a context stop: StopDeadline or StopCanceled.
func stopReason(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

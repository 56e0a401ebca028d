package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/specio"
	"nocvi/internal/verify"
	"nocvi/internal/viplace"
)

// workload is one benchmark input set. setup builds everything a run
// needs before timing starts; dir is a scratch directory for its store.
// BENCHMARK.json says why each workload was chosen.
type workload struct {
	name  string
	setup func(seed int64, dir string) (instance, error)
}

// instance is a set-up workload, driven by a closed loop with one
// client: request i+1 is sent only after request i has completed.
type instance interface {
	// step sends the next request, timing only the request, then checks
	// its output outside the timed interval.
	step() sample
	// probe times one cache hit of the request after each op of an
	// engine workload: the request served from a store that set-up
	// published it into. The cache mix has its hits in its stream.
	probe() (sample, bool)
	// expected is the set-up reference recorded in expected.json.
	expected() expectation
}

// sample is one timed request.
type sample struct {
	kind           byte // 'e' engine op, 'h' cache hit, 'm' cache miss
	dur            time.Duration
	bytes, mallocs uint64
	explored       int // candidates the engine dispositioned (hits: 0)
	powerMW        float64
	latCyc         float64
	err            error // the request failed or its output check did
}

var workloads = []workload{
	{"d26_synth", setupD26},
	{"d104_sweep", setupD104},
	{"d48_prune_sweep", setupD48},
	{"d26_cache_mix", setupMix},
}

// measure runs fn and returns its wall time and the heap bytes and
// objects it allocated.
func measure(fn func() error) (d time.Duration, bytes, mallocs uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err = fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs, err
}

// engineJob is one engine request: a spec, its options and, for the
// streaming sweep, the sweep options.
type engineJob struct {
	spec  *soc.Spec
	lib   *model.Library
	opt   core.Options
	sweep *core.SweepOptions // nil: core.Synthesize
}

// call runs the request on the engine; workers 0 is the library
// default, GOMAXPROCS.
func (j *engineJob) call(workers int, noPrune bool) (any, error) {
	opt := j.opt
	opt.Workers, opt.NoPrune = workers, noPrune
	if j.sweep == nil {
		res, err := core.Synthesize(j.spec, j.lib, opt)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	res, err := core.SynthesizeSweep(context.Background(), j.spec, j.lib, opt, *j.sweep)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cachedCall runs the request through the result cache in s.
func (j *engineJob) cachedCall(s *cache.Store) (any, error) {
	if j.sweep == nil {
		res, err := cache.Synthesize(context.Background(), s, j.spec, j.lib, j.opt)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	res, err := cache.SynthesizeSweep(context.Background(), s, j.spec, j.lib, j.opt, *j.sweep)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// outcome is what the output checks read from one engine result.
type outcome struct {
	digest   specio.Digest
	explored int
	feasible int // Result.Feasible; for sweeps the observed PruneStats.Feasible
	prune    core.PruneStats
	cache    core.CacheStats
	powerMW  float64
	latCyc   float64
	winners  []*core.DesignPoint
}

// summarize checks that a result is complete and extracts its outcome.
func summarize(res any) (*outcome, error) {
	switch r := res.(type) {
	case *core.Result:
		best, bestLat := r.Best(), r.BestLatency()
		if r.StopReason != core.StopComplete || len(r.Errors) > 0 || best == nil {
			return nil, fmt.Errorf("synthesis incomplete: stop %q, %d candidate errors, %d points", r.StopReason, len(r.Errors), len(r.Points))
		}
		return &outcome{digest: cache.ResultDigest(r), explored: r.Explored, feasible: r.Feasible,
			prune: r.PruneStats, cache: r.CacheStats, powerMW: best.NoCPower.DynW() * 1e3,
			latCyc: bestLat.MeanLatencyCycles, winners: []*core.DesignPoint{best, bestLat}}, nil
	case *core.SweepResult:
		if r.Partial || r.ErrorCount > 0 || r.BestPower == nil || r.BestLatency == nil {
			return nil, fmt.Errorf("sweep incomplete: stop %q, %d candidate errors", r.StopReason, r.ErrorCount)
		}
		return &outcome{digest: cache.SweepResultDigest(r), explored: int(r.Explored), feasible: r.PruneStats.Feasible,
			prune: r.PruneStats, cache: r.CacheStats, powerMW: r.BestPowerPoint.PowerW * 1e3,
			latCyc: r.BestLatencyPoint.LatencyCycles, winners: []*core.DesignPoint{r.BestPower, r.BestLatency}}, nil
	}
	return nil, fmt.Errorf("unknown engine result %T", res)
}

// checkWinners signs off every winner: the verify suite (structure,
// deadlock freedom, capacity, delivery with each gateable island off)
// and the paper's invariant that shutting any island down is safe.
func checkWinners(o *outcome) error {
	for i, d := range o.winners {
		if i > 0 && d == o.winners[i-1] {
			continue
		}
		if rep := verify.Run(d.Top, d.Placement); !rep.OK() {
			return fmt.Errorf("winner %v/mid=%d fails sign-off:\n%s", d.SwitchCounts, d.MidSwitches, rep.Format())
		}
		if err := d.Top.ValidateShutdownSafe(); err != nil {
			return fmt.Errorf("winner %v/mid=%d: %w", d.SwitchCounts, d.MidSwitches, err)
		}
	}
	return nil
}

// checkedRef runs the request once at workers=1, the set-up reference
// every timed op of the run must reproduce.
func checkedRef(job *engineJob) (*outcome, error) {
	res, err := job.call(1, false)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	o, err := summarize(res)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := checkWinners(o); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return o, nil
}

// engineInst is a set-up engine workload.
type engineInst struct {
	job   *engineJob
	ref   *outcome
	store *cache.Store // holds the published result the hit probe reads
}

func setupEngine(job *engineJob, dir string, warmups int) (*engineInst, error) {
	ref, err := checkedRef(job)
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir, cache.StoreOptions{})
	if err != nil {
		return nil, err
	}
	res, err := job.cachedCall(store)
	if err != nil {
		return nil, fmt.Errorf("publishing to the store: %w", err)
	}
	if o, err := summarize(res); err != nil || o.cache.Misses != 1 || o.digest != ref.digest {
		return nil, fmt.Errorf("publishing to the store: miss %+v does not reproduce the reference (%v)", o, err)
	}
	e := &engineInst{job: job, ref: ref, store: store}
	for i := 0; i < warmups; i++ {
		if s := e.step(); s.err != nil {
			return nil, fmt.Errorf("warm-up op: %w", s.err)
		}
	}
	return e, nil
}

func (e *engineInst) step() sample {
	var res any
	d, by, mc, err := measure(func() (err error) {
		res, err = e.job.call(0, false)
		return err
	})
	s := sample{kind: 'e', dur: d, bytes: by, mallocs: mc, err: err}
	if err != nil {
		return s
	}
	o, err := summarize(res)
	if err == nil && o.digest != e.ref.digest {
		err = fmt.Errorf("result digest %s differs from the workers=1 reference %s", o.digest.Short(), e.ref.digest.Short())
	}
	if err == nil {
		err = checkWinners(o)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.explored, s.powerMW, s.latCyc = o.explored, o.powerMW, o.latCyc
	return s
}

func (e *engineInst) probe() (sample, bool) {
	var res any
	d, by, mc, err := measure(func() (err error) {
		res, err = e.job.cachedCall(e.store)
		return err
	})
	s := sample{kind: 'h', dur: d, bytes: by, mallocs: mc, err: err}
	if err == nil {
		o, serr := summarize(res)
		switch {
		case serr != nil:
			s.err = serr
		case o.cache.Hits != 1:
			s.err = fmt.Errorf("probe missed the store: %+v", o.cache)
		case o.digest != e.ref.digest:
			s.err = errors.New("cache hit differs from the result that was published")
		}
	}
	return s, true
}

func (e *engineInst) expected() expectation { return expect(e.ref) }

func d26Opt() core.Options {
	return core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3}
}

func setupD26(_ int64, dir string) (instance, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	return setupEngine(&engineJob{spec: spec, lib: model.Default65nm(), opt: d26Opt()}, dir, 5)
}

// d104Spec is the 104-core, 10-island generated SoC with every flow's
// bandwidth scaled by a factor in [0.95, 1) drawn from the seed. The
// SoC itself stays fixed: specgen.Large's own seed changes the design
// space so much (several seeds have no feasible point) that runs on
// different seeds would not be comparable.
func d104Spec(seed int64) *soc.Spec {
	spec := specgen.Large(7, 104, 10)
	r := rand.New(rand.NewSource(seed))
	for i := range spec.Flows {
		spec.Flows[i].BandwidthBps *= 0.95 + 0.05*r.Float64()
	}
	return spec
}

func setupD104(seed int64, dir string) (instance, error) {
	return setupEngine(&engineJob{spec: d104Spec(seed), lib: model.Default65nm(),
		sweep: &core.SweepOptions{WidthPerIsland: 4, Limit: 2000}}, dir, 2)
}

func setupD48(_ int64, dir string) (instance, error) {
	spec, err := bench.Islanded("d48_network")
	if err != nil {
		return nil, err
	}
	opt := core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3,
		Floorplan: floorplan.Options{SkipAnnotate: true}}
	return setupEngine(&engineJob{spec: spec, lib: model.Default65nm(), opt: opt,
		sweep: &core.SweepOptions{WidthPerIsland: 3}}, dir, 5)
}

// hitWindow is how many of the most recent variants a cache-mix hit
// draws from.
const hitWindow = 32

// variant is one edited D26 spec of the cache mix, with the digests
// its results are checked against.
type variant struct {
	spec      *soc.Spec
	ref       specio.Digest // of its uncached synthesis at workers=1
	published specio.Digest // of the miss that published it
}

// mixInst is a set-up cache mix: one store, opened empty, and a request
// stream drawn from the seed. Request i (from 0) is a miss on a fresh
// variant when i%4 == 0, otherwise a hit on one of the last hitWindow
// variants.
type mixInst struct {
	base     *soc.Spec
	lib      *model.Library
	opt      core.Options
	store    *cache.Store
	rng      *rand.Rand
	intra    []int // indices of the base spec's intra-island flows
	seen     map[[2]uint64]bool
	variants []*variant  // the last hitWindow variants
	req      int         // requests sent so far
	first    expectation // the first variant's reference
}

func newMix(seed int64, dir string) (*mixInst, error) {
	base, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir, cache.StoreOptions{})
	if err != nil {
		return nil, err
	}
	m := &mixInst{base: base, lib: model.Default65nm(), opt: d26Opt(), store: store,
		rng: rand.New(rand.NewSource(seed)), seen: map[[2]uint64]bool{}}
	for i, f := range base.Flows {
		if base.IslandOf[f.Src] == base.IslandOf[f.Dst] {
			m.intra = append(m.intra, i)
		}
	}
	if len(m.intra) == 0 {
		return nil, errors.New("D26 has no intra-island flow to edit")
	}
	return m, nil
}

func setupMix(seed int64, dir string) (instance, error) {
	m, err := newMix(seed, dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		if s := m.step(); s.err != nil {
			return nil, fmt.Errorf("warm-up request: %w", s.err)
		}
	}
	return m, nil
}

// fresh makes the next variant: one intra-island flow of D26, chosen by
// the seeded stream, with its bandwidth scaled into [0.5, 0.95) of the
// base. Shrinking a flow keeps the spec feasible; the reference
// synthesis runs here, outside any timed interval.
func (m *mixInst) fresh() (*variant, error) {
	var fi int
	var scale float64
	for {
		fi = m.intra[m.rng.Intn(len(m.intra))]
		scale = 0.5 + 0.45*m.rng.Float64()
		if k := [2]uint64{uint64(fi), math.Float64bits(scale)}; !m.seen[k] {
			m.seen[k] = true
			break
		}
	}
	spec := *m.base
	spec.Flows = slices.Clone(m.base.Flows)
	spec.Flows[fi].BandwidthBps *= scale
	ref, err := checkedRef(&engineJob{spec: &spec, lib: m.lib, opt: m.opt})
	if err != nil {
		return nil, err
	}
	if len(m.variants) == 0 {
		m.first = expect(ref)
	}
	v := &variant{spec: &spec, ref: ref.digest}
	// Only the last hitWindow variants are kept, so that the memory a
	// run holds does not grow with the number of requests it sends.
	if len(m.variants) == hitWindow {
		m.variants[0] = nil
		m.variants = m.variants[1:]
	}
	m.variants = append(m.variants, v)
	return v, nil
}

// next returns the next request's variant and whether it must miss.
func (m *mixInst) next() (*variant, bool, error) {
	i := m.req
	m.req++
	if i%4 == 0 {
		v, err := m.fresh()
		return v, true, err
	}
	return m.variants[m.rng.Intn(len(m.variants))], false, nil
}

// checkCached checks a cache.Synthesize result: a miss must reproduce
// the variant's uncached reference, a hit the miss that published it.
func checkCached(v *variant, res *core.Result, miss bool) (*outcome, error) {
	o, err := summarize(res)
	if err != nil {
		return nil, err
	}
	switch {
	case miss && o.cache.Misses != 1:
		return nil, fmt.Errorf("request for a fresh variant did not miss: %+v", o.cache)
	case miss && o.digest != v.ref:
		return nil, errors.New("cache miss differs from the uncached workers=1 synthesis")
	case !miss && o.cache.Hits != 1:
		return nil, fmt.Errorf("repeated request did not hit: %+v", o.cache)
	case !miss && o.digest != v.published:
		return nil, errors.New("cache hit differs from the miss that published it")
	}
	if miss {
		v.published = o.digest
	}
	return o, nil
}

func (m *mixInst) step() sample {
	v, miss, err := m.next()
	s := sample{kind: 'h'}
	if miss {
		s.kind = 'm'
	}
	if err != nil {
		s.err = err
		return s
	}
	var res *core.Result
	s.dur, s.bytes, s.mallocs, err = measure(func() (err error) {
		res, err = cache.Synthesize(context.Background(), m.store, v.spec, m.lib, m.opt)
		return err
	})
	if err != nil {
		s.err = err
		return s
	}
	o, err := checkCached(v, res, miss)
	if err != nil {
		s.err = err
		return s
	}
	if miss {
		s.explored = o.explored
	}
	s.powerMW, s.latCyc = o.powerMW, o.latCyc
	return s
}

func (m *mixInst) probe() (sample, bool) { return sample{}, false }

func (m *mixInst) expected() expectation { return m.first }

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nocvi/internal/cache"
	"nocvi/internal/core"
)

// layers are the span names of the replayed engine layers, in pipeline
// order; their shares of the serial engine op add up to the attributed
// part of it.
var layers = []string{"vcg", "partition", "topology.build", "route", "deadlock", "floorplan", "topology.validate", "power"}

// runTraced is the --trace 1 run: traceEngine or traceMix, then the
// spans are written out.
func runTraced(wl *workload, seed int64, seconds float64, dir string) (*report, error) {
	inst, err := wl.setup(seed, filepath.Join(dir, "setup"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := &report{values: map[string]float64{}}
	var tr *tracer
	switch in := inst.(type) {
	case *engineInst:
		tr, err = traceEngine(rep, in, seconds)
	case *mixInst:
		tr, err = traceMix(rep, seed, seconds, dir)
	}
	if err != nil {
		return nil, err
	}
	rep.correct = rep.failed == 0
	path := filepath.Join(workDir, "spans", wl.name+".tsv")
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed=%d nproc=%d: %d spans written to %s; %d of %d checked requests failed\n",
		wl.name, seed, runtime.GOMAXPROCS(0), len(tr.spans), path, rep.failed, rep.attempted)
	return rep, nil
}

// maxSpans bounds the spans a traced engine run keeps in memory: rounds
// stop once they hold this many.
const maxSpans = 300000

// timed calls fn once, counting it in rep, and appends its duration to
// ds when it succeeded.
func (rep *report) timed(ds []time.Duration, fn func() error) []time.Duration {
	s := time.Now()
	err := fn()
	d := time.Since(s)
	rep.attempted++
	if err != nil {
		if rep.failed < 3 {
			fmt.Fprintln(os.Stderr, "perfbench: traced request failed:", err)
		}
		rep.failed++
		return ds
	}
	return append(ds, d)
}

// traceEngine times, in rounds until the seconds have passed (at least
// three, and no more once maxSpans are held), the real op at workers=1 and at the
// library default, the unpruned op at workers=1, and one layer-by-layer
// replay of the unpruned op. Interleaving the four keeps the ratios
// between them clear of drift in the machine's speed.
func traceEngine(rep *report, e *engineInst, seconds float64) (*tracer, error) {
	var serial *outcome
	var unpruned any
	run := func(workers int, noPrune bool) func() error {
		return func() error {
			res, err := e.job.call(workers, noPrune)
			if err != nil {
				return err
			}
			o, err := summarize(res)
			if err != nil {
				return err
			}
			switch {
			case noPrune:
				unpruned = res
			case o.digest != e.ref.digest:
				return errors.New("result differs from the workers=1 reference")
			case workers == 1:
				serial = o
			}
			return nil
		}
	}
	// The replay-fidelity gate: every replayed op must reproduce the
	// unpruned engine result bit for bit.
	tr := newTracer()
	var st replayStats
	replayOnce := func() error {
		if unpruned == nil {
			return errors.New("no unpruned engine result to replay against")
		}
		op := tr.beginOp()
		out, err := replay(tr, op, e.job, &st)
		tr.end(op)
		if err != nil {
			return err
		}
		if err := fidelityDiff(out, unpruned); err != nil {
			return fmt.Errorf("replay-fidelity gate: %w", err)
		}
		return nil
	}
	var serialD, parD, baseD, replayD []time.Duration
	t0 := time.Now()
	for r := 0; r < 3 || len(tr.spans) < maxSpans && time.Since(t0).Seconds() < seconds; r++ {
		serialD = rep.timed(serialD, run(1, false))
		parD = rep.timed(parD, run(0, false))
		baseD = rep.timed(baseD, run(1, true))
		replayD = rep.timed(replayD, replayOnce)
	}
	if serial == nil || len(parD) == 0 || len(baseD) == 0 || len(replayD) == 0 {
		return nil, fmt.Errorf("%d of %d traced requests failed", rep.failed, rep.attempted)
	}

	v := rep.values
	baseUs := median(ms(baseD)) * 1e3
	layerMetrics(v, tr.spans, st, len(replayD), baseUs)
	ps := serial.prune
	v["core.explored"] = float64(serial.explored)
	v["core.evaluated"] = float64(ps.Evaluated)
	v["core.bound_pruned"] = float64(ps.BoundPruned)
	v["core.stage_pruned"] = float64(ps.StagePruned)
	v["core.prune_frac"] = ratio(float64(ps.Pruned()), float64(serial.explored))
	v["core.feasible_frac"] = ratio(float64(ps.Feasible), float64(serial.explored))
	v["core.par_speedup"] = median(ms(serialD)) / median(ms(parD))
	v["core.nproc"] = float64(runtime.GOMAXPROCS(0))
	v["trace.coverage"] = median(ms(replayD)) * 1e3 / baseUs

	fmt.Printf("serial op p50 %.3f ms, parallel op p50 %.3f ms, unpruned serial op p50 %.3f ms, replayed op p50 %.3f ms (n=%d/%d/%d/%d)\n",
		median(ms(serialD)), median(ms(parD)), baseUs/1e3, median(ms(replayD)), len(serialD), len(parD), len(baseD), len(replayD))
	fmt.Printf("  %-18s %12s %8s\n", "layer", "us/op", "share")
	for _, l := range layers {
		us := v[metricPrefix(l)+"us_per_op"]
		fmt.Printf("  %-18s %12.1f %7.1f%%\n", l, us, 100*us/baseUs)
	}
	fmt.Printf("  %-18s %12s %7.1f%%\n", "unattributed", "", 100*v["core.unattributed_share"])
	return tr, nil
}

// metricPrefix maps a span name to the start of its us_per_op metric.
func metricPrefix(layer string) string {
	switch layer {
	case "topology.build":
		return "topology.build_"
	case "topology.validate":
		return "topology.validate_"
	}
	return layer + "."
}

// layerMetrics derives the replay's per-layer metrics from its spans.
// Shares are of baseUs, the serial engine op.
func layerMetrics(v map[string]float64, spans []span, st replayStats, ops int, baseUs float64) {
	ns := selfByName(spans)
	n := float64(ops)
	attributed := 0.0
	for _, l := range layers {
		us := float64(ns[l]) / 1e3 / n
		v[metricPrefix(l)+"us_per_op"] = us
		attributed += us
	}
	v["route.calls"] = float64(st.routeCalls) / n
	v["route.flows_per_op"] = float64(st.flows) / n
	v["route.us_per_flow"] = ratio(float64(ns["route"])/1e3, float64(st.flows))
	v["route.fail_frac"] = ratio(float64(st.routeFails), float64(st.routeCalls))
	v["partition.calls"] = float64(st.partCalls) / n
	for _, l := range []string{"route", "partition", "floorplan"} {
		v[l+".share"] = v[l+".us_per_op"] / baseUs
	}
	v["core.unattributed_share"] = 1 - attributed/baseUs
}

// traceMix replays the cache mix's seeded request stream from its first
// request. Each request runs through cache.Synthesize on a store of its
// own (hit and miss times, store writes), a miss also through uncached
// core.Synthesize (the honest baseline); then the request's cache calls
// are repeated under spans against a second store. No engine layer is
// replayed, so the engine's per-layer metrics read 0 on the mix.
func traceMix(rep *report, seed int64, seconds float64, dir string) (*tracer, error) {
	m, err := newMix(seed, filepath.Join(dir, "timed"))
	if err != nil {
		return nil, err
	}
	spanned, err := cache.Open(filepath.Join(dir, "spanned"), cache.StoreOptions{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tr := newTracer()
	var hitD, missD, uncD []time.Duration
	var puts, written, blobBytes int64
	var warm, hits, misses int
	var ps core.PruneStats
	explored := 0
	fail := func(err error) {
		if rep.failed < 3 {
			fmt.Fprintln(os.Stderr, "perfbench: traced request failed:", err)
		}
		rep.failed++
	}
	t0 := time.Now()
	for rep.attempted < 100 || time.Since(t0).Seconds() < seconds {
		rep.attempted++
		v, miss, err := m.next()
		if err != nil {
			fail(err)
			continue
		}
		before := m.store.StoreStats()
		s := time.Now()
		res, err := cache.Synthesize(ctx, m.store, v.spec, m.lib, m.opt)
		d := time.Since(s)
		if err == nil {
			_, err = checkCached(v, res, miss)
		}
		if err != nil {
			fail(err)
			continue
		}
		after := m.store.StoreStats()
		var uncached *core.Result
		if miss {
			missD = append(missD, d)
			misses++
			puts += after.Puts - before.Puts
			written += after.Bytes - before.Bytes
			warm += res.CacheStats.WarmStarts
			explored += res.Explored
			ps.Evaluated += res.PruneStats.Evaluated
			ps.BoundPruned += res.PruneStats.BoundPruned
			ps.StagePruned += res.PruneStats.StagePruned
			ps.Feasible += res.PruneStats.Feasible
			s = time.Now()
			uncached, err = core.Synthesize(v.spec, m.lib, m.opt)
			d = time.Since(s)
			if err == nil && cache.ResultDigest(uncached) != v.ref {
				err = errors.New("uncached synthesis differs from its workers=1 reference")
			}
			if err != nil {
				fail(err)
				continue
			}
			uncD = append(uncD, d)
		} else {
			hitD = append(hitD, d)
			hits++
		}
		n, err := traceRequest(tr, spanned, v, m, uncached)
		if err != nil {
			fail(err)
		}
		blobBytes += int64(n)
	}
	if misses == 0 || hits == 0 {
		return nil, errors.New("the traced request stream has no successful hit or miss")
	}

	v := rep.values
	ns := selfByName(tr.spans)
	perReq := func(x float64) float64 { return x / float64(hits+misses) }
	perMiss := func(x float64) float64 { return x / float64(misses) }
	v["core.explored"] = perReq(float64(explored))
	v["core.evaluated"] = perReq(float64(ps.Evaluated))
	v["core.bound_pruned"] = perReq(float64(ps.BoundPruned))
	v["core.stage_pruned"] = perReq(float64(ps.StagePruned))
	v["core.prune_frac"] = ratio(float64(ps.Pruned()), float64(explored))
	v["core.feasible_frac"] = ratio(float64(ps.Feasible), float64(explored))
	v["core.nproc"] = float64(runtime.GOMAXPROCS(0))
	v["cache.puts_per_miss"] = perMiss(float64(puts))
	v["cache.kb_written_per_miss"] = perMiss(float64(written) / 1024)
	v["cache.warm_starts_per_miss"] = perMiss(float64(warm))
	v["cache.encode_us"] = perMiss(float64(ns["cache.encode"]) / 1e3)
	v["cache.put_us"] = perMiss(float64(ns["cache.put"]) / 1e3)
	v["cache.blob_kb"] = perMiss(float64(blobBytes) / 1024)
	v["specio.key_us"] = perReq(float64(ns["specio.key"]) / 1e3)
	v["cache.get_us"] = perReq(float64(ns["cache.get"]) / 1e3)
	v["cache.decode_us"] = float64(ns["cache.decode"]) / 1e3 / float64(hits)
	v["cache.hit_frac"] = perReq(float64(hits))
	hit, miss, unc := median(ms(hitD)), median(ms(missD)), median(ms(uncD))
	v["cache.hit_speedup_vs_uncached"] = unc / hit
	v["cache.miss_overhead_vs_uncached"] = miss / unc
	fmt.Printf("%d requests: hit p50 %.3f ms (n=%d), miss p50 %.3f ms (n=%d), uncached core.Synthesize p50 %.3f ms (n=%d)\n",
		hits+misses, hit, hits, miss, misses, unc, len(uncD))
	return tr, nil
}

// traceRequest repeats one cache-mix request's cache calls under spans
// against the spanned store, which sees the same request stream as the
// timed one: a hit gets and decodes; a miss encodes and puts the
// uncached result. It returns the number of bytes encoded.
func traceRequest(tr *tracer, spanned *cache.Store, v *variant, m *mixInst, uncached *core.Result) (int, error) {
	op := tr.beginOp()
	defer tr.end(op)
	s := tr.begin("specio.key", op)
	key := cache.ResultKey(v.spec, m.lib, m.opt)
	tr.end(s)
	s = tr.begin("cache.get", op)
	blob, ok := spanned.Get(cache.ClassResult, key)
	tr.end(s)
	if ok != (uncached == nil) {
		return 0, errors.New("the spanned store is out of step with the timed one")
	}
	if ok {
		s = tr.begin("cache.decode", op)
		res, err := cache.DecodeResult(blob, v.spec, m.lib)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		if cache.ResultDigest(res) != v.published {
			return 0, errors.New("decoded result differs from the miss that published it")
		}
		return 0, nil
	}
	s = tr.begin("cache.encode", op)
	blob = cache.EncodeResult(uncached)
	tr.end(s)
	s = tr.begin("cache.put", op)
	err := spanned.Put(cache.ClassResult, key, blob)
	tr.end(s)
	return len(blob), err
}

// Command perfbench is the repository's benchmark. It drives the public
// engine entry points (core.Synthesize, core.SynthesizeSweep,
// cache.Synthesize) on one workload as a closed loop with one client,
// checks every result, and prints the workload's metrics:
//
//	bash perfbench/run.sh --workload d26_synth --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// instead replays the work layer by layer under spans and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// workDir holds the benchmark's build and run-time files, relative to
// the checkout root the benchmark runs from.
const workDir = ".bench_build"

// defaultSeed is the seed expected.json records results for.
const defaultSeed = 7

// setupRounds is how many times a measured run sets its workload up:
// once before timing starts, then again each time another
// 1/setupRounds of the run has passed, between two timed requests.
// setup_s is the median, so that it samples the machine over the whole
// run rather than in its first seconds only.
const setupRounds = 10

// p90Windows is how many equal runs of consecutive requests op_ms.p90 is
// taken over: it is the median of the windows' p90s, so that a burst of
// contention on the machine moves it only if it lasts for most of a run.
const p90Windows = 5

// calibEvery is how often the timed loop runs the calibration kernel:
// after a round, once this long has passed since the last kernel runs.
const calibEvery = 20 * time.Millisecond

// calibWindow is how many kernel runs on each side of a request the
// slowdown that scales its time is the median over.
const calibWindow = 25

// setupCalibRuns is how many kernel runs precede and follow each timed
// set-up.
const setupCalibRuns = 3

// minOps is the fewest timed ops a measured run holds, so that at least
// ten samples lie beyond op_ms.p90.
const minOps = 100

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, per workload. Every time among
// them is wall time scaled to the calibration kernel's reference speed
// (calib.go), so that it reads the same on a slower or busier host:
//
//   - op_ms: time of each request of the timed loop (nearest-rank
//     percentiles; a run holds at least minOps requests; p90 is the
//     median over p90Windows windows);
//   - hit_ms, miss_ms: requests answered from the result cache, and
//     requests that ran the engine. On an engine workload every op runs
//     the engine, and the hits are one cache.Synthesize(Sweep) hit of
//     the same request, timed after each op;
//   - cands_per_s: candidates the engine dispositioned (hits count 0)
//     per second spent in timed requests;
//   - alloc_kb_per_op, allocs_per_op: heap deltas around each request;
//   - peak_rss_mb: the process's maximum resident set;
//   - best_power_mw, best_latency_cyc: the result's best NoC dynamic
//     power and mean zero-load latency, median over requests;
//   - ok_frac: the share of checked requests whose output passed its
//     check (1 − failed/attempted; a rate that is never 0);
//   - setup_s: median time to set the workload up.
var endToEnd = []metricDef{
	{"op_ms.p50", "ms"}, {"op_ms.p90", "ms"},
	{"hit_ms.p50", "ms"}, {"miss_ms.p50", "ms"},
	{"cands_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"}, {"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
	{"best_power_mw", "mW"}, {"best_latency_cyc", "cycles"},
	{"ok_frac", "fraction"},
	{"setup_s", "s"},
}

// perLayer are the --trace 1 metrics. A metric a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"route.calls", "count"}, {"route.flows_per_op", "count"}, {"route.us_per_op", "us"},
	{"route.us_per_flow", "us"}, {"route.fail_frac", "fraction"}, {"route.share", "fraction"},
	{"partition.calls", "count"}, {"partition.us_per_op", "us"}, {"partition.share", "fraction"},
	{"vcg.us_per_op", "us"},
	{"floorplan.us_per_op", "us"}, {"floorplan.share", "fraction"},
	{"power.us_per_op", "us"}, {"deadlock.us_per_op", "us"},
	{"topology.build_us_per_op", "us"}, {"topology.validate_us_per_op", "us"},
	{"core.explored", "count"}, {"core.evaluated", "count"}, {"core.bound_pruned", "count"},
	{"core.stage_pruned", "count"}, {"core.prune_frac", "fraction"}, {"core.feasible_frac", "fraction"},
	{"core.par_speedup", "x"}, {"core.nproc", "count"}, {"core.unattributed_share", "fraction"},
	{"trace.coverage", "fraction"},
	{"cache.puts_per_miss", "count"}, {"cache.kb_written_per_miss", "KiB"},
	{"cache.warm_starts_per_miss", "count"}, {"cache.encode_us", "us"}, {"cache.put_us", "us"},
	{"specio.key_us", "us"}, {"cache.get_us", "us"}, {"cache.decode_us", "us"},
	{"cache.blob_kb", "KiB"}, {"cache.hit_frac", "fraction"},
	{"cache.hit_speedup_vs_uncached", "x"}, {"cache.miss_overhead_vs_uncached", "x"},
}

// report is one run's result: the final JSON line.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", defaultSeed, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: replay layer by layer and print the per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	runs := filepath.Join(workDir, "runs")
	if err := os.MkdirAll(runs, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	spreadDirs(runs)
	dir, err := os.MkdirTemp(runs, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(wl, *seed, *seconds, dir)
	} else {
		rep, err = runMeasured(wl, *seed, *seconds, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupTimed sets the workload up once, in directory setup<r> of dir,
// and returns the instance and the time it took, scaled to the
// reference speed by kernel runs just before and after it (the
// geometric mean of the serial and parallel slowdowns: set-up runs the
// engine at workers=1 and at GOMAXPROCS). The directories stay until
// the run ends, so that no inode is freed during the run (see
// spreadDirs).
func setupTimed(wl *workload, seed int64, dir string, r int, cal *calibrator) (instance, float64, error) {
	ser, par := cal.slowdowns(setupCalibRuns)
	t0 := time.Now()
	inst, err := wl.setup(seed, filepath.Join(dir, fmt.Sprintf("setup%d", r)))
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	secs := time.Since(t0).Seconds()
	ser2, par2 := cal.slowdowns(setupCalibRuns)
	ser, par = append(ser, ser2...), append(par, par2...)
	return inst, secs / math.Sqrt(median(ser)*median(par)), nil
}

// runMeasured is the --trace 0 run: set up, warm up, then time one
// request after another for the given seconds (and at least minOps of
// them), checking each output outside its timed interval. A serial and
// a parallel calibration kernel run follow a request once calibEvery
// has passed since the last ones, and every
// timing is scaled by the median slowdown of the kernel runs around it
// (see calib.go): the serial one for cache hits, which run on one
// goroutine, the parallel one for requests that run the engine.
func runMeasured(wl *workload, seed int64, seconds float64, dir string) (*report, error) {
	cal := newCalibrator()
	inst, secs, err := setupTimed(wl, seed, dir, 0, cal)
	if err != nil {
		return nil, err
	}
	setups := []float64{secs}
	rep := &report{values: map[string]float64{}}
	if seed == defaultSeed {
		// The expected-file check is one checked request of the run.
		rep.attempted++
		if err := checkExpected(wl.name, inst.expected()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: expected-file check failed:", err)
			rep.failed++
		}
	}

	runtime.GC()
	// samples[i] and the probe at probeAt[i] were sent in round i of the
	// loop, after which the last kernel runs were ser[calAt[i]] and
	// par[calAt[i]].
	var samples, probes []sample
	var probeAt, calAt []int
	var ser, par []float64
	var lastCal time.Time
	t0 := time.Now()
	for {
		samples = append(samples, inst.step())
		if s, ok := inst.probe(); ok {
			probes = append(probes, s)
			probeAt = append(probeAt, len(samples)-1)
		}
		if time.Since(lastCal) >= calibEvery {
			sd, pd := cal.slowdowns(1)
			ser, par = append(ser, sd[0]), append(par, pd[0])
			lastCal = time.Now()
		}
		calAt = append(calAt, len(ser)-1)
		el := time.Since(t0).Seconds()
		if el >= seconds && len(samples) >= minOps || el >= 6*seconds {
			break
		}
		if len(setups) < setupRounds && el >= seconds*float64(len(setups))/setupRounds {
			// An extra set-up, timed like the first, between two
			// collections so that it neither meets the loop's garbage
			// nor leaves its own; its instance is dropped.
			runtime.GC()
			if _, secs, err = setupTimed(wl, seed, dir, len(setups), cal); err != nil {
				return nil, err
			}
			setups = append(setups, secs)
			runtime.GC()
		}
	}
	if cal.bad {
		return nil, errors.New("the calibration kernel computed a wrong checksum")
	}
	serW, parW := windowMedians(ser, calibWindow), windowMedians(par, calibWindow)
	serAt := func(i int) float64 { return serW[calAt[i]] }
	parAt := func(i int) float64 { return parW[calAt[i]] }

	var opMs, hitMs, missMs, wallOpMs, power, lat []float64
	var busy float64
	var explored int
	var bytes, mallocs uint64
	ok := func(s sample) bool {
		rep.attempted++
		if s.err != nil {
			if rep.failed < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", wl.name, s.err)
			}
			rep.failed++
		}
		return s.err == nil
	}
	for i, s := range samples {
		if !ok(s) {
			continue
		}
		wall := float64(s.dur) / float64(time.Millisecond)
		var v float64
		if s.kind == 'h' {
			v = wall / serAt(i)
			hitMs = append(hitMs, v)
		} else {
			v = wall / parAt(i)
			missMs = append(missMs, v)
		}
		opMs = append(opMs, v)
		wallOpMs = append(wallOpMs, wall)
		busy += v / 1e3
		explored += s.explored
		bytes += s.bytes
		mallocs += s.mallocs
		power = append(power, s.powerMW)
		lat = append(lat, s.latCyc)
	}
	loopHits := len(hitMs)
	for j, s := range probes {
		if ok(s) {
			hitMs = append(hitMs, float64(s.dur)/float64(time.Millisecond)/serAt(probeAt[j]))
		}
	}
	if len(opMs) == 0 || len(hitMs) == 0 || len(missMs) == 0 {
		return nil, fmt.Errorf("%d of %d requests failed, leaving %d hits and %d misses to time", rep.failed, rep.attempted, len(hitMs), len(missMs))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	n := float64(len(opMs))
	rep.values = map[string]float64{
		"op_ms.p50":        percentile(opMs, 50),
		"op_ms.p90":        windowedP90(opMs),
		"hit_ms.p50":       median(hitMs),
		"miss_ms.p50":      median(missMs),
		"cands_per_s":      float64(explored) / busy,
		"alloc_kb_per_op":  float64(bytes) / 1024 / n,
		"allocs_per_op":    float64(mallocs) / n,
		"peak_rss_mb":      float64(ru.Maxrss) / 1024, // Linux reports KiB
		"best_power_mw":    median(power),
		"best_latency_cyc": median(lat),
		"ok_frac":          float64(rep.attempted-rep.failed) / float64(rep.attempted),
		"setup_s":          median(setups),
	}
	rep.correct = rep.failed == 0
	fmt.Printf("%s seed=%d nproc=%d: %d timed ops (%d hits, %d misses), %d probe hits, %d failed; %d set-ups\n",
		wl.name, seed, runtime.GOMAXPROCS(0), len(opMs), loopHits, len(missMs), len(probes), rep.failed, len(setups))
	fmt.Printf("calibration kernel at %.3fx (serial) and %.3fx (parallel) its reference time, median; unscaled op p50 %.4g ms\n",
		median(ser), median(par), median(wallOpMs))
	return rep, nil
}

// spreadDirs asks the file system to place each directory made in dir
// in a block group of its own, so that a run's files are not allocated
// among the inodes that earlier runs freed. To create a file, ext4
// without a journal steps one by one past every inode of the group that
// was freed recently: after a cache-mix run had deleted its store, a new
// store in the same group created files ten times slower for minutes on
// end, and its cache misses measured that. The ext4 top-directory flag
// spreads the directories; where the call fails, nothing changes.
func spreadDirs(dir string) {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags))) // best effort, as above
}

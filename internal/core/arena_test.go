package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"nocvi/internal/bench"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/soc"
)

// candidate is one decoded (switch-count vector, intermediate-switch
// count) pair of a test sweep.
type candidate struct {
	counts []int
	mid    int
}

// newTestSweep runs the engine's shared setup and decodes Synthesize's
// diagonal geometry, exposing the environment (with its partition
// table) and the candidate list so tests can drive buildPoint directly.
func newTestSweep(t *testing.T, spec *soc.Spec, lib *model.Library, opt Options) (*sweepEnv, []candidate) {
	t.Helper()
	env, err := newSweepEnv(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp := env.diagonal()
	cands := make([]candidate, sp.size())
	for i := range cands {
		cands[i].counts = make([]int, len(spec.Islands))
		cands[i].mid = sp.decode(uint64(i), cands[i].counts)
	}
	return env, cands
}

// cut resolves candidate c's per-island partitions through the table
// entries (and sc), or returns nil when some island has no k-way cut.
func cut(env *sweepEnv, c candidate, sc *partition.Scratch) [][]int {
	parts := make([][]int, len(c.counts))
	for j, k := range c.counts {
		e := env.table.entry(j, k, sc)
		if e.err != nil {
			return nil
		}
		parts[j] = e.part
	}
	return parts
}

// sameBuiltPoint asserts two independently built design points are
// bit-identical in every observable: configuration, metrics, the full
// topology (switches with their core lists, links, routes hop by hop)
// and the full placement.
func sameBuiltPoint(t *testing.T, label string, a, b *DesignPoint) {
	t.Helper()
	if !reflect.DeepEqual(a.SwitchCounts, b.SwitchCounts) || a.MidSwitches != b.MidSwitches {
		t.Fatalf("%s: config differs: %v/%d vs %v/%d",
			label, a.SwitchCounts, a.MidSwitches, b.SwitchCounts, b.MidSwitches)
	}
	if a.NoCPower != b.NoCPower || a.MeanLatencyCycles != b.MeanLatencyCycles ||
		a.NoCAreaMM2 != b.NoCAreaMM2 || a.WireViolations != b.WireViolations {
		t.Fatalf("%s: metrics differ:\n%+v\nvs\n%+v", label, *a, *b)
	}
	if !reflect.DeepEqual(a.Top.Switches, b.Top.Switches) {
		t.Fatalf("%s: switches differ:\n%v\nvs\n%v", label, a.Top.Switches, b.Top.Switches)
	}
	if !reflect.DeepEqual(a.Top.Links, b.Top.Links) {
		t.Fatalf("%s: links differ:\n%v\nvs\n%v", label, a.Top.Links, b.Top.Links)
	}
	if !reflect.DeepEqual(a.Top.Routes, b.Top.Routes) {
		t.Fatalf("%s: routes differ:\n%v\nvs\n%v", label, a.Top.Routes, b.Top.Routes)
	}
	if !reflect.DeepEqual(a.Top.SwitchOf, b.Top.SwitchOf) {
		t.Fatalf("%s: core attachment differs", label)
	}
	if !reflect.DeepEqual(a.Placement, b.Placement) {
		t.Fatalf("%s: placements differ:\n%+v\nvs\n%+v", label, a.Placement, b.Placement)
	}
}

// TestArenaNoStateLeak drives one shared buildContext through
// candidates with different switch-count vectors — the situation where
// a stale core list, route buffer or subgraph surviving a Reset would
// corrupt the next build — and checks every point against a build from
// a fresh, never-used arena. The A-B-A order makes the first candidate
// also rebuild on an arena dirtied by a differently-shaped one.
func TestArenaNoStateLeak(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	env, cands := newTestSweep(t, spec, lib, opt)

	// Pick one feasible candidate per distinct counts vector, up to
	// four, then replay the first again (A-B-...-A). Vectors are
	// resolved through a dedicated arena's partition scratch — the
	// worker-side first-touch path, reusing one scratch across every
	// vector — so the replayed builds consume partitions computed off
	// an already-dirtied scratch, exactly as a sweep worker would see.
	var picks []candidate
	var pickParts [][][]int
	resolver := newBuildContext(env)
	for _, c := range cands {
		// Diagonal vectors are distinct and mid varies fastest, so a
		// repeat of a vector always follows its previous pick.
		parts := cut(env, c, &resolver.part)
		if parts == nil || len(picks) > 0 && slices.Equal(picks[len(picks)-1].counts, c.counts) {
			continue
		}
		picks = append(picks, c)
		pickParts = append(pickParts, parts)
		if len(picks) == 4 {
			break
		}
	}
	if len(picks) < 2 {
		t.Fatalf("need at least two distinct feasible counts vectors, got %d", len(picks))
	}
	picks = append(picks, picks[0])
	pickParts = append(pickParts, pickParts[0])

	shared := newBuildContext(env)
	for i, c := range picks {
		fresh, err := buildPoint(newBuildContext(env), c.counts, pickParts[i], c.mid)
		if err != nil {
			t.Fatalf("pick %d (%v/%d): fresh build failed: %v", i, c.counts, c.mid, err)
		}
		reused, err := buildPoint(shared, c.counts, pickParts[i], c.mid)
		if err != nil {
			t.Fatalf("pick %d (%v/%d): arena build failed: %v", i, c.counts, c.mid, err)
		}
		sameBuiltPoint(t, "pick "+string(rune('0'+i)), fresh, reused)
		if fresh.Top == reused.Top {
			t.Fatal("arena handed out the same topology twice")
		}
	}

	// The same walk on an arena that gets every point back, as the
	// sweep collectors hand back the points they summarize: each build
	// then refills the previous candidate's point, topology and
	// placement, whose shapes differ (A-B-...-A).
	recycled := newBuildContext(env)
	var prev *DesignPoint
	for i, c := range picks {
		fresh, err := buildPoint(newBuildContext(env), c.counts, pickParts[i], c.mid)
		if err != nil {
			t.Fatalf("pick %d (%v/%d): fresh build failed: %v", i, c.counts, c.mid, err)
		}
		reused, err := buildPoint(recycled, c.counts, pickParts[i], c.mid)
		if err != nil {
			t.Fatalf("pick %d (%v/%d): recycling build failed: %v", i, c.counts, c.mid, err)
		}
		if prev != nil && (reused != prev || reused.Top != prev.Top || reused.Placement != prev.Placement) {
			t.Fatalf("pick %d: the arena did not refill the point it was handed back", i)
		}
		sameBuiltPoint(t, "recycled pick "+string(rune('0'+i)), fresh, reused)
		recycled.reclaim(reused)
		prev = reused
	}
}

// TestMidSweepCancellationDrainsWorkers cancels sweeps at racy,
// unsynchronized moments — before, during and after the worker pool's
// lifetime — and asserts that every goroutine the sweep spawned has
// drained afterwards. Run under -race this also exercises the
// cancellation paths of the ordered fold and the atomic claiming loop.
func TestMidSweepCancellationDrainsWorkers(t *testing.T) {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := SynthesizeContext(ctx, spec, lib, Options{
				AllowIntermediate: true,
				Workers:           8,
				// A cap adds the fold's MaxDesignPoints stop to
				// the ways the workers can be told to quit.
				MaxDesignPoints: 20,
			})
			done <- err
		}()
		if i%2 == 0 {
			runtime.Gosched() // let the sweep get going before the cancel
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("iteration %d: canceled sweep must degrade to a partial result, got %v", i, err)
		}
	}
	// Workers exit via the claiming loop's context check; give the
	// scheduler a moment, then require the goroutine count back at (or
	// below) the baseline plus slack for runtime housekeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVectorResolutionRace hammers the first-touch once latch of the
// partition table: for each (island, switch count) entry the diagonal
// sweep decodes, a pack of goroutines resolves the entry at the same
// instant, each through its own worker arena's partition scratch.
// Exactly one racer runs the resolution; every racer must then observe
// the same immutable partition, equal to a serial resolution on a fresh
// table. Under -race this is the regression test proving the latch
// publishes entries safely with no coordinator in the loop.
func TestVectorResolutionRace(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	env, cands := newTestSweep(t, spec, lib, opt)
	ref, _ := newTestSweep(t, spec, lib, opt)

	type jk struct{ j, k int }
	var keys []jk
	seen := map[jk]bool{}
	for _, c := range cands {
		for j, k := range c.counts {
			if !seen[jk{j, k}] {
				seen[jk{j, k}] = true
				keys = append(keys, jk{j, k})
			}
		}
	}
	if len(keys) < 2 {
		t.Fatalf("want several distinct entries, got %d", len(keys))
	}

	const racers = 32
	for _, key := range keys {
		var start, done sync.WaitGroup
		start.Add(1)
		views := make([][]int, racers)
		errs := make([]error, racers)
		for r := 0; r < racers; r++ {
			done.Add(1)
			bc := newBuildContext(env)
			go func(r int, bc *buildContext) {
				defer done.Done()
				start.Wait()
				e := env.table.entry(key.j, key.k, &bc.part)
				views[r] = e.part
				errs[r] = e.err
			}(r, bc)
		}
		start.Done()
		done.Wait()

		want := ref.table.entry(key.j, key.k, nil)
		for r := 0; r < racers; r++ {
			if (errs[r] == nil) != (want.err == nil) {
				t.Fatalf("island %d k=%d racer %d: err %v, serial reference err %v",
					key.j, key.k, r, errs[r], want.err)
			}
			if !reflect.DeepEqual(views[r], want.part) {
				t.Fatalf("island %d k=%d racer %d saw partition %v, serial reference %v",
					key.j, key.k, r, views[r], want.part)
			}
		}
	}
}

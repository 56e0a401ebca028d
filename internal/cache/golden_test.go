package cache

import (
	"context"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// goldenResults pins the exact output of core.Synthesize across
// commits: the ResultDigest of each case, which covers every point,
// topology, placement, float bit pattern and stop field. The identity
// tests elsewhere compare the engine with itself (serial vs parallel,
// pruned vs -no-prune); these digests compare it with the engine that
// recorded them. A deliberate change of what the engine computes bumps
// EngineVersion and re-records them; a refactor must leave them alone.
var goldenResults = []struct {
	bench      string
	noPrune    bool
	survivable int
	digest     string
}{
	{"d16_industrial", false, 0,
		"46b23bca33c51c7064a559925f2ce7f647d5f881fccfc54240348ad21795b549"},
	{"d16_industrial", true, 0,
		"b1b36cb8d588facf1887c19f90b13df30bc4f592b31d3d9c27b104dd14ba6367"},
	{"d26_media", false, 0,
		"31bbb88c20f05332481ad1f7e5cff21953b95a0f62d6d7ae0469113a40fdc914"},
	{"d26_media", true, 0,
		"31bbb88c20f05332481ad1f7e5cff21953b95a0f62d6d7ae0469113a40fdc914"},
	{"d26_media", false, 1,
		"0d48849779916b06305589d9e131c56df3fc5e817c34187de1f75ef6f8066a50"},
	{"d48_network", false, 0,
		"8d8240de2a2baa6213fd2e0987824b0c9ea4a592019e3b322c7e94ce47871621"},
	{"d48_network", true, 0,
		"08c8707719d3b808d452e51c78f16fb630a8d94c7b79efb763e8d4baba082b80"},
}

// TestGoldenResultDigests checks every golden case at workers 1 and 4.
func TestGoldenResultDigests(t *testing.T) {
	lib := model.Default65nm()
	for _, g := range goldenResults {
		spec, err := bench.Islanded(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opt := testOptions()
			opt.NoPrune, opt.Survivability, opt.Workers = g.noPrune, g.survivable, workers
			res, err := core.Synthesize(spec, lib, opt)
			if err != nil {
				t.Fatalf("%s noprune=%v k=%d w=%d: %v", g.bench, g.noPrune, g.survivable, workers, err)
			}
			if got := ResultDigest(res).String(); got != g.digest {
				t.Errorf("%s noprune=%v k=%d w=%d: digest %s, golden %s",
					g.bench, g.noPrune, g.survivable, workers, got, g.digest)
			}
		}
	}
}

// TestGoldenSweepDigests is TestGoldenResultDigests for the streaming
// sweep: d48 at width 3, and the 104-core, 10-island specgen SoC at
// width 4 over the first 500 candidates.
func TestGoldenSweepDigests(t *testing.T) {
	lib := model.Default65nm()
	d48, err := bench.Islanded("d48_network")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		spec   *soc.Spec
		opt    core.Options
		sw     core.SweepOptions
		digest string
	}{
		{"d48_network", d48, testOptions(), core.SweepOptions{WidthPerIsland: 3},
			"3333bf877f70db38ecd1368581a6077cd3c2c3251a40f61289416eb8be496815"},
		{"large_7_104_10", specgen.Large(7, 104, 10), core.Options{}, core.SweepOptions{WidthPerIsland: 4, Limit: 500},
			"2e78e109898ceb8424902e250a704d77bd99a17e64d5d28c158e5d809bb05641"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			opt := c.opt
			opt.Workers = workers
			res, err := core.SynthesizeSweep(context.Background(), c.spec, lib, opt, c.sw)
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, workers, err)
			}
			if res.BestPowerPoint == nil {
				t.Fatalf("%s w=%d: degenerate golden case: nothing feasible", c.name, workers)
			}
			if got := SweepResultDigest(res).String(); got != c.digest {
				t.Errorf("%s w=%d: digest %s, golden %s", c.name, workers, got, c.digest)
			}
		}
	}
}

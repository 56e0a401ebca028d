package vcg

import (
	"math"
	"testing"
	"testing/quick"

	"nocvi/internal/soc"
)

func spec() *soc.Spec {
	return &soc.Spec{
		Name: "v",
		Cores: []soc.Core{
			{ID: 0, Name: "a"}, {ID: 1, Name: "b"},
			{ID: 2, Name: "c"}, {ID: 3, Name: "d"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 1000e6, MaxLatencyCycles: 10}, // intra island 0
			{Src: 1, Dst: 0, BandwidthBps: 500e6, MaxLatencyCycles: 20},  // intra island 0
			{Src: 0, Dst: 2, BandwidthBps: 100e6, MaxLatencyCycles: 5},   // inter
			{Src: 2, Dst: 3, BandwidthBps: 250e6},                        // intra island 1, no lat
		},
		Islands: []soc.Island{
			{ID: 0, Name: "i0", VoltageV: 1},
			{ID: 1, Name: "i1", VoltageV: 1, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1},
	}
}

func TestBuildFiltersInterIslandFlows(t *testing.T) {
	v, err := Build(spec(), 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 2 {
		t.Fatalf("island 0 vertex count = %d", v.N())
	}
	if len(v.Flows) != 2 {
		t.Fatalf("island 0 intra flows = %d, want 2", len(v.Flows))
	}
	if v.G.M() != 2 {
		t.Fatalf("edges = %d", v.G.M())
	}
	if v.Core(0) != 0 || v.Core(1) != 1 {
		t.Fatal("vertex->core mapping wrong")
	}
}

func TestEdgeWeightFormula(t *testing.T) {
	// max_bw = 1000e6 (flow 0), min_lat = 5 (flow 2, global extrema)
	v, err := Build(spec(), 0, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// flow 0->1: 0.6*1.0 + 0.4*(5/10) = 0.8
	if w := v.G.Weight(0, 1); math.Abs(w-0.8) > 1e-12 {
		t.Fatalf("h(0,1) = %g, want 0.8", w)
	}
	// flow 1->0: 0.6*0.5 + 0.4*(5/20) = 0.4
	if w := v.G.Weight(1, 0); math.Abs(w-0.4) > 1e-12 {
		t.Fatalf("h(1,0) = %g, want 0.4", w)
	}
}

func TestEdgeWeightNoLatencyConstraint(t *testing.T) {
	v, err := Build(spec(), 1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// flow 2->3 has no latency constraint: only the bw term, 0.6*0.25
	if w := v.G.Weight(0, 1); math.Abs(w-0.15) > 1e-12 {
		t.Fatalf("h = %g, want 0.15", w)
	}
}

func TestEdgeWeightDegenerateSpec(t *testing.T) {
	// no latency constraints anywhere: minLat = 0, term dropped entirely
	f := soc.Flow{BandwidthBps: 10, MaxLatencyCycles: 7}
	if w := EdgeWeight(f, 20, 0, 0.5); w != 0.25 {
		t.Fatalf("weight without global constraint = %g", w)
	}
	if w := EdgeWeight(f, 0, 0, 0.5); w != 0 {
		t.Fatalf("weight with zero max_bw = %g", w)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(spec(), 0, -0.1); err == nil {
		t.Fatal("alpha<0 accepted")
	}
	if _, err := Build(spec(), 0, 1.1); err == nil {
		t.Fatal("alpha>1 accepted")
	}
	if _, err := Build(spec(), 0, math.NaN()); err == nil {
		t.Fatal("NaN alpha accepted")
	}
	s := spec()
	s.IslandOf = []soc.IslandID{0, 0, 0, 0}
	if _, err := Build(s, 1, 0.5); err == nil {
		t.Fatal("empty island accepted")
	}
}

func TestBuildAll(t *testing.T) {
	vs, err := BuildAll(spec(), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Island != 0 || vs[1].Island != 1 {
		t.Fatal("BuildAll wrong")
	}
}

func TestUndirectedAccumulates(t *testing.T) {
	v, _ := Build(spec(), 0, 0.6)
	u := v.Undirected()
	want := v.G.Weight(0, 1) + v.G.Weight(1, 0)
	if got := u.Weight(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("undirected weight = %g, want %g", got, want)
	}
}

// Property: h is monotone in bandwidth, antitone in latency slack, and
// bounded by 1 when bw<=max_bw and lat>=min_lat.
func TestEdgeWeightProperties(t *testing.T) {
	f := func(bwRaw, latRaw uint16, alphaRaw uint8) bool {
		maxBW, minLat := 1e9, 4.0
		alpha := float64(alphaRaw%101) / 100
		bw := float64(bwRaw%1000+1) * 1e6
		lat := minLat + float64(latRaw%100)
		fl := soc.Flow{BandwidthBps: bw, MaxLatencyCycles: lat}
		h := EdgeWeight(fl, maxBW, minLat, alpha)
		if h < 0 || h > 1+1e-12 {
			return false
		}
		// monotone in bw
		h2 := EdgeWeight(soc.Flow{BandwidthBps: bw * 2, MaxLatencyCycles: lat}, maxBW, minLat, alpha)
		if h2 < h-1e-12 {
			return false
		}
		// antitone in latency (looser constraint, smaller weight)
		h3 := EdgeWeight(soc.Flow{BandwidthBps: bw, MaxLatencyCycles: lat * 2}, maxBW, minLat, alpha)
		return h3 <= h+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

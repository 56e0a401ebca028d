package topology

import (
	"strings"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// fixtureSpec: 3 islands, island 1 (media) shutdownable, 5 cores.
func fixtureSpec() *soc.Spec {
	return &soc.Spec{
		Name: "fix",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu"},
			{ID: 1, Name: "mem"},
			{ID: 2, Name: "vid"},
			{ID: 3, Name: "aud"},
			{ID: 4, Name: "usb"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 400e6, MaxLatencyCycles: 20},
			{Src: 2, Dst: 3, BandwidthBps: 100e6},
			{Src: 4, Dst: 1, BandwidthBps: 50e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1, 2},
	}
}

// buildValid constructs a fully valid topology over the fixture:
// one switch per island, cores attached locally, direct inter-island
// links for the two crossing flows.
func buildValid(t *testing.T) *Topology {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	for c, sw := range map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatalf("attach %d: %v", c, err)
		}
	}
	l20, err := top.AddLink(s2, s0)
	if err != nil {
		t.Fatal(err)
	}
	mustRoute := func(r Route) {
		t.Helper()
		if err := top.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	mustRoute(Route{Flow: spec.Flows[0], Switches: []SwitchID{s0}})
	mustRoute(Route{Flow: spec.Flows[1], Switches: []SwitchID{s1}})
	mustRoute(Route{Flow: spec.Flows[2], Switches: []SwitchID{s2, s0}, Links: []LinkID{l20}})
	return top
}

func TestValidTopology(t *testing.T) {
	top := buildValid(t)
	if err := top.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

func TestAttachCoreErrors(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	top.SetIslandFreq(0, 200e6)
	s0 := top.AddSwitch(0, false)
	if err := top.AttachCore(2, s0); err == nil {
		t.Fatal("cross-island attach accepted")
	}
	if err := top.AttachCore(0, s0); err != nil {
		t.Fatal(err)
	}
	if err := top.AttachCore(0, s0); err == nil {
		t.Fatal("double attach accepted")
	}
	ni := top.AddNoCIsland(400e6, 1.0)
	ind := top.AddSwitch(ni, true)
	if err := top.AttachCore(1, ind); err == nil {
		t.Fatal("attach to indirect switch accepted")
	}
}

func TestAddLinkSemantics(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	top.SetIslandFreq(0, 400e6)
	top.SetIslandFreq(1, 100e6)
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	if _, err := top.AddLink(s0, s0); err == nil {
		t.Fatal("self link accepted")
	}
	l, err := top.AddLink(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Links[l].CrossesIslands {
		t.Fatal("inter-island link not marked as crossing")
	}
	// capacity limited by the slower (100 MHz) endpoint: 4B * 100MHz
	if got := top.Links[l].CapacityBps; got != 400e6 {
		t.Fatalf("capacity = %g, want 4e8", got)
	}
	if _, err := top.AddLink(s0, s1); err == nil {
		t.Fatal("duplicate link accepted")
	}
	// reverse direction is a distinct link
	if _, err := top.AddLink(s1, s0); err != nil {
		t.Fatalf("reverse link rejected: %v", err)
	}
	if id, ok := top.FindLink(s0, s1); !ok || id != l {
		t.Fatal("FindLink broken")
	}
}

func TestSwitchPortsAndSize(t *testing.T) {
	top := buildValid(t)
	// switch 0: cores cpu+mem (2 in, 2 out) + 1 incoming link
	in, out := top.SwitchPorts(0)
	if in != 3 || out != 2 {
		t.Fatalf("switch0 ports = %d/%d, want 3/2", in, out)
	}
	if top.SwitchSize(0) != 3 {
		t.Fatalf("switch0 size = %d", top.SwitchSize(0))
	}
	if top.SwitchSize(1) != 2 {
		t.Fatalf("switch1 size = %d", top.SwitchSize(1))
	}
}

func TestZeroLoadLatency(t *testing.T) {
	top := buildValid(t)
	// single switch route: NI link + switch + NI link = 1+2+1
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[0]); lat != 4 {
		t.Fatalf("single-switch latency = %g, want 4", lat)
	}
	// two switches crossing islands: 1 + 2 + (1+4) + 2 + 1 = 11
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[2]); lat != 11 {
		t.Fatalf("crossing latency = %g, want 11", lat)
	}
	mean := top.MeanZeroLoadLatency()
	if want := (4.0 + 4.0 + 11.0) / 3; mean != want {
		t.Fatalf("mean latency = %g, want %g", mean, want)
	}
}

func TestSwitchTraffic(t *testing.T) {
	top := buildValid(t)
	if got := top.SwitchTrafficBps(0); got != 450e6 {
		t.Fatalf("switch0 traffic = %g, want 4.5e8", got)
	}
	if got := top.SwitchTrafficBps(1); got != 100e6 {
		t.Fatalf("switch1 traffic = %g", got)
	}
}

func TestRouteValidationErrors(t *testing.T) {
	top := buildValid(t)
	bad := []Route{
		{Flow: top.Spec.Flows[0], Switches: nil},
		{Flow: top.Spec.Flows[0], Switches: []SwitchID{0, 1}},                     // missing link
		{Flow: top.Spec.Flows[0], Switches: []SwitchID{1}},                        // wrong start
		{Flow: top.Spec.Flows[2], Switches: []SwitchID{2, 1}, Links: []LinkID{0}}, // link mismatch
	}
	for i, r := range bad {
		if err := top.AddRoute(r); err == nil {
			t.Fatalf("bad route %d accepted", i)
		}
	}
}

func TestValidateCatchesOverload(t *testing.T) {
	top := buildValid(t)
	top.Links[0].TrafficBps = top.Links[0].CapacityBps * 2
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("overload not caught: %v", err)
	}
}

func TestValidateCatchesLatencyViolation(t *testing.T) {
	top := buildValid(t)
	top.Routes[0].Flow.MaxLatencyCycles = 1
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("latency violation not caught: %v", err)
	}
}

func TestValidateCatchesUnattachedCore(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "not attached") {
		t.Fatalf("unattached core not caught: %v", err)
	}
}

func TestValidateCatchesOversizedSwitch(t *testing.T) {
	top := buildValid(t)
	// Force island 0's clock beyond what a 3-port switch can meet (on the
	// island and its one switch alike, which Validate demands agree).
	f := top.Lib.SwitchMaxFreqHz(3) + 200e6
	top.SetIslandFreq(0, f)
	top.Switches[0].FreqHz = f
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "cannot run") {
		t.Fatalf("oversized switch not caught: %v", err)
	}
}

// The central property of the paper: a route between islands 0 and 2
// that detours through shutdownable island 1 must be rejected.
func TestShutdownSafetyViolation(t *testing.T) {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	attach := map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2}
	for c, sw := range attach {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l21, _ := top.AddLink(s2, s1)
	l10, _ := top.AddLink(s1, s0)
	// flow usb(io isl 2) -> mem(sys isl 0) routed THROUGH media island 1
	if err := top.AddRoute(Route{Flow: spec.Flows[2], Switches: []SwitchID{s2, s1, s0}, Links: []LinkID{l21, l10}}); err != nil {
		t.Fatal(err)
	}
	err := top.ValidateShutdownSafe()
	if err == nil || !strings.Contains(err.Error(), "sever") {
		t.Fatalf("unsafe route not detected: %v", err)
	}
}

// Routes that terminate in a shutdownable island are allowed to use it.
func TestShutdownSafetyAllowsEndpointIslands(t *testing.T) {
	top := buildValid(t)
	if err := top.ValidateShutdownSafe(); err != nil {
		t.Fatalf("endpoint-island usage flagged: %v", err)
	}
}

// The intermediate NoC island is never shutdownable, so routing through
// it is always safe.
func TestIntermediateIslandSafe(t *testing.T) {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	ni := top.AddNoCIsland(400e6, 1.0)
	mid := top.AddSwitch(ni, true)
	for c, sw := range map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l2m, _ := top.AddLink(s2, mid)
	lm0, _ := top.AddLink(mid, s0)
	for _, r := range []Route{
		{Flow: spec.Flows[0], Switches: []SwitchID{s0}},
		{Flow: spec.Flows[1], Switches: []SwitchID{s1}},
		{Flow: spec.Flows[2], Switches: []SwitchID{s2, mid, s0}, Links: []LinkID{l2m, lm0}},
	} {
		if err := top.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("intermediate-island design rejected: %v", err)
	}
	if !top.IslandShutdownable(1) || top.IslandShutdownable(ni) {
		t.Fatal("shutdownability flags wrong")
	}
	if top.IndirectSwitchCount() != 1 || top.TotalSwitchCount() != 4 {
		t.Fatal("switch inventory wrong")
	}
	// latency of the indirect route: 1 + 2 + (1+4) + 2 + (1+4) + 2 + 1 = 18
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[2]); lat != 18 {
		t.Fatalf("indirect route latency = %g, want 18", lat)
	}
}

func TestHelpers(t *testing.T) {
	top := buildValid(t)
	if got := top.RoutesThroughIsland(0); len(got) != 2 {
		t.Fatalf("routes through island 0 = %v", got)
	}
	if got := top.SwitchesIn(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("switches in island 1 = %v", got)
	}
	if u := top.MaxLinkUtilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %g", u)
	}
	if top.NumIslands() != 3 {
		t.Fatal("NumIslands wrong")
	}
}

func TestAddNoCIslandOnce(t *testing.T) {
	top := New(fixtureSpec(), model.Default65nm())
	top.AddNoCIsland(100e6, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("second AddNoCIsland did not panic")
		}
	}()
	top.AddNoCIsland(100e6, 1.0)
}

func TestValidateRouteCountMismatch(t *testing.T) {
	top := buildValid(t)
	top.Routes = top.Routes[:2]
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "routes for") {
		t.Fatalf("route count mismatch not caught: %v", err)
	}
}

// TestEnsureLink pins the lookup-or-add semantics: first call opens the
// link, repeats return the same ID without growing the topology, and
// self links are rejected.
func TestEnsureLink(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	l, err := top.EnsureLink(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Links) != 1 {
		t.Fatalf("%d links after first EnsureLink", len(top.Links))
	}
	again, err := top.EnsureLink(s0, s1)
	if err != nil || again != l {
		t.Fatalf("repeat EnsureLink = %d, %v; want %d", again, err, l)
	}
	if len(top.Links) != 1 {
		t.Fatal("EnsureLink duplicated the link")
	}
	rev, err := top.EnsureLink(s1, s0)
	if err != nil || rev == l {
		t.Fatalf("reverse EnsureLink = %d, %v", rev, err)
	}
	if _, err := top.EnsureLink(s0, s0); err == nil {
		t.Fatal("self link accepted")
	}
	// AddLink still rejects an existing link.
	if _, err := top.AddLink(s0, s1); err == nil {
		t.Fatal("AddLink accepted a duplicate")
	}
}

// assertIndexMatchesScan cross-checks FindLink and SwitchPorts for
// every switch pair against brute-force scans over the exported slices.
func assertIndexMatchesScan(t *testing.T, top *Topology) {
	t.Helper()
	for u := range top.Switches {
		for v := range top.Switches {
			want, found := LinkID(-1), false
			for _, l := range top.Links {
				if l.From == SwitchID(u) && l.To == SwitchID(v) {
					want, found = l.ID, true
				}
			}
			got, ok := top.FindLink(SwitchID(u), SwitchID(v))
			if ok != found || (ok && got != want) {
				t.Fatalf("FindLink(%d,%d) = %d,%v; scan says %d,%v", u, v, got, ok, want, found)
			}
		}
		in, out := len(top.Switches[u].Cores), len(top.Switches[u].Cores)
		for _, l := range top.Links {
			if l.To == SwitchID(u) {
				in++
			}
			if l.From == SwitchID(u) {
				out++
			}
		}
		gi, go_ := top.SwitchPorts(SwitchID(u))
		if gi != in || go_ != out {
			t.Fatalf("SwitchPorts(%d) = %d,%d; scan says %d,%d", u, gi, go_, in, out)
		}
	}
}

// TestLinkIndexMatchesScan cross-checks the dense index and incremental
// port counts against brute-force scans over the exported slices, on a
// topology grown switch-by-switch and link-by-link — including switches
// added after links exist, which lie outside the table until the next
// link lays it out again for the larger switch set.
func TestLinkIndexMatchesScan(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	var sws []SwitchID
	for i := 0; i < 3; i++ {
		sws = append(sws, top.AddSwitch(soc.IslandID(i), false))
	}
	assertIndexMatchesScan(t, top)
	top.AddLink(sws[0], sws[1])
	assertIndexMatchesScan(t, top)
	top.EnsureLink(sws[1], sws[2])
	assertIndexMatchesScan(t, top)
	top.AttachCore(0, sws[0])
	assertIndexMatchesScan(t, top)
	sws = append(sws, top.AddSwitch(0, false)) // grow after links exist
	// The new switch lies outside the table laid out for three switches:
	// lookups touching it must miss, and the old links must still hit.
	for _, u := range sws {
		if id, ok := top.FindLink(u, sws[3]); ok {
			t.Fatalf("FindLink(%d,%d) = %d on a switch with no links", u, sws[3], id)
		}
		if id, ok := top.FindLink(sws[3], u); ok {
			t.Fatalf("FindLink(%d,%d) = %d on a switch with no links", sws[3], u, id)
		}
	}
	assertIndexMatchesScan(t, top)
	top.AddLink(sws[3], sws[0]) // lays the table out again for four switches
	assertIndexMatchesScan(t, top)
	sws = append(sws, top.AddSwitch(2, false), top.AddSwitch(1, false))
	top.EnsureLink(sws[2], sws[5])
	top.EnsureLink(sws[5], sws[4])
	assertIndexMatchesScan(t, top)
	if _, err := top.AddLink(sws[0], sws[1]); err == nil {
		t.Fatal("duplicate link accepted after the table was laid out again")
	}
}

// TestLinkIndexAcrossResetABA rebuilds one topology with three, five and
// again three switches through Reset: the recycled table is laid out
// for each switch count in turn, and no link of an earlier build may
// leak into a later one.
func TestLinkIndexAcrossResetABA(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	build := func(perIsland int, links [][2]SwitchID) {
		t.Helper()
		top.Reset()
		for i := range spec.Islands {
			top.SetIslandFreq(soc.IslandID(i), 200e6)
		}
		for i := range spec.Islands {
			for p := 0; p < perIsland; p++ {
				top.AddSwitch(soc.IslandID(i), false)
			}
		}
		assertIndexMatchesScan(t, top)
		for _, l := range links {
			if _, err := top.AddLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
			assertIndexMatchesScan(t, top)
		}
	}
	build(1, [][2]SwitchID{{0, 1}, {1, 2}, {2, 0}})
	build(2, [][2]SwitchID{{5, 4}, {0, 5}, {3, 1}, {1, 0}})
	build(1, [][2]SwitchID{{1, 0}, {2, 1}})
	if _, ok := top.FindLink(0, 1); ok {
		t.Fatal("link 0->1 of the first build survived two Resets")
	}
}

// TestValidateRejectsSwitchOffItsIsland pins the invariant the router's
// per-island-pair cost tables rely on: a switch whose clock or supply
// disagrees with its island's entry is a validation error.
func TestValidateRejectsSwitchOffItsIsland(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift func(s *Switch)
	}{
		{"voltage", func(s *Switch) { s.VoltageV -= 0.1 }},
		{"frequency", func(s *Switch) { s.FreqHz += 1e6 }},
	} {
		top := buildValid(t)
		if err := top.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", tc.name, err)
		}
		tc.drift(&top.Switches[1])
		err := top.Validate()
		if err == nil || !strings.Contains(err.Error(), "switch 1 runs at") {
			t.Fatalf("%s: switch off its island not caught: %v", tc.name, err)
		}
	}
}

// TestReindexExternallyAssembled covers the lazy rebuild: a topology
// whose Links slice was populated without the index (zero value plus
// direct appends) must still answer FindLink/SwitchPorts correctly.
func TestReindexExternallyAssembled(t *testing.T) {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := &Topology{
		Spec:          spec,
		Lib:           lib,
		NoCIsland:     soc.NoIsland,
		IslandFreqHz:  []float64{200e6, 200e6, 200e6},
		IslandVoltage: []float64{1, 1, 1},
		SwitchOf:      []SwitchID{-1, -1, -1, -1, -1},
	}
	top.Switches = []Switch{
		{ID: 0, Island: 0, FreqHz: 200e6, VoltageV: 1},
		{ID: 1, Island: 1, FreqHz: 200e6, VoltageV: 1},
	}
	top.Links = []Link{{ID: 0, From: 0, To: 1, CrossesIslands: true}}
	if id, ok := top.FindLink(0, 1); !ok || id != 0 {
		t.Fatalf("FindLink on assembled topology = %d,%v", id, ok)
	}
	if _, ok := top.FindLink(1, 0); ok {
		t.Fatal("phantom reverse link")
	}
	in, out := top.SwitchPorts(1)
	if in != 1 || out != 0 {
		t.Fatalf("SwitchPorts(1) = %d,%d", in, out)
	}
	// The index must absorb subsequent mutations too.
	if _, err := top.AddLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if id, ok := top.FindLink(1, 0); !ok || id != 1 {
		t.Fatalf("FindLink after AddLink = %d,%v", id, ok)
	}
}

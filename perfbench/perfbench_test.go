package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// The recorded D26 reference matches the case study EXPERIMENTS.md
// reports: 67.11 mW NoC dynamic power (6 logical VIs) and 9.5 cycles
// for the lowest-latency point.
func TestExpectedMatchesPaperCaseStudy(t *testing.T) {
	m, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := m[w.name]; !ok {
			t.Errorf("expected.json has no entry for %s", w.name)
		}
	}
	d26 := m["d26_synth"]
	if math.Round(d26.BestPowerMW*100)/100 != 67.11 || d26.BestLatencyCyc != 9.5 {
		t.Fatalf("d26_synth reference %.4f mW / %v cycles, EXPERIMENTS.md reports 67.11 mW / 9.5 cycles", d26.BestPowerMW, d26.BestLatencyCyc)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEnd}, {"per_layer", bm.PerLayer, perLayer}} {
		var a, b []string
		for _, m := range c.json {
			a = append(a, m.Name+"/"+m.Unit)
		}
		for _, d := range c.defs {
			b = append(b, d.name+"/"+d.unit)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: BENCHMARK.json has %v, program reports %v", c.kind, a, b)
		}
	}
}

// The layer-by-layer replay reproduces the unpruned engine bit for bit
// on every engine workload.
func TestReplayFidelity(t *testing.T) {
	for _, w := range workloads[:3] {
		inst, err := w.setup(defaultSeed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		job := inst.(*engineInst).job
		unpruned, err := job.call(1, true)
		if err != nil {
			t.Fatal(err)
		}
		var st replayStats
		tr := newTracer()
		out, err := replay(tr, tr.beginOp(), job, &st)
		if err != nil {
			t.Fatal(err)
		}
		if err := fidelityDiff(out, unpruned); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if st.routeCalls == 0 || st.partCalls == 0 {
			t.Errorf("%s: replay counted no layer calls: %+v", w.name, st)
		}
	}
}

// The fidelity gate notices a replay that drifted from the engine.
func TestFidelityGateCatchesDrift(t *testing.T) {
	inst, err := workloads[0].setup(defaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := inst.(*engineInst).job
	unpruned, err := job.call(1, true)
	if err != nil {
		t.Fatal(err)
	}
	var st replayStats
	tr := newTracer()
	out, err := replay(tr, tr.beginOp(), job, &st)
	if err != nil {
		t.Fatal(err)
	}
	out.points[3].PowerW = math.Nextafter(out.points[3].PowerW, math.Inf(1))
	if fidelityDiff(out, unpruned) == nil {
		t.Fatal("a one-ulp power difference passed the fidelity gate")
	}
}

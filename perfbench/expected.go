package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// expectation is one workload's set-up reference for the default seed:
// the workers=1 result of its request (for the cache mix, of its first
// variant).
type expectation struct {
	BestPowerMW    float64 `json:"best_power_mw"`
	BestLatencyCyc float64 `json:"best_latency_cyc"`
	Explored       int     `json:"explored"`
	Feasible       int     `json:"feasible"`
	Digest         string  `json:"digest"`
}

func expect(o *outcome) expectation {
	return expectation{o.powerMW, o.latCyc, o.explored, o.feasible, o.digest.String()}
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected(data []byte) (map[string]expectation, error) {
	m := map[string]expectation{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// checkExpected compares a set-up reference with expected.json, exactly.
// After an intended change to the engine's results, copy the values the
// mismatch error prints into expected.json.
func checkExpected(name string, got expectation) error {
	m, err := loadExpected(expectedJSON)
	if err != nil {
		return err
	}
	want, ok := m[name]
	if !ok {
		return fmt.Errorf("expected.json has no entry for %s", name)
	}
	bits := math.Float64bits
	if bits(got.BestPowerMW) != bits(want.BestPowerMW) || bits(got.BestLatencyCyc) != bits(want.BestLatencyCyc) ||
		got.Explored != want.Explored || got.Feasible != want.Feasible || got.Digest != want.Digest {
		return fmt.Errorf("%s: got %+v, expected.json has %+v", name, got, want)
	}
	return nil
}

package main

import "testing"

// The nearest-rank rule: the p-th percentile of n samples is the
// ceil(p·n/100)-th smallest, never an interpolation.
func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"single sample", []float64{7}, 50, 7},
		{"single sample p90", []float64{7}, 90, 7},
		{"even count median is the lower middle", []float64{4, 1, 3, 2}, 50, 2},
		{"odd count median is the middle", []float64{5, 1, 4, 2, 3}, 50, 3},
		{"p90 of 100 leaves ten samples beyond it", hundred, 90, 90},
		{"p50 of 100", hundred, 50, 50},
		{"p100 is the maximum", hundred, 100, 100},
		{"tiny p is the minimum", hundred, 0.1, 1},
		{"p90 of 10 is the ninth", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 90, 9},
		{"p90 of 11 rounds the rank up", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{"ties", []float64{2, 2, 2, 1}, 50, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
}

// op_ms.p90 is the median of the windows' p90s: a burst of slow requests
// in fewer than half of the windows leaves it where the other windows
// put it; a burst in most of them moves it.
func TestWindowedP90(t *testing.T) {
	xs := make([]float64, 0, 20*p90Windows)
	for range p90Windows {
		for i := 1; i <= 20; i++ {
			xs = append(xs, float64(i))
		}
	}
	if got := windowedP90(xs); got != 18 {
		t.Errorf("windowedP90 = %v, want 18", got)
	}
	for i := range 40 {
		xs[i] = 1000 // a burst filling the first two windows
	}
	if got := windowedP90(xs); got != 18 {
		t.Errorf("with a burst in two windows, windowedP90 = %v, want 18", got)
	}
	for i := range 60 {
		xs[i] = 1000 // and the third
	}
	if got := windowedP90(xs); got != 1000 {
		t.Errorf("with a burst in three windows, windowedP90 = %v, want 1000", got)
	}
}

// Each window is clipped at the ends and centred elsewhere, so a
// single outlying kernel run does not move the slowdown of its
// neighbours.
func TestWindowMedians(t *testing.T) {
	got := windowMedians([]float64{1, 9, 1, 1, 5, 5, 5}, 1)
	want := []float64{1, 1, 1, 1, 5, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowMedians = %v, want %v", got, want)
		}
	}
}

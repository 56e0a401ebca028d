package main

import "testing"

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name:  "leaf",
			spans: []span{{name: "op", parent: -1, start: 10, end: 50}},
			want:  []int64{40},
		},
		{
			name: "disjoint children",
			spans: []span{
				{name: "op", parent: -1, start: 0, end: 100},
				{name: "a", parent: 0, start: 10, end: 30},
				{name: "b", parent: 0, start: 50, end: 60},
			},
			want: []int64{70, 20, 10},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{name: "op", parent: -1, start: 0, end: 100},
				{name: "a", parent: 0, start: 10, end: 40},
				{name: "b", parent: 0, start: 30, end: 50},
				{name: "c", parent: 0, start: 20, end: 25},
			},
			want: []int64{60, 30, 20, 5},
		},
		{
			name: "children clipped to the parent",
			spans: []span{
				{name: "op", parent: -1, start: 10, end: 20},
				{name: "a", parent: 0, start: 5, end: 12},
				{name: "b", parent: 0, start: 18, end: 30},
				{name: "c", parent: 0, start: 40, end: 50},
			},
			want: []int64{6, 7, 12, 10},
		},
		{
			name: "only direct children are subtracted",
			spans: []span{
				{name: "op", parent: -1, start: 0, end: 100},
				{name: "candidate", parent: 0, start: 10, end: 90},
				{name: "route", parent: 1, start: 20, end: 70},
			},
			want: []int64{20, 30, 50},
		},
		{
			name: "a child covering its parent leaves no self time",
			spans: []span{
				{name: "op", parent: -1, start: 0, end: 10},
				{name: "a", parent: 0, start: 0, end: 10},
			},
			want: []int64{0, 10},
		},
	} {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestSelfByName(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "route", parent: 0, start: 0, end: 30},
		{name: "route", parent: 0, start: 40, end: 50},
		{name: "power", parent: 0, start: 60, end: 65},
	}
	if ns := selfByName(spans); ns["route"] != 40 || ns["power"] != 5 || ns["op"] != 55 {
		t.Fatalf("self by name %v", ns)
	}
}

// The tracer nests spans by index and stamps them with the current op.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	op := tr.beginOp()
	c := tr.begin("candidate", op)
	r := tr.begin("route", c)
	tr.end(r)
	tr.end(c)
	tr.end(op)
	op2 := tr.beginOp()
	tr.end(op2)
	if got := tr.spans[r]; got.parent != c || got.op != 1 {
		t.Fatalf("route span %+v", got)
	}
	if tr.spans[op2].op != 2 || tr.spans[op2].parent != -1 {
		t.Fatalf("second op span %+v", tr.spans[op2])
	}
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span %d ends before it starts: %+v", i, s)
		}
	}
}

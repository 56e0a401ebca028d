package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestHasCycleAcyclic(t *testing.T) {
	g := NewDirected(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	if has, c := g.HasCycle(); has {
		t.Fatalf("acyclic DAG reported cyclic: %v", c)
	}
	order, ok := g.TopoSort()
	if !ok || len(order) != 5 {
		t.Fatalf("toposort failed: %v %v", order, ok)
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("toposort violates edge %d->%d", e.From, e.To)
		}
	}
}

func TestHasCycleSimple(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	has, cycle := g.HasCycle()
	if !has {
		t.Fatal("3-cycle not detected")
	}
	// witness must be a closed walk along existing edges
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("witness not closed: %v", cycle)
	}
	for i := 1; i < len(cycle); i++ {
		if !g.HasEdge(cycle[i-1], cycle[i]) {
			t.Fatalf("witness uses missing edge %d->%d (%v)", cycle[i-1], cycle[i], cycle)
		}
	}
	if _, ok := g.TopoSort(); ok {
		t.Fatal("toposort of cyclic graph succeeded")
	}
}

func TestHasCycleSelfContained(t *testing.T) {
	// two components, cycle only in the second
	g := NewDirected(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	has, cycle := g.HasCycle()
	if !has {
		t.Fatal("cycle in second component missed")
	}
	for _, v := range cycle {
		if v < 3 {
			t.Fatalf("witness strays into acyclic component: %v", cycle)
		}
	}
}

func TestHasCycleTwoNode(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	if has, _ := g.HasCycle(); !has {
		t.Fatal("2-cycle not detected")
	}
}

func TestHasCycleEmpty(t *testing.T) {
	g := NewDirected(0)
	if has, _ := g.HasCycle(); has {
		t.Fatal("empty graph cyclic?!")
	}
	if _, ok := g.TopoSort(); !ok {
		t.Fatal("empty toposort failed")
	}
}

// Property: HasCycle and TopoSort agree on random graphs, and any
// returned witness is a closed walk.
func TestCycleAgreesWithTopo(t *testing.T) {
	f := func(seed int64) bool {
		r := newLCG(seed)
		n := 2 + int(r.next()%12)
		g := NewDirected(n)
		for i := 0; i < n*2; i++ {
			u := int(r.next() % uint64(n))
			v := int(r.next() % uint64(n))
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		has, cycle := g.HasCycle()
		_, ok := g.TopoSort()
		if has == ok {
			return false // must disagree: cyclic <=> no topo order
		}
		if has {
			if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
				return false
			}
			for i := 1; i < len(cycle); i++ {
				if !g.HasEdge(cycle[i-1], cycle[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesNew rebuilds one graph at shrinking and growing sizes
// (A-B-A) and checks each build against a fresh NewDirected with the
// same edges: edge lists, counts, degrees and the HasCycle verdict and
// witness must all agree, and a warm rebuild must not allocate.
func TestResetMatchesNew(t *testing.T) {
	builds := []struct {
		n     int
		edges [][2]int
	}{
		{6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 5}, {0, 1}}},
		{3, [][2]int{{0, 1}, {1, 2}}},
		{9, [][2]int{{8, 0}, {0, 7}, {7, 8}, {2, 3}}},
		{6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 5}, {0, 1}}},
	}
	var g Directed
	for i, b := range builds {
		want := NewDirected(b.n)
		g.Reset(b.n)
		for _, e := range b.edges {
			want.AddEdge(e[0], e[1], 1)
			g.AddEdge(e[0], e[1], 1)
		}
		if g.N() != want.N() || g.M() != want.M() || !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("build %d: reset graph %d/%d %v, fresh %d/%d %v",
				i, g.N(), g.M(), g.Edges(), want.N(), want.M(), want.Edges())
		}
		for v := 0; v < b.n; v++ {
			if g.InDegree(v) != want.InDegree(v) || g.OutDegree(v) != want.OutDegree(v) {
				t.Fatalf("build %d: degrees of %d differ", i, v)
			}
		}
		gotHas, gotCyc := g.HasCycle()
		wantHas, wantCyc := want.HasCycle()
		if gotHas != wantHas || !reflect.DeepEqual(gotCyc, wantCyc) {
			t.Fatalf("build %d: HasCycle = %v %v, fresh %v %v", i, gotHas, gotCyc, wantHas, wantCyc)
		}
	}
	acyclic := builds[1]
	if allocs := testing.AllocsPerRun(50, func() {
		g.Reset(acyclic.n)
		for _, e := range acyclic.edges {
			g.AddEdge(e[0], e[1], 1)
		}
		if has, _ := g.HasCycle(); has {
			t.Fatal("acyclic build reported a cycle")
		}
	}); allocs != 0 {
		t.Fatalf("warm Reset+AddEdge+HasCycle allocates %v times, want 0", allocs)
	}
}

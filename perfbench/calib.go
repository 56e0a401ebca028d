package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A benchmark run may get a share of a host whose speed changes by 10
// to 20% from one minute to the next and by up to twofold within an
// hour, as neighbours load it. Timings are therefore reported at a
// fixed reference speed: a calibration kernel that is part of the
// benchmark, and so never changes with the program, is run between
// timed requests, and each timed interval is scaled by how much slower
// than its reference time the kernel ran around it. A program change
// that makes a request slower or faster moves the scaled time as it
// moves the wall time; a change in the machine's speed moves both the
// request and the kernel, and cancels out.
//
// The kernel is shortest paths (Dijkstra with a binary heap) over a
// fixed random graph: the same mix of pointer chasing, branches and
// floating point as routing, the engine's largest layer. Its only
// allocations are the goroutines of a parallel run, so it neither
// meets nor leaves garbage of the program's.

// calibNodes and calibDegree size the kernel's graph, whose arrays and
// heaps take about 1 MiB, as much as a D26 engine op allocates: a
// kernel that ran in the first-level caches alone would miss slowdowns
// that come from contention for the shared caches and memory.
// calibSources is how many shortest-path trees one serial kernel run
// computes, and each of GOMAXPROCS workers computes as many in a
// parallel run.
const (
	calibNodes   = 4096
	calibDegree  = 6
	calibSources = 2
)

// calibRefSer and calibRefPar are the reference times of a serial and a
// parallel kernel run: the times at which scaled timings equal wall
// times. They only fix the unit; these are about the kernel's medians
// between requests on a 2-vCPU Xeon (Sapphire Rapids) KVM guest at
// GOMAXPROCS=2, go1.24.
const (
	calibRefSer = 1150 * time.Microsecond
	calibRefPar = 1180 * time.Microsecond
)

// calibGraph is the kernel's input, built once from a fixed seed.
var calibGraph = func() (g struct {
	start []int32
	to    []int32
	w     []float64
}) {
	r := rand.New(rand.NewSource(1))
	for v := 0; v < calibNodes; v++ {
		g.start = append(g.start, int32(len(g.to)))
		for e := 0; e < calibDegree; e++ {
			g.to = append(g.to, int32(r.Intn(calibNodes)))
			g.w = append(g.w, 1+r.Float64())
		}
	}
	g.start = append(g.start, int32(len(g.to)))
	return g
}()

// calibState is one worker's scratch space for the kernel.
type calibState struct {
	dist []float64
	done []bool
	heap []calibItem
}

type calibItem struct {
	d float64
	v int32
}

func newCalibState() *calibState {
	return &calibState{dist: make([]float64, calibNodes), done: make([]bool, calibNodes),
		heap: make([]calibItem, 0, calibNodes*calibDegree)}
}

// tree computes the shortest-path distances from src and returns their
// sum, which is fixed for each src.
func (s *calibState) tree(src int) float64 {
	g := &calibGraph
	for i := range s.dist {
		s.dist[i], s.done[i] = -1, false
	}
	h := append(s.heap[:0], calibItem{0, int32(src)})
	s.dist[src] = 0
	sum := 0.0
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].d < h[c].d {
				c++
			}
			if h[i].d <= h[c].d {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		u := top.v
		if s.done[u] {
			continue
		}
		s.done[u] = true
		sum += top.d
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v, d := g.to[e], top.d+g.w[e]
			if s.dist[v] >= 0 && s.dist[v] <= d {
				continue
			}
			s.dist[v] = d
			h = append(h, calibItem{d, v})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
	}
	s.heap = h
	return sum
}

// calibrator runs the kernel and keeps its checksum, so that the work
// cannot be optimised away and a wrong result shows.
type calibrator struct {
	states []*calibState
	sums   []float64 // per tree, of a parallel run
	want   float64   // checksum of one serial run
	bad    bool      // a run's checksum differed
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.states = append(c.states, newCalibState())
	}
	c.sums = make([]float64, len(c.states)*calibSources)
	for src := 0; src < calibSources; src++ {
		c.want += c.states[0].tree(src)
	}
	return c
}

// serial times one kernel run on the calling goroutine.
func (c *calibrator) serial() time.Duration {
	t0 := time.Now()
	sum := 0.0
	for src := 0; src < calibSources; src++ {
		sum += c.states[0].tree(src)
	}
	d := time.Since(t0)
	if sum != c.want {
		c.bad = true
	}
	return d
}

// parallel times one kernel run on GOMAXPROCS goroutines that claim its
// len(states)·calibSources trees one at a time, as the engine's workers
// claim candidates: a worker that is slowed does less of the work.
func (c *calibrator) parallel() time.Duration {
	sums, n := c.sums, len(c.sums)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, s := range c.states {
		wg.Add(1)
		go func(s *calibState) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				sums[i] = s.tree(i % calibSources)
			}
		}(s)
	}
	wg.Wait()
	d := time.Since(t0)
	for k := 0; k < len(c.states); k++ {
		sum := 0.0
		for src := 0; src < calibSources; src++ {
			sum += sums[k*calibSources+src]
		}
		if sum != c.want {
			c.bad = true
		}
	}
	return d
}

// slowdowns runs the kernel k times serially and k times in parallel,
// alternately, and returns each run's time divided by its reference.
func (c *calibrator) slowdowns(k int) (ser, par []float64) {
	for i := 0; i < k; i++ {
		ser = append(ser, float64(c.serial())/float64(calibRefSer))
		par = append(par, float64(c.parallel())/float64(calibRefPar))
	}
	return ser, par
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one op
// share the op number; parent is the index of the enclosing span, or
// -1 for an op's root span.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory; the traced run writes them out
// once it has finished measuring.
type tracer struct {
	epoch time.Time
	op    int32
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() int32 {
	t.op++
	return t.begin("op", -1)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children are clipped
// to the parent's interval and overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			switch {
			case k == 0:
				curLo, curHi = x[0], x[1]
			case x[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			case x[1] > curHi:
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName sums self time (ns) per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	ns := map[string]int64{}
	for i, s := range spans {
		ns[s.name] += self[i]
	}
	return ns
}

// writeSpans writes the spans as tab-separated rows: op, span index,
// parent index, name, start and end in ns since the tracer's epoch.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark records around a call into a
// layer of the program. Spans of one cell or request share an ID; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) duration() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the code path without paying for it.
// The service workload records from two client goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return t.spans[i].duration()
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (concurrent requests under one phase) and may run past their parent;
// only the covered part of the parent's own interval is subtracted, once.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.duration() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, 0.0
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// traceFile is where a traced run writes its spans.
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-s%d.json", workload, seed))
}

// spansFrom returns a copy of the spans recorded from index i on, with
// parent indices rebased onto the copy (parents before i become roots).
func (t *tracer) spansFrom(i int) []span {
	all := t.snapshot()
	out := append([]span(nil), all[i:]...)
	for k := range out {
		if out[k].Parent < i {
			out[k].Parent = -1
		} else {
			out[k].Parent -= i
		}
	}
	return out
}

package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 5, End: 6},
	}
	self := selfTimes(spans)
	if !near(self[0], 7) || !near(self[1], 2) || !near(self[2], 1) {
		t.Errorf("self times = %v, want [7 2 1]", self)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// Two concurrent requests under one phase: their union, not their
	// sum, is subtracted from the parent.
	spans := []span{
		{Name: "phase", Parent: -1, Start: 0, End: 10},
		{Name: "req", Parent: 0, Start: 1, End: 5},
		{Name: "req", Parent: 0, Start: 3, End: 7},
		{Name: "req", Parent: 0, Start: 8, End: 9},
	}
	self := selfTimes(spans)
	if !near(self[0], 10-6-1) {
		t.Errorf("phase self = %v, want 3", self[0])
	}
	if got := self[1] + self[2] + self[3]; !near(got, 4+4+1) {
		t.Errorf("req self = %v, want 9 (children keep their own durations)", got)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	// A child that starts before or ends after its parent only covers the
	// part inside the parent's interval.
	spans := []span{
		{Name: "cell", Parent: -1, Start: 2, End: 6},
		{Name: "early", Parent: 0, Start: 1, End: 3},
		{Name: "late", Parent: 0, Start: 5, End: 9},
	}
	if self := selfTimes(spans); !near(self[0], 4-1-1) {
		t.Errorf("cell self = %v, want 2", self[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "id", -1)
	if d := tr.end(sp); d != 0 || sp != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something: span %d, duration %v", sp, d)
	}
}

func TestSpansFromRebasesParents(t *testing.T) {
	tr := newTracer()
	old := tr.begin("old", "r0", -1)
	tr.end(old)
	root := tr.begin("round", "r1", old)
	child := tr.begin("cell", "c", root)
	tr.end(child)
	tr.end(root)
	got := tr.spansFrom(root)
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != 0 {
		t.Errorf("spansFrom = %+v, want the round as root and the cell as its child", got)
	}
}

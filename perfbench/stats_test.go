package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false}, // no percentile has ten samples above it
		{n: 19, ok: false}, // p50 of 19 is rank 10: only 9 beyond
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true}, // p75 of 39 is rank 30: 9 beyond
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 360, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-nearestRank(got, tc.n) < tailBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", tc.n, got, tailBeyond)
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted order
	}
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); p != 100 || v != 3 {
		t.Errorf("tail of three samples = %v at p%v, want the maximum 3 at p100", v, p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

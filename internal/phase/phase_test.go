package phase

import (
	"reflect"
	"testing"

	"repro/internal/perf"
)

// synthSigs builds a stream alternating between two synthetic phases: runs
// of intervals dominated by bucket groups around a and b.
func synthSigs(n int, runLen int) []perf.IntervalSignature {
	sigs := make([]perf.IntervalSignature, n)
	for i := range sigs {
		base := 3
		if (i/runLen)%2 == 1 {
			base = 40
		}
		for d := 0; d < 4; d++ {
			sigs[i][(base+d)%perf.SigDims] = uint32(100 + d)
		}
	}
	return sigs
}

func TestBuildPlanShortStreamIsExact(t *testing.T) {
	sigs := synthSigs(5, 2)
	plan, err := BuildPlan(sigs, Config{IntervalOps: 1 << 10, Phases: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Clustered {
		t.Fatal("short stream should not cluster")
	}
	if len(plan.Weights) != 5 || plan.LiveIntervals() != 5 {
		t.Fatalf("want 5 all-live intervals, got %d live of %d", plan.LiveIntervals(), len(plan.Weights))
	}
	for i, w := range plan.Weights {
		if w != 1 {
			t.Fatalf("weight[%d] = %d, want 1", i, w)
		}
	}
}

func TestBuildPlanWeightsConserveIntervals(t *testing.T) {
	const k, stratum = 4, 25
	sigs := synthSigs(100, 10)
	plan, err := BuildPlan(sigs, Config{IntervalOps: 1 << 10, Phases: k, Stratum: stratum, MinIntervals: k + 3})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Clustered {
		t.Fatal("expected a clustered plan")
	}
	if plan.Weights[0] != 1 || plan.Weights[len(plan.Weights)-1] != 1 {
		t.Fatalf("first/last intervals must be pinned at weight 1, got %d/%d",
			plan.Weights[0], plan.Weights[len(plan.Weights)-1])
	}
	sum := uint64(0)
	for _, w := range plan.Weights {
		sum += uint64(w)
	}
	if sum != 100 {
		t.Fatalf("weights sum to %d, want 100: every interval must be represented exactly once", sum)
	}
	// Pinned ends + at most one earliest-pin per cluster + one
	// representative per stratum of the 98 interior intervals.
	if live, max := plan.LiveIntervals(), 2+2*k+(98+stratum-1)/stratum; live > max {
		t.Fatalf("%d live intervals exceed the stratified bound %d", live, max)
	}
	// A clean two-phase alternation should place live weight on both
	// phase shapes, not collapse onto one.
	if live := plan.LiveIntervals(); live < 3 {
		t.Fatalf("only %d live intervals for a two-phase stream", live)
	}
}

// TestBuildPlanMinIntervalsDegeneratesToExact: a stream below the sampling
// threshold — even one long enough to cluster — must fall back to the
// all-ones exact plan rather than sample with too few intervals.
func TestBuildPlanMinIntervalsDegeneratesToExact(t *testing.T) {
	sigs := synthSigs(150, 10)
	plan, err := BuildPlan(sigs, Config{IntervalOps: 1 << 10, Phases: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Clustered {
		t.Fatalf("150 intervals is under DefaultMinIntervals=%d and must not cluster", DefaultMinIntervals)
	}
	if plan.LiveIntervals() != 150 {
		t.Fatalf("degenerate plan must keep all 150 intervals live, got %d", plan.LiveIntervals())
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	sigs := synthSigs(200, 7)
	a, err := BuildPlan(sigs, Config{IntervalOps: 1 << 12, Phases: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(sigs, Config{IntervalOps: 1 << 12, Phases: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildPlan is not deterministic for identical inputs")
	}
}

func TestBuildPlanCoarsens(t *testing.T) {
	sigs := synthSigs(2000, 25)
	plan, err := BuildPlan(sigs, Config{IntervalOps: 1 << 10, Phases: 8, MaxIntervals: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Weights) != 500 {
		t.Fatalf("2000 intervals at cap 512 should merge 4-wise into 500, got %d", len(plan.Weights))
	}
	if plan.IntervalOps != 4<<10 {
		t.Fatalf("coarsened interval size = %d, want %d", plan.IntervalOps, 4<<10)
	}
	sum := uint64(0)
	for _, w := range plan.Weights {
		sum += uint64(w)
	}
	if sum != 500 {
		t.Fatalf("weights sum to %d, want 500", sum)
	}
}

func TestBuildPlanRejectsBadConfig(t *testing.T) {
	sigs := synthSigs(10, 2)
	if _, err := BuildPlan(sigs, Config{IntervalOps: 0}); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if _, err := BuildPlan(sigs, Config{IntervalOps: 1024, Phases: -1}); err == nil {
		t.Fatal("negative phases must be rejected")
	}
	if _, err := BuildPlan(sigs, Config{IntervalOps: 1024, Phases: 8, MaxIntervals: 5}); err == nil {
		t.Fatal("cap below phases+3 must be rejected")
	}
	if _, err := BuildPlan(sigs, Config{IntervalOps: 1024, Phases: 8, Stratum: -2}); err == nil {
		t.Fatal("negative stratum must be rejected")
	}
	if _, err := BuildPlan(sigs, Config{IntervalOps: 1024, Phases: 8, MinIntervals: -1}); err == nil {
		t.Fatal("negative min intervals must be rejected")
	}
}

// planSink keeps BuildPlan's result live so the compiler cannot drop the
// benchmarked call.
var planSink *perf.SamplePlan

// BenchmarkBuildPlan times plan construction at the size the suite's long
// streams coarsen to: 510 intervals clustered into k=16 phases. The
// signatures are deterministic: eight phase shapes in runs of 5–36
// intervals, each bucket count jittered by a fixed LCG.
func BenchmarkBuildPlan(b *testing.B) {
	const n, k = 510, 16
	g := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		g = g*6364136223846793005 + 1442695040888963407
		return g >> 33
	}
	sigs := make([]perf.IntervalSignature, n)
	for i := 0; i < n; {
		shape := int(next() % 8)
		for run := 5 + int(next()%32); run > 0 && i < n; run-- {
			for d := 0; d < 6; d++ {
				sigs[i][(shape*8+d*3)%perf.SigDims] = uint32(200 + 40*d + int(next()%64))
			}
			sigs[i][next()%perf.SigDims] += uint32(next() % 32)
			i++
		}
	}
	cfg := Config{IntervalOps: perf.DefaultSampleInterval, Phases: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := BuildPlan(sigs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		planSink = plan
	}
}

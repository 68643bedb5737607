package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness/report"
)

func TestNormalizeDefaults(t *testing.T) {
	got, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if got.Reps != def.Reps || got.Workers != def.Workers {
		t.Errorf("normalized zero Options = %+v, want DefaultOptions %+v", got, def)
	}
	// Explicit values pass through untouched.
	o := Options{Reps: 5, Workers: 7, IncludeTest: true, FailFast: true}
	got, err = o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reps != 5 || got.Workers != 7 || !got.IncludeTest || !got.FailFast {
		t.Errorf("explicit options mangled: %+v", got)
	}
	// Negative workers collapse to the GOMAXPROCS sentinel.
	got, err = Options{Workers: -3}.Normalize()
	if err != nil || got.Workers != 0 {
		t.Errorf("workers = %d, err = %v", got.Workers, err)
	}
}

func TestNormalizeRejectsNegatives(t *testing.T) {
	if _, err := (Options{Reps: -1}).Normalize(); err == nil {
		t.Error("negative reps accepted")
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	w, err := core.FindWorkload(b, "refrate")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), b, w, Options{Reps: -1}); err == nil {
		t.Error("RunWorkload accepted negative reps")
	}
	s, err := core.NewSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(s, Options{Reps: -1}).Run(context.Background()); err == nil {
		t.Error("Runner.Run accepted negative reps")
	}
}

func TestReportConfig(t *testing.T) {
	o, err := Options{Reps: 2, IncludeTest: true, Workers: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rc := o.ReportConfig()
	if rc.Reps != 2 || rc.Stride != 1 || !rc.IncludeTest || rc.Reference {
		t.Errorf("ReportConfig = %+v", rc)
	}
}

// TestOptionsFromConfig: OptionsFromConfig inverts ReportConfig for exact
// and sampled configs, and rejects stride and reference values other than
// the ones every run records, naming the field.
func TestOptionsFromConfig(t *testing.T) {
	for _, o := range []Options{
		{Reps: 2, IncludeTest: true},
		{Reps: 1, Sampled: true, SampledInterval: 1 << 12, SampledPhases: 5},
	} {
		o, err := o.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptionsFromConfig(o.ReportConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got.ReportConfig() != o.ReportConfig() {
			t.Errorf("round trip of %+v gave %+v", o.ReportConfig(), got.ReportConfig())
		}
	}
	if o, err := OptionsFromConfig(report.RunConfig{}); err != nil || o.Reps != 3 {
		t.Errorf("zero config: %+v, %v (want normalized defaults)", o, err)
	}
	for field, cfg := range map[string]report.RunConfig{
		"stride":    {Stride: 2},
		"reference": {Reference: true},
	} {
		_, err := OptionsFromConfig(cfg)
		if err == nil || !strings.Contains(err.Error(), "config."+field) {
			t.Errorf("%+v: err = %v, want a rejection naming config.%s", cfg, err, field)
		}
	}
	if _, err := OptionsFromConfig(report.RunConfig{Stride: -1}); err == nil {
		t.Error("negative stride accepted")
	}
}

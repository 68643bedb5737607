package harness

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/phase"
)

// runWorkloadSampled is the sampled-mode counterpart of runWorkload's
// repetition loop. A run makes max(2, Reps) executions: the profile pass
// (interval signatures, no probes), the through pass, which probes every
// interval and folds each at its plan weight (dead intervals at weight 0)
// and so is the measurement, and Reps−2 restored measure passes, which
// probe only the plan's live intervals from the through pass's
// checkpoints. The through pass snapshots simulator state only when
// restored passes follow. Each restored pass must reproduce the through
// pass's Report bit for bit — a cross-check of checkpoint and restore —
// and every pass's checksum is cross-checked, so the benchmark's
// architectural execution is verified exact even though probe counters
// extrapolate. WallSeconds is the mean of the restored passes when there
// are any — the steady-state cost of one more sampled measurement — and
// the through pass's wall otherwise.
func runWorkloadSampled(ctx context.Context, b core.Benchmark, w core.Workload, opts Options, p *perf.Profiler, pw core.PreparedWorkload) (report.Measurement, error) {
	name := fmt.Sprintf("%s/%s", b.Name(), w.WorkloadName())
	restored := opts.Reps - 2
	s, err := runSampled(ctx, name, pw, p, opts, restored > 0)
	if err != nil {
		return report.Measurement{}, err
	}
	m := report.Measurement{
		Benchmark:      b.Name(),
		Workload:       w.WorkloadName(),
		Kind:           w.WorkloadKind(),
		Checksum:       s.checksum,
		TopDown:        s.report.TopDown,
		Coverage:       s.report.Coverage,
		Cycles:         s.report.Cycles,
		Sampled:        true,
		ModeledSeconds: perf.ModeledSeconds(s.report.Cycles),
		WallSeconds:    s.wall,
	}
	if restored > 0 {
		m.WallSeconds = 0
		for rep := 0; rep < restored; rep++ {
			_, wall, err := s.restoredPass(ctx, name, pw, p, rep)
			if err != nil {
				return report.Measurement{}, err
			}
			m.WallSeconds += wall
		}
		m.WallSeconds /= float64(restored)
	}
	return m, nil
}

// sampledRun is the outcome of the sampled pipeline's shared front: the
// plan, and the through pass's Report, which is the sampled measurement.
type sampledRun struct {
	plan *perf.SamplePlan
	// report is the through pass's Report, Methods copied out of the
	// profiler's recycled buffer.
	report perf.Report
	// ckpts holds the through pass's snapshots; nil unless asked for.
	ckpts *perf.SampleCheckpoints
	// checksum is the profile pass's; every later pass must match it.
	checksum uint64
	// wall is the through pass's execution time.
	wall float64
}

// runSampled runs the profile pass, builds the plan and runs the through
// pass on p, which must be freshly constructed or Reset. With snapshots
// the through pass is a warm pass, so restoredPass can follow it.
func runSampled(ctx context.Context, name string, pw core.PreparedWorkload, p *perf.Profiler, opts Options, snapshots bool) (*sampledRun, error) {
	fail := func(stage string, err error) (*sampledRun, error) {
		return nil, fmt.Errorf("harness: %s: %s: %w", name, stage, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.BeginSampleProfile(opts.SampledInterval); err != nil {
		return fail("profile", err)
	}
	res, err := pw.Execute(p)
	if err != nil {
		return fail("profile", err)
	}
	s := &sampledRun{checksum: res.Checksum}
	sigs, err := p.FinishSampleProfile()
	if err != nil {
		return fail("profile", err)
	}
	if s.plan, err = phase.BuildPlan(sigs, phase.Config{
		IntervalOps: opts.SampledInterval,
		Phases:      opts.SampledPhases,
	}); err != nil {
		return fail("plan", err)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.Reset()
	if snapshots {
		err = p.BeginSampleWarm(s.plan)
	} else {
		err = p.BeginSampleMeasure(s.plan, nil)
	}
	if err != nil {
		return fail("measure", err)
	}
	start := time.Now()
	if res, err = pw.Execute(p); err != nil {
		return fail("measure", err)
	}
	s.wall = time.Since(start).Seconds()
	if res.Checksum != s.checksum {
		return fail("measure", fmt.Errorf("nondeterministic checksum across passes"))
	}
	s.report = retain(p.Report())
	if snapshots {
		if s.ckpts, err = p.FinishSampleWarm(); err != nil {
			return fail("measure", err)
		}
	}
	return s, nil
}

// restoredPass runs one restored measure pass from the through pass's
// checkpoints and returns its Report and wall time. The Report must equal
// the through pass's bit for bit (wall time aside): a live interval
// restored from a checkpoint starts from the through pass's exact state.
func (s *sampledRun) restoredPass(ctx context.Context, name string, pw core.PreparedWorkload, p *perf.Profiler, rep int) (perf.Report, float64, error) {
	fail := func(err error) (perf.Report, float64, error) {
		return perf.Report{}, 0, fmt.Errorf("harness: %s: restored measure rep %d: %w", name, rep, err)
	}
	if err := ctx.Err(); err != nil {
		return perf.Report{}, 0, err
	}
	p.Reset()
	if err := p.BeginSampleMeasure(s.plan, s.ckpts); err != nil {
		return fail(err)
	}
	start := time.Now()
	res, err := pw.Execute(p)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start).Seconds()
	if res.Checksum != s.checksum {
		return fail(fmt.Errorf("nondeterministic checksum across passes"))
	}
	rpt := retain(p.Report())
	got, want := rpt, s.report
	got.WallTime, want.WallTime = 0, 0
	if !reflect.DeepEqual(got, want) {
		return fail(fmt.Errorf("report differs from the through pass's (cycles %d, want %d)", rpt.Cycles, s.report.Cycles))
	}
	return rpt, wall, nil
}

// retain copies a Report's Methods out of the profiler's recycled buffer,
// so the Report survives the profiler's next Report or Reset.
func retain(r perf.Report) perf.Report {
	r.Methods = append([]perf.MethodProfile(nil), r.Methods...)
	return r
}

// SampledComparison is the paired outcome of measuring one workload both
// exactly and phase-sampled: the two Reports, their per-counter error, the
// plan the sampled run used, and single-pass wall times (one exact
// execution vs one restored measure pass — the steady-state costs).
type SampledComparison struct {
	Exact       perf.Report
	Sampled     perf.Report
	Diff        perf.ReportDiff
	Plan        *perf.SamplePlan
	ExactWall   float64
	SampledWall float64
}

// SampledDiff measures b/w exactly and phase-sampled on the same prepared
// input and returns both sides with their per-counter error. It is the
// engine of the `make diff-sampled` validator and albertabench's sampled
// rows. The sampled side runs the whole pipeline, warm pass included, and
// one restored measure pass, whose Report must equal the warm pass's and
// whose wall time is SampledWall. Options follow Normalize's sampled rules
// (Sampled is implied).
func SampledDiff(ctx context.Context, b core.Benchmark, w core.Workload, opts Options) (*SampledComparison, error) {
	opts.Sampled = true
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", b.Name(), w.WorkloadName())
	pw, err := core.PrepareOrRun(b, w)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: prepare: %w", name, err)
	}

	p := perf.New()
	start := time.Now()
	res, err := pw.Execute(p)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: exact: %w", name, err)
	}
	c := &SampledComparison{ExactWall: time.Since(start).Seconds(), Exact: retain(p.Report())}

	p.Reset()
	s, err := runSampled(ctx, name, pw, p, opts, true)
	if err != nil {
		return nil, err
	}
	if s.checksum != res.Checksum {
		return nil, fmt.Errorf("harness: %s: profile: nondeterministic checksum across passes", name)
	}
	c.Plan = s.plan
	if c.Sampled, c.SampledWall, err = s.restoredPass(ctx, name, pw, p, 0); err != nil {
		return nil, err
	}
	c.Diff = perf.ReportError(c.Exact, c.Sampled)
	return c, nil
}

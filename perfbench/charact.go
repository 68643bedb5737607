package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/phase"
	"repro/internal/sweep"
	"repro/internal/uarch"
)

// benchBudget is one benchmark of a characterization workload and the
// simulated ops one round spends on it.
type benchBudget struct {
	name string
	ops  uint64
}

// charWorkload characterizes seed-generated inputs of a few benchmarks
// serially (Workers 1, Reps 1) through harness.NewPlanRunner, selects
// representatives with sweep.Accumulator, and encodes the envelope with
// report.Build and Suite.Encode.
//
// Generated inputs differ up to 40x in simulated ops from seed to seed,
// so a round is a fixed budget of simulated ops per benchmark, not a fixed
// number of inputs: each benchmark takes its first generated inputs until
// their ops reach its budget, and every time or byte count of those cells
// is scaled by budget/ops. Rounds of different seeds then stand for the
// same simulated work.
type charWorkload struct {
	benches []benchBudget
	sampled bool
	// guard is the traced run's workload-mix check: given the median
	// compute fraction and uarch share of the exact pass, it names the
	// contrast a seed's inputs erased, or returns "".
	guard func(computeFrac, uarchShare float64) string
}

// poolSize is how many inputs per benchmark set-up generates; a budget
// that needs more regenerates a longer prefix (generators are
// prefix-stable) in the warm-up round.
const poolSize = 16

// planCell is one input of the round plan with its warm-up record.
type planCell struct {
	bench core.Benchmark
	w     core.Workload
	id    string
	rec   cellRecord
	scale float64 // budget/ops of the cell's benchmark
}

// charState is what set-up and the warm-up round produce.
type charState struct {
	suite *core.Suite
	pools map[string][]core.Workload
	cells []planCell
}

func (cw charWorkload) options() (harness.Options, error) {
	return harness.Options{Workers: 1, Reps: 1, Sampled: cw.sampled}.Normalize()
}

// setup builds the suite and generates every benchmark's input pool: the
// part of a run that precedes measured work.
func (cw charWorkload) setup(seed int64) (*charState, error) {
	suite, err := benchmarks.Suite()
	if err != nil {
		return nil, err
	}
	st := &charState{suite: suite, pools: map[string][]core.Workload{}}
	for _, bb := range cw.benches {
		ws, err := generate(suite, bb.name, seed, poolSize)
		if err != nil {
			return nil, err
		}
		st.pools[bb.name] = ws
	}
	return st, nil
}

func generate(suite *core.Suite, name string, seed int64, n int) ([]core.Workload, error) {
	b, ok := suite.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %s", name)
	}
	gen, ok := b.(core.Generator)
	if !ok {
		return nil, fmt.Errorf("%s cannot generate inputs", name)
	}
	return gen.GenerateWorkloads(seed, n)
}

// warmUp characterizes each benchmark's inputs exactly, in generation
// order, until their simulated ops reach the budget. It fixes the round
// plan, records each cell's reference output and checks it against the
// golden records. It is not timed: it fills caches and lets lazy set-up
// finish before measurement.
func (cw charWorkload) warmUp(st *charState, seed int64, g golden, led *ledger) error {
	p := perf.New()
	for _, bb := range cw.benches {
		b, _ := st.suite.Lookup(bb.name)
		var cells []planCell
		var ops uint64
		for i := 0; ops < bb.ops; i++ {
			if i == len(st.pools[bb.name]) {
				ws, err := generate(st.suite, bb.name, seed, 4*i)
				if err != nil {
					return err
				}
				st.pools[bb.name] = ws
			}
			w := st.pools[bb.name][i]
			rec, err := exactRecord(b, w, p)
			if err != nil {
				return err
			}
			c := planCell{bench: b, w: w, id: cellID(bb.name, w.WorkloadName()), rec: rec}
			led.attempt(g.check(c.id, rec))
			cells = append(cells, c)
			ops += rec.Total.Ops
		}
		for i := range cells {
			cells[i].scale = float64(bb.ops) / float64(ops)
		}
		st.cells = append(st.cells, cells...)
	}
	return nil
}

// exactRecord prepares w and characterizes it exactly on the recycled
// profiler p.
func exactRecord(b core.Benchmark, w core.Workload, p *perf.Profiler) (cellRecord, error) {
	id := cellID(b.Name(), w.WorkloadName())
	pw, err := core.PrepareOrRun(b, w)
	if err != nil {
		return cellRecord{}, fmt.Errorf("%s: prepare: %w", id, err)
	}
	p.Reset()
	res, err := pw.Execute(p)
	if err != nil {
		return cellRecord{}, fmt.Errorf("%s: %w", id, err)
	}
	return recordOf(res.Checksum, p.Report()), nil
}

func (cw charWorkload) budgetOps() uint64 {
	var total uint64
	for _, bb := range cw.benches {
		total += bb.ops
	}
	return total
}

// sweepConfig is the representative selection that ends every round.
func sweepConfig(suite *core.Suite, cells []planCell, seed int64) (sweep.Config, error) {
	perBench := map[string]int{}
	var names []string
	most := 0
	for _, c := range cells {
		if perBench[c.bench.Name()] == 0 {
			names = append(names, c.bench.Name())
		}
		perBench[c.bench.Name()]++
		if perBench[c.bench.Name()] > most {
			most = perBench[c.bench.Name()]
		}
	}
	return sweep.Config{Benchmarks: names, PerBenchmark: most, Seed: seed, K: 3}.Normalize(suite)
}

// envelopeSections are the sections a generated-input envelope can fill:
// the kernel analysis needs a refrate input, which generated sets lack.
var envelopeSections = report.Sections{Measurements: true, Table1: true, Table2: true, Figure1: true, Figure2: true}

// finish reduces a round's measurements to representatives and encodes
// its envelope: the work every round ends with, traced or not. It returns
// the envelope size in bytes.
func finish(tr *tracer, parent int, swCfg sweep.Config, cfg report.RunConfig, ms []report.Measurement) (int, error) {
	acc := sweep.NewAccumulator(swCfg)
	for i, m := range ms {
		acc.Add(i, m)
	}
	sp := tr.begin(spanReduce, "round", parent)
	_, err := acc.Report(cfg)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(spanBuild, "round", parent)
	env, err := report.Build(report.Assemble(ms), cfg, report.BuildOptions{Sections: envelopeSections})
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(spanEncode, "round", parent)
	data, err := env.Encode()
	tr.end(sp)
	return len(data), err
}

// roundSample is one untraced round: each benchmark's cell time and
// allocation scaled to its op budget, plus the round's fixed work (the
// Runner and its profiler, reduce and envelope) unscaled.
type roundSample struct {
	wall    float64 // scaled cells plus the round's fixed work
	cells   float64 // scaled cells alone
	allocMB float64
}

// runRound characterizes the plan once through the harness and checks
// every measurement: an exact one against the warm-up record, a sampled
// one (whose probe counters are extrapolated) against the exact checksum,
// its golden record and the first round.
func runRound(ctx context.Context, opts harness.Options, cells []planCell, swCfg sweep.Config, first []report.Measurement, g golden, led *ledger) (roundSample, []report.Measurement, error) {
	units := make([]harness.Unit, len(cells))
	for i, c := range cells {
		units[i] = harness.Unit{Benchmark: c.bench, Workload: c.w}
	}
	ms := make([]report.Measurement, len(units))
	var (
		mem                  runtime.MemStats
		cellStart            time.Time
		cellAlloc            uint64
		cellTime, cellsAlloc float64
	)
	// Progress start events fire after the Runner has set up the cell's
	// profiler, so a cell's span is start event to sink delivery.
	opts.Progress = func(e harness.Event) {
		if e.Kind == harness.EventWorkloadStart {
			runtime.ReadMemStats(&mem)
			cellStart, cellAlloc = time.Now(), mem.TotalAlloc
		}
	}
	var rs roundSample
	runtime.GC()
	runtime.ReadMemStats(&mem)
	roundAlloc := mem.TotalAlloc
	start := time.Now()
	err := harness.NewPlanRunner(units, opts).Stream(ctx, func(c harness.Cell, m report.Measurement) error {
		d := time.Since(cellStart).Seconds()
		runtime.ReadMemStats(&mem)
		a := float64(mem.TotalAlloc-cellAlloc) / 1e6
		pc := cells[c.Index]
		cellTime += d
		cellsAlloc += a
		rs.cells += d * pc.scale
		rs.allocMB += a * pc.scale
		ms[c.Index] = m
		return nil
	})
	if err != nil {
		return roundSample{}, nil, err
	}
	if _, err := finish(nil, -1, swCfg, opts.ReportConfig(), ms); err != nil {
		return roundSample{}, nil, err
	}
	rs.wall = rs.cells + time.Since(start).Seconds() - cellTime
	runtime.ReadMemStats(&mem)
	rs.allocMB += float64(mem.TotalAlloc-roundAlloc)/1e6 - cellsAlloc
	for i, m := range ms {
		c := cells[i]
		if !opts.Sampled {
			led.attempt(mismatch(c.id+" checksum", m.Checksum, c.rec.Checksum),
				mismatch(c.id+" cycles", m.Cycles, c.rec.Cycles))
			continue
		}
		want := m.Cycles
		if first != nil {
			want = first[i].Cycles
		}
		led.attempt(mismatch(c.id+" checksum", m.Checksum, c.rec.Checksum),
			mismatch(c.id+" sampled cycles across rounds", m.Cycles, want),
			g.check(sampledID(c.id), cellRecord{Checksum: m.Checksum, Cycles: m.Cycles}))
	}
	return rs, ms, nil
}

// sampledID keys the golden record of a cell's phase-sampled measurement.
func sampledID(id string) string { return "sampled:" + id }

// layers is one traced round's per-layer numbers: self times of the
// round's spans summed by span name, each cell's scaled to the budget like
// wall_s. Interval and uarch counts are raw sums over the round's cells,
// which repeat exactly for a seed.
type layers struct {
	self          map[string]float64
	eventsScaled  float64 // loads+stores+branches, scaled
	envelopeBytes float64
	intervals     float64
	live          float64
	maxCounterErr float64
	counts        uarch.Events
	sampled       bool
}

// Span names of the traced decomposition.
const (
	spanRound         = "round"
	spanCell          = "cell"
	spanPrepare       = "core.prepare"
	spanCompute       = "benchmarks.compute"
	spanProfile       = "perf.profile_pass"
	spanProfileReport = "check.profile_report"
	spanPlan          = "phase.plan"
	spanWarm          = "phase.warm"
	spanMeasure       = "phase.measure"
	spanReportSampled = "perf.report_sampled"
	spanExact         = "uarch.exact_pass"
	spanReport        = "perf.report"
	spanReduce        = "sweep.reduce"
	spanBuild         = "report.build"
	spanEncode        = "report.encode"
	spanGC            = "check.gc"
)

// pathSum is the sum of the self times on the path a user pays for: the
// exact pass (compute + bookkeeping + probes) or the sampled pipeline,
// plus prepare, report, reduce, build and encode.
func (l layers) pathSum() float64 {
	names := []string{spanPrepare, spanExact, spanReport}
	if l.sampled {
		names = []string{spanPrepare, spanProfile, spanPlan, spanWarm, spanMeasure, spanReportSampled}
	}
	names = append(names, spanReduce, spanBuild, spanEncode)
	s := 0.0
	for _, n := range names {
		s += l.self[n]
	}
	return s
}

// tracedTime is the traced round's time on the user's path: the path's
// layers plus the loop glue around them, without the diagnostic passes.
func (l layers) tracedTime() float64 {
	return l.pathSum() + l.self[spanCell] + l.self[spanRound]
}

// tracedRound characterizes every cell outside the harness, one layer at
// a time, under spans: Prepare; the exact pass; Execute with a nil
// profiler (benchmark compute); the sampled profile pass (event
// bookkeeping, no probes); phase.BuildPlan with the warm and measure
// passes; and Profiler.Report after the measuring passes. Differences
// between passes split Execute into layers: compute = nil pass, perf
// bookkeeping = profile - nil, uarch probes = exact - profile. Every pass's
// outputs are checked against each other, the warm-up record and the
// golden records.
func tracedRound(tr *tracer, round int, cells []planCell, swCfg sweep.Config, cfg report.RunConfig, g golden, led *ledger) (layers, error) {
	l := layers{sampled: cfg.Sampled}
	first := tr.count()
	root := tr.begin(spanRound, fmt.Sprintf("round-%d", round), -1)
	ms := make([]report.Measurement, len(cells))
	// The exact pass keeps a profiler of its own, recycled across cells as
	// the harness recycles its worker's, so the sampled passes leave no
	// state in it.
	pe, p := perf.New(), perf.New()
	pcfg := phase.Config{IntervalOps: perf.DefaultSampleInterval, Phases: phase.DefaultPhases}
	for i, c := range cells {
		cellSpan := tr.begin(spanCell, c.id, root)
		step := func(name string, fn func() error) error {
			sp := tr.begin(name, c.id, cellSpan)
			defer tr.end(sp)
			return fn()
		}
		var (
			pw                         core.PreparedWorkload
			exRes, nilRes, profRes     core.Result
			measRes                    core.Result
			sigs                       []perf.IntervalSignature
			plan                       *perf.SamplePlan
			ckpts                      *perf.SampleCheckpoints
			profRep, sampRep, exactRep perf.Report
		)
		// The exact pass runs right after Prepare, as in the harness, and
		// the diagnostic passes follow it; a collection after the cell
		// keeps their garbage (warm-pass checkpoints) off the next cell.
		err := step(spanPrepare, func() (e error) { pw, e = core.PrepareOrRun(c.bench, c.w); return })
		if err == nil {
			pe.Reset()
			err = step(spanExact, func() (e error) { exRes, e = pw.Execute(pe); return })
		}
		if err == nil {
			step(spanReport, func() error { exactRep = pe.Report(); return nil })
			err = step(spanCompute, func() (e error) { nilRes, e = pw.Execute(nil); return })
		}
		if err == nil {
			p.Reset()
			err = p.BeginSampleProfile(pcfg.IntervalOps)
		}
		if err == nil {
			err = step(spanProfile, func() (e error) {
				if profRes, e = pw.Execute(p); e == nil {
					sigs, e = p.FinishSampleProfile()
				}
				return
			})
		}
		if err == nil {
			step(spanProfileReport, func() error { profRep = p.Report(); return nil })
			err = step(spanPlan, func() (e error) { plan, e = phase.BuildPlan(sigs, pcfg); return })
		}
		if err == nil {
			p.Reset()
			err = p.BeginSampleWarm(plan)
		}
		if err == nil {
			err = step(spanWarm, func() (e error) {
				if _, e = pw.Execute(p); e == nil {
					ckpts, e = p.FinishSampleWarm()
				}
				return
			})
		}
		if err == nil {
			p.Reset()
			err = p.BeginSampleMeasure(plan, ckpts)
		}
		if err == nil {
			err = step(spanMeasure, func() (e error) { measRes, e = pw.Execute(p); return })
		}
		if err != nil {
			return l, fmt.Errorf("%s: %w", c.id, err)
		}
		step(spanReportSampled, func() error { sampRep = p.Report(); return nil })
		tr.end(cellSpan)
		gc := tr.begin(spanGC, c.id, root)
		runtime.GC()
		tr.end(gc)

		rec := recordOf(exRes.Checksum, exactRep)
		arch := archOf(exactRep.Total)
		led.attempt(
			mismatch(c.id+" nil-pass checksum", nilRes.Checksum, rec.Checksum),
			mismatch(c.id+" profile-pass checksum", profRes.Checksum, rec.Checksum),
			mismatch(c.id+" measure-pass checksum", measRes.Checksum, rec.Checksum),
			mismatch(c.id+" profile-pass counters", archOf(profRep.Total), arch),
			mismatch(c.id+" sampled counters", archOf(sampRep.Total), arch),
			mismatch(c.id+" exact pass vs warm-up", rec, c.rec),
			g.check(c.id, rec),
			g.check(sampledID(c.id), cellRecord{Checksum: measRes.Checksum, Cycles: sampRep.Cycles}))

		l.eventsScaled += c.scale * float64(exactRep.Total.Loads+exactRep.Total.Stores+exactRep.Total.Branches)
		l.intervals += float64(plan.Intervals())
		l.live += float64(plan.LiveIntervals())
		l.counts.Add(exactRep.Total)
		if e := gatedMaxError(perf.ReportError(exactRep, sampRep)); e > l.maxCounterErr {
			l.maxCounterErr = e
		}
		if cfg.Sampled {
			ms[i] = measurementOf(c, measRes.Checksum, sampRep, true)
		} else {
			ms[i] = measurementOf(c, exRes.Checksum, exactRep, false)
		}
	}
	n, err := finish(tr, root, swCfg, cfg, ms)
	if err != nil {
		return l, err
	}
	tr.end(root)
	l.envelopeBytes = float64(n)

	scale := map[string]float64{}
	for _, c := range cells {
		scale[c.id] = c.scale
	}
	spans := tr.spansFrom(first)
	self := selfTimes(spans)
	l.self = map[string]float64{}
	for i, s := range spans {
		f, ok := scale[s.ID]
		if !ok {
			f = 1 // round-level spans
		}
		l.self[s.Name] += f * self[i]
	}
	return l, nil
}

// gatedMaxError is the worst relative counter error among the rows the
// sampled-mode gate judges: rows backed by at least perf.SparseMin exact
// events (sparser rows are shot noise and ungated).
func gatedMaxError(d perf.ReportDiff) float64 {
	worst := 0.0
	for _, c := range d.Counters {
		if c.Events >= perf.SparseMin && c.Rel > worst {
			worst = c.Rel
		}
	}
	return worst
}

// measurementOf summarizes a Report the way the harness does.
func measurementOf(c planCell, checksum uint64, r perf.Report, sampled bool) report.Measurement {
	return report.Measurement{
		Benchmark:      c.bench.Name(),
		Workload:       c.w.WorkloadName(),
		Kind:           c.w.WorkloadKind(),
		Checksum:       checksum,
		TopDown:        r.TopDown,
		Coverage:       r.Coverage,
		Cycles:         r.Cycles,
		ModeledSeconds: perf.ModeledSeconds(r.Cycles),
		Sampled:        sampled,
	}
}

// The characterization workloads. Budgets give each round about 2.5 s of
// exact characterization on a 2-core Xeon; the mix guards' thresholds are
// also recorded in BENCHMARK.json beside each workload's reason.
var (
	computeBound = charWorkload{
		benches: []benchBudget{{"541.leela_r", 40e6}, {"531.deepsjeng_r", 150e6}},
		guard: func(computeFrac, _ float64) string {
			if computeFrac < 0.5 {
				return fmt.Sprintf("benchmarks.compute_frac %.3f < 0.5: benchmark compute no longer dominates", computeFrac)
			}
			return ""
		},
	}
	simBound = charWorkload{
		benches: []benchBudget{{"505.mcf_r", 50e6}, {"520.omnetpp_r", 20e6}, {"557.xz_r", 20e6}},
		guard: func(_, uarchShare float64) string {
			if uarchShare < 0.6 {
				return fmt.Sprintf("uarch.share %.3f < 0.6: simulator probes no longer dominate", uarchShare)
			}
			return ""
		},
	}
	sampledWorkload = charWorkload{benches: simBound.benches, sampled: true}
)

func (l layers) computeFrac() float64 { return l.self[spanCompute] / l.self[spanExact] }

func (l layers) uarchShare() float64 {
	return (l.self[spanExact] - l.self[spanProfile]) / l.self[spanExact]
}

// run is a characterization workload's whole run: set-up (several times,
// for a steady setup_s), the warm-up round, then measured rounds until
// the time is up; a traced run follows each untraced round with a traced
// one.
func (cw charWorkload) run(ctx context.Context, rc runConfig) (*outcome, error) {
	led := &ledger{}
	var st *charState
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := cw.setup(rc.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	if err := cw.warmUp(st, rc.seed, rc.golden, led); err != nil {
		return nil, err
	}
	opts, err := cw.options()
	if err != nil {
		return nil, err
	}
	swCfg, err := sweepConfig(st.suite, st.cells, rc.seed)
	if err != nil {
		return nil, err
	}
	rounds, traced, rss, err := measure(ctx, rc, opts, st.cells, swCfg, led)
	if err != nil {
		return nil, err
	}
	if rc.record != nil {
		for _, c := range st.cells {
			rc.record[c.id] = c.rec
		}
	}
	fmt.Fprintf(rc.out, "# %d cells per round: %s\n", len(st.cells), budgetLine(cw.benches, st.cells))
	walls, mips, allocs := make([]float64, len(rounds)), make([]float64, len(rounds)), make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i], mips[i], allocs[i] = r.wall, float64(cw.budgetOps())/r.cells/1e6, r.allocMB
	}
	if rc.tracer != nil {
		return &outcome{metrics: layerMetrics(rc.out, rounds, traced, cw.guard, median(allocs), rss), led: led}, nil
	}
	fmt.Fprintf(rc.out, "# medians of %d set-ups and %d rounds; round wall_s: %s\n", len(setups), len(rounds), seriesLine(walls))
	printMemory(rc.out, median(allocs), rss)
	return &outcome{led: led, metrics: []metric{
		{"setup_s", "s", median(setups)},
		{"wall_s", "s", median(walls)},
		{"sim_mips", "Mops/s", median(mips)},
	}}, nil
}

// printMemory prints the memory metrics. They are per-layer metrics, not
// end-to-end ones: across seeds they follow the inputs' structure (a
// sampled input allocates 2 MB when its plan degenerates to exact and
// 100 MB of checkpoints when it does not), so no run of a few tens of
// seconds makes them steady from seed to seed (METRICS.md).
func printMemory(out io.Writer, allocMB, rssMB float64) {
	fmt.Fprintf(out, "# alloc_mb %.4f MB (median per round), peak_rss_mb %.4f MB (per-layer metrics)\n", allocMB, rssMB)
}

// measure runs untraced rounds until the time is up, each followed, in a
// traced run, by a traced round of the same cells.
//
// It also returns the peak RSS before the first traced round: the traced
// round's diagnostic passes (warm-pass checkpoints above all) raise the
// high-water mark beyond anything the untraced work reaches.
func measure(ctx context.Context, rc runConfig, opts harness.Options, cells []planCell, swCfg sweep.Config, led *ledger) ([]roundSample, []layers, float64, error) {
	need := minRounds
	if rc.tracer != nil {
		need = 1 // a traced round costs about five untraced ones
	}
	var (
		rounds []roundSample
		traced []layers
		first  []report.Measurement
		rss    float64
	)
	deadline := time.Now().Add(rc.seconds)
	for len(rounds) < need || time.Now().Before(deadline) {
		rs, ms, err := runRound(ctx, opts, cells, swCfg, first, rc.golden, led)
		if err != nil {
			return nil, nil, 0, err
		}
		if first == nil {
			first = ms
			if rc.record != nil && opts.Sampled {
				for i, c := range cells {
					rc.record[sampledID(c.id)] = cellRecord{Checksum: ms[i].Checksum, Cycles: ms[i].Cycles}
				}
			}
		}
		rounds = append(rounds, rs)
		if rc.tracer != nil {
			if rss == 0 {
				rss = peakRSSMB()
			}
			l, err := tracedRound(rc.tracer, len(traced), cells, swCfg, opts.ReportConfig(), rc.golden, led)
			if err != nil {
				return nil, nil, 0, err
			}
			traced = append(traced, l)
		}
	}
	if rss == 0 {
		rss = peakRSSMB()
	}
	return rounds, traced, rss, nil
}

func budgetLine(bs []benchBudget, cells []planCell) string {
	var parts []string
	for _, bb := range bs {
		n := 0
		for _, c := range cells {
			if c.bench.Name() == bb.name {
				n++
			}
		}
		parts = append(parts, fmt.Sprintf("%s %d inputs for %.0fM ops", bb.name, n, float64(bb.ops)/1e6))
	}
	return strings.Join(parts, ", ")
}

// reconcileTol is how far the per-layer self times on the user's path may
// sum from the untraced wall_s of the same run before the traced run flags
// the gap.
const reconcileTol = 0.10

// layerMetrics turns the traced rounds into the per-layer metrics (medians
// over rounds) and prints the reconciliation and the mix guard.
func layerMetrics(out io.Writer, rounds []roundSample, traced []layers, guard func(computeFrac, uarchShare float64) string, allocMB, rssMB float64) []metric {
	med := func(f func(l layers) float64) float64 {
		xs := make([]float64, len(traced))
		for i, l := range traced {
			xs[i] = f(l)
		}
		return median(xs)
	}
	self := func(name string) func(layers) float64 { return func(l layers) float64 { return l.self[name] } }
	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i] = r.wall
	}
	untraced := median(walls)
	sum := med(layers.pathSum)
	tracedTime := med(layers.tracedTime)
	gap := (untraced - sum) / untraced
	computeFrac, uarchShare := med(layers.computeFrac), med(layers.uarchShare)
	last := traced[len(traced)-1]
	counts := last.counts
	reportName := spanReport
	if last.sampled {
		reportName = spanReportSampled
	}
	bookkeeping := func(l layers) float64 { return l.self[spanProfile] - l.self[spanCompute] }
	probes := func(l layers) float64 { return l.self[spanExact] - l.self[spanProfile] }
	ms := []metric{
		{"core.prepare_s", "s", med(self(spanPrepare))},
		{"benchmarks.compute_s", "s", med(self(spanCompute))},
		{"benchmarks.compute_frac", "fraction", computeFrac},
		{"perf.bookkeeping_s", "s", med(bookkeeping)},
		{"perf.ns_per_event", "ns", med(func(l layers) float64 { return bookkeeping(l) / l.eventsScaled * 1e9 })},
		{"perf.report_s", "s", med(self(reportName))},
		{"uarch.probe_s", "s", med(probes)},
		{"uarch.ns_per_event", "ns", med(func(l layers) float64 { return probes(l) / l.eventsScaled * 1e9 })},
		{"uarch.share", "fraction", uarchShare},
		{"uarch.ops", "count", float64(counts.Ops)},
		{"uarch.loads", "count", float64(counts.Loads)},
		{"uarch.stores", "count", float64(counts.Stores)},
		{"uarch.branches", "count", float64(counts.Branches)},
		{"uarch.mispredicts", "count", float64(counts.Mispredicts)},
		{"uarch.l2_hits", "count", float64(counts.L2Hits)},
		{"uarch.llc_hits", "count", float64(counts.LLCHits)},
		{"uarch.mem_hits", "count", float64(counts.MemHits)},
		{"uarch.tlb_misses", "count", float64(counts.TLBMisses)},
		{"uarch.ic_misses", "count", float64(counts.ICMisses)},
		{"phase.profile_s", "s", med(self(spanProfile))},
		{"phase.plan_s", "s", med(self(spanPlan))},
		{"phase.warm_s", "s", med(self(spanWarm))},
		{"phase.measure_s", "s", med(self(spanMeasure))},
		{"phase.intervals", "count", last.intervals},
		{"phase.live_frac", "fraction", last.live / last.intervals},
		{"phase.max_counter_err", "fraction", last.maxCounterErr},
		{"harness.overhead_s", "s", untraced - sum},
		{"report.build_s", "s", med(self(spanBuild))},
		{"report.encode_s", "s", med(self(spanEncode))},
		{"report.envelope_bytes", "bytes", last.envelopeBytes},
		{"sweep.reduce_s", "s", med(self(spanReduce))},
		{"trace.layer_sum_s", "s", sum},
		{"trace.untraced_wall_s", "s", untraced},
		{"trace.gap_frac", "fraction", gap},
		{"trace.overhead_frac", "fraction", (tracedTime - untraced) / untraced},
		{"alloc_mb", "MB", allocMB},
		{"peak_rss_mb", "MB", rssMB},
	}
	fmt.Fprintf(out, "# reconciliation over %d untraced and %d traced rounds: layer self times sum to %.4f s, untraced wall_s %.4f s, gap %+.2f%% (tolerance %.0f%%), tracing overhead %+.2f%%\n",
		len(rounds), len(traced), sum, untraced, 100*gap, 100*reconcileTol, 100*(tracedTime-untraced)/untraced)
	if gap > reconcileTol || gap < -reconcileTol {
		fmt.Fprintf(out, "# RECONCILIATION FLAG: layers and untraced wall_s differ by %+.2f%%\n", 100*gap)
	}
	fmt.Fprintf(out, "# mix: benchmarks.compute_frac %.3f, uarch.share %.3f\n", computeFrac, uarchShare)
	if guard != nil {
		if msg := guard(computeFrac, uarchShare); msg != "" {
			fmt.Fprintf(out, "# MIX GUARD FLAG: %s\n", msg)
		}
	}
	return ms
}

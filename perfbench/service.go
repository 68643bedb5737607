package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/sweep"
)

// The service_sweep workload drives an in-process albertad coordinator
// with one in-process worker (RunWorkers 1 each) over loopback listeners.
// Every round starts a fresh fleet, so its cell store is empty:
//
//   - cold phase: one POST /v1/sweeps of svcPerBenchmark generated inputs
//     for each of svcBenchmarks, then one POST /v1/jobs over their
//     inventory; cold cells execute one at a time on the remote worker;
//   - cached phase: svcCachedRounds cached rounds, in each of which one
//     closed-loop client makes svcIterations passes of {POST /v1/jobs with
//     a presentation-only variant, GET its result, POST /v1/sweeps again},
//     all answered from the cell store.
//
// One client and serial cells keep the load at one busy core of the two,
// so the figures measure the service rather than the scheduler.
var svcBenchmarks = []string{"502.gcc_r", "520.omnetpp_r", "523.xalancbmk_r"}

const (
	svcPerBenchmark = 8
	svcIterations   = 8
	svcCachedRounds = 3
)

// svcVariants are the presentation-only job variants of the cached phase:
// different sections and Figure 2 folds over the same cells.
var svcVariants = []service.JobRequest{
	{},
	{Sections: []string{"measurements", "table2"}},
	{Sections: []string{"figure2"}, Figure2TopN: 3},
	{Sections: []string{"table1", "figure1", "kernels"}},
}

var svcConfig = report.RunConfig{Reps: 1, Stride: 1}

// svcCells lists the cold phase's cells, sweep cells first, in the order
// the server plans them.
func svcCells(suite *core.Suite, seed int64) ([]planCell, error) {
	cfg, err := sweep.Config{Benchmarks: svcBenchmarks, PerBenchmark: svcPerBenchmark, Seed: seed}.Normalize(suite)
	if err != nil {
		return nil, err
	}
	units, err := sweep.Plan(suite, cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range svcBenchmarks {
		b, _ := suite.Lookup(name)
		ws, err := core.MeasurementWorkloads(b)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			units = append(units, harness.Unit{Benchmark: b, Workload: w})
		}
	}
	cells := make([]planCell, len(units))
	for i, u := range units {
		cells[i] = planCell{bench: u.Benchmark, w: u.Workload, id: cellID(u.Benchmark.Name(), u.Workload.WorkloadName()), scale: 1}
	}
	return cells, nil
}

// fleet is one coordinator and one worker serving on loopback.
type fleet struct {
	coord, worker *service.Server
	servers       []*http.Server
	serving       sync.WaitGroup
	base          string
	client        *http.Client
}

func startFleet(suite *core.Suite) (*fleet, error) {
	f := &fleet{client: &http.Client{}}
	worker, err := service.NewServer(service.Config{Suite: suite, WorkerOnly: true, RunWorkers: 1})
	if err != nil {
		return nil, err
	}
	f.worker = worker
	workerURL, err := f.serve(worker.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	coord, err := service.NewServer(service.Config{Suite: suite, JobWorkers: 1, RunWorkers: 1, Workers: []string{workerURL}})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	if f.base, err = f.serve(coord.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop drains both servers, shuts their listeners and waits for them.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.Drain()
	}
	if f.worker != nil {
		f.worker.Drain()
	}
	for _, s := range f.servers {
		s.Shutdown(context.Background())
	}
	f.serving.Wait()
	f.client.CloseIdleConnections()
}

// call makes one request and reads the whole body. A non-2xx status is an
// error that names the request.
func (f *fleet) call(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, data, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, data, nil
}

// sweepFrame is the part of a /v1/sweeps NDJSON frame the checks read.
type sweepFrame struct {
	Kind      string `json:"kind"`
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	Checksum  uint64 `json:"checksum"`
	Cycles    uint64 `json:"cycles"`
	Source    string `json:"source"`
	Error     string `json:"error"`
}

// sweepResult is one /v1/sweeps stream: its cell frames and the raw bytes
// of its report frame.
type sweepResult struct {
	cells  []sweepFrame
	report []byte
}

func (f *fleet) sweep(ctx context.Context, seed int64) (sweepResult, error) {
	var res sweepResult
	_, data, err := f.call(ctx, http.MethodPost, "/v1/sweeps", service.SweepRequest{
		Benchmarks: svcBenchmarks, PerBenchmark: svcPerBenchmark, Seed: seed, K: 3, Config: svcConfig,
	})
	if err != nil {
		return res, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var fr sweepFrame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return res, fmt.Errorf("sweep frame: %w", err)
		}
		switch fr.Kind {
		case "cell":
			res.cells = append(res.cells, fr)
		case "report":
			res.report = append([]byte(nil), sc.Bytes()...)
		case "error":
			return res, fmt.Errorf("sweep: %s", fr.Error)
		}
	}
	if res.report == nil {
		return res, errors.New("sweep stream ended without a report frame")
	}
	return res, sc.Err()
}

// submit posts a job and returns its status.
func (f *fleet) submit(ctx context.Context, req service.JobRequest) (int, service.JobStatus, error) {
	var st service.JobStatus
	code, data, err := f.call(ctx, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return code, st, err
	}
	return code, st, json.Unmarshal(data, &st)
}

// awaitJob follows the job's event stream to its terminal frame.
func (f *fleet) awaitJob(ctx context.Context, id string) (service.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return service.Event{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return service.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Event{}, fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e service.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return e, err
		}
		if e.Kind == "terminal" {
			return e, nil
		}
	}
	return service.Event{}, fmt.Errorf("job %s: event stream ended without a terminal frame", id)
}

// svcRound is one round's measurements.
type svcRound struct {
	setup, cold, coldJob float64
	cached, allocMB      []float64            // per cached round
	latency              map[string][]float64 // ms by endpoint
	metrics              service.Metrics
}

// svcRun is the state a service_sweep run shares across rounds.
type svcRun struct {
	seed  int64
	cells []planCell
	recs  map[string]cellRecord
	led   *ledger
	tr    *tracer
}

// round starts a fresh fleet, runs the cold and cached phases, and stops
// the fleet.
func (r *svcRun) round(ctx context.Context, n int) (svcRound, error) {
	out := svcRound{latency: map[string][]float64{}}
	start := time.Now()
	suite, err := benchmarks.Suite()
	if err != nil {
		return out, err
	}
	cells, err := svcCells(suite, r.seed)
	if err != nil {
		return out, err
	}
	planned := map[string]bool{}
	for _, c := range cells {
		planned[c.id] = true
	}
	f, err := startFleet(suite)
	if err != nil {
		return out, err
	}
	defer f.stop()
	out.setup = time.Since(start).Seconds()
	root := r.tr.begin("round", fmt.Sprintf("round-%d", n), -1)
	defer r.tr.end(root)

	coldSpan := r.tr.begin("service.cold_phase", fmt.Sprintf("round-%d", n), root)
	coldStart := time.Now()
	sp := r.tr.begin("service.sweep", "cold-sweep", coldSpan)
	coldSw, err := f.sweep(ctx, r.seed)
	r.tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = r.tr.begin("service.cold_job", "cold-job", coldSpan)
	jobStart := time.Now()
	code, st, err := f.submit(ctx, service.JobRequest{Benchmarks: svcBenchmarks, Config: svcConfig})
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("cold job answered %d, want 202", code)
	}
	var jobState service.Event
	if err == nil {
		jobState, err = f.awaitJob(ctx, st.ID)
	}
	out.coldJob = time.Since(jobStart).Seconds()
	out.cold = time.Since(coldStart).Seconds()
	r.tr.end(sp)
	r.tr.end(coldSpan)
	if err != nil {
		return out, err
	}
	if jobState.State != "done" {
		return out, fmt.Errorf("cold job ended %s: %s", jobState.State, jobState.Error)
	}
	coldEnv, err := r.checkCold(ctx, f, planned, st.ID, coldSw)
	if err != nil {
		return out, err
	}
	expected, err := variantEnvelopes(coldEnv)
	if err != nil {
		return out, err
	}
	// The default variant is the cold job's own request: rebuilding it from
	// the decoded envelope must reproduce the service's bytes exactly.
	r.led.attempt(mismatch("cold envelope rebuilt byte-identically", bytes.Equal(expected[0], coldEnv), true))

	var mem runtime.MemStats
	for i := 0; i < svcCachedRounds; i++ {
		id := fmt.Sprintf("round-%d.%d", n, i)
		cachedSpan := r.tr.begin("service.cached_phase", id, root)
		runtime.GC()
		runtime.ReadMemStats(&mem)
		allocBase := mem.TotalAlloc
		cachedStart := time.Now()
		lat := r.client(ctx, f, id, cachedSpan, expected, coldSw.report)
		out.cached = append(out.cached, time.Since(cachedStart).Seconds())
		runtime.ReadMemStats(&mem)
		out.allocMB = append(out.allocMB, float64(mem.TotalAlloc-allocBase)/1e6)
		r.tr.end(cachedSpan)
		for k, v := range lat {
			out.latency[k] = append(out.latency[k], v...)
		}
	}

	_, data, err := f.call(ctx, http.MethodGet, "/metrics", nil)
	if err == nil {
		err = json.Unmarshal(data, &out.metrics)
	}
	if err != nil {
		return out, fmt.Errorf("/metrics: %w", err)
	}
	cs := out.metrics.Cells
	r.led.attempt(mismatch("remote errors", cs.RemoteErrors, 0), mismatch("local runs", cs.LocalRuns, 0))
	return out, nil
}

// checkCold checks every cold cell against the local exact record and
// fetches the cold envelope.
func (r *svcRun) checkCold(ctx context.Context, f *fleet, planned map[string]bool, jobID string, sw sweepResult) ([]byte, error) {
	r.led.attempt(mismatch("cold sweep cells", len(sw.cells), svcPerBenchmark*len(svcBenchmarks)))
	for _, c := range sw.cells {
		id := cellID(c.Benchmark, c.Workload)
		rec := r.recs[id]
		r.led.attempt(mismatch(id+" planned", planned[id], true),
			mismatch(id+" checksum", c.Checksum, rec.Checksum),
			mismatch(id+" cycles", c.Cycles, rec.Cycles),
			mismatch(id+" source", c.Source, "remote"))
	}
	code, data, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil)
	var st service.JobStatus
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		return nil, err
	}
	r.led.attempt(mismatch("cold job status", code, http.StatusOK),
		mismatch("cold job remote cells", st.Cells.Remote, st.Total))
	_, env, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/result", nil)
	if err != nil {
		return nil, err
	}
	suite, err := report.Decode(env)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, ms := range suite.Measurements {
		for _, m := range ms {
			id := cellID(m.Benchmark, m.Workload)
			rec := r.recs[id]
			r.led.attempt(mismatch(id+" planned", planned[id], true),
				mismatch(id+" checksum", m.Checksum, rec.Checksum),
				mismatch(id+" cycles", m.Cycles, rec.Cycles))
			n++
		}
	}
	r.led.attempt(mismatch("cold job cells", n, len(r.cells)-svcPerBenchmark*len(svcBenchmarks)))
	return env, nil
}

// variantEnvelopes rebuilds, from the cold envelope's measurements, the
// envelope each cached variant must return byte for byte.
func variantEnvelopes(cold []byte) ([][]byte, error) {
	s, err := report.Decode(cold)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(svcVariants))
	for i, v := range svcVariants {
		sections, err := report.ParseSections(v.Sections)
		if err != nil {
			return nil, err
		}
		topN := v.Figure2TopN
		if topN == 0 {
			topN = 6
		}
		env, err := report.Build(s.Measurements, s.Config, report.BuildOptions{Sections: sections, Figure2TopN: topN})
		if err != nil {
			return nil, err
		}
		if out[i], err = env.Encode(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// client is one cached round's closed-loop client: each request waits for
// the previous one. It returns its latencies in ms by endpoint.
func (r *svcRun) client(ctx context.Context, f *fleet, round string, parent int, expected [][]byte, coldReport []byte) map[string][]float64 {
	lat := map[string][]float64{}
	timed := func(endpoint, id string, fn func() []string) {
		sp := r.tr.begin(endpoint, id, parent)
		start := time.Now()
		fails := fn()
		lat[endpoint] = append(lat[endpoint], float64(time.Since(start).Microseconds())/1e3)
		r.tr.end(sp)
		r.led.attempt(fails...)
	}
	for i := 0; i < svcIterations; i++ {
		v := i % len(svcVariants)
		reqID := fmt.Sprintf("%s.%d", round, i)
		req := svcVariants[v]
		req.Benchmarks, req.Config = svcBenchmarks, svcConfig
		var st service.JobStatus
		timed("service.submit", reqID, func() []string {
			code, s, err := f.submit(ctx, req)
			st = s
			if err != nil {
				return []string{err.Error()}
			}
			return []string{mismatch(reqID+" submit status", code, http.StatusOK),
				mismatch(reqID+" served from cache", s.Cached, true)}
		})
		timed("service.result", reqID, func() []string {
			if st.ID == "" {
				return []string{reqID + ": no job to fetch"}
			}
			_, data, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
			if err != nil {
				return []string{err.Error()}
			}
			return []string{mismatch(fmt.Sprintf("%s variant %d envelope identical to cold", reqID, v), bytes.Equal(data, expected[v]), true)}
		})
		timed("service.sweep", reqID, func() []string {
			sw, err := f.sweep(ctx, r.seed)
			if err != nil {
				return []string{err.Error()}
			}
			fails := []string{mismatch(reqID+" sweep report identical to cold", bytes.Equal(sw.report, coldReport), true),
				mismatch(reqID+" sweep cells", len(sw.cells), svcPerBenchmark*len(svcBenchmarks))}
			for _, fr := range sw.cells {
				fails = append(fails, mismatch(reqID+" "+fr.Workload+" source", fr.Source, "cached"))
			}
			return fails
		})
	}
	return lat
}

// runServiceSweep is the service_sweep workload's whole run.
func runServiceSweep(ctx context.Context, rc runConfig) (*outcome, error) {
	led := &ledger{}
	suite, err := benchmarks.Suite()
	if err != nil {
		return nil, err
	}
	cells, err := svcCells(suite, rc.seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: the exact record of every cold cell, checked against the
	// golden records; the service's answers are checked against these.
	r := &svcRun{seed: rc.seed, cells: cells, recs: map[string]cellRecord{}, led: led, tr: rc.tracer}
	p := perf.New()
	var ops uint64
	for i, c := range cells {
		rec, err := exactRecord(c.bench, c.w, p)
		if err != nil {
			return nil, err
		}
		led.attempt(rc.golden.check(c.id, rec))
		cells[i].rec = rec
		r.recs[c.id] = rec
		ops += rec.Total.Ops
		if rc.record != nil {
			rc.record[c.id] = rec
		}
	}

	// Set-up is a fresh suite, the input list and a fleet on loopback;
	// besides each round's own, setupReps more are made and stopped so
	// setup_s is a median of several.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		suite, err := benchmarks.Suite()
		if err != nil {
			return nil, err
		}
		if _, err := svcCells(suite, rc.seed); err != nil {
			return nil, err
		}
		f, err := startFleet(suite)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		f.stop()
	}

	var rounds []svcRound
	seconds := rc.seconds
	if rc.tracer != nil {
		seconds /= 2 // the other half goes to the decomposition below
	}
	deadline := time.Now().Add(seconds)
	need := minRounds
	if rc.tracer != nil {
		need = 1
	}
	for len(rounds) < need || time.Now().Before(deadline) {
		rd, err := r.round(ctx, len(rounds))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
	}
	printServiceLines(rc.out, rounds, len(cells), ops)

	var cached, allocs, mips []float64
	for _, rd := range rounds {
		setups = append(setups, rd.setup)
		cached = append(cached, rd.cached...)
		allocs = append(allocs, rd.allocMB...)
		mips = append(mips, float64(ops)/rd.cold/1e6)
	}
	rss := peakRSSMB() // before the traced decomposition below
	if rc.tracer == nil {
		printMemory(rc.out, median(allocs), rss)
		return &outcome{led: led, metrics: []metric{
			{"setup_s", "s", median(setups)},
			{"wall_s", "s", median(cached)},
			{"sim_mips", "Mops/s", median(mips)},
		}}, nil
	}

	// The per-layer split of the cold cells: one untraced harness round
	// and one traced decomposition, serial and outside the service.
	swCfg, err := sweepConfig(suite, cells, rc.seed)
	if err != nil {
		return nil, err
	}
	opts, err := harness.Options{Workers: 1, Reps: 1}.Normalize()
	if err != nil {
		return nil, err
	}
	rs, _, err := runRound(ctx, opts, cells, swCfg, nil, rc.golden, led)
	if err != nil {
		return nil, err
	}
	l, err := tracedRound(rc.tracer, len(rounds), cells, swCfg, opts.ReportConfig(), rc.golden, led)
	if err != nil {
		return nil, err
	}
	return &outcome{led: led, metrics: layerMetrics(rc.out, []roundSample{rs}, []layers{l}, nil, median(allocs), rss)}, nil
}

// printServiceLines prints the service's own end-to-end and per-endpoint
// numbers: medians over rounds, latencies pooled over rounds.
func printServiceLines(out io.Writer, rounds []svcRound, cells int, ops uint64) {
	var cold, coldJob, cachedWall []float64
	lat := map[string][]float64{}
	var all []float64
	for _, rd := range rounds {
		cold = append(cold, rd.cold)
		coldJob = append(coldJob, rd.coldJob)
		cachedWall = append(cachedWall, rd.cached...)
		for k, v := range rd.latency {
			lat[k] = append(lat[k], v...)
			all = append(all, v...)
		}
	}
	tailV, tailP := tail(all)
	total := 0.0
	for _, w := range cachedWall {
		total += w
	}
	last := rounds[len(rounds)-1].metrics.Cells
	fmt.Fprintf(out, "# service_sweep over %d rounds (cold cells %d, %.0fM simulated ops) and %d cached rounds (1 client x %d passes of submit, result, sweep)\n",
		len(rounds), cells, float64(ops)/1e6, len(cachedWall), svcIterations)
	fmt.Fprintf(out, "# cold_sweep_s %.4f s (median of %d: %s)\n", median(cold), len(cold), seriesLine(cold))
	fmt.Fprintf(out, "# service.cold_job_s %.4f s (median of %d)\n", median(coldJob), len(coldJob))
	fmt.Fprintf(out, "# cached_p50_ms %.3f ms (n=%d)\n", median(all), len(all))
	fmt.Fprintf(out, "# cached_tail_ms %.3f ms (p%g, n=%d)\n", tailV, tailP, len(all))
	fmt.Fprintf(out, "# cached_rps %.2f 1/s\n", float64(len(all))/total)
	fmt.Fprintf(out, "# cached round wall_s: %s\n", seriesLine(cachedWall))
	for _, k := range []string{"service.submit", "service.result", "service.sweep"} {
		fmt.Fprintf(out, "# %s_ms %.3f ms (p50, n=%d)\n", k, median(lat[k]), len(lat[k]))
	}
	fmt.Fprintf(out, "# service.hit_ratio %.4f, service.local_runs %d, service.remote_runs %d, service.remote_errors %d (last round)\n",
		last.HitRatio, last.LocalRuns, last.RemoteRuns, last.RemoteErrors)
}

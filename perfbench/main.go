// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output the program
// produces, and prints the workload's metrics, the last line of its
// standard output being one JSON object:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same work decomposed layer by layer under spans, reports the
// per-layer metrics and writes the spans under .bench_build/traces.
// METRICS.md describes every workload and metric.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// goldenJSON holds the committed golden records (see check.go).
//
//go:embed golden.json
var goldenJSON []byte

// defaultSeed is the seed the committed golden records were taken with.
const defaultSeed = 1

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// minRounds is the fewest measured rounds a run makes, whatever --seconds
// says, so every median has at least this many samples.
const minRounds = 3

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tracer  *tracer // nil for an untraced run
	golden  golden
	out     io.Writer // human-readable report lines
	record  golden    // non-nil: collect this run's cell records here
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is a finished run: its metrics and its operation ledger.
type outcome struct {
	metrics []metric
	led     *ledger
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"compute_bound": computeBound.run,
	"sim_bound":     simBound.run,
	"sampled":       sampledWorkload.run,
	"service_sweep": runServiceSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "input generator seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	recordPath := fs.String("record-golden", "", "merge this run's cell records into the given golden file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, golden: g, out: stdout}
	if *trace == 1 {
		rc.tracer = newTracer()
	}
	if *recordPath != "" {
		rc.record = golden{}
	}
	oc, err := wl(context.Background(), rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rc.tracer != nil {
		path := traceFile(*name, *seed)
		if err := rc.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(rc.tracer.snapshot()), path)
	}
	if rc.record != nil {
		if err := mergeGolden(*recordPath, rc.record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: recording golden:", err)
			return 1
		}
	}
	attempted, failed := oc.led.counts()
	fmt.Fprintf(stdout, "# error_frac %.6f (%d failed of %d operations)\n", float64(failed)/float64(attempted), failed, attempted)
	for i, e := range oc.led.errs {
		if i == 20 {
			fmt.Fprintf(stdout, "# ... %d more failures\n", len(oc.led.errs)-i)
			break
		}
		fmt.Fprintln(stdout, "# FAIL", e)
	}
	if err := printResult(stdout, oc.metrics, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes every metric as a report line, then the result
// object as the last line.
func printResult(w io.Writer, ms []metric, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/perf"
	"repro/internal/uarch"
)

// ledger counts operations and the ones that failed. An operation fails
// when it errors, when its output disagrees with a golden record or with
// another pass over the same input, or when a request gets a non-2xx
// status. Every mismatch is counted; none is only logged.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// attempt records one operation; failures (non-empty) mark it failed.
func (l *ledger) attempt(failures ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	var msgs []string
	for _, f := range failures {
		if f != "" {
			msgs = append(msgs, f)
		}
	}
	if len(msgs) > 0 {
		l.failed++
		l.errs = append(l.errs, msgs...)
	}
}

func (l *ledger) counts() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed
}

// mismatch describes a disagreement between two values of one output, or
// returns "" when they agree.
func mismatch[T comparable](what string, got, want T) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s: got %v, want %v", what, got, want)
}

// cellRecord is the deterministic output of one exact characterization
// cell: the benchmark's checksum and the simulated counters of its Report.
type cellRecord struct {
	Checksum uint64       `json:"checksum"`
	Cycles   uint64       `json:"cycles"`
	Total    uarch.Events `json:"total"`
}

func recordOf(checksum uint64, r perf.Report) cellRecord {
	return cellRecord{Checksum: checksum, Cycles: r.Cycles, Total: r.Total}
}

// archCounters are the counters every pass over an input must agree on,
// whatever the simulator does: they count the program's own work.
type archCounters struct{ Ops, Branches, Loads, Stores uint64 }

func archOf(e uarch.Events) archCounters {
	return archCounters{Ops: e.Ops, Branches: e.Branches, Loads: e.Loads, Stores: e.Stores}
}

// golden maps "benchmark/workload" to the cell's committed record.
// Generated workload names carry their seed, so records of the default
// seed's cells check only runs with that seed; inventory cells are checked
// on every seed.
type golden map[string]cellRecord

func cellID(benchmark, workload string) string { return benchmark + "/" + workload }

// check compares a cell's record with the golden one, if any.
func (g golden) check(id string, got cellRecord) string {
	want, ok := g[id]
	if !ok {
		return ""
	}
	if got != want {
		return fmt.Sprintf("%s: output differs from the golden record: got %+v, want %+v", id, got, want)
	}
	return ""
}

func parseGolden(data []byte) (golden, error) {
	g := golden{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden records: %w", err)
	}
	return g, nil
}

// mergeGolden adds recs to the golden file at path, keeping its other
// records; it is how the committed records are regenerated.
func mergeGolden(path string, recs golden) error {
	g := golden{}
	if data, err := os.ReadFile(path); err == nil {
		if g, err = parseGolden(data); err != nil {
			return err
		}
	}
	for k, v := range recs {
		g[k] = v
	}
	data, err := json.MarshalIndent(g, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

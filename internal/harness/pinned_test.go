package harness

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/uarch"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/sampled_pins.json from the current event path")

// pinnedBenchmarks are the cells whose sampled Reports are pinned: the
// three simulator-bound benchmarks, whose extrapolated probe counters
// exercise every measure-pass path (live folds, dead skips, restores).
var pinnedBenchmarks = []string{"505.mcf_r", "520.omnetpp_r", "557.xz_r"}

const pinsFile = "testdata/sampled_pins.json"

// pinnedReport is the pinned part of one phase-sampled run: the Report's
// Cycles and Total, and the plan's live and total interval counts.
type pinnedReport struct {
	Cycles    uint64       `json:"cycles"`
	Total     uarch.Events `json:"total"`
	Live      int          `json:"live_intervals"`
	Intervals int          `json:"intervals"`
}

// TestSampledReportsPinned holds the sampled Cycles and Total of the pinned
// benchmarks' test and train cells to values recorded from an earlier
// event path. TestSampledRunsBitIdentical only compares the current code
// with itself; this test catches a refactor that changes what a sampled
// run reports. The train cells are clustered (most intervals dead), the
// test cells too short to sample (every interval live). Regenerate with
// `go test ./internal/harness/ -run TestSampledReportsPinned -args
// -update-pins` only when a change of sampled results is intended.
func TestSampledReportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled pins skipped in -short mode")
	}
	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]pinnedReport{}
	if !*updatePins {
		data, err := os.ReadFile(pinsFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]pinnedReport{}
	for _, name := range pinnedBenchmarks {
		b, ok := suite.Lookup(name)
		if !ok {
			t.Fatalf("benchmark %s not in suite", name)
		}
		ws, err := b.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if k := w.WorkloadKind(); k != core.KindTest && k != core.KindTrain {
				continue
			}
			c, err := SampledDiff(context.Background(), b, w, Options{Reps: 1})
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/"+w.WorkloadName()] = pinnedReport{
				Cycles:    c.Sampled.Cycles,
				Total:     c.Sampled.Total,
				Live:      c.Plan.LiveIntervals(),
				Intervals: c.Plan.Intervals(),
			}
		}
	}
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d cells, measured %d", len(want), len(got))
	}
	for cell, g := range got {
		w, ok := want[cell]
		if !ok {
			t.Errorf("%s: no pinned report", cell)
			continue
		}
		if g != w {
			t.Errorf("%s: sampled report diverged from its pin\ngot  %+v\nwant %+v", cell, g, w)
		}
	}
}

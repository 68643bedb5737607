package main

import (
	"strings"
	"testing"

	"repro/internal/uarch"
)

func TestGoldenMismatchCountsAsFailure(t *testing.T) {
	rec := cellRecord{Checksum: 7, Cycles: 100, Total: uarch.Events{Ops: 50, Loads: 5}}
	g := golden{"b/w": rec}
	led := &ledger{}

	led.attempt(g.check("b/w", rec))
	bad := rec
	bad.Total.Loads++
	led.attempt(g.check("b/w", bad))
	led.attempt(g.check("b/other", bad)) // no golden record: nothing to compare

	attempted, failed := led.counts()
	if attempted != 3 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", attempted, failed)
	}
	if len(led.errs) != 1 || !strings.Contains(led.errs[0], "golden") {
		t.Errorf("failure messages = %q", led.errs)
	}
}

func TestSeveralMismatchesFailOneOperation(t *testing.T) {
	led := &ledger{}
	led.attempt(mismatch("checksum", 1, 2), mismatch("cycles", 3, 3), mismatch("ops", 4, 5))
	if attempted, failed := led.counts(); attempted != 1 || failed != 1 || len(led.errs) != 2 {
		t.Errorf("attempted %d failed %d errs %q", attempted, failed, led.errs)
	}
}

func TestGoldenFileIsValid(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) == 0 {
		t.Fatal("no golden records committed")
	}
}

package perf

import (
	"fmt"

	"repro/internal/uarch"
)

// Phase-sampled simulation (SimPoint-style, with checkpoint warming). Exact
// simulation routes every event of every repetition through the modeled
// simulators; sampled mode simulates only representative instruction
// intervals and extrapolates:
//
//  1. Profile pass (BeginSampleProfile): the event stream is sliced into
//     fixed-size intervals of IntervalOps retired micro-ops and each
//     interval accumulates a basic-block-vector-style signature — a
//     SigDims-bucket frequency histogram of branch sites and method
//     entries. No simulator is probed at all, so the pass costs little
//     more than the benchmark's own compute.
//  2. Plan (internal/phase): signatures are clustered with k-medoids; the
//     medoid of each cluster is simulated with the cluster's population as
//     its weight. The first and last intervals are always simulated with
//     weight 1 — the first captures the cold-start transient exactly, the
//     last the tail — and each cluster's earliest interval is pinned live
//     so compulsory misses count exactly once.
//  3. Through pass (BeginSampleMeasure with no checkpoints): the event
//     stream replays with every interval probed, exactly as an unsampled
//     run would, but each interval's probe outcomes are folded into the
//     report counters multiplied by the interval's plan weight — weight 0
//     for a dead interval, which discards them. Architectural counters
//     (ops, branches, loads, stores, taken) count exactly everywhere. A
//     live interval measures from exactly the state the exact path would
//     have, so its probe outcomes are bit-identical to the exact run's for
//     that interval, and the only sampling error left is how well each
//     medoid represents its cluster. The warm pass (BeginSampleWarm) is the
//     same pass plus a snapshot of complete simulator state — caches,
//     TLBs, predictor, coalescing memos — at every boundary where a live
//     interval follows a dead one, so its Report is the sampled Report too.
//  4. Restored measure pass (BeginSampleMeasure with the warm pass's
//     checkpoints): simulator probes run only inside live (weight > 0)
//     intervals; dead intervals keep only the architectural counters and
//     fetch offsets advancing. Each dead→live transition restores the warm
//     pass's checkpoint, so every live interval starts from the state the
//     through pass had there and its probe outcomes are bit-identical to
//     the through pass's: the restored pass reproduces the through pass's
//     Report at a fraction of the probe cost, and the harness checks that
//     it does.
//
// Live probe outcomes accumulate in the same pending counters exact mode
// uses; each interval's boundary folds them into the report counters
// multiplied by the interval's weight, extrapolating the skipped
// population.
//
// Each pass chooses its event role once (see role in perf.go): the profile
// pass counts signatures, the through and warm passes probe, and the
// restored pass switches between probing and skipping only at interval
// boundaries.
//
// Warming policies without checkpoints were evaluated and rejected: state
// carry-over alone under-fills the LLC (hit counts measured 72% low on a
// cache-straining stream), and a fixed warm window of probed-but-uncounted
// predecessor intervals cannot be sized — the LLC needs a fixed number of
// probes to refill, not a fixed number of intervals (see DESIGN.md §16).
//
// Everything is deterministic: interval boundaries derive from exact op
// counts, signatures from hashed static sites, clustering is seeded
// deterministically, and the fold walks the creation-ordered records —
// two sampled runs of the same workload are bit-identical (the harness
// asserts it). perf cannot import internal/cluster (it would cycle through
// report → core), so plan construction lives in internal/phase and the
// plan crosses back in as the dependency-free SamplePlan value.

// SigDims is the number of buckets in an interval signature. Branch sites
// and method entries hash into a fixed 64-bucket frequency vector — small
// enough that clustering hundreds of intervals is cheap, wide enough that
// distinct phases (different hot methods, different branch mixes) land in
// distinct buckets.
const SigDims = 64

// DefaultMaxIntervals bounds how many intervals a profile pass hands to the
// clusterer: internal/phase coarsens (merges adjacent pairs, doubling the
// effective interval size) until at most this many remain.
const DefaultMaxIntervals = 512

// DefaultSampleInterval is the default profiling interval in retired ops.
// It is deliberately small: paired with the DefaultMaxIntervals coarsening
// cap it puts every stream on a 256–512 interval grid — short streams keep
// the fine grid (which resolves their phase blocks), long ones coarsen to
// the cap — which the tuning sweep found to be the accuracy sweet spot.
const DefaultSampleInterval = 16 << 10

// IntervalSignature is the BBV-style frequency vector of one interval.
type IntervalSignature [SigDims]uint32

// sigBucket maps a static site identifier to its signature bucket with a
// 64-bit finalizer, so nearby sites spread across buckets.
func sigBucket(x uint64) int {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & (SigDims - 1))
}

// enterSigWeight is the signature increment of one method entry. Entries
// are far rarer than branches, but a shift in the executing method mix is
// the strongest phase signal, so entries weigh more than single branches.
const enterSigWeight = 4

// SamplePlan tells a measure pass which intervals to simulate and how to
// extrapolate them. Weights[i] is interval i's extrapolation weight: 0
// skips the interval's probes entirely, w > 0 multiplies its probe
// outcomes by w at the interval boundary. Intervals at or beyond
// len(Weights) — possible only through event-count drift, which the
// harness's checksum comparison would catch — are simulated with weight 1.
type SamplePlan struct {
	// IntervalOps is the interval size in retired micro-ops. It may exceed
	// the profile pass's interval when internal/phase coarsened; boundaries
	// still align because coarsening multiplies by whole factors.
	IntervalOps uint64
	// Weights has one entry per interval of the stream.
	Weights []uint32
	// Phases is the cluster count the plan was built with (informational).
	Phases int
	// Clustered is false when the stream was too short to sample — every
	// weight is 1 and the measurement degenerates to exact simulation.
	Clustered bool
}

// liveAt reports whether interval i is simulated, and its weight.
func (pl *SamplePlan) liveAt(i int) (bool, uint32) {
	if i >= len(pl.Weights) {
		return true, 1
	}
	w := pl.Weights[i]
	return w > 0, w
}

// LiveIntervals counts the intervals a measure pass will fully simulate.
func (pl *SamplePlan) LiveIntervals() int {
	n := 0
	for _, w := range pl.Weights {
		if w > 0 {
			n++
		}
	}
	return n
}

// Intervals returns the total interval count of the plan.
func (pl *SamplePlan) Intervals() int { return len(pl.Weights) }

// restorePoints lists the intervals a measure pass restores state at: every
// live interval that follows a dead one. Live runs carry state naturally,
// and interval 0 starts from reset state in every pass.
func (pl *SamplePlan) restorePoints() []int {
	var pts []int
	for i := 1; i < len(pl.Weights); i++ {
		if pl.Weights[i] > 0 && pl.Weights[i-1] == 0 {
			pts = append(pts, i)
		}
	}
	return pts
}

// simCheckpoint is a complete probe-visible simulator snapshot: the three
// simulator channels plus the same-line coalescing memos (a memo mismatch
// would suppress or admit the first probe after a restore).
type simCheckpoint struct {
	mem       *uarch.HierarchyState
	l1i       *uarch.CacheState
	itlb      *uarch.CacheState
	tour      *uarch.TournamentState
	lastData  uint64
	lastFetch uint64
}

// SampleCheckpoints carries the warm pass's boundary snapshots to the
// restored measure passes. It is opaque outside perf; the harness only
// moves it from FinishSampleWarm to BeginSampleMeasure.
type SampleCheckpoints struct {
	intervalOps uint64
	byInterval  map[int]*simCheckpoint
}

// sampleMode distinguishes the profile pass from the measuring passes
// (through, warm and restored), which share one interval clock.
type sampleMode uint8

const (
	sampProfile sampleMode = iota
	sampMeasure
)

// sampState is the per-pass state of sampled mode; Profiler.samp is nil
// outside it.
type sampState struct {
	intervalOps uint64
	mode        sampleMode

	// Stream position: seq is the current interval index, opsInInterval
	// the retired ops inside it. Events commit to the interval current at
	// their start; boundary crossings fire after the event's ops land.
	seq           int
	opsInInterval uint64

	// Profile pass: cur accumulates the current interval's signature.
	sigs []IntervalSignature
	cur  IntervalSignature

	// Measuring passes. weight is the open interval's extrapolation weight
	// (1 in the profile pass, whose pending counters are never folded).
	// restore is nil in a through or warm pass, which probes every
	// interval; in a restored pass it maps each dead→live edge to its
	// checkpoint, and dead intervals only keep the architectural counters
	// and the fetch offsets advancing. The warm pass accumulates snapshots
	// into ckpts at the ckptAt intervals (the plan's restore points).
	plan    *SamplePlan
	restore map[int]*simCheckpoint
	weight  uint32
	ckptAt  map[int]bool
	ckpts   *SampleCheckpoints
}

// sampleModeError returns why this profiler cannot enter sampled mode, or
// nil. The reference simulators have no checkpoint support.
func (p *Profiler) sampleModeError() error {
	switch {
	case p.samp != nil:
		return fmt.Errorf("perf: already in a sampled pass")
	case p.ref != nil:
		return fmt.Errorf("perf: sampled mode is incompatible with the reference path")
	}
	return nil
}

// BeginSampleProfile starts a signature-only profile pass. It must be
// called on a fresh or Reset profiler, before any events; until
// FinishSampleProfile the profiler counts architectural events and interval
// signatures but probes no simulator.
func (p *Profiler) BeginSampleProfile(intervalOps uint64) error {
	if err := p.sampleModeError(); err != nil {
		return err
	}
	if intervalOps == 0 {
		return fmt.Errorf("perf: sample interval must be >= 1 op")
	}
	p.samp = &sampState{intervalOps: intervalOps, mode: sampProfile, weight: 1}
	p.role = roleSignature
	return nil
}

// FinishSampleProfile ends a profile pass and returns the per-interval
// signatures, including the final partial interval if it retired any ops.
// The profiler leaves sampled mode; Reset it before the next pass.
func (p *Profiler) FinishSampleProfile() ([]IntervalSignature, error) {
	s := p.samp
	if s == nil || s.mode != sampProfile {
		return nil, fmt.Errorf("perf: FinishSampleProfile without BeginSampleProfile")
	}
	sigs := s.sigs
	if s.opsInInterval > 0 {
		sigs = append(sigs, s.cur)
	}
	p.samp = nil
	p.role = roleProbe
	return sigs, nil
}

// BeginSampleWarm starts a through pass for plan (see BeginSampleMeasure)
// that also snapshots simulator state at each of the plan's restore
// points, for later restored measure passes. Its Report is the sampled
// measurement. It must be called on a fresh or Reset profiler.
func (p *Profiler) BeginSampleWarm(plan *SamplePlan) error {
	if err := p.beginMeasure(plan, nil); err != nil {
		return err
	}
	s := p.samp
	s.ckptAt = make(map[int]bool)
	s.ckpts = &SampleCheckpoints{intervalOps: plan.IntervalOps, byInterval: make(map[int]*simCheckpoint)}
	for _, i := range plan.restorePoints() {
		s.ckptAt[i] = true
	}
	return nil
}

// FinishSampleWarm ends a warm pass and returns its checkpoints. The open
// interval is folded at its weight first, so a Report read afterwards is
// still the pass's sampled measurement. The profiler leaves sampled mode;
// Reset it before the next pass.
func (p *Profiler) FinishSampleWarm() (*SampleCheckpoints, error) {
	s := p.samp
	if s == nil || s.ckpts == nil {
		return nil, fmt.Errorf("perf: FinishSampleWarm without BeginSampleWarm")
	}
	p.fold(uint64(s.weight))
	p.samp = nil
	p.role = roleProbe
	return s.ckpts, nil
}

// BeginSampleMeasure starts a measure pass following plan. With ckpts nil
// it is a through pass: every interval is probed from the state the
// previous one left, exactly as in an unsampled run, and each interval's
// probe outcomes are folded at its weight (a dead interval's at weight 0).
// With the warm pass's checkpoints it is a restored pass: only live
// intervals are probed, and each dead→live transition first restores the
// warm pass's snapshot, so the restored pass reports exactly what the
// through pass does. It must be called on a fresh or Reset profiler,
// before any events. The measurement is read by Report, which adds the
// open interval's pending outcomes at its weight.
func (p *Profiler) BeginSampleMeasure(plan *SamplePlan, ckpts *SampleCheckpoints) error {
	var restore map[int]*simCheckpoint
	if ckpts != nil && plan != nil {
		if ckpts.intervalOps != plan.IntervalOps {
			return fmt.Errorf("perf: checkpoints were taken at interval %d ops, plan uses %d", ckpts.intervalOps, plan.IntervalOps)
		}
		restore = make(map[int]*simCheckpoint)
		for _, i := range plan.restorePoints() {
			ck, ok := ckpts.byInterval[i]
			if !ok {
				return fmt.Errorf("perf: warm pass has no checkpoint for interval %d", i)
			}
			restore[i] = ck
		}
	}
	return p.beginMeasure(plan, restore)
}

// beginMeasure validates plan and enters a measuring pass; restore is nil
// for a through or warm pass.
func (p *Profiler) beginMeasure(plan *SamplePlan, restore map[int]*simCheckpoint) error {
	if err := p.sampleModeError(); err != nil {
		return err
	}
	if plan == nil || plan.IntervalOps == 0 {
		return fmt.Errorf("perf: measure pass requires a plan with a nonzero interval")
	}
	if len(plan.Weights) > 0 && plan.Weights[0] == 0 {
		return fmt.Errorf("perf: plan skips interval 0, which must be simulated (it carries the cold-start transient)")
	}
	p.samp = &sampState{intervalOps: plan.IntervalOps, mode: sampMeasure, plan: plan, restore: restore}
	p.enterInterval(0)
	return nil
}

// sampAdvance retires n ops against the interval clock, firing boundary
// transitions. A single batched event may cross several boundaries.
func (p *Profiler) sampAdvance(n uint64) {
	s := p.samp
	s.opsInInterval += n
	for s.opsInInterval >= s.intervalOps {
		s.opsInInterval -= s.intervalOps
		switch s.mode {
		case sampProfile:
			s.sigs = append(s.sigs, s.cur)
			s.cur = IntervalSignature{}
			s.seq++
		case sampMeasure:
			p.sampBoundary()
		}
	}
}

// sampBoundary handles one measuring-pass interval transition: fold the
// finished interval's pending outcomes at its weight, take the next
// interval's role, and on a restored pass's dead→live edge restore the
// warm pass's snapshot, so the live interval measures from exactly the
// simulator state the through pass had there. Between restore points state
// simply carries over, unchanged. A warm pass snapshots that state at each
// restore point.
func (p *Profiler) sampBoundary() {
	s := p.samp
	if p.role == roleProbe {
		p.fold(uint64(s.weight))
	}
	s.seq++
	p.enterInterval(s.seq)
	if ck, ok := s.restore[s.seq]; ok {
		p.restoreSims(ck)
	}
	if s.ckptAt[s.seq] {
		s.ckpts.byInterval[s.seq] = p.checkpointSims()
	}
}

// enterInterval sets the role and weight of measuring-pass interval i: a
// through or warm pass probes every interval, a restored pass only the
// live ones.
func (p *Profiler) enterInterval(i int) {
	live, w := p.samp.plan.liveAt(i)
	p.samp.weight = w
	p.role = roleSkip
	if live || p.samp.restore == nil {
		p.role = roleProbe
	}
}

// fold extrapolates a finished interval: every method's pending probe
// outcomes enter its folded counters multiplied by the interval weight,
// so a dead interval probed by a through pass folds at weight 0 and its
// outcomes are discarded. Methods that saw no probe fold zeros.
func (p *Profiler) fold(w uint64) {
	for _, m := range p.records {
		m.folded.addScaled(&m.pending, w)
		m.pending = probeCounts{}
	}
}

// checkpointSims snapshots every probe-visible piece of simulator state.
func (p *Profiler) checkpointSims() *simCheckpoint {
	return &simCheckpoint{
		mem:       p.mem.Checkpoint(),
		l1i:       p.l1i.Checkpoint(),
		itlb:      p.itlb.Checkpoint(),
		tour:      p.tour.Checkpoint(),
		lastData:  p.lastData,
		lastFetch: p.lastFetch,
	}
}

// restoreSims rewinds simulator state to a warm-pass snapshot.
func (p *Profiler) restoreSims(ck *simCheckpoint) {
	p.mem.Restore(ck.mem)
	p.l1i.Restore(ck.l1i)
	p.itlb.Restore(ck.itlb)
	p.tour.Restore(ck.tour)
	p.lastData = ck.lastData
	p.lastFetch = ck.lastFetch
}

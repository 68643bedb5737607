// Package cluster implements the workload-reduction methodology the paper
// cites as Berube's CGO 2009 work ("Workload reduction for multi-input
// profile-directed optimization") and lists among its Section VII research
// directions: when a benchmark has many workloads, cluster them by
// behaviour and keep one representative per cluster, so FDO training and
// characterization stay affordable without collapsing behavioural
// diversity.
//
// Workloads are embedded as behaviour vectors (top-down fractions plus
// log-scaled modeled cycles and/or the method-coverage distribution,
// chosen by Features) and clustered with deterministic k-medoids
// (PAM-style swap descent). The FeatureSpace accumulates points
// incrementally — a streaming sweep Adds each measurement as it completes
// and releases it; only the compact Point survives — and Select runs the
// reduction over everything accumulated, reporting the coverage loss of
// the dropped workloads.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/harness/report"
)

// ErrCluster reports an invalid clustering request.
var ErrCluster = errors.New("cluster: invalid request")

// Features selects the behaviour embedding.
type Features int

const (
	// FeaturesCombined embeds the four top-down fractions, a log-cycles
	// scale term, and one dimension per method (coverage fraction).
	FeaturesCombined Features = iota
	// FeaturesTopDown embeds only the top-down fractions and the
	// log-cycles term — O(1) state per point, the choice for
	// allocation-bounded sweeps.
	FeaturesTopDown
	// FeaturesCoverage embeds only the method-coverage distribution.
	FeaturesCoverage
)

// String names the feature space (the -features flag vocabulary).
func (f Features) String() string {
	switch f {
	case FeaturesCombined:
		return "combined"
	case FeaturesTopDown:
		return "topdown"
	case FeaturesCoverage:
		return "coverage"
	}
	return fmt.Sprintf("Features(%d)", int(f))
}

// ParseFeatures is the inverse of String.
func ParseFeatures(s string) (Features, error) {
	switch s {
	case "combined":
		return FeaturesCombined, nil
	case "topdown":
		return FeaturesTopDown, nil
	case "coverage":
		return FeaturesCoverage, nil
	}
	return 0, fmt.Errorf("%w: unknown feature space %q (want combined, topdown or coverage)", ErrCluster, s)
}

func (f Features) usesTopDown() bool  { return f != FeaturesCoverage }
func (f Features) usesCoverage() bool { return f != FeaturesTopDown }

// Options configures a selection run.
type Options struct {
	// K is the number of representatives to keep. Required; must be
	// 1 <= K <= number of points.
	K int
	// Features picks the behaviour embedding. The zero value is
	// FeaturesCombined.
	Features Features
	// Seed perturbs the deterministic k-medoids initialization: 0 keeps
	// the canonical greedy max-min seeding; any other value starts the
	// seeding from a seed-derived point instead. Same seed, same points,
	// same selection — always.
	Seed int64
}

// Point is the compact per-workload state a FeatureSpace retains: the
// behaviour features of one measurement, never the measurement itself.
type Point struct {
	Name    string
	TopDown [4]float64 // front-end, back-end, bad-spec, retiring
	Cycles  uint64
	// Coverage is nil unless the feature space embeds coverage.
	Coverage map[string]float64
}

// FeatureSpace accumulates behaviour points and embeds them into
// comparable vectors. Dimensions are fixed by the Features choice plus
// the union of method names seen, computed at Select time so points can
// arrive incrementally in any order.
type FeatureSpace struct {
	features Features
	points   []Point
}

// NewFeatureSpace returns an empty accumulator over the given embedding.
func NewFeatureSpace(f Features) *FeatureSpace {
	return &FeatureSpace{features: f}
}

// Features returns the embedding this space was built with.
func (fs *FeatureSpace) Features() Features { return fs.features }

// Len is the number of points accumulated.
func (fs *FeatureSpace) Len() int { return len(fs.points) }

// Compact reduces a measurement to the point state this feature space
// needs: top-down fractions and cycles always, the coverage map only when
// the embedding uses it. The returned Point shares the measurement's
// Coverage map in that case — everything else in the measurement is free
// to be released.
func (fs *FeatureSpace) Compact(m report.Measurement) Point {
	p := Point{
		Name:    m.Workload,
		TopDown: [4]float64{m.TopDown.FrontEnd, m.TopDown.BackEnd, m.TopDown.BadSpec, m.TopDown.Retiring},
		Cycles:  m.Cycles,
	}
	if fs.features.usesCoverage() {
		p.Coverage = m.Coverage
	}
	return p
}

// Add accumulates one measurement (Compact + AddPoint).
func (fs *FeatureSpace) Add(m report.Measurement) {
	fs.AddPoint(fs.Compact(m))
}

// AddPoint accumulates an already-compacted point.
func (fs *FeatureSpace) AddPoint(p Point) {
	fs.points = append(fs.points, p)
}

// Names returns the accumulated point names in insertion order.
func (fs *FeatureSpace) Names() []string {
	names := make([]string, len(fs.points))
	for i, p := range fs.points {
		names[i] = p.Name
	}
	return names
}

// Vectors embeds every accumulated point, in insertion order. The
// coverage dimensions are the sorted union of method names over all
// points, so the embedding depends only on the point set, not on arrival
// order.
func (fs *FeatureSpace) Vectors() [][]float64 {
	var methods []string
	if fs.features.usesCoverage() {
		seen := map[string]bool{}
		for _, p := range fs.points {
			for meth := range p.Coverage {
				seen[meth] = true
			}
		}
		for meth := range seen {
			methods = append(methods, meth)
		}
		sort.Strings(methods)
	}
	vs := make([][]float64, len(fs.points))
	for i, p := range fs.points {
		v := make([]float64, 0, 5+len(methods))
		if fs.features.usesTopDown() {
			v = append(v, p.TopDown[0], p.TopDown[1], p.TopDown[2], p.TopDown[3],
				// Scale matters but should not dominate: compress with
				// log10 and a modest weight.
				0.25*math.Log10(float64(p.Cycles+1)),
			)
		}
		for _, meth := range methods {
			v = append(v, p.Coverage[meth])
		}
		vs[i] = v
	}
	return vs
}

// Distance is the Euclidean distance between behaviour vectors.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("cluster: dimension mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Clustering is a k-medoids result.
type Clustering struct {
	// Medoids are indices into the input point set.
	Medoids []int
	// Assign[i] is the medoid-slot index of point i.
	Assign []int
	// Cost is the total distance of points to their medoids.
	Cost float64
}

// CoverageLoss quantifies what dropping the non-representative workloads
// costs: the distance of each dropped point to its retained
// representative, summarized as max and mean. Zero loss means the kept
// subset reproduces every dropped behaviour exactly (or nothing was
// dropped).
type CoverageLoss struct {
	// Dropped is the number of non-representative points.
	Dropped int `json:"dropped"`
	// MaxDistance is the worst-represented dropped point's distance to
	// its representative.
	MaxDistance float64 `json:"max_distance"`
	// MeanDistance is the mean such distance over all dropped points
	// (0 when none were dropped).
	MeanDistance float64 `json:"mean_distance"`
}

// Selection is the result of a representative-subset reduction.
type Selection struct {
	// Representatives are the medoid point names, in medoid index order.
	Representatives []string
	// Names are all point names in insertion order; Clustering indices
	// refer to this slice.
	Names []string
	// Clustering is the underlying k-medoids result.
	Clustering Clustering
	// Loss quantifies the coverage cost of keeping only the
	// representatives.
	Loss CoverageLoss
}

// Select clusters everything accumulated and picks opts.K
// representatives. opts.Features must match the embedding the space was
// built with — the option exists so one Options value can drive both
// construction and selection.
func (fs *FeatureSpace) Select(opts Options) (Selection, error) {
	if opts.Features != fs.features {
		return Selection{}, fmt.Errorf("%w: options feature space %v does not match accumulator %v",
			ErrCluster, opts.Features, fs.features)
	}
	if len(fs.points) == 0 {
		return Selection{}, fmt.Errorf("%w: no points", ErrCluster)
	}
	vectors := fs.Vectors()
	cl, err := kMedoids(vectors, opts.K, opts.Seed)
	if err != nil {
		return Selection{}, err
	}
	sel := Selection{
		Names:      fs.Names(),
		Clustering: cl,
	}
	for _, m := range cl.Medoids {
		sel.Representatives = append(sel.Representatives, fs.points[m].Name)
	}
	// Coverage loss: distance of each dropped (non-medoid) point to its
	// representative.
	sum := 0.0
	for i, slot := range cl.Assign {
		if isMedoid(cl.Medoids, i) {
			continue
		}
		d := Distance(vectors[i], vectors[cl.Medoids[slot]])
		sel.Loss.Dropped++
		sum += d
		if d > sel.Loss.MaxDistance {
			sel.Loss.MaxDistance = d
		}
	}
	if sel.Loss.Dropped > 0 {
		sel.Loss.MeanDistance = sum / float64(sel.Loss.Dropped)
	}
	return sel, nil
}

// Select embeds the measurements under opts.Features and reduces them to
// opts.K representatives — the one-shot convenience over the incremental
// FeatureSpace path.
func Select(ms []report.Measurement, opts Options) (Selection, error) {
	fs := NewFeatureSpace(opts.Features)
	for _, m := range ms {
		fs.Add(m)
	}
	return fs.Select(opts)
}

// KMedoids clusters points into k groups with PAM-style swap descent and
// the canonical deterministic initialization (greedy max-min seeding from
// the medoid of the whole set).
func KMedoids(points [][]float64, k int) (Clustering, error) {
	return kMedoids(points, k, 0)
}

func kMedoids(points [][]float64, k int, seed int64) (Clustering, error) {
	n := len(points)
	if k < 1 || k > n {
		return Clustering{}, fmt.Errorf("%w: k=%d for %d points", ErrCluster, k, n)
	}
	dist := pairwise(points)
	medoids := seedMedoids(dist, k, seed)
	swapDescent(dist, medoids)
	sort.Ints(medoids)
	assign, cost := assignAll(dist, medoids)
	return Clustering{Medoids: medoids, Assign: assign, Cost: cost}, nil
}

// pairwise returns the distance matrix of points. Distance is exactly
// symmetric (a−b and b−a square to the same float), so each pair is
// computed once, on and below the diagonal, and mirrored.
func pairwise(points [][]float64) [][]float64 {
	n := len(points)
	data := make([]float64, n*n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = data[i*n : (i+1)*n]
		for j := 0; j <= i; j++ {
			d := Distance(points[i], points[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	return dist
}

// seedMedoids picks k initial medoids. The first is the 1-medoid of the
// whole set (minimum total distance) for seed 0 and a seed-derived point
// otherwise; either way the choice is a pure function of (points, seed).
// The rest follow by greedy max-min seeding.
func seedMedoids(dist [][]float64, k int, seed int64) []int {
	n := len(dist)
	best := 0
	if seed == 0 {
		bestSum := math.Inf(1)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += dist[i][j]
			}
			if s < bestSum {
				best, bestSum = i, s
			}
		}
	} else {
		// splitmix64 finalizer: spreads consecutive seeds over the index
		// range so seed 1 and seed 2 start from unrelated points.
		z := uint64(seed) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		best = int(z % uint64(n))
	}
	medoids := []int{best}
	for len(medoids) < k {
		far := -1
		farDist := -1.0
		for i := 0; i < n; i++ {
			d := math.Inf(1)
			for _, m := range medoids {
				if dist[i][m] < d {
					d = dist[i][m]
				}
			}
			if d > farDist {
				far, farDist = i, d
			}
		}
		medoids = append(medoids, far)
	}
	return medoids
}

// assignAll assigns every point to its nearest medoid slot (the first
// such slot on a tie) and returns the assignment and its total distance.
func assignAll(dist [][]float64, medoids []int) ([]int, float64) {
	assign := make([]int, len(dist))
	total := 0.0
	for i := range dist {
		bestSlot := 0
		bestD := math.Inf(1)
		for s, m := range medoids {
			if dist[i][m] < bestD {
				bestD = dist[i][m]
				bestSlot = s
			}
		}
		assign[i] = bestSlot
		total += bestD
	}
	return assign, total
}

// swapDescent improves medoids in place by PAM-style swap descent: try
// replacing each medoid with each non-medoid, keeping a swap that lowers
// the total distance. The other slots do not change during one slot's
// scan, so each point's nearest distance among them is computed once per
// scan and a candidate costs Σ_i min(dist[cand][i], other[i]) — O(n)
// instead of O(n·k) — summed in the same order as a full recomputation,
// so every accept/reject decision is the same.
//
// A rejected candidate restores orig, the slot's medoid from before the
// scan, even when an earlier candidate of the same scan was accepted: cost
// then belongs to a medoid set the slice no longer holds, and the descent
// barely moves the max-min seeding. The behaviour is kept on purpose —
// fixing it changes every sampled plan, sweep representative and recorded
// golden value at once.
func swapDescent(dist [][]float64, medoids []int) {
	n := len(dist)
	_, cost := assignAll(dist, medoids)
	other := make([]float64, n)
	improved := true
	for iter := 0; improved && iter < 100; iter++ {
		improved = false
		for slot := range medoids {
			for i := range other {
				best := math.Inf(1)
				for s, m := range medoids {
					if s != slot && dist[i][m] < best {
						best = dist[i][m]
					}
				}
				other[i] = best
			}
			orig := medoids[slot]
			for cand := 0; cand < n; cand++ {
				if isMedoid(medoids, cand) {
					continue
				}
				c := 0.0
				for i, d := range dist[cand] {
					if d < other[i] {
						c += d
					} else {
						c += other[i]
					}
				}
				medoids[slot] = cand
				if c+1e-12 < cost {
					cost = c
					improved = true
				} else {
					medoids[slot] = orig
				}
			}
		}
	}
}

func isMedoid(medoids []int, i int) bool {
	for _, m := range medoids {
		if m == i {
			return true
		}
	}
	return false
}

// FormatSelection renders a benchmark's reduction: the clusters with
// their representatives and members, then the coverage-loss summary.
func FormatSelection(benchmark string, sel Selection) string {
	cl := sel.Clustering
	out := fmt.Sprintf("workload clusters: %s (k=%d, cost=%.4f)\n", benchmark, len(cl.Medoids), cl.Cost)
	for slot, medoid := range cl.Medoids {
		out += fmt.Sprintf("  cluster %d (representative %s):", slot+1, sel.Names[medoid])
		for i, a := range cl.Assign {
			if a == slot {
				out += " " + sel.Names[i]
			}
		}
		out += "\n"
	}
	out += fmt.Sprintf("  coverage loss: dropped=%d max=%.4f mean=%.4f\n",
		sel.Loss.Dropped, sel.Loss.MaxDistance, sel.Loss.MeanDistance)
	return out
}

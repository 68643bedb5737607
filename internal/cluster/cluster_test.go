package cluster

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness/report"
	"repro/internal/leakcheck"
	"repro/internal/stats"
)

// TestMain enforces goroutine hygiene for the package: clustering is
// purely computational today, so the leak gate both documents that and
// catches any future parallel k-medoids sweep that forgets to join.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

// blob builds a synthetic measurement around a top-down center.
func blob(name string, f, b, s, r float64, cycles uint64, hot string) report.Measurement {
	return report.Measurement{
		Workload: name,
		TopDown:  stats.TopDown{FrontEnd: f, BackEnd: b, BadSpec: s, Retiring: r},
		Cycles:   cycles,
		Coverage: stats.Coverage{hot: 0.8, "other": 0.2},
	}
}

func TestDistanceBasics(t *testing.T) {
	if d := Distance([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("distance = %v", d)
	}
	if d := Distance([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Distance([]float64{1}, []float64{1, 2})
}

func TestKMedoidsSeparatesBlobs(t *testing.T) {
	// Two well-separated groups of points; k=2 must split them exactly.
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{5, 5}, {5.1, 5}, {5, 5.1},
	}
	cl, err := KMedoids(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	groupOf := map[int]int{}
	for i, a := range cl.Assign {
		groupOf[i] = a
	}
	// All of the first four must share a slot; all of the last three the
	// other.
	for i := 1; i < 4; i++ {
		if groupOf[i] != groupOf[0] {
			t.Errorf("point %d split from its blob", i)
		}
	}
	for i := 5; i < 7; i++ {
		if groupOf[i] != groupOf[4] {
			t.Errorf("point %d split from its blob", i)
		}
	}
	if groupOf[0] == groupOf[4] {
		t.Error("blobs merged")
	}
}

func TestKMedoidsValidation(t *testing.T) {
	points := [][]float64{{1}, {2}}
	if _, err := KMedoids(points, 0); !errors.Is(err, ErrCluster) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := KMedoids(points, 3); !errors.Is(err, ErrCluster) {
		t.Errorf("k>n err = %v", err)
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	points := [][]float64{{0}, {5}, {9}}
	cl, err := KMedoids(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Cost != 0 {
		t.Errorf("cost = %v, want 0 when every point is a medoid", cl.Cost)
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	points := [][]float64{
		{0, 1}, {1, 0}, {4, 4}, {5, 5}, {9, 0}, {8, 1}, {0.5, 0.5},
	}
	a, err := KMedoids(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMedoids(points, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Medoids {
		if a.Medoids[i] != b.Medoids[i] {
			t.Fatal("nondeterministic medoids")
		}
	}
}

func TestKMedoidsCostDecreasesWithK(t *testing.T) {
	points := [][]float64{
		{0, 0}, {1, 1}, {2, 2}, {6, 6}, {7, 7}, {10, 0}, {0, 10},
	}
	var prev float64 = math.Inf(1)
	for k := 1; k <= 4; k++ {
		cl, err := KMedoids(points, k)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Cost > prev+1e-9 {
			t.Errorf("k=%d cost %v exceeds k=%d cost %v", k, cl.Cost, k-1, prev)
		}
		prev = cl.Cost
	}
}

// naiveKMedoids is the oracle for kMedoids: the same seeding and final
// assignment, with the full distance matrix and the original swap descent,
// which recomputes the O(n·k) total cost for every candidate swap.
func naiveKMedoids(points [][]float64, k int, seed int64) Clustering {
	n := len(points)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = Distance(points[i], points[j])
		}
	}
	medoids := seedMedoids(dist, k, seed)
	_, cost := assignAll(dist, medoids)
	improved := true
	for iter := 0; improved && iter < 100; iter++ {
		improved = false
		for slot := range medoids {
			orig := medoids[slot]
			for cand := 0; cand < n; cand++ {
				if isMedoid(medoids, cand) {
					continue
				}
				medoids[slot] = cand
				if c := totalCost(dist, medoids); c+1e-12 < cost {
					cost = c
					improved = true
				} else {
					medoids[slot] = orig
				}
			}
		}
	}
	sort.Ints(medoids)
	assign, cost := assignAll(dist, medoids)
	return Clustering{Medoids: medoids, Assign: assign, Cost: cost}
}

func totalCost(dist [][]float64, medoids []int) float64 {
	total := 0.0
	for i := range dist {
		best := math.Inf(1)
		for _, m := range medoids {
			if dist[i][m] < best {
				best = dist[i][m]
			}
		}
		total += best
	}
	return total
}

// fuzzPoints derives a deterministic point set from fuzz inputs: n points
// of dims coordinates drawn from a pool of pool distinct points (so small
// pools force duplicates), each coordinate quantized to levels+1 values.
func fuzzPoints(rng uint64, n, dims, pool, levels int) [][]float64 {
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	base := make([][]float64, pool)
	for i := range base {
		base[i] = make([]float64, dims)
		for d := range base[i] {
			base[i][d] = float64(next()%uint64(levels+1)) / float64(levels+1)
		}
	}
	points := make([][]float64, n)
	for i := range points {
		points[i] = base[next()%uint64(pool)]
	}
	return points
}

// FuzzKMedoidsMatchesNaive holds kMedoids' O(n)-per-candidate swap descent
// to the naive oracle: the same medoids, assignment and cost, bit for bit,
// for n <= 600 points, k <= 16, duplicate-heavy and distinct point sets,
// with the canonical and seed-derived initializations.
func FuzzKMedoidsMatchesNaive(f *testing.F) {
	f.Add(uint64(1), uint16(19), uint8(0), uint8(3), uint16(600), uint8(255), int64(0))
	f.Add(uint64(2), uint16(63), uint8(3), uint8(7), uint16(5), uint8(3), int64(0))
	f.Add(uint64(3), uint16(127), uint8(15), uint8(1), uint16(600), uint8(1), int64(7))
	f.Add(uint64(4), uint16(519), uint8(15), uint8(5), uint16(600), uint8(255), int64(0))
	f.Add(uint64(5), uint16(255), uint8(8), uint8(63), uint16(40), uint8(15), int64(-3))
	f.Add(uint64(6), uint16(2), uint8(15), uint8(2), uint16(1), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, rng uint64, nRaw uint16, kRaw, dimRaw uint8, poolRaw uint16, levels uint8, seed int64) {
		n := 1 + int(nRaw)%600
		k := 1 + int(kRaw)%16
		if k > n {
			k = n
		}
		dims := 1 + int(dimRaw)%64
		pool := 1 + int(poolRaw)%n
		points := fuzzPoints(rng, n, dims, pool, int(levels))
		got, err := kMedoids(points, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveKMedoids(points, k, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d k=%d dims=%d pool=%d seed=%d: fast swap diverged from the oracle:\ngot  medoids %v cost %v\nwant medoids %v cost %v",
				n, k, dims, pool, seed, got.Medoids, got.Cost, want.Medoids, want.Cost)
		}
	})
}

func behaviourBlobs() []report.Measurement {
	return []report.Measurement{
		blob("mem1", 0.05, 0.70, 0.05, 0.20, 1e6, "copy"),
		blob("mem2", 0.06, 0.68, 0.05, 0.21, 1.1e6, "copy"),
		blob("cpu1", 0.05, 0.10, 0.05, 0.80, 1e6, "math"),
		blob("cpu2", 0.04, 0.12, 0.05, 0.79, 1.2e6, "math"),
		blob("spec1", 0.10, 0.20, 0.45, 0.25, 1e6, "search"),
	}
}

func TestSelectGroupsByBehaviour(t *testing.T) {
	ms := behaviourBlobs()
	sel, err := Select(ms, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Representatives) != 3 {
		t.Fatalf("reps = %v", sel.Representatives)
	}
	cl := sel.Clustering
	// The two memory-bound workloads must share a cluster, as must the
	// two compute-bound ones.
	if cl.Assign[0] != cl.Assign[1] {
		t.Error("mem workloads split")
	}
	if cl.Assign[2] != cl.Assign[3] {
		t.Error("cpu workloads split")
	}
	if cl.Assign[0] == cl.Assign[2] || cl.Assign[0] == cl.Assign[4] {
		t.Error("distinct behaviours merged")
	}
	text := FormatSelection("test_r", sel)
	if !strings.Contains(text, "cluster 1") || !strings.Contains(text, "representative") ||
		!strings.Contains(text, "coverage loss") {
		t.Errorf("format:\n%s", text)
	}
}

func TestSelectEmpty(t *testing.T) {
	if _, err := Select(nil, Options{K: 2}); !errors.Is(err, ErrCluster) {
		t.Errorf("err = %v", err)
	}
}

// TestSelectIncrementalMatchesOneShot proves the streaming accumulation
// path selects exactly what the one-shot path does, whatever order the
// points arrived in — the property that lets a parallel sweep feed
// completion-order measurements and still agree with a serial run.
func TestSelectIncrementalMatchesOneShot(t *testing.T) {
	ms := behaviourBlobs()
	want, err := Select(ms, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFeatureSpace(FeaturesCombined)
	for _, m := range ms {
		fs.AddPoint(fs.Compact(m))
	}
	got, err := fs.Select(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("incremental selection differs:\n one-shot %+v\n incremental %+v", want, got)
	}
}

func TestSelectFeatureMismatch(t *testing.T) {
	fs := NewFeatureSpace(FeaturesTopDown)
	fs.Add(blob("a", 0.1, 0.4, 0.1, 0.4, 100, "x"))
	if _, err := fs.Select(Options{K: 1, Features: FeaturesCombined}); !errors.Is(err, ErrCluster) {
		t.Errorf("feature mismatch err = %v", err)
	}
	if _, err := fs.Select(Options{K: 1, Features: FeaturesTopDown}); err != nil {
		t.Errorf("matching features err = %v", err)
	}
}

func TestCompactDropsCoverageForTopDown(t *testing.T) {
	m := blob("a", 0.1, 0.4, 0.1, 0.4, 100, "x")
	if p := NewFeatureSpace(FeaturesTopDown).Compact(m); p.Coverage != nil {
		t.Error("topdown Compact retained the coverage map")
	}
	if p := NewFeatureSpace(FeaturesCombined).Compact(m); p.Coverage == nil {
		t.Error("combined Compact dropped the coverage map")
	}
}

func TestSelectCoverageLoss(t *testing.T) {
	ms := behaviourBlobs()
	sel, err := Select(ms, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Loss.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", sel.Loss.Dropped)
	}
	if sel.Loss.MaxDistance <= 0 || sel.Loss.MeanDistance <= 0 {
		t.Errorf("loss = %+v, want positive distances", sel.Loss)
	}
	if sel.Loss.MeanDistance > sel.Loss.MaxDistance {
		t.Errorf("mean %v exceeds max %v", sel.Loss.MeanDistance, sel.Loss.MaxDistance)
	}
	// k = n keeps everything: zero loss.
	all, err := Select(ms, Options{K: len(ms)})
	if err != nil {
		t.Fatal(err)
	}
	if all.Loss != (CoverageLoss{}) {
		t.Errorf("k=n loss = %+v, want zero", all.Loss)
	}
}

func TestSelectSeedPerturbsInitDeterministically(t *testing.T) {
	ms := behaviourBlobs()
	for _, seed := range []int64{0, 1, 7} {
		a, err := Select(ms, Options{K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Select(ms, Options{K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: repeated selection differs", seed)
		}
		// Whatever the seeding, descent must keep the separable blobs
		// grouped: each pair together, the pairs apart.
		as := a.Clustering.Assign
		if as[0] != as[1] || as[2] != as[3] || as[0] == as[2] || as[0] == as[4] {
			t.Errorf("seed %d broke the blob partition: %v", seed, as)
		}
	}
}

func TestFeaturesStringRoundTrip(t *testing.T) {
	for _, f := range []Features{FeaturesCombined, FeaturesTopDown, FeaturesCoverage} {
		got, err := ParseFeatures(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFeatures(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFeatures("bogus"); !errors.Is(err, ErrCluster) {
		t.Errorf("bogus err = %v", err)
	}
}

func TestFeatureSpaceStableDimensions(t *testing.T) {
	fs := NewFeatureSpace(FeaturesCombined)
	fs.Add(blob("a", 0.1, 0.4, 0.1, 0.4, 100, "x"))
	fs.Add(blob("b", 0.1, 0.4, 0.1, 0.4, 100, "y"))
	vs := fs.Vectors()
	if len(vs[0]) != len(vs[1]) {
		t.Fatal("vectors have differing dimensions")
	}
	// Identical top-down but different hot methods → nonzero distance.
	if Distance(vs[0], vs[1]) == 0 {
		t.Error("method coverage should differentiate the vectors")
	}
	// The topdown embedding ignores methods entirely: same top-down and
	// cycles → zero distance.
	td := NewFeatureSpace(FeaturesTopDown)
	td.Add(blob("a", 0.1, 0.4, 0.1, 0.4, 100, "x"))
	td.Add(blob("b", 0.1, 0.4, 0.1, 0.4, 100, "y"))
	tv := td.Vectors()
	if Distance(tv[0], tv[1]) != 0 {
		t.Error("topdown embedding should ignore coverage")
	}
}

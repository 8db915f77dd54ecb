package core

import (
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// writeObjects stores objects on a fresh file in env's disk.
func writeObjects(t *testing.T, env em.Env, objs []geom.Object) *em.File {
	t.Helper()
	recs := make([]rec.Object, len(objs))
	for i, o := range objs {
		recs[i] = rec.FromGeom(o)
	}
	f, err := em.WriteAll(env.Disk, rec.ObjectCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustSolver(t testing.TB, env em.Env, cfg Config) *Solver {
	t.Helper()
	s, err := NewSolver(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randObjects produces integer-coordinate objects so float arithmetic in
// both the external and in-memory algorithms is exact and comparable.
func randObjects(rng *rand.Rand, n int, coord float64) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.Object{
			Point: geom.Point{
				X: math.Floor(rng.Float64() * coord),
				Y: math.Floor(rng.Float64() * coord),
			},
			W: float64(rng.Intn(9) + 1),
		}
	}
	return objs
}

func TestSolverValidation(t *testing.T) {
	if _, err := NewSolver(em.Env{}, Config{}); err == nil {
		t.Fatal("zero Env must be rejected")
	}
	env := em.MustNewEnv(256, 2048)
	if _, err := NewSolver(env, Config{Fanout: 1}); err == nil {
		t.Fatal("fanout 1 must be rejected")
	}
	if _, err := NewSolver(env, Config{Fanout: -3}); err == nil {
		t.Fatal("negative fanout must be rejected")
	}
	s := mustSolver(t, env, Config{})
	f := writeObjects(t, env, []geom.Object{{Point: geom.Point{X: 1, Y: 1}, W: 1}})
	if _, err := s.SolveObjects(f, 0, 5); err == nil {
		t.Fatal("zero-width query must be rejected")
	}
	if _, err := s.SolveObjects(f, 5, -1); err == nil {
		t.Fatal("negative-height query must be rejected")
	}
}

func TestExactMaxRSInMemoryBase(t *testing.T) {
	// Memory large enough that the whole problem is one base case.
	env := em.MustNewEnv(4096, 1<<20)
	s := mustSolver(t, env, Config{})
	objs := []geom.Object{
		{Point: geom.Point{X: 1, Y: 1}, W: 1},
		{Point: geom.Point{X: 2, Y: 2}, W: 1},
		{Point: geom.Point{X: 3, Y: 1}, W: 1},
		{Point: geom.Point{X: 50, Y: 50}, W: 1},
	}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 3 {
		t.Fatalf("sum = %g, want 3", res.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 4, 4); got != 3 {
		t.Fatalf("returned point covers %g, want 3", got)
	}
}

func TestExactMaxRSForcedRecursion(t *testing.T) {
	// Tiny memory: 8 blocks of 128 B → capacity ≈ 24 events, forcing
	// several levels of recursion on 300 objects (600 events).
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(42))
	objs := randObjects(rng, 300, 100)
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 10, 10)
	if res.Sum != want.Sum {
		t.Fatalf("external sum = %g, in-memory = %g", res.Sum, want.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 10, 10); got != res.Sum {
		t.Fatalf("returned point covers %g, claimed %g", got, res.Sum)
	}
}

// The central correctness property: for random datasets, EM geometries and
// query sizes, ExactMaxRS equals the in-memory plane sweep, and the
// returned location attains the claimed sum.
func TestExactMaxRSMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		blockSize := 64 * (rng.Intn(4) + 1) // 64..256
		memBlocks := rng.Intn(12) + 6       // 6..17
		env := em.MustNewEnv(blockSize, blockSize*memBlocks)
		s := mustSolver(t, env, Config{})
		n := rng.Intn(400) + 20
		coord := float64(rng.Intn(400) + 50)
		objs := randObjects(rng, n, coord)
		w := math.Floor(rng.Float64()*40) + 2
		h := math.Floor(rng.Float64()*40) + 2
		f := writeObjects(t, env, objs)
		res, err := s.SolveObjects(f, w, h)
		if err != nil {
			t.Fatalf("trial %d (B=%d M/B=%d n=%d %gx%g): %v",
				trial, blockSize, memBlocks, n, w, h, err)
		}
		want := sweep.MaxRS(objs, w, h)
		if res.Sum != want.Sum {
			t.Fatalf("trial %d (B=%d M/B=%d n=%d %gx%g): external %g, in-memory %g",
				trial, blockSize, memBlocks, n, w, h, res.Sum, want.Sum)
		}
		if got := geom.WeightIn(objs, res.Best(), w, h); got != res.Sum {
			t.Fatalf("trial %d: point %v covers %g, claimed %g",
				trial, res.Best(), got, res.Sum)
		}
	}
}

func TestExactMaxRSClusteredTies(t *testing.T) {
	// Many identical coordinates stress boundary-coincidence handling:
	// duplicated points, grid-aligned clusters, shared rectangle edges.
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(13))
	var objs []geom.Object
	for c := 0; c < 10; c++ {
		cx, cy := math.Floor(rng.Float64()*50), math.Floor(rng.Float64()*50)
		for k := 0; k < 30; k++ {
			objs = append(objs, geom.Object{
				Point: geom.Point{X: cx + float64(k%3), Y: cy + float64(k/10)},
				W:     1,
			})
		}
	}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 6, 6)
	if res.Sum != want.Sum {
		t.Fatalf("external %g, in-memory %g", res.Sum, want.Sum)
	}
}

func TestExactMaxRSIdenticalPoints(t *testing.T) {
	// All objects at one location: every transformed rectangle identical —
	// the degenerate case where division must divert everything to R′.
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	objs := make([]geom.Object, 200)
	for i := range objs {
		objs[i] = geom.Object{Point: geom.Point{X: 10, Y: 10}, W: 2}
	}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 400 {
		t.Fatalf("sum = %g, want 400", res.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 4, 4); got != 400 {
		t.Fatalf("point covers %g, want 400", got)
	}
}

func TestExactMaxRSVerticalLine(t *testing.T) {
	// All objects share one x: every vertical edge value is one of two
	// numbers — stresses quantile tie handling.
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	objs := make([]geom.Object, 150)
	for i := range objs {
		objs[i] = geom.Object{Point: geom.Point{X: 50, Y: float64(i)}, W: 1}
	}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 10, 10)
	if res.Sum != want.Sum {
		t.Fatalf("external %g, in-memory %g", res.Sum, want.Sum)
	}
}

func TestExactMaxRSHorizontalLine(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	objs := make([]geom.Object, 150)
	for i := range objs {
		objs[i] = geom.Object{Point: geom.Point{X: float64(i * 2), Y: 7}, W: 1}
	}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 9, 3)
	if res.Sum != want.Sum {
		t.Fatalf("external %g, in-memory %g", res.Sum, want.Sum)
	}
}

func TestExactMaxRSEmptyInput(t *testing.T) {
	env := em.MustNewEnv(256, 2048)
	s := mustSolver(t, env, Config{})
	f := writeObjects(t, env, nil)
	res, err := s.SolveObjects(f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 0 {
		t.Fatalf("empty input sum = %g", res.Sum)
	}
}

func TestExactMaxRSSingleObject(t *testing.T) {
	env := em.MustNewEnv(256, 2048)
	s := mustSolver(t, env, Config{})
	objs := []geom.Object{{Point: geom.Point{X: 5, Y: 5}, W: 3}}
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 3 {
		t.Fatalf("sum = %g, want 3", res.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 2, 2); got != 3 {
		t.Fatalf("point covers %g, want 3", got)
	}
}

func TestSolveRects(t *testing.T) {
	// Feed pre-transformed rectangles directly (the ApproxMaxCRS path).
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	rects := []rec.WRect{
		{X1: 0, X2: 4, Y1: 0, Y2: 4, W: 1},
		{X1: 2, X2: 6, Y1: 2, Y2: 6, W: 1},
		{X1: 3, X2: 7, Y1: 1, Y2: 5, W: 1},
		{X1: 100, X2: 104, Y1: 0, Y2: 4, W: 1},
	}
	f, err := em.WriteAll(env.Disk, rec.WRectCodec{}, rects)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveRects(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 3 {
		t.Fatalf("sum = %g, want 3", res.Sum)
	}
	want := sweep.MaxRSRects(rects)
	if res.Sum != want.Sum {
		t.Fatalf("external %g, in-memory %g", res.Sum, want.Sum)
	}
}

func TestFanoutOverride(t *testing.T) {
	// Any fanout ≥ 2 must give the same answer (ablation knob sanity).
	rng := rand.New(rand.NewSource(77))
	objs := randObjects(rng, 250, 120)
	want := sweep.MaxRS(objs, 12, 12)
	for _, fanout := range []int{0, 2, 3, 4, 8, 64} {
		env := em.MustNewEnv(128, 1024)
		s := mustSolver(t, env, Config{Fanout: fanout})
		f := writeObjects(t, env, objs)
		res, err := s.SolveObjects(f, 12, 12)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if res.Sum != want.Sum {
			t.Fatalf("fanout %d: sum %g, want %g", fanout, res.Sum, want.Sum)
		}
	}
}

func TestDiskNotLeaked(t *testing.T) {
	// After solving, only the input file should remain on disk: every
	// intermediate (runs, events, edges, slab files) must be released.
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(3))
	objs := randObjects(rng, 200, 80)
	f := writeObjects(t, env, objs)
	if _, err := s.SolveObjects(f, 8, 8); err != nil {
		t.Fatal(err)
	}
	if got, want := env.Disk.InUse(), f.Blocks(); got != want {
		t.Fatalf("blocks in use = %d, want %d (intermediates leaked)", got, want)
	}
}

func TestIOCostScaling(t *testing.T) {
	// Theorem 2: cost is O((N/B) log_{M/B}(N/B)). Doubling N must grow
	// transfers by ~2x (not 4x as in the quadratic baselines), and more
	// memory must not increase the cost.
	run := func(n int, mem int) uint64 {
		env := em.MustNewEnv(512, mem)
		s := mustSolver(t, env, Config{})
		rng := rand.New(rand.NewSource(int64(n)))
		objs := randObjects(rng, n, float64(4*n))
		f := writeObjects(t, env, objs)
		env.Disk.ResetStats()
		if _, err := s.SolveObjects(f, 1000, 1000); err != nil {
			t.Fatal(err)
		}
		return env.Disk.Stats().Total()
	}
	c1 := run(2000, 8*512)
	c2 := run(4000, 8*512)
	ratio := float64(c2) / float64(c1)
	if ratio > 3.0 {
		t.Fatalf("doubling N scaled I/O by %.2f (want ≈2, certainly <3)", ratio)
	}
	cBig := run(4000, 64*512)
	if cBig > c2 {
		t.Fatalf("more memory increased I/O: %d (M/B=8) → %d (M/B=64)", c2, cBig)
	}
}

func TestExactMaxRSLargeRealistic(t *testing.T) {
	// A paper-shaped instance: 20k points in [0, 80k]^2, 1 MB-scaled
	// memory, default-ratio query. Cross-validates the external solver at
	// a scale with multiple base-case slabs and non-trivial spanning
	// traffic. Skipped with -short.
	if testing.Short() {
		t.Skip("large realistic instance")
	}
	env := em.MustNewEnv(4096, 64*1024)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(404))
	objs := randObjects(rng, 20000, 80000)
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 320, 320)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 320, 320)
	if res.Sum != want.Sum {
		t.Fatalf("external %g, in-memory %g", res.Sum, want.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 320, 320); got != res.Sum {
		t.Fatalf("point covers %g, claimed %g", got, res.Sum)
	}
}

func TestExactMaxRSOnFileBackedDisk(t *testing.T) {
	d, err := em.NewFileBackedDisk(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	env := em.Env{Disk: d, M: 4096}
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(88))
	objs := randObjects(rng, 400, 300)
	f := writeObjects(t, env, objs)
	res, err := s.SolveObjects(f, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 20, 20)
	if res.Sum != want.Sum {
		t.Fatalf("file-backed %g, in-memory %g", res.Sum, want.Sum)
	}
}

// TestSolveObjectsInSlab: a restricted root answers for the centers of
// its slab alone. For mixed-sign weights, resident and external roots,
// and slabs that every rectangle spans (the midpoint split), the answer
// equals the in-memory best-only sweep over the same slab, its region
// lies inside the slab, and no block stays allocated.
func TestSolveObjectsInSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	env := em.MustNewEnv(128, 2048) // 2048/41 events: 24 rectangles stay resident
	s := mustSolver(t, env, Config{})
	for _, tc := range []struct {
		name string
		n    int
		w    float64
		slab geom.Interval
	}{
		{"resident", 20, 30, geom.Interval{Lo: 40, Hi: 70}},
		{"external", 400, 30, geom.Interval{Lo: 40, Hi: 70}},
		{"external low half-line", 400, 30, geom.Interval{Lo: math.Inf(-1), Hi: 50}},
		{"external high half-line", 400, 30, geom.Interval{Lo: 50, Hi: math.Inf(1)}},
		{"resident fully spanned", 20, 300, geom.Interval{Lo: 40, Hi: 70}},
		{"external fully spanned", 400, 300, geom.Interval{Lo: 40, Hi: 70}},
		{"no rectangle in slab", 50, 2, geom.Interval{Lo: 500, Hi: 600}},
	} {
		objs := randObjects(rng, tc.n, 100)
		for i := range objs {
			objs[i].W -= 5 // weights −4..4
		}
		rects := make([]rec.WRect, len(objs))
		for i, o := range objs {
			rects[i] = rec.FromObject(rec.FromGeom(o), tc.w, tc.w)
		}
		want := sweep.SlabBest(rects, tc.slab)
		want.Region.X = want.Region.X.Intersect(tc.slab)
		f := writeObjects(t, env, objs)
		before := env.Disk.InUse()
		got, err := s.SolveObjectsInSlab(nil, f, tc.w, tc.w, tc.slab, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
		if x := got.Region.X; x.Lo < tc.slab.Lo || x.Hi > tc.slab.Hi {
			t.Errorf("%s: region %v outside slab %v", tc.name, x, tc.slab)
		}
		if n := env.Disk.InUse(); n != before {
			t.Errorf("%s: %d blocks in use after the solve, %d before", tc.name, n, before)
		}
		_ = f.Release()
	}
	f := writeObjects(t, env, randObjects(rng, 5, 100))
	defer f.Release()
	for _, slab := range []geom.Interval{{Lo: 5, Hi: 5}, {Lo: 6, Hi: 5}, {Lo: math.NaN(), Hi: 5}} {
		if _, err := s.SolveObjectsInSlab(nil, f, 1, 1, slab, nil); err == nil {
			t.Errorf("slab %v accepted", slab)
		}
	}
}

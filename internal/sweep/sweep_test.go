package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

func newSegTree(n int) *segTree {
	t := &segTree{}
	t.reset(n)
	return t
}

func TestSegTreeBasics(t *testing.T) {
	tr := newSegTree(8)
	if tr.Max() != 0 {
		t.Fatalf("empty tree max = %g", tr.Max())
	}
	tr.Update(2, 6, 1) // cells 2..5 = 1
	if tr.Max() != 1 {
		t.Fatalf("max = %g, want 1", tr.Max())
	}
	l, r := tr.MaxRun()
	if l != 2 || r != 6 {
		t.Fatalf("run = [%d,%d), want [2,6)", l, r)
	}
	tr.Update(4, 8, 2) // cells 4,5 = 3; 6,7 = 2
	if tr.Max() != 3 {
		t.Fatalf("max = %g, want 3", tr.Max())
	}
	l, r = tr.MaxRun()
	if l != 4 || r != 6 {
		t.Fatalf("run = [%d,%d), want [4,6)", l, r)
	}
	tr.Update(4, 6, -3) // back to: 2,3=1; 4,5=0; 6,7=2
	l, r = tr.MaxRun()
	if tr.Max() != 2 || l != 6 || r != 8 {
		t.Fatalf("max=%g run=[%d,%d), want 2 [6,8)", tr.Max(), l, r)
	}
}

func TestSegTreeCellValue(t *testing.T) {
	tr := newSegTree(10)
	tr.Update(0, 10, 5)
	tr.Update(3, 7, 2)
	tr.Update(5, 6, -1)
	want := []float64{5, 5, 5, 7, 7, 6, 7, 5, 5, 5}
	for i, w := range want {
		if got := tr.CellValue(i); got != w {
			t.Fatalf("cell %d = %g, want %g", i, got, w)
		}
	}
}

// Reference implementation: a plain array.
func TestSegTreeAgainstArray(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60) + 1
		tr := newSegTree(n)
		ref := make([]float64, n)
		for op := 0; op < 200; op++ {
			l := rng.Intn(n)
			r := l + rng.Intn(n-l) + 1
			d := float64(rng.Intn(11) - 5)
			tr.Update(l, r, d)
			for i := l; i < r; i++ {
				ref[i] += d
			}
			// Check max.
			max := ref[0]
			for _, v := range ref[1:] {
				if v > max {
					max = v
				}
			}
			if tr.Max() != max {
				t.Fatalf("n=%d op=%d: max=%g, want %g", n, op, tr.Max(), max)
			}
			// Check the reported run is a maximal run at max.
			lo, hi := tr.MaxRun()
			if lo < 0 || hi > n || lo >= hi {
				t.Fatalf("invalid run [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				if ref[i] != max {
					t.Fatalf("cell %d in run = %g, want max %g", i, ref[i], max)
				}
			}
			if lo > 0 && ref[lo-1] == max {
				// must be the *leftmost* run start
				for i := lo - 1; i >= 0; i-- {
					if ref[i] != max {
						t.Fatalf("run start %d not leftmost (cell %d also max)", lo, i)
					}
				}
			}
			if hi < n && ref[hi] == max {
				t.Fatalf("run [%d,%d) not maximal: cell %d also at max", lo, hi, hi)
			}
		}
	}
}

func fullSlab() geom.Interval {
	return geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

func TestSlabPaperExample(t *testing.T) {
	// Figure 2/6 style: four unit-weight rectangles; verify tuple invariants
	// rather than exact paper coordinates (the figure gives no numbers).
	rects := []rec.WRect{
		{X1: 0, X2: 4, Y1: 0, Y2: 4, W: 1},
		{X1: 2, X2: 6, Y1: 2, Y2: 6, W: 1},
		{X1: 3, X2: 7, Y1: 1, Y2: 5, W: 1},
		{X1: 9, X2: 12, Y1: 0, Y2: 3, W: 1},
	}
	tuples := Slab(rects, fullSlab())
	// Tuples sorted by distinct y, one per event line.
	ys := map[float64]bool{}
	for _, r := range rects {
		ys[r.Y1] = true
		ys[r.Y2] = true
	}
	if len(tuples) != len(ys) {
		t.Fatalf("got %d tuples, want %d (one per distinct h-line)", len(tuples), len(ys))
	}
	if !sort.SliceIsSorted(tuples, func(i, j int) bool { return tuples[i].Y < tuples[j].Y }) {
		t.Fatal("tuples not sorted by y")
	}
	res := BestRegion(tuples)
	if res.Sum != 3 {
		t.Fatalf("best sum = %g, want 3", res.Sum)
	}
	// The triple overlap is [3,4) x [2,4); the h-line at y=3 (top of the
	// fourth rectangle) may split it into two strips, so only require the
	// returned strip to lie inside the true max-region.
	if res.Region.X.Lo != 3 || res.Region.X.Hi != 4 || res.Region.Y.Lo < 2 || res.Region.Y.Hi > 4 {
		t.Fatalf("best region = %v, want within [3,4)x[2,4)", res.Region)
	}
	// Last tuple: everything closed, sum 0 across the whole slab.
	last := tuples[len(tuples)-1]
	if last.Sum != 0 {
		t.Fatalf("final tuple sum = %g, want 0", last.Sum)
	}
	if !math.IsInf(last.X1, -1) || !math.IsInf(last.X2, 1) {
		t.Fatalf("final tuple interval = [%g,%g], want (-inf,+inf)", last.X1, last.X2)
	}
}

func TestSlabClipsToSlab(t *testing.T) {
	rects := []rec.WRect{
		{X1: 0, X2: 10, Y1: 0, Y2: 1, W: 1}, // spans the slab [2,4)
		{X1: 3, X2: 8, Y1: 0, Y2: 2, W: 1},
		{X1: 20, X2: 30, Y1: 0, Y2: 5, W: 1}, // outside entirely
	}
	tuples := Slab(rects, geom.Interval{Lo: 2, Hi: 4})
	for _, tp := range tuples {
		if tp.X1 < 2 || tp.X2 > 4 {
			t.Fatalf("tuple interval [%g,%g] escapes slab [2,4)", tp.X1, tp.X2)
		}
	}
	res := BestRegion(tuples)
	if res.Sum != 2 {
		t.Fatalf("best sum = %g, want 2 (both rects overlap [3,4))", res.Sum)
	}
	if res.Region.X.Lo != 3 || res.Region.X.Hi != 4 {
		t.Fatalf("region = %v, want x=[3,4)", res.Region)
	}
}

func TestSlabEmptyInputs(t *testing.T) {
	if got := Slab(nil, fullSlab()); got != nil {
		t.Fatalf("Slab(nil) = %v, want nil", got)
	}
	if got := Slab([]rec.WRect{{X1: 1, X2: 2, Y1: 3, Y2: 4, W: 1}}, geom.Interval{Lo: 5, Hi: 5}); got != nil {
		t.Fatalf("empty slab should yield nil, got %v", got)
	}
	// Degenerate rectangle (zero width) is skipped.
	if got := Slab([]rec.WRect{{X1: 1, X2: 1, Y1: 0, Y2: 4, W: 1}}, fullSlab()); got != nil {
		t.Fatalf("degenerate rect should be skipped, got %v", got)
	}
}

func TestHalfOpenStacking(t *testing.T) {
	// Two rectangles sharing the edge y=2: under half-open semantics the
	// top of the lower one must be processed before the bottom of the upper
	// one, so their weights never stack at y=2.
	rects := []rec.WRect{
		{X1: 0, X2: 2, Y1: 0, Y2: 2, W: 5},
		{X1: 0, X2: 2, Y1: 2, Y2: 4, W: 7},
	}
	res := BestRegion(Slab(rects, fullSlab()))
	if res.Sum != 7 {
		t.Fatalf("best sum = %g, want 7 (no stacking at shared edge)", res.Sum)
	}
}

// bruteMax computes the maximum location-weight over the plane by evaluating
// every elementary cell corner. O(n³) — oracle for randomized tests.
func bruteMax(rects []rec.WRect) float64 {
	if len(rects) == 0 {
		return 0
	}
	var xs, ys []float64
	for _, r := range rects {
		xs = append(xs, r.X1, r.X2)
		ys = append(ys, r.Y1, r.Y2)
	}
	best := 0.0
	for _, x := range xs {
		for _, y := range ys {
			var s float64
			for _, r := range rects {
				if x >= r.X1 && x < r.X2 && y >= r.Y1 && y < r.Y2 {
					s += r.W
				}
			}
			if s > best {
				best = s
			}
		}
	}
	return best
}

func randRects(rng *rand.Rand, n int, coord, size float64) []rec.WRect {
	rects := make([]rec.WRect, n)
	for i := range rects {
		x := math.Floor(rng.Float64() * coord)
		y := math.Floor(rng.Float64() * coord)
		w := math.Floor(rng.Float64()*size) + 1
		h := math.Floor(rng.Float64()*size) + 1
		rects[i] = rec.WRect{X1: x, X2: x + w, Y1: y, Y2: y + h, W: float64(rng.Intn(5) + 1)}
	}
	return rects
}

func TestSlabAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(25) + 1
		rects := randRects(rng, n, 20, 6)
		got := BestRegion(Slab(rects, fullSlab()))
		want := bruteMax(rects)
		if got.Sum != want {
			t.Fatalf("trial %d: sweep sum = %g, brute force = %g\nrects: %+v", trial, got.Sum, want, rects)
		}
		// The returned region must actually attain the sum.
		p := got.Region.Pick()
		var s float64
		for _, r := range rects {
			if p.X >= r.X1 && p.X < r.X2 && p.Y >= r.Y1 && p.Y < r.Y2 {
				s += r.W
			}
		}
		if s != got.Sum {
			t.Fatalf("trial %d: region center %v attains %g, claimed %g", trial, p, s, got.Sum)
		}
	}
}

func TestMaxRSSmall(t *testing.T) {
	// 8 unit-weight objects clustered so a 4x4 rectangle can cover 5 of them.
	objs := []geom.Object{
		{Point: geom.Point{X: 1, Y: 1}, W: 1},
		{Point: geom.Point{X: 2, Y: 2}, W: 1},
		{Point: geom.Point{X: 3, Y: 1}, W: 1},
		{Point: geom.Point{X: 2, Y: 3}, W: 1},
		{Point: geom.Point{X: 4, Y: 3}, W: 1},
		{Point: geom.Point{X: 10, Y: 10}, W: 1},
		{Point: geom.Point{X: 11, Y: 10}, W: 1},
		{Point: geom.Point{X: 30, Y: 30}, W: 1},
	}
	res := MaxRS(objs, 4, 4)
	if res.Sum != 5 {
		t.Fatalf("sum = %g, want 5", res.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 4, 4); got != 5 {
		t.Fatalf("returned point covers %g, want 5", got)
	}
}

func TestMaxRSWeighted(t *testing.T) {
	objs := []geom.Object{
		{Point: geom.Point{X: 0, Y: 0}, W: 10},
		{Point: geom.Point{X: 1, Y: 0}, W: 1},
		{Point: geom.Point{X: 5, Y: 5}, W: 5},
		{Point: geom.Point{X: 5.5, Y: 5.5}, W: 5},
	}
	// 2x2 range: either {10,1}=11 or {5,5}=10 → 11.
	res := MaxRS(objs, 2, 2)
	if res.Sum != 11 {
		t.Fatalf("sum = %g, want 11", res.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 2, 2); got != 11 {
		t.Fatalf("point covers %g, want 11", got)
	}
}

// Property: the MaxRS answer equals a brute-force scan over candidate
// centers derived from object-coordinate offsets.
func TestMaxRSAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(20) + 1
		objs := make([]geom.Object, n)
		for i := range objs {
			objs[i] = geom.Object{
				Point: geom.Point{
					X: math.Floor(rng.Float64() * 30),
					Y: math.Floor(rng.Float64() * 30),
				},
				W: float64(rng.Intn(4) + 1),
			}
		}
		w := math.Floor(rng.Float64()*8) + 2
		h := math.Floor(rng.Float64()*8) + 2
		res := MaxRS(objs, w, h)

		// Brute force: optimal centers occur with the rectangle's min corner
		// at cell corners of the transformed arrangement; equivalently probe
		// centers at (ox + w/2, oy + h/2) minus small offsets — every cell
		// lower-left corner is (ox - w/2 .. ) from some transformed rect
		// edge. Use transformed-rect corners directly.
		var best float64
		var xs, ys []float64
		for _, o := range objs {
			xs = append(xs, o.X-w/2, o.X+w/2)
			ys = append(ys, o.Y-h/2, o.Y+h/2)
		}
		for _, x := range xs {
			for _, y := range ys {
				if s := geom.WeightIn(objs, geom.Point{X: x, Y: y}, w, h); s > best {
					best = s
				}
			}
		}
		if res.Sum != best {
			t.Fatalf("trial %d: MaxRS = %g, brute force = %g", trial, res.Sum, best)
		}
		if got := geom.WeightIn(objs, res.Best(), w, h); got != res.Sum {
			t.Fatalf("trial %d: point covers %g, claimed %g", trial, got, res.Sum)
		}
	}
}

func TestBestRegionEmpty(t *testing.T) {
	res := BestRegion(nil)
	if res.Sum != 0 {
		t.Fatalf("empty BestRegion sum = %g", res.Sum)
	}
	if !math.IsInf(res.Region.X.Lo, -1) || !math.IsInf(res.Region.Y.Hi, 1) {
		t.Fatalf("empty BestRegion should be the whole plane, got %v", res.Region)
	}
}

// TestBestTrackerStreaming feeds a slab file's tuples one by one: after
// each, the tracker holds the first tuple of greatest sum so far, whose
// strip runs to the next tuple's y, or to +Inf while it is the last one.
// A later tuple of equal sum does not replace it, and a first tuple wins
// even with a negative sum.
func TestBestTrackerStreaming(t *testing.T) {
	inf := math.Inf(1)
	tuples := []rec.Tuple{
		{Y: 0, X1: 0, X2: 10, Sum: -1},
		{Y: 2, X1: 3, X2: 5, Sum: 4},
		{Y: 5, X1: 0, X2: 10, Sum: 2},
		{Y: 7, X1: 1, X2: 2, Sum: 4},
		{Y: 9, X1: 0, X2: 10, Sum: 0},
	}
	want := []Result{
		{Region: geom.Rect{X: geom.Interval{Lo: 0, Hi: 10}, Y: geom.Interval{Lo: 0, Hi: inf}}, Sum: -1},
		{Region: geom.Rect{X: geom.Interval{Lo: 3, Hi: 5}, Y: geom.Interval{Lo: 2, Hi: inf}}, Sum: 4},
		{Region: geom.Rect{X: geom.Interval{Lo: 3, Hi: 5}, Y: geom.Interval{Lo: 2, Hi: 5}}, Sum: 4},
		{Region: geom.Rect{X: geom.Interval{Lo: 3, Hi: 5}, Y: geom.Interval{Lo: 2, Hi: 5}}, Sum: 4},
		{Region: geom.Rect{X: geom.Interval{Lo: 3, Hi: 5}, Y: geom.Interval{Lo: 2, Hi: 5}}, Sum: 4},
	}
	var b BestTracker
	for i, tup := range tuples {
		b.Add(tup)
		if got := b.Result(); got != want[i] {
			t.Fatalf("after tuple %d: %+v, want %+v", i, got, want[i])
		}
	}
	if got := BestRegion(tuples); got != want[len(want)-1] {
		t.Fatalf("BestRegion = %+v, want %+v", got, want[len(want)-1])
	}
}

// BenchmarkSlab sweeps random rectangles over the whole plane: 10k, the
// size of a resident base case, and 40, the size of a deep leaf. The
// n=… sub-benchmarks are one-shot Slab calls; reused/n=… sweep the same
// input with one Sweeper, as sibling base cases of one recursion node do.
// The ux/… sub-benchmarks find the max-region of 10k clustered objects
// (a sample of the UX stand-in) under the query sides of a resident
// root: …/slab reads it off the slab file, BestRegion(Slab(…)), and
// …/best is the best-only SlabBest.
func BenchmarkSlab(b *testing.B) {
	for _, n := range []int{40, 10_000} {
		rects := randRects(rand.New(rand.NewSource(int64(n))), n, 4*float64(n), 100)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Slab(rects, fullSlab())
			}
		})
		b.Run(fmt.Sprintf("reused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sw Sweeper
			for i := 0; i < b.N; i++ {
				sw.Slab(rects, fullSlab())
			}
		})
	}
	objs := workload.Sample(1, workload.SyntheticUX(1), 10_000)
	for _, side := range []float64{5_000, 40_000} {
		rects := make([]rec.WRect, len(objs))
		for i, o := range objs {
			rects[i] = rec.FromObject(rec.FromGeom(o), side, side)
		}
		b.Run(fmt.Sprintf("ux/side=%g/slab", side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BestRegion(Slab(rects, fullSlab()))
			}
		})
		b.Run(fmt.Sprintf("ux/side=%g/best", side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SlabBest(rects, fullSlab())
			}
		})
	}
}

package maxrs

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func cluster(cx, cy float64, n int, w float64) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{X: cx + float64(i%3), Y: cy + float64(i/3), Weight: w}
	}
	return objs
}

func TestMaxRSQuickstart(t *testing.T) {
	objs := append(cluster(10, 10, 6, 1), cluster(100, 100, 3, 1)...)
	res, err := MaxRS(context.Background(), objs, 5, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 6 {
		t.Fatalf("score = %g, want 6", res.Score)
	}
	if !res.Region.Contains(res.Location) {
		t.Fatalf("location %v outside region %+v", res.Location, res.Region)
	}
}

func TestMaxRSValidation(t *testing.T) {
	objs := []Object{{X: 1, Y: 1, Weight: 1}}
	if _, err := MaxRS(context.Background(), objs, 0, 5, nil); err == nil {
		t.Fatal("zero width must fail")
	}
	if _, err := MaxRS(context.Background(), objs, 5, math.Inf(1), nil); err == nil {
		t.Fatal("infinite height must fail")
	}
	if _, err := MaxRS(context.Background(), []Object{{X: math.NaN(), Y: 0, Weight: 1}}, 5, 5, nil); err == nil {
		t.Fatal("NaN coordinates must fail")
	}
	if _, err := NewEngine(&Options{BlockSize: 100, Memory: 100}); err == nil {
		t.Fatal("M < 2B must fail")
	}
}

func TestEngineStatsAndReuse(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	objs := make([]Object, 2000)
	for i := range objs {
		objs[i] = Object{X: math.Floor(rng.Float64() * 8000), Y: math.Floor(rng.Float64() * 8000), Weight: 1}
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2000 {
		t.Fatalf("Len = %d", d.Len())
	}
	e.ResetStats()
	if got := e.Stats().Total(); got != 0 {
		t.Fatalf("stats after reset = %d", got)
	}
	r1, err := e.MaxRS(context.Background(), d, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	io1 := e.Stats().Total()
	if io1 == 0 {
		t.Fatal("ExactMaxRS on an out-of-core dataset reported zero I/O")
	}
	// The dataset is reusable: a second identical query gives the same answer.
	r2, err := e.MaxRS(context.Background(), d, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Score != r2.Score {
		t.Fatalf("repeat query changed score: %g vs %g", r1.Score, r2.Score)
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := make([]Object, 400)
	for i := range objs {
		objs[i] = Object{
			X:      math.Floor(rng.Float64() * 300),
			Y:      math.Floor(rng.Float64() * 300),
			Weight: float64(rng.Intn(4) + 1),
		}
	}
	var scores []float64
	for _, alg := range []Algorithm{ExactMaxRS, InMemory} {
		e, err := NewEngine(&Options{BlockSize: 256, Memory: 4096, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.Load(context.Background(), objs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.MaxRS(context.Background(), d, 20, 20)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		scores = append(scores, res.Score)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] != scores[0] {
			t.Fatalf("algorithm disagreement: %v", scores)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		ExactMaxRS:    "ExactMaxRS",
		InMemory:      "InMemory",
		AlgorithmAuto: "Auto",
		Algorithm(99): "Algorithm(99)",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestMaxCRS(t *testing.T) {
	objs := append(cluster(50, 50, 5, 1), Object{X: 500, Y: 500, Weight: 1})
	res, err := MaxCRS(context.Background(), objs, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBoundRatio != 0.25 {
		t.Fatalf("bound = %g", res.LowerBoundRatio)
	}
	exact, err := MaxCRSExact(objs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if exact.LowerBoundRatio != 1 {
		t.Fatalf("exact bound = %g", exact.LowerBoundRatio)
	}
	if res.Score > exact.Score {
		t.Fatalf("approx %g exceeds exact %g", res.Score, exact.Score)
	}
	if 4*res.Score < exact.Score {
		t.Fatalf("approx %g violates 1/4 bound of %g", res.Score, exact.Score)
	}
	if _, err := MaxCRS(context.Background(), objs, -1, nil); err == nil {
		t.Fatal("negative diameter must fail")
	}
	if _, err := MaxCRSExact(objs, 0); err == nil {
		t.Fatal("zero diameter must fail")
	}
	if _, err := MaxCRSExact([]Object{{Weight: -1}}, 5); err == nil {
		t.Fatal("negative weights must fail in exact solver")
	}
}

func TestTopK(t *testing.T) {
	objs := append(cluster(10, 10, 6, 1), cluster(200, 200, 4, 1)...)
	objs = append(objs, cluster(400, 10, 2, 1)...)
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.TopK(context.Background(), d, 6, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	wantScores := []float64{6, 4, 2}
	for i, r := range results {
		if r.Score != wantScores[i] {
			t.Fatalf("result %d score = %g, want %g", i, r.Score, wantScores[i])
		}
	}
	// k larger than available clusters: stops early.
	results, err = e.TopK(context.Background(), d, 6, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (early stop)", len(results))
	}
	if _, err := e.TopK(context.Background(), d, 6, 6, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
}

func TestMinRS(t *testing.T) {
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dense field with one sparse corner: minimum is 0 (empty placement).
	var objs []Object
	for i := 0; i < 20; i++ {
		objs = append(objs, Object{X: float64(i * 3), Y: 0, Weight: 2})
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MinRS(context.Background(), d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || math.Signbit(res.Score) {
		t.Fatalf("MinRS score = %g, want +0 (an empty spot exists)", res.Score)
	}
}

// TestUnboundedOptimumLocation: when the optimal region is unbounded (a
// score-0 optimum away from every object), Location is still a finite
// point of Region, and the rectangle centered there covers exactly the
// score.
func TestUnboundedOptimumLocation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		objs  []Object
		query func(*Engine, *Dataset) (Result, error)
	}{
		{"MaxRS/negative", []Object{{X: 1, Y: 1, Weight: -1}, {X: 2, Y: 2, Weight: -5}},
			func(e *Engine, d *Dataset) (Result, error) { return e.MaxRS(ctx, d, 1, 1) }},
		{"MinRS/positive", []Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 5, Weight: 2}, {X: 7, Y: 3, Weight: 3}},
			func(e *Engine, d *Dataset) (Result, error) { return e.MinRS(ctx, d, 1, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d, err := e.Load(ctx, tc.objs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.query(e, d)
			if err != nil {
				t.Fatal(err)
			}
			p := res.Location
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Fatalf("Location %+v is not finite (Region %+v)", p, res.Region)
			}
			if !res.Region.Contains(p) {
				t.Fatalf("Location %+v outside Region %+v", p, res.Region)
			}
			if res.Score != 0 || math.Signbit(res.Score) {
				t.Fatalf("Score %g, want +0", res.Score)
			}
			var covered float64
			for _, o := range tc.objs {
				if o.X >= p.X-0.5 && o.X < p.X+0.5 && o.Y >= p.Y-0.5 && o.Y < p.Y+0.5 {
					covered += o.Weight
				}
			}
			if covered != 0 {
				t.Fatalf("rectangle at %+v covers weight %g, want 0", p, covered)
			}
		})
	}
}

// TestRegionMinEdge pins the Region contract on its one exception: a
// query rectangle covers o iff center−w/2 ≤ o < center+w/2, so a center
// on a finite min edge of Region misses the objects on the rectangle's
// max edge. One object (1, 1) of weight 1 and a 1×1 query give Region
// [0.5,1.5)×[0.5,1.5): Location attains Score 1, and the min corner,
// which Region.Contains, covers nothing.
func TestRegionMinEdge(t *testing.T) {
	ctx := context.Background()
	objs := []Object{{X: 1, Y: 1, Weight: 1}}
	covered := func(p Point) float64 {
		var sum float64
		for _, o := range objs {
			if o.X >= p.X-0.5 && o.X < p.X+0.5 && o.Y >= p.Y-0.5 && o.Y < p.Y+0.5 {
				sum += o.Weight
			}
		}
		return sum
	}
	for _, algo := range []Algorithm{ExactMaxRS, InMemory} {
		t.Run(algo.String(), func(t *testing.T) {
			e, err := NewEngine(&Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d, err := e.Load(ctx, objs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.MaxRS(ctx, d, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Rect{MinX: 0.5, MinY: 0.5, MaxX: 1.5, MaxY: 1.5}); res.Region != want || res.Score != 1 {
				t.Fatalf("Region %+v Score %g, want %+v and 1", res.Region, res.Score, want)
			}
			if got := covered(res.Location); got != res.Score {
				t.Fatalf("Location %+v covers %g, want Score %g", res.Location, got, res.Score)
			}
			corner := Point{X: res.Region.MinX, Y: res.Region.MinY}
			if !res.Region.Contains(corner) {
				t.Fatalf("Region %+v does not contain its min corner", res.Region)
			}
			if got := covered(corner); got != 0 {
				t.Fatalf("min corner %+v covers %g, want 0", corner, got)
			}
		})
	}
}

func TestCountRS(t *testing.T) {
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two heavy objects vs three light ones: SUM prefers the heavy pair,
	// COUNT the triple.
	objs := []Object{
		{X: 0, Y: 0, Weight: 100},
		{X: 1, Y: 0, Weight: 100},
		{X: 50, Y: 50, Weight: 1},
		{X: 51, Y: 50, Weight: 1},
		{X: 50, Y: 51, Weight: 1},
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.MaxRS(context.Background(), d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Score != 200 {
		t.Fatalf("SUM score = %g, want 200", sum.Score)
	}
	count, err := e.CountRS(context.Background(), d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if count.Score != 3 {
		t.Fatalf("COUNT score = %g, want 3", count.Score)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if !r.Contains(Point{X: 0, Y: 0}) {
		t.Fatal("min corner must be contained")
	}
	if r.Contains(Point{X: 10, Y: 5}) {
		t.Fatal("max edge must be excluded")
	}
}

func TestOnDiskEngine(t *testing.T) {
	e, err := NewEngine(&Options{
		BlockSize: 512,
		Memory:    8192,
		OnDisk:    true,
		OnDiskDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(6))
	objs := make([]Object, 1500)
	for i := range objs {
		objs[i] = Object{X: math.Floor(rng.Float64() * 6000), Y: math.Floor(rng.Float64() * 6000), Weight: 1}
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MaxRS(context.Background(), d, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the default in-memory-backed engine.
	e2, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e2.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e2.MaxRS(context.Background(), d2, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("on-disk engine score %g, in-memory %g", got.Score, want.Score)
	}
}

func TestOnDiskEngineValidation(t *testing.T) {
	// Invalid memory with OnDisk must clean up the backing file.
	if _, err := NewEngine(&Options{BlockSize: 4096, Memory: 4096, OnDisk: true}); err == nil {
		t.Fatal("M < 2B must fail for on-disk engines too")
	}
}

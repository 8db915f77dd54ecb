package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

func randRectsForDivide(rng *rand.Rand, n int) []rec.WRect {
	rects := make([]rec.WRect, n)
	for i := range rects {
		x := math.Floor(rng.Float64() * 100)
		y := math.Floor(rng.Float64() * 100)
		w := math.Floor(rng.Float64()*20) + 1
		h := math.Floor(rng.Float64()*20) + 1
		rects[i] = rec.WRect{X1: x, X2: x + w, Y1: y, Y2: y + h, W: 1}
	}
	return rects
}

func TestChooseBoundsProperties(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(50))
	n := sortedRoot(t, s.task(nil, nil), randRectsForDivide(rng, 100))
	bounds, err := s.task(nil, nil).chooseBounds(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("no bounds chosen for a 100-rect node")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			t.Fatalf("bound %d not finite: %g", i, b)
		}
		if i > 0 && bounds[i-1] >= b {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
		if !(b > n.slab.Lo && b < n.slab.Hi) {
			t.Fatalf("bound %g outside slab %v", b, n.slab)
		}
	}
	if got, max := len(bounds), s.fanout(); got > max {
		t.Fatalf("%d bounds exceed fanout %d", got, max)
	}
}

func TestChooseBoundsEmptyEdgeFile(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	empty := em.NewFile(env.Disk)
	n := node{events: em.NewFile(env.Disk), edges: empty,
		slab: geom.Interval{Lo: 0, Hi: 10}}
	bounds, err := s.task(nil, nil).chooseBounds(n)
	if err != nil {
		t.Fatal(err)
	}
	if bounds != nil {
		t.Fatalf("bounds for empty node: %v", bounds)
	}
}

// Routing invariants: every child's events stay y-sorted and inside the
// child's slab; the total geometry (per y-strip coverage) is conserved
// between parent and children+spanning.
func TestRouteInvariants(t *testing.T) {
	env := em.MustNewEnv(128, 2048)
	s := mustSolver(t, env, Config{})
	rng := rand.New(rand.NewSource(51))
	rects := randRectsForDivide(rng, 200)
	n := sortedRoot(t, s.task(nil, nil), rects)
	bounds, err := s.task(nil, nil).chooseBounds(n)
	if err != nil {
		t.Fatal(err)
	}
	children, spanning, err := s.task(nil, nil).route(n, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != len(bounds)+1 {
		t.Fatalf("children = %d, want %d", len(children), len(bounds)+1)
	}
	var totalChildEvents int64
	for i, c := range children {
		evs, err := em.ReadAll(c.events, rec.PieceEventCodec{})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(evs)) != c.count {
			t.Fatalf("child %d count %d, file has %d", i, c.count, len(evs))
		}
		totalChildEvents += c.count
		lastY := math.Inf(-1)
		for _, e := range evs {
			if e.Y() < lastY {
				t.Fatalf("child %d events out of y order", i)
			}
			lastY = e.Y()
			if e.R.X1 < c.slab.Lo || e.R.X2 > c.slab.Hi {
				t.Fatalf("child %d fragment [%g,%g) escapes slab %v",
					i, e.R.X1, e.R.X2, c.slab)
			}
			if e.R.X1 == c.slab.Lo && e.R.X2 == c.slab.Hi {
				t.Fatalf("child %d holds a spanning fragment [%g,%g)", i, e.R.X1, e.R.X2)
			}
		}
	}
	spans, err := em.ReadAll(spanning, rec.PieceEventCodec{})
	if err != nil {
		t.Fatal(err)
	}
	lastY := math.Inf(-1)
	for _, e := range spans {
		if e.Y() < lastY {
			t.Fatal("spanning events out of y order")
		}
		lastY = e.Y()
		// Spanning parts must exactly tile whole child slabs.
		a := childOfPoint(bounds, e.R.X1)
		b := childOfSup(bounds, e.R.X2)
		if e.R.X1 != slabLo(n.slab, bounds, a) || e.R.X2 != slabHi(n.slab, bounds, b) {
			t.Fatalf("spanning part [%g,%g) not aligned to slab boundaries", e.R.X1, e.R.X2)
		}
	}

	// Mass conservation: total (area × weight) of fragments equals the
	// parent's. Bottom events only, to count each piece once.
	mass := func(evs []rec.PieceEvent) float64 {
		var m float64
		for _, e := range evs {
			if e.Top {
				continue
			}
			m += (e.R.X2 - e.R.X1) * (e.R.Y2 - e.R.Y1) * e.R.W
		}
		return m
	}
	var childMass float64
	for _, c := range children {
		evs, err := em.ReadAll(c.events, rec.PieceEventCodec{})
		if err != nil {
			t.Fatal(err)
		}
		childMass += mass(evs)
	}
	childMass += mass(spans)
	var parentMass float64
	for _, r := range rects {
		parentMass += (r.X2 - r.X1) * (r.Y2 - r.Y1) * r.W
	}
	if math.Abs(childMass-parentMass) > 1e-6*parentMass {
		t.Fatalf("mass not conserved: parent %g, children+spanning %g",
			parentMass, childMass)
	}
}

func TestChildOfPointAndSup(t *testing.T) {
	bounds := []float64{10, 20, 30}
	cases := []struct {
		x         float64
		point, up int
	}{
		{5, 0, 0},
		{10, 1, 0}, // at a boundary: point belongs right, sup belongs left
		{15, 1, 1},
		{20, 2, 1},
		{30, 3, 2},
		{35, 3, 3},
	}
	for _, c := range cases {
		if got := childOfPoint(bounds, c.x); got != c.point {
			t.Errorf("childOfPoint(%g) = %d, want %d", c.x, got, c.point)
		}
		if got := childOfSup(bounds, c.x); got != c.up {
			t.Errorf("childOfSup(%g) = %d, want %d", c.x, got, c.up)
		}
	}
}

func TestSlabBounds(t *testing.T) {
	slab := geom.Interval{Lo: 0, Hi: 100}
	bounds := []float64{25, 50}
	wantLo := []float64{0, 25, 50}
	wantHi := []float64{25, 50, 100}
	for i := 0; i < 3; i++ {
		if got := slabLo(slab, bounds, i); got != wantLo[i] {
			t.Errorf("slabLo(%d) = %g, want %g", i, got, wantLo[i])
		}
		if got := slabHi(slab, bounds, i); got != wantHi[i] {
			t.Errorf("slabHi(%d) = %g, want %g", i, got, wantHi[i])
		}
	}
}

func TestNoProgressTripwire(t *testing.T) {
	// Directly exercise the maxDepth guard.
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{})
	n := node{events: em.NewFile(env.Disk), edges: em.NewFile(env.Disk),
		slab: geom.Interval{Lo: 0, Hi: 1}, count: 1 << 40}
	if _, err := s.task(nil, nil).solve(n, maxDepth+1, nil); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

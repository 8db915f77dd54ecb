package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
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

// divideNode runs the division step on a node's sorted files, read as
// one-run merges exactly as solve reads them. The node's files are
// consumed.
func divideNode(tb testing.TB, s *task, n node) ([]float64, []node, *em.File) {
	tb.Helper()
	evm := extsort.NewMerger(s.env, []*em.File{n.events}, rec.PieceEventCodec{}, lessEventY, s.par)
	edm := extsort.NewMerger(s.env, []*em.File{n.edges}, rec.Float64Codec{}, lessFloat64, s.par)
	bounds, children, spanning, err := s.divide(evm, edm, em.RecordCount(n.edges, rec.Float64Codec{}.Size()), n.slab)
	if err != nil {
		tb.Fatal(err)
	}
	return bounds, children, spanning
}

func TestChooseBoundsProperties(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{}).task(nil, nil)
	rng := rand.New(rand.NewSource(50))
	n := sortedRoot(t, s, randRectsForDivide(rng, 100))
	bounds, children, spanning := divideNode(t, s, n)
	defer releaseDivision(children, spanning)
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

// TestChooseBoundsEmptyEdgeFile: a picker that consumes no values picks
// no bounds, and divide turns that into ErrNoProgress with both merges
// released.
func TestChooseBoundsEmptyEdgeFile(t *testing.T) {
	slab := geom.Interval{Lo: 0, Hi: 10}
	if bounds := newBoundsPicker(4, 0, slab).finish(); bounds != nil {
		t.Fatalf("bounds for no values: %v", bounds)
	}
	env := em.MustNewEnv(128, 1024)
	s := mustSolver(t, env, Config{}).task(nil, nil)
	evm := extsort.NewMerger(s.env, []*em.File{s.env.NewFile()}, rec.PieceEventCodec{}, lessEventY, 1)
	edm := extsort.NewMerger(s.env, []*em.File{s.env.NewFile()}, rec.Float64Codec{}, lessFloat64, 1)
	if _, _, _, err := s.divide(evm, edm, 0, slab); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	if evm.Runs() != 0 || edm.Runs() != 0 {
		t.Fatalf("merges not consumed: %d and %d runs left", evm.Runs(), edm.Runs())
	}
	if n := env.Disk.InUse(); n != 0 {
		t.Fatalf("%d blocks still in use", n)
	}
}

// releaseDivision frees a division's outputs.
func releaseDivision(children []node, spanning *em.File) {
	for _, c := range children {
		c.release()
	}
	_ = spanning.Release()
}

// fileBytes returns a file's record bytes.
func fileBytes(tb testing.TB, f *em.File) []byte {
	tb.Helper()
	b, err := io.ReadAll(f.NewReader())
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestRootDivisionMatchesNodeDivision pins the one division step to
// itself across its two feeds: divide over the reduced multi-run merges
// of the root sorts (as divideFused runs it) and divide over the one-run
// merges of the sorted root files (as solve runs it) must pick the same
// bounds and write byte-identical child event and spanning files, and
// byte-identical edge files for every child that divides. A child that
// fits in memory is a base case and must get no edge file from either.
func TestRootDivisionMatchesNodeDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rects := randRectsForDivide(rng, 300)
	for _, p := range []int{1, 4} {
		env := em.MustNewEnv(128, 2048)
		s := mustSolver(t, env, Config{Parallelism: p}).task(nil, nil)

		events, edges, _, err := s.buildInput(sliceRects(rects))
		if err != nil {
			t.Fatal(err)
		}
		evb, err := extsort.NewRunBuilder(s.env, rec.PieceEventCodec{}, lessEventY, p)
		if err != nil {
			t.Fatal(err)
		}
		edb, err := extsort.NewRunBuilder(s.env, rec.Float64Codec{}, lessFloat64, p)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := em.ReadAll(events, rec.PieceEventCodec{})
		if err != nil {
			t.Fatal(err)
		}
		xs, err := em.ReadAll(edges, rec.Float64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		_ = events.Release()
		_ = edges.Release()
		for _, e := range evs {
			if err := evb.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range xs {
			if err := edb.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		evRuns, err := evb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		edRuns, err := edb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		evm := extsort.NewMerger(s.env, evRuns, rec.PieceEventCodec{}, lessEventY, p)
		edm := extsort.NewMerger(s.env, edRuns, rec.Float64Codec{}, lessFloat64, p)
		if err := evm.Reduce(); err != nil {
			t.Fatal(err)
		}
		if err := edm.Reduce(); err != nil {
			t.Fatal(err)
		}
		if evm.Runs() < 3 || edm.Runs() < 3 {
			t.Fatalf("p=%d: root merges have %d and %d runs, want ≥ 3 each", p, evm.Runs(), edm.Runs())
		}
		slab := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		rootBounds, rootChildren, rootSpanning, err := s.divide(evm, edm, int64(len(xs)), slab)
		if err != nil {
			t.Fatal(err)
		}

		nodeBounds, nodeChildren, nodeSpanning := divideNode(t, s, sortedRoot(t, s, rects))
		if !slices.Equal(rootBounds, nodeBounds) {
			t.Fatalf("p=%d: root bounds %v, node bounds %v", p, rootBounds, nodeBounds)
		}
		var bases, dividing int
		for i := range rootChildren {
			rc, nc := rootChildren[i], nodeChildren[i]
			if rc.slab != nc.slab || rc.count != nc.count {
				t.Fatalf("p=%d: child %d is %v/%d from the root merges, %v/%d from the sorted files",
					p, i, rc.slab, rc.count, nc.slab, nc.count)
			}
			if !bytes.Equal(fileBytes(t, rc.events), fileBytes(t, nc.events)) {
				t.Fatalf("p=%d: child %d event files differ", p, i)
			}
			if s.fits(rc.count) {
				bases++
				if rc.edges != nil || nc.edges != nil {
					t.Fatalf("p=%d: base-case child %d (%d events) has an edge file", p, i, rc.count)
				}
				continue
			}
			dividing++
			if rc.edges == nil || nc.edges == nil {
				t.Fatalf("p=%d: dividing child %d (%d events) has no edge file", p, i, rc.count)
			}
			if !bytes.Equal(fileBytes(t, rc.edges), fileBytes(t, nc.edges)) {
				t.Fatalf("p=%d: child %d edge files differ", p, i)
			}
		}
		if bases == 0 || dividing == 0 {
			t.Fatalf("p=%d: %d base-case and %d dividing children, want some of each", p, bases, dividing)
		}
		if !bytes.Equal(fileBytes(t, rootSpanning), fileBytes(t, nodeSpanning)) {
			t.Fatalf("p=%d: spanning files differ", p)
		}
		releaseDivision(rootChildren, rootSpanning)
		releaseDivision(nodeChildren, nodeSpanning)
		if n := env.Disk.InUse(); n != 0 {
			t.Fatalf("p=%d: %d blocks still in use", p, n)
		}
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
	bounds, children, spanning := divideNode(t, s.task(nil, nil), n)
	defer releaseDivision(children, spanning)
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

package core

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	bounds, children, spanning, err := s.divide(evm, edm, 2*em.RecordCount(n.edges, rec.Float64Codec{}.Size()), n.slab)
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
	if bounds, _ := newBoundsPicker(4, 0, slab).finish(); bounds != nil {
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

// pieceFile returns the file that holds a node's pieces: its rectangle
// file if it is certified, else its event file.
func pieceFile(n node) *em.File {
	if n.rects != nil {
		return n.rects
	}
	return n.events
}

// readPieces returns a node's piece events and how many events they
// stand for: a certified node's rectangle file yields the bottom events
// alone, two events each.
func readPieces(tb testing.TB, n node) ([]rec.PieceEvent, int64) {
	tb.Helper()
	if n.rects == nil {
		evs, err := em.ReadAll(n.events, rec.PieceEventCodec{})
		if err != nil {
			tb.Fatal(err)
		}
		return evs, int64(len(evs))
	}
	rects, err := em.ReadAll(n.rects, rec.WRectCodec{})
	if err != nil {
		tb.Fatal(err)
	}
	evs := make([]rec.PieceEvent, len(rects))
	for i, r := range rects {
		evs[i], _ = rec.PieceEventsOf(r)
	}
	return evs, 2 * int64(len(rects))
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
		rootBounds, rootChildren, rootSpanning, err := s.divide(evm, edm, 2*int64(len(xs)), slab)
		if err != nil {
			t.Fatal(err)
		}

		nodeBounds, nodeChildren, nodeSpanning := divideNode(t, s, sortedRoot(t, s, rects))
		if !slices.Equal(rootBounds, nodeBounds) {
			t.Fatalf("p=%d: root bounds %v, node bounds %v", p, rootBounds, nodeBounds)
		}
		var bases, certified, dividing int
		for i := range rootChildren {
			rc, nc := rootChildren[i], nodeChildren[i]
			if rc.slab != nc.slab || rc.count != nc.count {
				t.Fatalf("p=%d: child %d is %v/%d from the root merges, %v/%d from the sorted files",
					p, i, rc.slab, rc.count, nc.slab, nc.count)
			}
			if (rc.rects == nil) != (nc.rects == nil) {
				t.Fatalf("p=%d: child %d is certified from one feed only", p, i)
			}
			if rc.rects != nil {
				certified++
			}
			if !bytes.Equal(fileBytes(t, pieceFile(rc)), fileBytes(t, pieceFile(nc))) {
				t.Fatalf("p=%d: child %d piece files differ", p, i)
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
		if certified == 0 || dividing == 0 {
			t.Fatalf("p=%d: %d base-case children (%d certified) and %d dividing ones, want some certified and some dividing",
				p, bases, certified, dividing)
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
		evs, events := readPieces(t, c)
		if events != c.count {
			t.Fatalf("child %d count %d, file has %d events", i, c.count, events)
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
		evs, _ := readPieces(t, c)
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

// TestBoundsPickerChildValues pins V_c, the per-child edge-value counts
// that certify base cases. A hand-worked multiset picks a bound on a
// value whose earlier copies the picker had counted below it, and those
// copies must move to the child above. Then, over random multisets with
// heavy ties at every fan-out, V_c must be exactly twice the count of
// values v with childOfPoint(bounds, v) == c.
func TestBoundsPickerChildValues(t *testing.T) {
	slab := geom.Interval{Lo: 0, Hi: 100}
	bp := newBoundsPicker(4, 20, slab)
	for _, v := range []float64{1, 2, 3, 3, 3, 3, 5, 6, 7, 8} {
		bp.add(v)
	}
	bounds, values := bp.finish()
	if !slices.Equal(bounds, []float64{3, 6, 8}) || !slices.Equal(values, []int64{4, 10, 4, 2}) {
		t.Fatalf("bounds %v, values %v; want [3 6 8] and [4 10 4 2]", bounds, values)
	}

	rng := rand.New(rand.NewSource(53))
	for it := 0; it < 500; it++ {
		n := 1 + rng.Intn(200)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(rng.Intn(1 + rng.Intn(30)))
		}
		slices.Sort(vs)
		slab := geom.Interval{Lo: vs[0], Hi: vs[n-1]}
		if rng.Intn(2) == 0 {
			slab = geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
		bp := newBoundsPicker(2+rng.Intn(8), 2*int64(n), slab)
		for _, v := range vs {
			bp.add(v)
		}
		bounds, values := bp.finish()
		if len(bounds) == 0 || values == nil {
			continue // no interior value, or the midpoint fallback
		}
		want := make([]int64, len(bounds)+1)
		for _, v := range vs {
			want[childOfPoint(bounds, v)] += 2
		}
		if !slices.Equal(values, want) {
			t.Fatalf("values %v under bounds %v: V_c %v, want %v", vs, bounds, values, want)
		}
	}
}

// TestBoundsPickerFallbackCertifiesNothing: when every quantile rank
// lands on a border value, finish falls back to a midpoint bound, which
// the counts taken during the pass know nothing of, so it returns no
// counts, and divide, which certifies from them, certifies no child.
func TestBoundsPickerFallbackCertifiesNothing(t *testing.T) {
	slab := geom.Interval{Lo: 0, Hi: 10}
	// Ranks 10, 20, 30 and 40 land on the fifteen zeros and the last ten.
	var vs []float64
	for range 15 {
		vs = append(vs, 0)
	}
	vs = append(vs, 4, 6, 10, 10, 10)
	bp := newBoundsPicker(4, 2*int64(len(vs)), slab)
	for _, v := range vs {
		bp.add(v)
	}
	bounds, values := bp.finish()
	if !slices.Equal(bounds, []float64{5}) || values != nil {
		t.Fatalf("bounds %v, values %v; want the midpoint [5] and no counts", bounds, values)
	}
}

// TestCertifiedChildTripwire: V_c bounds a child's events from above, so
// a certified child that routes more events than capacity means the edge
// values do not belong to the events. divide must fail and release every
// file. Here forty events of twenty pieces inside [1, 2) come with four
// edge values, which certify every child.
func TestCertifiedChildTripwire(t *testing.T) {
	env := em.MustNewEnv(128, 1024) // capacity 24 events
	s := mustSolver(t, env, Config{}).task(nil, nil)
	var evs []rec.PieceEvent
	for i := range 20 {
		r := rec.WRect{X1: 1.5, X2: 1.7, Y1: float64(i), Y2: float64(i) + 0.5, W: 1}
		bottom, top := rec.PieceEventsOf(r)
		evs = append(evs, bottom, top)
	}
	slices.SortStableFunc(evs, func(a, b rec.PieceEvent) int { return cmp.Compare(a.Y(), b.Y()) })
	events, err := em.WriteAll(env.Disk, rec.PieceEventCodec{}, evs)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := em.WriteAll(env.Disk, rec.Float64Codec{}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	n := node{events: events, edges: edges, slab: geom.Interval{Lo: 0, Hi: 10}, count: int64(len(evs))}
	evm := extsort.NewMerger(s.env, []*em.File{n.events}, rec.PieceEventCodec{}, lessEventY, 1)
	edm := extsort.NewMerger(s.env, []*em.File{n.edges}, rec.Float64Codec{}, lessFloat64, 1)
	_, _, _, err = s.divide(evm, edm, 8, n.slab)
	if err == nil || !strings.Contains(err.Error(), "certified child") {
		t.Fatalf("want the certified-child tripwire, got %v", err)
	}
	if n := env.Disk.InUse(); n != 0 {
		t.Fatalf("%d blocks still in use", n)
	}
}

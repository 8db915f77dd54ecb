package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{1, 4}
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if iv.Len() != 3 {
		t.Fatalf("Len = %g, want 3", iv.Len())
	}
	if !iv.Contains(1) {
		t.Fatal("interval must contain its lower bound (closed)")
	}
	if iv.Contains(4) {
		t.Fatal("interval must exclude its upper bound (open)")
	}
	if !iv.Contains(3.999) {
		t.Fatal("interior point excluded")
	}
	if (Interval{2, 2}).Len() != 0 {
		t.Fatal("degenerate interval should have zero length")
	}
	if got := (Interval{5, 2}).Len(); got != 0 {
		t.Fatalf("inverted interval Len = %g, want 0", got)
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	got := a.Intersect(b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Fatalf("Intersect = %+v, want [5,10)", got)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlapping intervals reported disjoint")
	}
	c := Interval{10, 20}
	if a.Overlaps(c) {
		t.Fatal("half-open touching intervals must not overlap")
	}
	if !a.Touches(c) || !c.Touches(a) {
		t.Fatal("adjacent intervals should touch")
	}
	u := a.Union(c)
	if u.Lo != 0 || u.Hi != 20 {
		t.Fatalf("Union = %+v, want [0,20)", u)
	}
	if got := (Interval{}).Union(b); got != b {
		t.Fatalf("union with empty = %+v, want %+v", got, b)
	}
	if got := b.Union(Interval{}); got != b {
		t.Fatalf("union with empty = %+v, want %+v", got, b)
	}
	if m := b.Mid(); m != 10 {
		t.Fatalf("Mid = %g, want 10", m)
	}
}

func TestIntervalPick(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		iv   Interval
		want float64
	}{
		{Interval{8, 12}, 10},
		{Interval{0.5, inf}, math.Nextafter(0.5, inf)},
		{Interval{-inf, 0.5}, math.Nextafter(0.5, -inf)},
		{Interval{-inf, inf}, 0},
	}
	for _, c := range cases {
		got := c.iv.Pick()
		if got != c.want || !c.iv.Contains(got) {
			t.Errorf("%+v.Pick() = %v, want %v inside the interval", c.iv, got, c.want)
		}
	}
}

func TestRectFromCenter(t *testing.T) {
	r := RectFromCenter(Point{10, 20}, 4, 6)
	if r.X.Lo != 8 || r.X.Hi != 12 || r.Y.Lo != 17 || r.Y.Hi != 23 {
		t.Fatalf("unexpected rect %v", r)
	}
	if c := r.Pick(); c.X != 10 || c.Y != 20 {
		t.Fatalf("Pick = %v", c)
	}
	if r.Area() != 24 {
		t.Fatalf("Area = %g, want 24", r.Area())
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := RectFromCenter(Point{0, 0}, 2, 2) // [-1,1) x [-1,1)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{-1, -1}, true}, // min corner included
		{Point{1, 0}, false},  // max x edge excluded
		{Point{0, 1}, false},  // max y edge excluded
		{Point{1, 1}, false},  // max corner excluded
		{Point{-1, 0.999}, true},
		{Point{-1.0001, 0}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %t, want %t", c.p, got, c.want)
		}
	}
}

func TestRectOverlapsAndIntersect(t *testing.T) {
	a := Rect{Interval{0, 10}, Interval{0, 10}}
	b := Rect{Interval{5, 15}, Interval{5, 15}}
	if !a.Overlaps(b) {
		t.Fatal("overlapping rects reported disjoint")
	}
	x := a.Intersect(b)
	if x.X.Lo != 5 || x.X.Hi != 10 || x.Y.Lo != 5 || x.Y.Hi != 10 {
		t.Fatalf("Intersect = %v", x)
	}
	c := Rect{Interval{10, 20}, Interval{0, 10}} // touching at x=10
	if a.Overlaps(c) {
		t.Fatal("edge-touching rects must not overlap under half-open semantics")
	}
	if !a.Intersect(c).Empty() {
		t.Fatal("touching rects should have empty intersection")
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: Point{0, 0}, Diameter: 10}
	if !c.Contains(Point{4.9, 0}) {
		t.Fatal("interior point excluded")
	}
	if c.Contains(Point{5, 0}) {
		t.Fatal("boundary point must be excluded (§2)")
	}
	if c.Contains(Point{3.6, 3.6}) {
		t.Fatal("exterior point included")
	}
	mbr := c.MBR()
	if mbr.X.Lo != -5 || mbr.X.Hi != 5 || mbr.Y.Lo != -5 || mbr.Y.Hi != 5 {
		t.Fatalf("MBR = %v", mbr)
	}
}

func TestDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if d := p.Dist(q); d != 5 {
		t.Fatalf("Dist = %g, want 5", d)
	}
	if d2 := p.Dist2(q); d2 != 25 {
		t.Fatalf("Dist2 = %g, want 25", d2)
	}
	if got := p.Add(3, 4); got != q {
		t.Fatalf("Add = %v, want %v", got, q)
	}
}

func TestWeightIn(t *testing.T) {
	objs := []Object{
		{Point{0, 0}, 1},
		{Point{1, 1}, 2},
		{Point{5, 5}, 4},
		{Point{-1, -1}, 8}, // on min corner of the 4x4 rect at origin → included
		{Point{2, 0}, 16},  // on max x edge → excluded
	}
	got := WeightIn(objs, Point{0, 0}, 4, 4) // [-2,2) x [-2,2)
	if got != 1+2+8 {
		t.Fatalf("WeightIn = %g, want 11", got)
	}
	// radius 2 strict: (0,0), (1,1) and (-1,-1) are inside (dist √2 < 2);
	// (2,0) sits exactly on the boundary and is excluded.
	if w := WeightInCircle(objs, Point{0, 0}, 4); w != 1+2+8 {
		t.Fatalf("WeightInCircle = %g, want 11", w)
	}
}

// Property: Rect.Contains is consistent with interval containment on both
// axes, and Intersect/Overlaps agree.
func TestQuickRectConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randRect := func() Rect {
		x1, x2 := rng.Float64()*100, rng.Float64()*100
		y1, y2 := rng.Float64()*100, rng.Float64()*100
		return Rect{Interval{math.Min(x1, x2), math.Max(x1, x2)}, Interval{math.Min(y1, y2), math.Max(y1, y2)}}
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		if a.Overlaps(b) != !a.Intersect(b).Empty() {
			t.Fatalf("Overlaps/Intersect disagree for %v and %v", a, b)
		}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		inBoth := a.Contains(p) && b.Contains(p)
		if inBoth && !a.Intersect(b).Contains(p) {
			t.Fatalf("point %v in both rects but not in intersection", p)
		}
		if a.Intersect(b).Contains(p) && !inBoth {
			t.Fatalf("point %v in intersection but not in both rects", p)
		}
	}
}

// Property: the MBR of a circle contains every point the circle contains.
func TestQuickCircleMBR(t *testing.T) {
	prop := func(cx, cy, px, py int16, dRaw uint16) bool {
		d := float64(dRaw%1000) + 1
		c := Circle{C: Point{float64(cx), float64(cy)}, Diameter: d}
		// Probe near the circle so hits are common.
		p := Point{float64(cx) + float64(px%1200)/1000*d, float64(cy) + float64(py%1200)/1000*d}
		if c.Contains(p) && !c.MBR().Contains(p) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: RectFromCenter(c, w, h).Pick() == c up to float rounding, and
// a point is in the rect iff both coordinate offsets are in [-w/2, w/2) etc.
func TestQuickRectFromCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		c := Point{rng.Float64()*1e6 - 5e5, rng.Float64()*1e6 - 5e5}
		w := rng.Float64()*1e3 + 1
		h := rng.Float64()*1e3 + 1
		r := RectFromCenter(c, w, h)
		got := r.Pick()
		if math.Abs(got.X-c.X) > 1e-6 || math.Abs(got.Y-c.Y) > 1e-6 {
			t.Fatalf("Pick drift: %v vs %v", got, c)
		}
		p := Point{c.X + (rng.Float64()-0.5)*2*w, c.Y + (rng.Float64()-0.5)*2*h}
		want := p.X >= c.X-w/2 && p.X < c.X+w/2 && p.Y >= c.Y-h/2 && p.Y < c.Y+h/2
		if r.Contains(p) != want {
			t.Fatalf("Contains mismatch at %v for rect %v", p, r)
		}
	}
}

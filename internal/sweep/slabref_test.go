package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// slabReference is the earlier Slab kernel, kept verbatim as the oracle of
// TestSlabMatchesReference: a clipped copy of every rectangle, 48-byte
// events reflection-sorted with sort.Slice, two cell searches per event,
// and a struct-of-arrays segment tree with math.Min/math.Max aggregates.
// Slab must reproduce its tuples bit for bit.
func slabReference(rects []rec.WRect, slabX geom.Interval) []rec.Tuple {
	if slabX.Empty() {
		return nil
	}
	type clipped struct {
		x1, x2, y1, y2, w float64
	}
	cs := make([]clipped, 0, len(rects))
	xs := make([]float64, 0, 2*len(rects)+2)
	xs = append(xs, slabX.Lo, slabX.Hi)
	for _, r := range rects {
		x1 := math.Max(r.X1, slabX.Lo)
		x2 := math.Min(r.X2, slabX.Hi)
		if x1 >= x2 || r.Y1 >= r.Y2 {
			continue
		}
		cs = append(cs, clipped{x1, x2, r.Y1, r.Y2, r.W})
		xs = append(xs, x1, x2)
	}
	if len(cs) == 0 {
		return nil
	}
	xs = dedupSorted(xs)
	cellOf := func(x float64) int { return sort.SearchFloat64s(xs, x) }
	nCells := len(xs) - 1

	type event struct {
		y   float64
		top bool
		c   clipped
	}
	evs := make([]event, 0, 2*len(cs))
	for _, c := range cs {
		evs = append(evs, event{c.y1, false, c}, event{c.y2, true, c})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].y != evs[j].y {
			return evs[i].y < evs[j].y
		}
		return evs[i].top && !evs[j].top
	})

	tree := newRefSegTree(nCells)
	tuples := make([]rec.Tuple, 0, 2*len(cs))
	for i := 0; i < len(evs); {
		y := evs[i].y
		for ; i < len(evs) && evs[i].y == y; i++ {
			e := evs[i]
			d := e.c.w
			if e.top {
				d = -d
			}
			tree.update(1, 0, tree.n, cellOf(e.c.x1), cellOf(e.c.x2), d)
		}
		m := tree.maxv[1]
		l := tree.leftmostAt(1, 0, tree.n, 0, m)
		r := tree.nextBelow(1, 0, tree.n, l+1, 0, m)
		tuples = append(tuples, rec.Tuple{Y: y, X1: xs[l], X2: xs[r], Sum: m})
	}
	return tuples
}

// refSegTree is the earlier segment tree: 4n nodes per array, recursive
// queries, math.Min/math.Max aggregates.
type refSegTree struct {
	n    int
	minv []float64
	maxv []float64
	add  []float64
}

func newRefSegTree(n int) *refSegTree {
	return &refSegTree{
		n:    n,
		minv: make([]float64, 4*n),
		maxv: make([]float64, 4*n),
		add:  make([]float64, 4*n),
	}
}

func (t *refSegTree) update(node, lo, hi, l, r int, delta float64) {
	if l <= lo && hi <= r {
		t.add[node] += delta
		t.minv[node] += delta
		t.maxv[node] += delta
		return
	}
	mid := (lo + hi) / 2
	if l < mid {
		t.update(2*node, lo, mid, l, r, delta)
	}
	if r > mid {
		t.update(2*node+1, mid, hi, l, r, delta)
	}
	t.minv[node] = math.Min(t.minv[2*node], t.minv[2*node+1]) + t.add[node]
	t.maxv[node] = math.Max(t.maxv[2*node], t.maxv[2*node+1]) + t.add[node]
}

func (t *refSegTree) leftmostAt(node, lo, hi int, acc, v float64) int {
	if hi-lo == 1 {
		return lo
	}
	acc += t.add[node]
	mid := (lo + hi) / 2
	if t.maxv[2*node]+acc == v {
		return t.leftmostAt(2*node, lo, mid, acc, v)
	}
	return t.leftmostAt(2*node+1, mid, hi, acc, v)
}

func (t *refSegTree) nextBelow(node, lo, hi, from int, acc, v float64) int {
	if hi <= from || t.minv[node]+acc >= v {
		return t.n
	}
	if hi-lo == 1 {
		return lo
	}
	acc += t.add[node]
	mid := (lo + hi) / 2
	if got := t.nextBelow(2*node, lo, mid, from, acc, v); got < t.n {
		return got
	}
	return t.nextBelow(2*node+1, mid, hi, from, acc, v)
}

// TestSlabMatchesReference pins Slab to slabReference bit for bit —
// every tuple field compared by math.Float64bits — over random cases
// with non-integer, negative and zero weights, coordinates on coarse
// grids (heavy x and y ties), finite and infinite slabs, single
// rectangles, and rectangles entirely outside the slab.
func TestSlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for trial := 0; trial < 3000; trial++ {
		n := 1
		if trial%10 != 0 {
			n = rng.Intn(120) + 1
		}
		rects, slab := tieCase(rng, n, trial)
		sameTuples(t, fmt.Sprintf("trial %d", trial), Slab(rects, slab), slabReference(rects, slab))
	}
}

// tieCase draws n rectangles on a coarse grid (heavy x and y ties) with
// weights that are non-integer, negative, zero or large, and the slab to
// sweep them in: the whole plane when trial%3 == 0, else a finite slab,
// with about half the rectangles moved wholly outside it when
// trial%7 == 0.
func tieCase(rng *rand.Rand, n, trial int) ([]rec.WRect, geom.Interval) {
	grid := []float64{1, 0.5, 0.1}[rng.Intn(3)] // coarse grids tie edges
	span := float64(rng.Intn(40) + 2)
	coord := func() float64 { return math.Floor(rng.Float64()*span) * grid }
	rects := make([]rec.WRect, n)
	for i := range rects {
		x, y := coord(), coord()
		var w float64
		switch rng.Intn(4) {
		case 0:
			w = rng.Float64()*10 - 3 // non-integer, either sign
		case 1:
			w = float64(rng.Intn(7) - 3) // small integers, zero included
		case 2:
			w = 0.1 * float64(rng.Intn(30)-10) // inexact decimals
		default:
			w = rng.NormFloat64() * 1e3
		}
		rects[i] = rec.WRect{
			X1: x, X2: x + float64(rng.Intn(8)+1)*grid,
			Y1: y, Y2: y + float64(rng.Intn(8)+1)*grid,
			W: w,
		}
	}
	slab := fullSlab()
	if trial%3 != 0 {
		lo := coord()
		slab = geom.Interval{Lo: lo, Hi: lo + float64(rng.Intn(20)+1)*grid}
	}
	if trial%7 == 0 { // rectangles wholly outside the slab
		for i := range rects {
			if rng.Intn(2) == 0 {
				rects[i].X1, rects[i].X2 = slab.Hi+1, slab.Hi+2
			}
		}
	}
	return rects, slab
}

// sameTuples fails t unless got and want match tuple for tuple, every
// field compared by math.Float64bits.
func sameTuples(t *testing.T, what string, got, want []rec.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		for _, f := range [][2]float64{{g.Y, w.Y}, {g.X1, w.X1}, {g.X2, w.X2}, {g.Sum, w.Sum}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%s tuple %d: got %+v, want %+v", what, i, g, w)
			}
		}
	}
}

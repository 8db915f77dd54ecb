// Package sweep implements the optimal in-memory plane-sweep algorithm for
// the rectangle-intersection (max location-weight) problem of Imai–Asano
// [11] and Nandy–Bhattacharya [14], as reviewed in §4 of the paper. It is
// used three ways:
//
//   - as the base case of ExactMaxRS, producing the slab file of an
//     in-memory sub-problem (§5.2.4, Algorithm 2 line 9);
//   - as the reference exact MaxRS solver for tests and small inputs;
//   - as the sweep engine the external baselines emulate.
//
// The sweep moves a horizontal line bottom-to-top over the rectangles'
// horizontal edges. A segment tree over the elementary x-intervals between
// consecutive vertical edges maintains the location-weight of every cell;
// at each distinct event y it reports a maximal x-interval of maximum
// weight, which becomes one slab-file tuple (Definition 6).
package sweep

import (
	"math"
	"slices"
	"sort"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// Slab computes the slab file for the given rectangles within the slab
// whose x-range is slabX: one tuple per distinct horizontal-edge y, in
// ascending y order. Rectangle x-ranges are clipped to the slab;
// rectangles that do not intersect the slab are ignored. The tuple at y
// describes the strip from y up to the next event (Definition 6): its
// interval is a maximal run of cells attaining the strip's maximum
// location-weight, and its Sum is that maximum.
func Slab(rects []rec.WRect, slabX geom.Interval) []rec.Tuple {
	if slabX.Empty() {
		return nil
	}
	clip := func(r rec.WRect) (x1, x2 float64, ok bool) {
		x1 = math.Max(r.X1, slabX.Lo)
		x2 = math.Min(r.X2, slabX.Hi)
		return x1, x2, x1 < x2 && r.Y1 < r.Y2
	}
	xs := make([]float64, 0, 2*len(rects)+2)
	xs = append(xs, slabX.Lo, slabX.Hi)
	kept := 0
	for _, r := range rects {
		if x1, x2, ok := clip(r); ok {
			xs = append(xs, x1, x2)
			kept++
		}
	}
	if kept == 0 {
		return nil
	}
	xs = dedupSorted(xs)
	nCells := len(xs) - 1

	// Events carry the rectangle's cell range [l, r), found once per
	// rectangle, and its signed weight: +W at the bottom, −W at the top.
	// The range is two ints, not int32s: nothing caps the cell count.
	// Tops (removals) sort before bottoms (additions) at equal y, so a
	// rectangle half-open in y never coexists with one starting at its
	// top. slices.SortFunc is the same pdqsort as sort.Slice, so equal
	// events — and with them the order of the float additions below —
	// land exactly where the reflection sort put them.
	type event struct {
		y, w float64
		l, r int
		top  bool
	}
	evs := make([]event, 0, 2*kept)
	for _, r := range rects {
		x1, x2, ok := clip(r)
		if !ok {
			continue
		}
		l := sort.SearchFloat64s(xs, x1)
		h := sort.SearchFloat64s(xs, x2)
		evs = append(evs, event{r.Y1, r.W, l, h, false}, event{r.Y2, -r.W, l, h, true})
	}
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		case a.top && !b.top:
			return -1
		case b.top && !a.top:
			return 1
		}
		return 0
	})

	tree := newSegTree(nCells)
	tuples := make([]rec.Tuple, 0, 2*kept)
	for i := 0; i < len(evs); {
		y := evs[i].y
		for ; i < len(evs) && evs[i].y == y; i++ {
			tree.Update(evs[i].l, evs[i].r, evs[i].w)
		}
		l, r := tree.MaxRun()
		tuples = append(tuples, rec.Tuple{Y: y, X1: xs[l], X2: xs[r], Sum: tree.Max()})
	}
	return tuples
}

func dedupSorted(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Result is a solved MaxRS instance: Region is a rectangle of optimal
// center locations (any point of it is an optimal answer), and Sum is the
// total covered weight at those locations.
type Result struct {
	Region geom.Rect
	Sum    float64
}

// Best reports an optimal center location.
func (r Result) Best() geom.Point { return r.Region.Center() }

// BestRegion scans a slab file (tuples in ascending y) and returns the
// max-region: the strip of the tuple with the largest sum, extended to the
// next tuple's y. This converts the transformed problem's answer back to
// the original MaxRS answer (§5.1).
func BestRegion(tuples []rec.Tuple) Result {
	best := Result{Region: geom.Rect{
		X: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
		Y: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
	}}
	for i, t := range tuples {
		if i == 0 || t.Sum > best.Sum {
			yHi := math.Inf(1)
			if i+1 < len(tuples) {
				yHi = tuples[i+1].Y
			}
			best = Result{
				Region: geom.Rect{
					X: geom.Interval{Lo: t.X1, Hi: t.X2},
					Y: geom.Interval{Lo: t.Y, Hi: yHi},
				},
				Sum: t.Sum,
			}
		}
	}
	return best
}

// MaxRS solves the MaxRS problem exactly in memory: it transforms each
// object into its centered w×h rectangle (§5.1), sweeps, and returns the
// max-region and its weight. Intended for datasets that fit in memory and
// as the correctness oracle for the external algorithm.
func MaxRS(objs []geom.Object, w, h float64) Result {
	rects := make([]rec.WRect, 0, len(objs))
	for _, o := range objs {
		rects = append(rects, rec.FromObject(rec.FromGeom(o), w, h))
	}
	return MaxRSRects(rects)
}

// MaxRSRects solves the transformed problem directly on weighted rectangles.
func MaxRSRects(rects []rec.WRect) Result {
	full := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	return BestRegion(Slab(rects, full))
}

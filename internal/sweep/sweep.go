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
//
// Slab is the one-shot form of (*Sweeper).Slab: every buffer is fresh,
// sized to this sweep, and the returned tuples are the caller's. Callers
// that sweep many slabs in turn keep one Sweeper instead.
func Slab(rects []rec.WRect, slabX geom.Interval) []rec.Tuple {
	var sw Sweeper
	return sw.Slab(rects, slabX)
}

// Sweeper runs Slab sweeps one after another over the same buffers: the
// x coordinates, the events, the segment-tree nodes and the output
// tuples. A buffer is reallocated, at exactly the size the sweep needs,
// only when it is too small, so a sequence of sweeps allocates about what
// its largest one needs. The zero value is ready to use; a Sweeper is not
// safe for concurrent use.
type Sweeper struct {
	xs     []float64
	evs    []event
	tree   segTree
	tuples []rec.Tuple
}

// event is one horizontal rectangle edge. It carries the rectangle's cell
// range [l, r), found once per rectangle, and its signed weight: +W at
// the bottom, −W at the top. The range is two ints, not int32s: nothing
// caps the cell count.
type event struct {
	y, w float64
	l, r int
	top  bool
}

// Slab is the package-level Slab on the Sweeper's buffers. The tuples are
// bit-identical to a fresh Slab's, and they stay valid only until the
// next call.
func (sw *Sweeper) Slab(rects []rec.WRect, slabX geom.Interval) []rec.Tuple {
	if slabX.Empty() {
		return nil
	}
	clip := func(r rec.WRect) (x1, x2 float64, ok bool) {
		x1 = math.Max(r.X1, slabX.Lo)
		x2 = math.Min(r.X2, slabX.Hi)
		return x1, x2, x1 < x2 && r.Y1 < r.Y2
	}
	xs := resize(sw.xs, 2*len(rects)+2)
	xs = append(xs, slabX.Lo, slabX.Hi)
	kept := 0
	for _, r := range rects {
		if x1, x2, ok := clip(r); ok {
			xs = append(xs, x1, x2)
			kept++
		}
	}
	sw.xs = xs
	if kept == 0 {
		return nil
	}
	xs = dedupSorted(xs)
	nCells := len(xs) - 1

	// Tops (removals) sort before bottoms (additions) at equal y, so a
	// rectangle half-open in y never coexists with one starting at its
	// top. slices.SortFunc is the same pdqsort as sort.Slice, so equal
	// events — and with them the order of the float additions below —
	// land exactly where the reflection sort put them.
	evs := resize(sw.evs, 2*kept)
	for _, r := range rects {
		x1, x2, ok := clip(r)
		if !ok {
			continue
		}
		l := sort.SearchFloat64s(xs, x1)
		h := sort.SearchFloat64s(xs, x2)
		evs = append(evs, event{r.Y1, r.W, l, h, false}, event{r.Y2, -r.W, l, h, true})
	}
	sw.evs = evs
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

	tree := &sw.tree
	tree.reset(nCells)
	tuples := resize(sw.tuples, 2*kept)
	for i := 0; i < len(evs); {
		y := evs[i].y
		for ; i < len(evs) && evs[i].y == y; i++ {
			tree.Update(evs[i].l, evs[i].r, evs[i].w)
		}
		l, r := tree.MaxRun()
		tuples = append(tuples, rec.Tuple{Y: y, X1: xs[l], X2: xs[r], Sum: tree.Max()})
	}
	sw.tuples = tuples
	return tuples
}

// resize returns s emptied, with room for n elements: s itself when it
// has the capacity, else a fresh slice of exactly n, so no sweep's
// buffer outgrows what the largest sweep so far needed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
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

// Best reports an optimal center location: the finite point
// geom.Rect.Pick chooses in Region, so an unbounded optimal region (a
// score-0 optimum away from every object) still answers a finite point.
func (r Result) Best() geom.Point { return r.Region.Pick() }

// BestTracker finds the max-region of a slab file streamed tuple by tuple
// in ascending y (§5.2.4, "we can find the max-region by comparing sum
// values of tuples trivially"): the first tuple of strictly greatest sum
// wins, and its strip ends at the next tuple's y, or at +Inf after the
// last tuple. With no tuples the region is the whole plane with sum 0.
// This converts the transformed problem's answer back to the original
// MaxRS answer (§5.1). The zero value is ready to use.
type BestTracker struct {
	best    Result
	seen    bool
	pending bool // best awaits its strip's top y: the next tuple's y
}

// Add consumes the next tuple.
func (b *BestTracker) Add(t rec.Tuple) {
	if b.pending {
		b.best.Region.Y.Hi = t.Y
		b.pending = false
	}
	if !b.seen || t.Sum > b.best.Sum {
		b.best = Result{
			Region: geom.Rect{
				X: geom.Interval{Lo: t.X1, Hi: t.X2},
				Y: geom.Interval{Lo: t.Y, Hi: math.Inf(1)},
			},
			Sum: t.Sum,
		}
		b.seen, b.pending = true, true
	}
}

// Result returns the max-region of the tuples added so far.
func (b *BestTracker) Result() Result {
	if !b.seen {
		whole := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		return Result{Region: geom.Rect{X: whole, Y: whole}}
	}
	return b.best
}

// BestRegion returns the max-region of a slab file's tuples (ascending y)
// by the BestTracker rule.
func BestRegion(tuples []rec.Tuple) Result {
	var b BestTracker
	for _, t := range tuples {
		b.Add(t)
	}
	return b.Result()
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

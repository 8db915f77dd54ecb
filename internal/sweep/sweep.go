// Package sweep implements the optimal in-memory plane-sweep algorithm for
// the rectangle-intersection (max location-weight) problem of Imai–Asano
// [11] and Nandy–Bhattacharya [14], as reviewed in §4 of the paper. It is
// used three ways:
//
//   - as the base case of ExactMaxRS, producing the slab file of an
//     in-memory sub-problem (§5.2.4, Algorithm 2 line 9);
//   - as the best-only sweep (SlabBest) of a problem whose max-region is
//     all that is needed: a root that fits in memory, and the exact
//     in-memory MaxRS solver for tests and small inputs;
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

// SlabBest returns BestRegion(Slab(rects, slabX)), bit for bit, without
// the slab file: it runs Slab's line loop, but finds a line's maximal run
// and forms its tuple only when BestTracker says the line's maximum wins.
// Every other line only closes the pending strip at its y. It is the
// sweep of every caller that needs the max-region alone (§5.2.4): a root
// that fits in memory, the in-memory solver, and the delta path's
// influence bounds.
func SlabBest(rects []rec.WRect, slabX geom.Interval) Result {
	var sw Sweeper
	var best BestTracker
	xs, evs := sw.events(rects, slabX)
	sw.lines(len(xs)-1, evs, func(y float64) {
		if !best.wins(sw.tree.Max()) {
			best.skip(y)
			return
		}
		l, r := sw.tree.MaxRun()
		best.Add(rec.Tuple{Y: y, X1: xs[l], X2: xs[r], Sum: sw.tree.Max()})
	})
	return best.Result()
}

// Sweeper holds the buffers of a sweep: the x coordinates, the events,
// the segment-tree nodes and the output tuples. Slab and SlabBest sweep
// on a fresh one; a base case's conquer keeps one for its sibling base
// cases, which run (*Sweeper).Slab in turn. A buffer is reallocated, at
// exactly the size the sweep needs, only when it is too small, so a
// sequence of sweeps allocates about what its largest one needs. The zero
// value is ready to use; a Sweeper is not safe for concurrent use.
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
	xs, evs := sw.events(rects, slabX)
	if len(evs) == 0 {
		return nil
	}
	tuples := resize(sw.tuples, len(evs))
	sw.lines(len(xs)-1, evs, func(y float64) {
		l, r := sw.tree.MaxRun()
		tuples = append(tuples, rec.Tuple{Y: y, X1: xs[l], X2: xs[r], Sum: sw.tree.Max()})
	})
	sw.tuples = tuples
	return tuples
}

// events clips rects to slabX and returns, on the Sweeper's buffers, the
// sorted distinct cell edges and the rectangles' y-sorted events. It
// returns no events when no rectangle meets the slab.
func (sw *Sweeper) events(rects []rec.WRect, slabX geom.Interval) ([]float64, []event) {
	if slabX.Empty() {
		return nil, nil
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
		return nil, nil
	}
	xs = dedupSorted(xs)

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
	return xs, evs
}

// lines is the line loop of every sweep: it resets the tree to nCells
// cells and moves the line bottom to top over the sorted events, applying
// every event of one y to the tree before it calls line(y), which reads
// the strip's maximum from sw.tree.
func (sw *Sweeper) lines(nCells int, evs []event, line func(y float64)) {
	if len(evs) == 0 {
		return
	}
	tree := &sw.tree
	tree.reset(nCells)
	for i := 0; i < len(evs); {
		y := evs[i].y
		for ; i < len(evs) && evs[i].y == y; i++ {
			tree.Update(evs[i].l, evs[i].r, evs[i].w)
		}
		line(y)
	}
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

// Result is a solved MaxRS instance: Region is the max-region, a
// rectangle of optimal center locations, and Sum is the total covered
// weight at them. Region is closed on its min edges, like every
// geom.Rect, but the optimum is not: a query rectangle centered at c
// covers an object at o iff c−w/2 ≤ o < c+w/2, i.e. for c in
// (o−w/2, o+w/2]. So every point of Region off its finite min edges
// attains Sum, and a point on one can miss the objects whose rectangles
// start there. With one object at (1, 1) of weight 1 and a 1×1 query,
// Region is [0.5,1.5)×[0.5,1.5) and Sum is 1: the center (1, 1) covers
// the object, but (0.5, 0.5) covers nothing.
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
// MaxRS answer (§5.1). SlabBest, which knows a line's maximum before it
// forms the line's tuple, asks wins first and skips the lines that lose.
// The zero value is ready to use.
type BestTracker struct {
	best    Result
	seen    bool
	pending bool // best awaits its strip's top y: the next tuple's y
}

// wins reports whether a line whose maximum is sum would become the best
// region: it is the first line, or sum is strictly greater than the best
// so far.
func (b *BestTracker) wins(sum float64) bool { return !b.seen || sum > b.best.Sum }

// skip consumes a line at y that does not win: it closes the best
// region's pending strip at y.
func (b *BestTracker) skip(y float64) {
	if b.pending {
		b.best.Region.Y.Hi = y
		b.pending = false
	}
}

// Add consumes the next tuple.
func (b *BestTracker) Add(t rec.Tuple) {
	if !b.wins(t.Sum) {
		b.skip(t.Y)
		return
	}
	b.best = Result{
		Region: geom.Rect{
			X: geom.Interval{Lo: t.X1, Hi: t.X2},
			Y: geom.Interval{Lo: t.Y, Hi: math.Inf(1)},
		},
		Sum: t.Sum,
	}
	b.seen, b.pending = true, true
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

// MaxRSRects solves the transformed problem directly on weighted
// rectangles, with the best-only sweep over the whole plane.
func MaxRSRects(rects []rec.WRect) Result {
	return SlabBest(rects, geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)})
}

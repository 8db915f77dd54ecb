// Package crs implements the MaxCRS subsystem (§6): the ApproxMaxCRS
// (1/4)-approximation algorithm built on ExactMaxRS, and an exact
// in-memory oracle used to measure approximation quality (Fig. 17 — the
// paper uses Drezner's O(n² log n) method for the same purpose).
package crs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/grid"
	"maxrs/internal/rec"
)

// Result is a MaxCRS answer: a circle center and the total weight of the
// objects it covers.
type Result struct {
	Center geom.Point
	Weight float64
}

// Sigma returns the shifting distance σ used for the four shifted
// candidate points. Any σ with (√2−1)d/2 < σ < d/2 preserves the
// approximation bound (§6.1); we use the midpoint of the legal range,
// σ = √2·d/4, which puts the shifted points at (±d/4, ±d/4) from p0.
func Sigma(d float64) float64 { return math.Sqrt2 * d / 4 }

// ShiftedPoints returns the four candidates p1..p4 of Algorithm 3
// (GetShiftedPoint): diagonal offsets at distance σ from p0, so that the
// circles centered on them jointly cover the MBR of the circle at p0
// (Lemma 5).
func ShiftedPoints(p0 geom.Point, d float64) [4]geom.Point {
	off := Sigma(d) / math.Sqrt2 // per-axis component = d/4
	return [4]geom.Point{
		p0.Add(off, off),
		p0.Add(off, -off),
		p0.Add(-off, -off),
		p0.Add(-off, off),
	}
}

// Approx is ApproxMaxCRS (Algorithm 3): it solves MaxRS over the d×d MBRs
// of the transformed circles with the external-memory ExactMaxRS, then
// returns the best of the max-region center p0 and its four shifted
// points, evaluated with a single scan of the object file. The answer is
// guaranteed to be ≥ 1/4 of the optimal MaxCRS weight (Theorem 3).
func Approx(s *core.Solver, objFile *em.File, d float64) (Result, error) {
	return ApproxScoped(context.Background(), s, objFile, d, nil)
}

// ApproxScoped is Approx with every block transfer of the call charged to
// sc (per-query I/O accounting; nil disables scoping) and both the inner
// ExactMaxRS solve and the candidate scan bound to ctx: a cancelled
// context stops the call within one block-transfer's work and returns
// ctx.Err(). A nil ctx never cancels.
func ApproxScoped(ctx context.Context, s *core.Solver, objFile *em.File, d float64, sc *em.ScopeStats) (Result, error) {
	if d <= 0 {
		return Result{}, fmt.Errorf("crs: diameter %g must be positive", d)
	}
	if objFile.Size() == 0 {
		return Result{}, nil
	}
	// The MBR of the circle of diameter d centered at an object is exactly
	// the transformed d×d rectangle, so SolveObjects(d, d) is the MaxRS
	// call of Algorithm 3 line 2.
	rs, err := s.SolveObjectsScoped(ctx, objFile, d, d, sc)
	if err != nil {
		return Result{}, err
	}
	p0 := rs.Best()
	shifted := ShiftedPoints(p0, d)
	candidates := [5]geom.Point{p0, shifted[0], shifted[1], shifted[2], shifted[3]}

	// Algorithm 3 line 7: one scan of the objects, five accumulators.
	weights, err := scanCandidates(s.Env().WithScope(sc).WithContext(ctx), objFile, candidates[:], d)
	if err != nil {
		return Result{}, err
	}
	best := Result{Center: candidates[0], Weight: weights[0]}
	for i := 1; i < len(candidates); i++ {
		if weights[i] > best.Weight {
			best = Result{Center: candidates[i], Weight: weights[i]}
		}
	}
	return best, nil
}

// scanCandidates streams the object file once and returns, for each
// candidate center, the total weight of objects strictly inside the
// diameter-d circle around it.
func scanCandidates(env em.Env, objFile *em.File, candidates []geom.Point, d float64) ([]float64, error) {
	rr, err := em.OpenRecordReader(env, objFile, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(candidates))
	r2 := (d / 2) * (d / 2)
	for {
		o, err := rr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		p := geom.Point{X: o.X, Y: o.Y}
		for i, c := range candidates {
			if c.Dist2(p) < r2 {
				weights[i] += o.W
			}
		}
	}
	return weights, nil
}

// Exact computes the optimal MaxCRS answer in memory. It is the oracle of
// the quality experiment (Fig. 17), replacing the paper's Drezner [8]
// O(n² log n) procedure with a grid-pruned candidate enumeration:
//
//   - the optimal cell of the circle arrangement either has a vertex — an
//     intersection point of two transformed circles, approached from
//     inside their lens (for non-negative weights the deepest cell at a
//     vertex lies inside both circles) — or is bounded by a single
//     circle, in which case points just inside/outside that boundary and
//     the circle centers cover it;
//   - every candidate is nudged off degenerate boundaries and evaluated
//     with the exact open-circle predicate.
//
// Runtime is O(n·k²) for k average neighbors within distance d — fast for
// the paper's densities. Weights must be non-negative.
func Exact(objs []geom.Object, d float64) Result {
	if len(objs) == 0 || d <= 0 {
		return Result{}
	}
	r := d / 2
	g := grid.New(objs, d)
	// The nudge must be far smaller than any arrangement feature but large
	// enough to survive float cancellation at coordinates ~1e6.
	eps := r * 1e-9

	best := Result{Center: objs[0].Point, Weight: -1}
	consider := func(p geom.Point) {
		if w := g.WeightInCircle(p, d); w > best.Weight {
			best = Result{Center: p, Weight: w}
		}
	}

	for _, o := range objs {
		// Circle centers and points just inside/outside each boundary
		// (handles isolated circles and annulus-shaped cells).
		consider(o.Point)
		for _, dir := range [4][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			consider(o.Point.Add(dir[0]*(r-eps), dir[1]*(r-eps)))
			consider(o.Point.Add(dir[0]*(r+eps), dir[1]*(r+eps)))
		}
		// Vertices: intersections with every neighboring circle. Visit
		// each unordered pair once via a coordinate tiebreak.
		oi := o
		g.VisitWithin(o.Point, d, func(oj geom.Object) {
			if oj.Point == oi.Point {
				return
			}
			if oj.X < oi.X || (oj.X == oi.X && oj.Y <= oi.Y) {
				return
			}
			p1, p2, ok := circleIntersections(oi.Point, oj.Point, r)
			if !ok {
				return
			}
			mid := geom.Point{X: (oi.X + oj.X) / 2, Y: (oi.Y + oj.Y) / 2}
			consider(nudgeToward(p1, mid, eps))
			consider(nudgeToward(p2, mid, eps))
		})
	}
	if best.Weight < 0 {
		best.Weight = 0
	}
	return best
}

// circleIntersections returns the two intersection points of equal-radius
// circles centered at a and b, or ok=false if they do not intersect.
func circleIntersections(a, b geom.Point, r float64) (geom.Point, geom.Point, bool) {
	d2 := a.Dist2(b)
	if d2 == 0 || d2 >= 4*r*r {
		return geom.Point{}, geom.Point{}, false
	}
	d := math.Sqrt(d2)
	// Midpoint plus/minus the half-chord along the perpendicular.
	h := math.Sqrt(r*r - d2/4)
	mx, my := (a.X+b.X)/2, (a.Y+b.Y)/2
	ux, uy := (b.X-a.X)/d, (b.Y-a.Y)/d // unit a→b
	px, py := -uy, ux                  // unit perpendicular
	p1 := geom.Point{X: mx + h*px, Y: my + h*py}
	p2 := geom.Point{X: mx - h*px, Y: my - h*py}
	return p1, p2, true
}

// nudgeToward moves p a distance eps toward q (the lens interior).
func nudgeToward(p, q geom.Point, eps float64) geom.Point {
	dx, dy := q.X-p.X, q.Y-p.Y
	n := math.Hypot(dx, dy)
	if n == 0 {
		return p
	}
	return geom.Point{X: p.X + dx/n*eps, Y: p.Y + dy/n*eps}
}

// GridCRS is a resolution-bounded MaxCRS approximation in the spirit of
// the grid-based (1−ε) schemes discussed in §3 (de Berg et al. [7]): it
// evaluates every candidate center on a δ-spaced grid restricted to the
// disks of radius d/2 around objects, in memory, and returns the best.
//
// Guarantee: the returned weight is at least the optimal weight for a
// circle of diameter d − δ√2 — the optimum center moved to its nearest
// grid point (distance ≤ δ/√2 away) still covers every object that the
// smaller circle covers. Smaller δ sharpens the answer at O(1/δ²) extra
// candidates per object; the paper's point is precisely that such schemes
// trade unbounded work for accuracy, unlike ApproxMaxCRS's fixed five
// candidates. Used for comparison benches; weights must be non-negative.
func GridCRS(objs []geom.Object, d, delta float64) Result {
	if len(objs) == 0 || d <= 0 || delta <= 0 {
		return Result{}
	}
	g := grid.New(objs, d)
	r := d / 2
	steps := int(math.Ceil(r / delta))
	seen := make(map[[2]int64]struct{})
	best := Result{Center: objs[0].Point, Weight: -1}
	for _, o := range objs {
		baseI := int64(math.Round(o.X / delta))
		baseJ := int64(math.Round(o.Y / delta))
		for di := -int64(steps); di <= int64(steps); di++ {
			for dj := -int64(steps); dj <= int64(steps); dj++ {
				key := [2]int64{baseI + di, baseJ + dj}
				if _, ok := seen[key]; ok {
					continue
				}
				seen[key] = struct{}{}
				p := geom.Point{X: float64(key[0]) * delta, Y: float64(key[1]) * delta}
				if o.Point.Dist2(p) > (r+delta)*(r+delta) {
					continue
				}
				if w := g.WeightInCircle(p, d); w > best.Weight {
					best = Result{Center: p, Weight: w}
				}
			}
		}
	}
	if best.Weight < 0 {
		best.Weight = 0
	}
	return best
}

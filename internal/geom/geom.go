// Package geom provides the planar geometric primitives shared by every
// subsystem of the MaxRS reproduction: points, axis-aligned rectangles,
// one-dimensional intervals, and circles.
//
// # Conventions
//
// The data space follows the paper: coordinates are float64, rectangles are
// axis-aligned, and a query rectangle of size d1×d2 centered at p covers an
// object o iff o lies strictly inside the rectangle or on its min edges.
// Objects on the max edges are excluded ("objects on the boundary of the
// rectangle ... are excluded", §2); using half-open [min, max) semantics on
// both axes makes the transformed rectangle-intersection problem exactly
// equivalent and keeps sweep-line tie-breaking deterministic.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D data space.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance to q. It avoids the sqrt and
// is the preferred comparison form in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Object is a weighted point, the element type of the input set O.
type Object struct {
	Point
	W float64
}

// Interval is a half-open interval [Lo, Hi) on one axis.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the interval length (0 for empty intervals).
func (iv Interval) Len() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in [Lo, Hi).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x < iv.Hi }

// Intersect returns the overlap of iv and other (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{math.Max(iv.Lo, other.Lo), math.Min(iv.Hi, other.Hi)}
}

// Overlaps reports whether the two half-open intervals share any point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo < other.Hi && other.Lo < iv.Hi
}

// Touches reports whether other begins exactly where iv ends or vice versa,
// so that their union is a single contiguous interval.
func (iv Interval) Touches(other Interval) bool {
	return iv.Hi == other.Lo || other.Hi == iv.Lo
}

// Union returns the smallest interval covering both.
func (iv Interval) Union(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{math.Min(iv.Lo, other.Lo), math.Max(iv.Hi, other.Hi)}
}

// Mid returns the midpoint of the interval.
func (iv Interval) Mid() float64 { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// Pick returns one finite point of a non-empty interval: the midpoint
// when both ends are finite; the float next to the one finite end, on
// the inside, when the other end is infinite (Hi is open, and stepping
// off Lo keeps the point off the edge of the rectangle that bounds it);
// and 0 when both ends are infinite.
func (iv Interval) Pick() float64 {
	loInf, hiInf := math.IsInf(iv.Lo, 0), math.IsInf(iv.Hi, 0)
	switch {
	case !loInf && !hiInf:
		return iv.Mid()
	case !loInf:
		return math.Nextafter(iv.Lo, iv.Hi)
	case !hiInf:
		return math.Nextafter(iv.Hi, iv.Lo)
	}
	return 0
}

// Rect is an axis-aligned rectangle, half-open on the max edges:
// it covers points p with X.Lo ≤ p.X < X.Hi and Y.Lo ≤ p.Y < Y.Hi.
type Rect struct {
	X, Y Interval
}

// RectFromCenter returns the w×h rectangle centered at c.
func RectFromCenter(c Point, w, h float64) Rect {
	return Rect{
		X: Interval{c.X - w/2, c.X + w/2},
		Y: Interval{c.Y - h/2, c.Y + h/2},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g)x[%.6g,%.6g)", r.X.Lo, r.X.Hi, r.Y.Lo, r.Y.Hi)
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X.Empty() || r.Y.Empty() }

// Pick returns one finite point of a non-empty rectangle, chosen per
// axis by Interval.Pick: the center of a bounded rectangle, and a point
// next to the finite edges of an unbounded one.
func (r Rect) Pick() Point { return Point{r.X.Pick(), r.Y.Pick()} }

// Contains reports whether p lies inside r under half-open semantics.
func (r Rect) Contains(p Point) bool { return r.X.Contains(p.X) && r.Y.Contains(p.Y) }

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(other Rect) Rect {
	return Rect{r.X.Intersect(other.X), r.Y.Intersect(other.Y)}
}

// Overlaps reports whether the rectangles share interior points.
func (r Rect) Overlaps(other Rect) bool {
	return r.X.Overlaps(other.X) && r.Y.Overlaps(other.Y)
}

// Area returns the rectangle's area (0 if empty).
func (r Rect) Area() float64 { return r.X.Len() * r.Y.Len() }

// Circle is a disk of the given diameter centered at C. Following §2 it is
// open: points at exactly Diameter/2 from the center are excluded.
type Circle struct {
	C        Point
	Diameter float64
}

// Contains reports whether p lies strictly inside the circle.
func (c Circle) Contains(p Point) bool {
	r := c.Diameter / 2
	return c.C.Dist2(p) < r*r
}

// MBR returns the minimum bounding rectangle of the circle: the d×d square
// centered at c.C (§6.1).
func (c Circle) MBR() Rect {
	return RectFromCenter(c.C, c.Diameter, c.Diameter)
}

// WeightIn sums the weights of the objects covered by the rectangle centered
// at p of size w×h. It is the brute-force evaluator used by tests and by
// small examples; production paths use internal/grid for pruning.
func WeightIn(objs []Object, p Point, w, h float64) float64 {
	r := RectFromCenter(p, w, h)
	var sum float64
	for _, o := range objs {
		if r.Contains(o.Point) {
			sum += o.W
		}
	}
	return sum
}

// WeightInCircle sums the weights of the objects strictly inside the circle
// of the given diameter centered at p.
func WeightInCircle(objs []Object, p Point, diameter float64) float64 {
	c := Circle{C: p, Diameter: diameter}
	var sum float64
	for _, o := range objs {
		if c.Contains(o.Point) {
			sum += o.W
		}
	}
	return sum
}

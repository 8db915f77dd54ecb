// Package rec defines the fixed-size on-disk record formats used throughout
// the external-memory pipeline, together with their em.Codec implementations:
//
//	Object      24 B  — an input point with weight (the set O)
//	WRect       40 B  — a weighted rectangle (the transformed set R, §5.1)
//	Tuple       32 B  — a slab-file max-interval tuple <y, [x1,x2], sum> (§5.2.2)
//	Event       41 B  — a horizontal-edge sweep event (baselines)
//	PieceEvent  41 B  — one horizontal edge of a rectangle piece (ExactMaxRS)
//
// WRect files are inputs (SolveRects) and, inside ExactMaxRS, the piece
// files of certified base cases: a child the division proves fits in
// memory needs only its pieces, so it gets one WRect per piece, in the
// order of their bottom events, instead of two PieceEvents.
//
// All encodings are little-endian raw float64 bits. Records never span
// blocks logically; the byte stream is blocked by em.Writer.
package rec

import (
	"encoding/binary"
	"math"

	"maxrs/internal/geom"
)

func putF(dst []byte, v float64) { binary.LittleEndian.PutUint64(dst, math.Float64bits(v)) }
func getF(src []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(src)) }

// Object is the on-disk form of a weighted input point.
type Object struct {
	X, Y, W float64
}

// Geom converts to the geometry type.
func (o Object) Geom() geom.Object {
	return geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: o.W}
}

// FromGeom converts from the geometry type.
func FromGeom(o geom.Object) Object { return Object{X: o.X, Y: o.Y, W: o.W} }

// ObjectCodec serializes Object records (24 bytes).
type ObjectCodec struct{}

// Size implements em.Codec.
func (ObjectCodec) Size() int { return 24 }

// Encode implements em.Codec.
func (ObjectCodec) Encode(dst []byte, o Object) {
	putF(dst[0:], o.X)
	putF(dst[8:], o.Y)
	putF(dst[16:], o.W)
}

// Decode implements em.Codec.
func (ObjectCodec) Decode(src []byte) Object {
	return Object{X: getF(src[0:]), Y: getF(src[8:]), W: getF(src[16:])}
}

// WRect is a weighted axis-aligned rectangle [X1,X2) × [Y1,Y2), the element
// type of the transformed set R and of a certified base case's piece file.
type WRect struct {
	X1, X2, Y1, Y2, W float64
}

// RectOf returns the geometric rectangle.
func (r WRect) RectOf() geom.Rect {
	return geom.Rect{X: geom.Interval{Lo: r.X1, Hi: r.X2}, Y: geom.Interval{Lo: r.Y1, Hi: r.Y2}}
}

// FromObject builds the transformed rectangle of §5.1: the w×h rectangle of
// the query size centered at the object, carrying the object's weight. Any
// point covered by this rectangle is a center position whose query rectangle
// covers the object.
func FromObject(o Object, w, h float64) WRect {
	return WRect{
		X1: o.X - w/2, X2: o.X + w/2,
		Y1: o.Y - h/2, Y2: o.Y + h/2,
		W: o.W,
	}
}

// WRectCodec serializes WRect records (40 bytes).
type WRectCodec struct{}

// Size implements em.Codec.
func (WRectCodec) Size() int { return 40 }

// Encode implements em.Codec.
func (WRectCodec) Encode(dst []byte, r WRect) {
	putF(dst[0:], r.X1)
	putF(dst[8:], r.X2)
	putF(dst[16:], r.Y1)
	putF(dst[24:], r.Y2)
	putF(dst[32:], r.W)
}

// Decode implements em.Codec.
func (WRectCodec) Decode(src []byte) WRect {
	return WRect{
		X1: getF(src[0:]), X2: getF(src[8:]),
		Y1: getF(src[16:]), Y2: getF(src[24:]),
		W: getF(src[32:]),
	}
}

// Tuple is a slab-file record: on the h-line at Y, [X1, X2) is a max-interval
// of the slab and Sum is the location-weight of its points (Definition 6).
// Slab files store tuples in ascending Y order.
type Tuple struct {
	Y, X1, X2, Sum float64
}

// TupleCodec serializes Tuple records (32 bytes).
type TupleCodec struct{}

// Size implements em.Codec.
func (TupleCodec) Size() int { return 32 }

// Encode implements em.Codec.
func (TupleCodec) Encode(dst []byte, t Tuple) {
	putF(dst[0:], t.Y)
	putF(dst[8:], t.X1)
	putF(dst[16:], t.X2)
	putF(dst[24:], t.Sum)
}

// Decode implements em.Codec.
func (TupleCodec) Decode(src []byte) Tuple {
	return Tuple{Y: getF(src[0:]), X1: getF(src[8:]), X2: getF(src[16:]), Sum: getF(src[24:])}
}

// Event is a horizontal-edge sweep event: at Y the interval [X1, X2) starts
// contributing weight W (Top == false, a bottom edge) or stops (Top == true).
// Used by the plane-sweep baselines, which process events in (Y, Top) order
// with tops first so that half-open rectangles never self-intersect at a
// shared boundary.
type Event struct {
	Y, X1, X2, W float64
	Top          bool
}

// EventsOf expands a rectangle into its bottom and top events.
func EventsOf(r WRect) (bottom, top Event) {
	bottom = Event{Y: r.Y1, X1: r.X1, X2: r.X2, W: r.W}
	top = Event{Y: r.Y2, X1: r.X1, X2: r.X2, W: r.W, Top: true}
	return bottom, top
}

// Less orders events by Y, tops before bottoms at equal Y.
func (e Event) Less(other Event) bool {
	if e.Y != other.Y {
		return e.Y < other.Y
	}
	if e.Top != other.Top {
		return e.Top // top (removal) first
	}
	if e.X1 != other.X1 {
		return e.X1 < other.X1
	}
	return e.X2 < other.X2
}

// EventCodec serializes Event records (33 bytes).
type EventCodec struct{}

// Size implements em.Codec.
func (EventCodec) Size() int { return 33 }

// Encode implements em.Codec.
func (EventCodec) Encode(dst []byte, e Event) {
	putF(dst[0:], e.Y)
	putF(dst[8:], e.X1)
	putF(dst[16:], e.X2)
	putF(dst[24:], e.W)
	if e.Top {
		dst[32] = 1
	} else {
		dst[32] = 0
	}
}

// Decode implements em.Codec.
func (EventCodec) Decode(src []byte) Event {
	return Event{
		Y: getF(src[0:]), X1: getF(src[8:]), X2: getF(src[16:]), W: getF(src[24:]),
		Top: src[32] != 0,
	}
}

// Float64Codec serializes bare float64 values (8 bytes) — used for the
// x-sorted edge-value files that drive slab-boundary selection.
type Float64Codec struct{}

// Size implements em.Codec.
func (Float64Codec) Size() int { return 8 }

// Encode implements em.Codec.
func (Float64Codec) Encode(dst []byte, v float64) { putF(dst, v) }

// Decode implements em.Codec.
func (Float64Codec) Decode(src []byte) float64 { return getF(src) }

// PieceEvent is the recursion's event record: one horizontal edge of a
// rectangle piece, carrying the piece's full geometry so that the base
// case and the division phase can reconstruct the piece from either of
// its two events independently. Top selects which edge this record is.
type PieceEvent struct {
	R   WRect
	Top bool
}

// Y returns the event's sweep coordinate: the piece's bottom or top edge.
func (e PieceEvent) Y() float64 {
	if e.Top {
		return e.R.Y2
	}
	return e.R.Y1
}

// PieceEventsOf expands a piece into its bottom and top events.
func PieceEventsOf(r WRect) (bottom, top PieceEvent) {
	return PieceEvent{R: r}, PieceEvent{R: r, Top: true}
}

// PieceEventCodec serializes PieceEvent records (41 bytes).
type PieceEventCodec struct{}

// Size implements em.Codec.
func (PieceEventCodec) Size() int { return 41 }

// Encode implements em.Codec.
func (PieceEventCodec) Encode(dst []byte, e PieceEvent) {
	WRectCodec{}.Encode(dst, e.R)
	if e.Top {
		dst[40] = 1
	} else {
		dst[40] = 0
	}
}

// Decode implements em.Codec.
func (PieceEventCodec) Decode(src []byte) PieceEvent {
	return PieceEvent{R: WRectCodec{}.Decode(src), Top: src[40] != 0}
}

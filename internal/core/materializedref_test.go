package core

import (
	"errors"
	"io"
	"math"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// This file keeps the materializing root front end that pass fusion
// replaced (DESIGN.md §8) as test code: buildInput writes the unsorted
// event and edge files, materializedRoot sorts them with extsort.SortP into
// the root node, and solveMaterialized runs the shared recursion on it. It
// is the reference of TestFusionEquivalence and TestFusionEquivalenceSmall
// — solveFused must reproduce its Region and Sum bit for bit while saving
// the passes it pays — and, through sortedRoot, the node builder of the
// division and merge tests.

// buildInput drains next() until io.EOF, writing two events and two edge
// values per rectangle (unsorted). On error the partial outputs are
// released.
func (s *task) buildInput(next func() (rec.WRect, error)) (_, _ *em.File, _ int64, err error) {
	events := s.env.NewFile()
	edges := s.env.NewFile()
	defer func() {
		if err != nil {
			_ = events.Release()
			_ = edges.Release()
		}
	}()
	var count int64
	ew, err := em.NewRecordWriter(events, rec.PieceEventCodec{})
	if err != nil {
		return nil, nil, 0, err
	}
	xw, err := em.NewRecordWriter(edges, rec.Float64Codec{})
	if err != nil {
		return nil, nil, 0, err
	}
	err = forEachRect(next, s.root, func(r rec.WRect) error {
		bottom, top := rec.PieceEventsOf(r)
		if err := ew.Write(bottom); err != nil {
			return err
		}
		if err := ew.Write(top); err != nil {
			return err
		}
		// One value per vertical edge, as in every edge file.
		if err := xw.Write(r.X1); err != nil {
			return err
		}
		if err := xw.Write(r.X2); err != nil {
			return err
		}
		count += 2
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := ew.Close(); err != nil {
		return nil, nil, 0, err
	}
	if err := xw.Close(); err != nil {
		return nil, nil, 0, err
	}
	return events, edges, count, nil
}

// materializedRoot builds the root node of next's rectangles the
// materializing way: buildInput's files, each sorted into a new file by
// extsort.SortP and then released. A root that fits in memory keeps no
// edge file, as no base case does.
func materializedRoot(tb testing.TB, s *task, next func() (rec.WRect, error)) node {
	tb.Helper()
	events, edges, count, err := s.buildInput(next)
	if err != nil {
		tb.Fatal(err)
	}
	sortedEvents, err := extsort.SortP(s.env, events, rec.PieceEventCodec{}, lessEventY, s.par)
	if err != nil {
		tb.Fatal(err)
	}
	sortedEdges, err := extsort.SortP(s.env, edges, rec.Float64Codec{}, lessFloat64, s.par)
	if err != nil {
		tb.Fatal(err)
	}
	if err := events.Release(); err != nil {
		tb.Fatal(err)
	}
	if err := edges.Release(); err != nil {
		tb.Fatal(err)
	}
	n := node{
		events: sortedEvents,
		edges:  sortedEdges,
		slab:   s.root,
		count:  count,
	}
	if s.fits(count) { // a base case has no edge file
		if err := sortedEdges.Release(); err != nil {
			tb.Fatal(err)
		}
		n.edges = nil
	}
	return n
}

// sortedRoot is materializedRoot over a rectangle slice, for direct tests
// of the division and merge.
func sortedRoot(tb testing.TB, s *task, rects []rec.WRect) node {
	tb.Helper()
	return materializedRoot(tb, s, sliceRects(rects))
}

// sliceRects returns a rectangle source over rects.
func sliceRects(rects []rec.WRect) func() (rec.WRect, error) {
	i := 0
	return func() (rec.WRect, error) {
		if i == len(rects) {
			return rec.WRect{}, io.EOF
		}
		i++
		return rects[i-1], nil
	}
}

// solveMaterialized is SolveObjects on the materializing root pipeline:
// the objects of objFile are transformed into w×h rectangles, built into
// the root node by materializedRoot, and solved by the shared recursion.
func solveMaterialized(tb testing.TB, s *Solver, objFile *em.File, w, h float64) sweep.Result {
	tb.Helper()
	t := s.task(nil, nil)
	rr, err := em.OpenRecordReader(t.env, objFile, rec.ObjectCodec{})
	if err != nil {
		tb.Fatal(err)
	}
	root := materializedRoot(tb, t, func() (rec.WRect, error) {
		o, err := rr.Read()
		if err != nil {
			return rec.WRect{}, err
		}
		return rec.FromObject(o, w, h), nil
	})
	slabFile, err := t.solve(root, 0, new(scratchList))
	if err != nil {
		tb.Fatal(err)
	}
	return resultOfSlabFileRef(tb, slabFile)
}

// resultOfSlabFileRef is the root output end that the best-region tracker
// replaced, kept verbatim as the reference: it streams a whole-space slab
// file for the max-region — the strip of the first tuple of greatest sum,
// extended up to the next tuple's h-line (§5.2.4) — and releases the file.
func resultOfSlabFileRef(tb testing.TB, slabFile *em.File) sweep.Result {
	tb.Helper()
	rr, err := em.NewRecordReader(slabFile, rec.TupleCodec{})
	if err != nil {
		tb.Fatal(err)
	}
	best := sweep.Result{Region: geom.Rect{
		X: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
		Y: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
	}}
	first := true
	havePending := false // best awaits its strip's top y (the next tuple's y)
	for {
		t, err := rr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			tb.Fatal(err)
		}
		if havePending {
			best.Region.Y.Hi = t.Y
			havePending = false
		}
		if first || t.Sum > best.Sum {
			best = sweep.Result{
				Region: geom.Rect{
					X: geom.Interval{Lo: t.X1, Hi: t.X2},
					Y: geom.Interval{Lo: t.Y, Hi: math.Inf(1)},
				},
				Sum: t.Sum,
			}
			havePending = true
			first = false
		}
	}
	if err := slabFile.Release(); err != nil {
		tb.Fatal(err)
	}
	return best
}

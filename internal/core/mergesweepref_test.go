package core

import (
	"math"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// mergeSweepRef is the linear MergeSweep that the loser tree and the run
// tree replaced, kept verbatim as the oracle of
// TestMergeSweepMatchesReference and FuzzMergeSweep: it scans all m child
// heads for every next event line and all m children twice
// (bestTupleRef) to answer GetMaxInterval. mergeSweep must reproduce its
// slab file bit for bit, with the same transfer counts.
func (s *task) mergeSweepRef(slabFiles []*em.File, spanning *em.File, bounds []float64, slab geom.Interval) (_ *em.File, err error) {
	nc := len(slabFiles)
	sources := make([]*tupleSource, nc)
	for i, f := range slabFiles {
		ts, err := newTupleSource(f)
		if err != nil {
			return nil, err
		}
		sources[i] = ts
	}
	spans, err := newSpanSource(spanning)
	if err != nil {
		return nil, err
	}

	tslab := make([]rec.Tuple, nc)
	upSum := make([]float64, nc)
	for i := range tslab {
		tslab[i] = rec.Tuple{
			Y:  math.Inf(-1),
			X1: slabLo(slab, bounds, i),
			X2: slabHi(slab, bounds, i),
		}
	}

	out := s.env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	w, err := em.NewRecordWriter(out, rec.TupleCodec{})
	if err != nil {
		return nil, err
	}

	for {
		// Next event line: the smallest unconsumed y over all sources.
		y := math.Inf(1)
		any := false
		for _, ts := range sources {
			if !ts.done && ts.cur.Y < y {
				y = ts.cur.Y
				any = true
			}
		}
		if !spans.done && spans.cur.Y() <= y {
			y = spans.cur.Y()
			any = true
		}
		if !any {
			break
		}
		// Apply every record at this h-line before emitting (tops and
		// bottoms at equal y cancel within the line, matching the
		// half-open semantics of the children's own sweeps).
		for !spans.done && spans.cur.Y() == y {
			e := spans.cur
			a := childOfPoint(bounds, e.R.X1)
			b := childOfSup(bounds, e.R.X2)
			d := e.R.W
			if e.Top {
				d = -d
			}
			for j := a; j <= b && j < nc; j++ {
				upSum[j] += d
			}
			if err := spans.advance(); err != nil {
				return nil, err
			}
		}
		for i, ts := range sources {
			if !ts.done && ts.cur.Y == y {
				tslab[i] = ts.cur
				if err := ts.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := w.Write(bestTupleRef(y, tslab, upSum, slab, bounds)); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// bestTupleRef implements lines 17–18 of Algorithm 1 plus GetMaxInterval: it
// finds the children whose effective sum (local tuple sum + spanning
// weight) is maximal, merges max-intervals of adjacent maximal children
// when they touch at the shared slab boundary, and returns the longest
// merged interval (leftmost on ties).
func bestTupleRef(y float64, tslab []rec.Tuple, upSum []float64, slab geom.Interval, bounds []float64) rec.Tuple {
	nc := len(tslab)
	best := math.Inf(-1)
	for i := 0; i < nc; i++ {
		if eff := tslab[i].Sum + upSum[i]; eff > best {
			best = eff
		}
	}
	var out geom.Interval
	haveOut := false
	for i := 0; i < nc; {
		if tslab[i].Sum+upSum[i] != best {
			i++
			continue
		}
		run := geom.Interval{Lo: tslab[i].X1, Hi: tslab[i].X2}
		j := i + 1
		for j < nc && tslab[j].Sum+upSum[j] == best &&
			run.Hi == slabHi(slab, bounds, j-1) && tslab[j].X1 == run.Hi {
			run.Hi = tslab[j].X2
			j++
		}
		if !haveOut || run.Len() > out.Len() {
			out = run
			haveOut = true
		}
		i = j
	}
	return rec.Tuple{Y: y, X1: out.Lo, X2: out.Hi, Sum: best}
}

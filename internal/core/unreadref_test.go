package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
	"maxrs/internal/workload"
)

// This file keeps, as test code, the schedule that wrote two kinds of file
// nobody reads: the root's whole-space slab file, written by the root's
// MergeSweep (or a resident root's sweep) and read back only to keep its
// best tuple, and the edge files of base-case children, which a base case
// releases unread. solveUnreadRef runs that schedule and tallies what the
// current one no longer pays (unreadLedger); TestUnreadFilesSaving pins
// the difference in transfers to that tally exactly.

// unreadLedger tallies the transfers of the unread files.
type unreadLedger struct {
	rootTuples uint64 // blocks of the root slab file: written once, read once
	baseEdges  uint64 // blocks written to edge files of base-case children
	replay     uint64 // blocks read by edge-split replays whose children are all base cases
	kept       int    // divisions with a child that divides again, whose replay still runs
}

// solveUnreadRef solves next's rectangles on the schedule that writes the
// unread files, with children solved in order, and returns the result of
// the old root output end (resultOfSlabFileRef) and the ledger. A
// resident root sweeps the bottom events of its one sorted event run,
// which the reference sorts itself (sort.SliceStable of every event by
// y), into a slab file.
func (s *task) solveUnreadRef(tb testing.TB, next func() (rec.WRect, error)) (sweep.Result, unreadLedger) {
	tb.Helper()
	var led unreadLedger
	var rects []rec.WRect
	if err := forEachRect(next, func(r rec.WRect) error { rects = append(rects, r); return nil }); err != nil {
		tb.Fatal(err)
	}
	full := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	var slabFile *em.File
	if s.fits(int64(2 * len(rects))) {
		var events []rec.PieceEvent
		for _, r := range rects {
			bottom, top := rec.PieceEventsOf(r)
			events = append(events, bottom, top)
		}
		sort.SliceStable(events, func(i, j int) bool { return lessEventY(events[i], events[j]) })
		var sorted []rec.WRect
		for _, e := range events {
			if !e.Top {
				sorted = append(sorted, e.R)
			}
		}
		var err error
		if slabFile, err = s.writeSlab(sweep.Slab(sorted, full)); err != nil {
			tb.Fatal(err)
		}
	} else {
		rr, err := s.newRootRuns()
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range rects {
			if err := rr.add(r); err != nil {
				tb.Fatal(err)
			}
		}
		countX := rr.edges.Count()
		evm, edm, err := s.rootMerges(rr)
		if err != nil {
			tb.Fatal(err)
		}
		slabFile = s.conquerUnreadRef(tb, evm, edm, countX, full, &led)
	}
	led.rootTuples = uint64(slabFile.Blocks())
	return resultOfSlabFileRef(tb, slabFile), led
}

// solveNodeUnreadRef is solve on the unread-file schedule.
func (s *task) solveNodeUnreadRef(tb testing.TB, n node, led *unreadLedger) *em.File {
	tb.Helper()
	if s.fits(n.count) {
		// The base case released its edge file unread.
		if err := n.edges.Release(); err != nil {
			tb.Fatal(err)
		}
		n.edges = nil
		out, err := s.baseCase(n, new(scratchList))
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	evm := extsort.NewMerger(s.env, []*em.File{n.events}, rec.PieceEventCodec{}, lessEventY, s.par)
	edm := extsort.NewMerger(s.env, []*em.File{n.edges}, rec.Float64Codec{}, lessFloat64, s.par)
	return s.conquerUnreadRef(tb, evm, edm, em.RecordCount(n.edges, rec.Float64Codec{}.Size()), n.slab, led)
}

// conquerUnreadRef divides, solves the children in order and MergeSweeps
// them into a slab file.
func (s *task) conquerUnreadRef(tb testing.TB, evm *extsort.Merger[rec.PieceEvent], edm *extsort.Merger[float64],
	countX int64, slab geom.Interval, led *unreadLedger) *em.File {
	tb.Helper()
	bounds, children, spanning := s.divideUnreadRef(tb, evm, edm, countX, slab, led)
	slabFiles := make([]*em.File, len(children))
	for i, c := range children {
		slabFiles[i] = s.solveNodeUnreadRef(tb, c, led)
	}
	out, err := s.mergeSweepFile(slabFiles, spanning, bounds, slab)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range append(slabFiles, spanning) {
		if err := f.Release(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// divideUnreadRef is divide as it was before base-case children lost
// their edge files: every child gets one, and the edges merge is always
// replayed into the splitter. It runs on one goroutine, so the disk's
// counters around the replay are the replay's own.
func (s *task) divideUnreadRef(tb testing.TB, evm *extsort.Merger[rec.PieceEvent], edm *extsort.Merger[float64],
	countX int64, slab geom.Interval, led *unreadLedger) ([]float64, []node, *em.File) {
	tb.Helper()
	bp := newBoundsPicker(s.divisionFanout(), countX, slab)
	if err := edm.MergeInto(func(v float64) error { bp.add(v); return nil }); err != nil {
		tb.Fatal(err)
	}
	bounds := bp.finish()
	if len(bounds) == 0 {
		tb.Fatalf("no interior boundary in slab %v", slab)
	}
	rt, err := s.newRouter(bounds, slab)
	if err != nil {
		tb.Fatal(err)
	}
	if err := evm.MergeInto(rt.add); err != nil {
		tb.Fatal(err)
	}
	if err := rt.finish(); err != nil {
		tb.Fatal(err)
	}
	if err := evm.Release(); err != nil {
		tb.Fatal(err)
	}
	every := make([]bool, len(rt.counts))
	for i := range every {
		every[i] = true
	}
	es, err := s.newEdgeSplitter(bounds, slab, rt.nLow, rt.nHigh, every)
	if err != nil {
		tb.Fatal(err)
	}
	before := s.env.Disk.Stats()
	if err := edm.MergeInto(es.add); err != nil {
		tb.Fatal(err)
	}
	replayReads := s.env.Disk.Stats().Sub(before).Reads
	childEdges, err := es.finish()
	if err != nil {
		tb.Fatal(err)
	}
	if err := edm.Release(); err != nil {
		tb.Fatal(err)
	}
	allBase := true
	for i, c := range rt.counts {
		if s.fits(c) {
			led.baseEdges += uint64(childEdges[i].Blocks())
		} else {
			allBase = false
		}
	}
	if allBase {
		led.replay += replayReads
	} else {
		led.kept++
	}
	return bounds, assembleChildren(rt, childEdges, slab), rt.spanning
}

// sameResult reports whether two results agree in every float's bits.
func sameResult(a, b sweep.Result) bool {
	fa := []float64{a.Region.X.Lo, a.Region.X.Hi, a.Region.Y.Lo, a.Region.Y.Hi, a.Sum}
	fb := []float64{b.Region.X.Lo, b.Region.X.Hi, b.Region.Y.Lo, b.Region.Y.Hi, b.Sum}
	return slices.EqualFunc(fa, fb, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestUnreadFilesSaving is the golden test of the unread-file removal: for
// a resident root, a root whose children are all base cases, and a root
// whose children divide again, at p = 1, 2, 4 and 8, the solve must return
// the unread-file schedule's sweep.Result bit for bit, and save exactly
// the root slab file's blocks in both reads and writes, plus the base-case
// children's edge-file blocks in writes and the skipped replays' blocks in
// reads.
func TestUnreadFilesSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cases := []struct {
		name     string
		env      func() em.Env
		objs     []geom.Object
		w, h     float64
		dividing bool // some root child divides again
		resident bool
	}{
		{"resident", fusionEnv, workload.Uniform(26, 500, 2000), 90, 90, false, true},
		{"one-level", fusionEnv, workload.Uniform(2012, 4000, 16000), 900, 900, false, false},
		{"two-level", func() em.Env { return em.MustNewEnv(256, 2048) }, randFloatObjects(rng, 600, 4000), 60, 40, true, false},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/p=%d", c.name, p)

			refEnv := c.env()
			refFile := writeObjects(t, refEnv, c.objs)
			ref := mustSolver(t, refEnv, Config{Parallelism: p}).task(nil, nil)
			rr, err := em.OpenRecordReader(ref.env, refFile, rec.ObjectCodec{})
			if err != nil {
				t.Fatal(err)
			}
			refEnv.Disk.ResetStats()
			want, led := ref.solveUnreadRef(t, func() (rec.WRect, error) {
				o, err := rr.Read()
				if err != nil {
					return rec.WRect{}, err
				}
				return rec.FromObject(o, c.w, c.h), nil
			})
			refSt := refEnv.Disk.Stats()
			if n, blocks := refEnv.Disk.InUse(), refFile.Blocks(); n != blocks {
				t.Fatalf("%s reference: %d blocks in use, want %d", name, n, blocks)
			}

			env := c.env()
			f := writeObjects(t, env, c.objs)
			s := mustSolver(t, env, Config{Parallelism: p})
			env.Disk.ResetStats()
			got, err := s.SolveObjects(f, c.w, c.h)
			if err != nil {
				t.Fatal(err)
			}
			st := env.Disk.Stats()
			if n, blocks := env.Disk.InUse(), f.Blocks(); n != blocks {
				t.Fatalf("%s: %d blocks in use, want %d", name, n, blocks)
			}

			if !sameResult(got, want) {
				t.Fatalf("%s: result %+v, unread-file schedule %+v", name, got, want)
			}
			if led.rootTuples == 0 || c.resident != (led.baseEdges == 0) || c.resident != (led.replay == 0) {
				t.Fatalf("%s: ledger %+v does not exercise the case", name, led)
			}
			if st.Writes+led.rootTuples+led.baseEdges != refSt.Writes || st.Reads+led.rootTuples+led.replay != refSt.Reads {
				t.Fatalf("%s: %v transfers, unread-file schedule %v: saving %d writes and %d reads, want %d (root tuples %d + base-case edges %d) and %d (root tuples %d + replays %d)",
					name, st, refSt, refSt.Writes-st.Writes, refSt.Reads-st.Reads,
					led.rootTuples+led.baseEdges, led.rootTuples, led.baseEdges, led.rootTuples+led.replay, led.rootTuples, led.replay)
			}
			if c.dividing != (led.kept > 0) {
				t.Fatalf("%s: %d divisions with a dividing child, want some: %v", name, led.kept, c.dividing)
			}
		}
	}
}

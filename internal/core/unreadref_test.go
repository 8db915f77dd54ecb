package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
	"maxrs/internal/workload"
)

// This file keeps, as test code, a schedule that moves what the current
// one no longer moves, part by part (unreadParts): whole files nobody
// reads, and the halves of files that were read for nothing. Run with no
// part, it is the current schedule, transfer for transfer; each part puts
// back one kind of file, and solveUnreadRef tallies what that costs
// (unreadLedger). TestUnreadFilesSaving and TestHalfFileSavings pin the
// current schedule's savings to those tallies exactly.

// unreadParts selects what the reference schedule writes on top of the
// current one.
type unreadParts struct {
	// rootSlab writes the root's whole-space slab file, from the root's
	// MergeSweep or a resident root's sweep, and reads it back only to
	// keep its best tuple.
	rootSlab bool
	// baseEdges gives every child an edge file, which a base case
	// releases unread, and replays the edges merge into the splitter even
	// when every child is a base case.
	baseEdges bool
	// twoEdgeCopies stores two values per piece edge, one per event, in
	// every edge file, and feeds the bounds picker every other value.
	twoEdgeCopies bool
	// eventFiles gives a certified base case both events of each piece,
	// though it skips every top event, instead of a rectangle file.
	eventFiles bool
	// wholeLevels reduces the root sorts by whole merge levels, down to
	// at most fanIn runs, instead of merging only the trailing runs.
	wholeLevels bool
}

// unreadLedger tallies the transfers of what the reference writes on top
// of the current schedule, and every transfer by the kind of file it
// moves.
type unreadLedger struct {
	rootTuples uint64 // blocks of the root slab file: written once, read once
	baseEdges  uint64 // blocks written to edge files of base-case children
	replay     uint64 // blocks read by edge-split replays whose children are all base cases
	kept       int    // divisions with a child that divides again, whose replay still runs
	topEvents  uint64 // blocks by which certified children's event files outgrow rectangle files: written once, read once

	edges      em.ScopeStats // every edge file: the root edge runs and every child's
	rootEvents em.ScopeStats // the root event runs
	rest       em.ScopeStats // every other file the solve creates
}

// unreadRef is one run of the reference schedule. Each task charges its
// own kind of file.
type unreadRef struct {
	tb                      testing.TB
	parts                   unreadParts
	led                     *unreadLedger
	edges, rootEvents, rest *task
}

// scoped returns a copy of s whose new files charge sc.
func (s *task) scoped(sc *em.ScopeStats) *task {
	return &task{Solver: s.Solver, env: s.env.WithScope(sc), ctx: s.ctx}
}

// copies returns how many values an edge file stores per piece edge.
func (r *unreadRef) copies() int64 {
	if r.parts.twoEdgeCopies {
		return 2
	}
	return 1
}

// solveUnreadRef solves next's rectangles on the reference schedule with
// parts, with children solved in order on one goroutine, and returns the
// result and the ledger. next's own reads charge no ledger scope.
func (s *task) solveUnreadRef(tb testing.TB, parts unreadParts, next func() (rec.WRect, error)) (sweep.Result, *unreadLedger) {
	tb.Helper()
	led := new(unreadLedger)
	r := &unreadRef{tb: tb, parts: parts, led: led,
		edges: s.scoped(&led.edges), rootEvents: s.scoped(&led.rootEvents), rest: s.scoped(&led.rest)}
	var rects []rec.WRect
	if err := forEachRect(next, wholeLine, func(q rec.WRect) error { rects = append(rects, q); return nil }); err != nil {
		tb.Fatal(err)
	}
	full := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	if s.fits(int64(2 * len(rects))) {
		extsort.SortStable(rects, func(a, b rec.WRect) bool { return a.Y1 < b.Y1 })
		if !parts.rootSlab {
			return sweep.MaxRSRects(rects), led
		}
		slabFile, err := r.rest.writeSlab(sweep.Slab(rects, full))
		if err != nil {
			tb.Fatal(err)
		}
		led.rootTuples = uint64(slabFile.Blocks())
		return resultOfSlabFileRef(tb, slabFile), led
	}
	evb, err := extsort.NewRunBuilder(r.rootEvents.env, rec.PieceEventCodec{}, lessEventY, s.par)
	if err != nil {
		tb.Fatal(err)
	}
	edb, err := extsort.NewRunBuilder(r.edges.env, rec.Float64Codec{}, lessFloat64, s.par)
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range rects {
		bottom, top := rec.PieceEventsOf(q)
		if evb.Add(bottom) != nil || evb.Add(top) != nil {
			tb.Fatal("event run formation failed")
		}
		for range r.copies() {
			if edb.Add(q.X1) != nil || edb.Add(q.X2) != nil {
				tb.Fatal("edge run formation failed")
			}
		}
	}
	evm := rootMergerRef(tb, r.rootEvents.env, evb, rec.PieceEventCodec{}, lessEventY, s.par, parts.wholeLevels)
	edm := rootMergerRef(tb, r.edges.env, edb, rec.Float64Codec{}, lessFloat64, s.par, parts.wholeLevels)
	bounds, children, spanning := r.divide(evm, edm, 2*edb.Count()/r.copies(), full)
	if parts.rootSlab {
		slabFile := r.conquer(children, spanning, bounds, full)
		led.rootTuples = uint64(slabFile.Blocks())
		return resultOfSlabFileRef(tb, slabFile), led
	}
	var best sweep.BestTracker
	slabFiles := r.solveChildren(children)
	if err := r.rest.mergeSweep(slabFiles, spanning, bounds, full, func(t rec.Tuple) error { best.Add(t); return nil }); err != nil {
		tb.Fatal(err)
	}
	releaseAll(tb, append(slabFiles, spanning))
	return best.Result(), led
}

// rootMergerRef finishes a root run builder and reduces its runs: by
// whole levels first when whole is set, which leaves Reduce nothing to do.
func rootMergerRef[T any](tb testing.TB, env em.Env, rb *extsort.RunBuilder[T], codec em.Codec[T], less func(a, b T) bool, par int, whole bool) *extsort.Merger[T] {
	tb.Helper()
	runs, err := rb.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	fanIn := max(2, env.MemBlocks()-1)
	for whole && len(runs) > fanIn {
		var next []*em.File
		for lo := 0; lo < len(runs); lo += fanIn {
			m := extsort.NewMerger(env, runs[lo:min(lo+fanIn, len(runs))], codec, less, par)
			out := env.NewFile()
			w, err := em.NewRecordWriter(out, codec)
			if err != nil {
				tb.Fatal(err)
			}
			if err := m.MergeInto(w.Write); err != nil {
				tb.Fatal(err)
			}
			if err := w.Close(); err != nil {
				tb.Fatal(err)
			}
			if err := m.Release(); err != nil {
				tb.Fatal(err)
			}
			next = append(next, out)
		}
		runs = next
	}
	m := extsort.NewMerger(env, runs, codec, less, par)
	if err := m.Reduce(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// solve is solve on the reference schedule.
func (r *unreadRef) solve(n node) *em.File {
	r.tb.Helper()
	if r.rest.fits(n.count) {
		if n.edges != nil {
			// The base case releases its edge file unread.
			if err := n.edges.Release(); err != nil {
				r.tb.Fatal(err)
			}
			n.edges = nil
		}
		out, err := r.rest.baseCase(n, new(scratchList))
		if err != nil {
			r.tb.Fatal(err)
		}
		return out
	}
	evm := extsort.NewMerger(r.rest.env, []*em.File{n.events}, rec.PieceEventCodec{}, lessEventY, 1)
	edm := extsort.NewMerger(r.edges.env, []*em.File{n.edges}, rec.Float64Codec{}, lessFloat64, 1)
	countX := 2 * em.RecordCount(n.edges, rec.Float64Codec{}.Size()) / r.copies()
	bounds, children, spanning := r.divide(evm, edm, countX, n.slab)
	return r.conquer(children, spanning, bounds, n.slab)
}

// solveChildren solves the children in order.
func (r *unreadRef) solveChildren(children []node) []*em.File {
	slabFiles := make([]*em.File, len(children))
	for i, c := range children {
		slabFiles[i] = r.solve(c)
	}
	return slabFiles
}

// conquer solves the children and MergeSweeps them into a slab file.
func (r *unreadRef) conquer(children []node, spanning *em.File, bounds []float64, slab geom.Interval) *em.File {
	r.tb.Helper()
	slabFiles := r.solveChildren(children)
	out, err := r.rest.mergeSweepFile(slabFiles, spanning, bounds, slab)
	if err != nil {
		r.tb.Fatal(err)
	}
	releaseAll(r.tb, append(slabFiles, spanning))
	return out
}

func releaseAll(tb testing.TB, files []*em.File) {
	tb.Helper()
	for _, f := range files {
		if err := f.Release(); err != nil {
			tb.Fatal(err)
		}
	}
}

// divide is divide on the reference schedule; countX counts the node's
// distinct edge values twice, as the bounds picker does. It runs on one
// goroutine, so the disk's counters around the edge-split replay are the
// replay's own.
func (r *unreadRef) divide(evm *extsort.Merger[rec.PieceEvent], edm *extsort.Merger[float64], countX int64, slab geom.Interval) ([]float64, []node, *em.File) {
	tb, s, led := r.tb, r.rest, r.led
	tb.Helper()
	bp := newBoundsPicker(s.divisionFanout(), countX, slab)
	var k int64
	if err := edm.MergeInto(func(v float64) error {
		if k%r.copies() == 0 {
			bp.add(v)
		}
		k++
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	bounds, values := bp.finish()
	if len(bounds) == 0 {
		tb.Fatalf("no interior boundary in slab %v", slab)
	}
	certified := make([]bool, len(bounds)+1)
	for i, v := range values {
		certified[i] = s.fits(v) && !r.parts.eventFiles
	}
	rt, err := s.newRouter(bounds, slab, certified)
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
	if r.parts.eventFiles {
		for i, v := range values {
			if s.fits(v) {
				rectBlocks := (rt.counts[i]/2*int64(rec.WRectCodec{}.Size()) + int64(s.env.B()) - 1) / int64(s.env.B())
				led.topEvents += uint64(int64(rt.childFiles[i].Blocks()) - rectBlocks)
			}
		}
	}

	divides := make([]bool, len(rt.counts))
	for i, c := range rt.counts {
		divides[i] = r.parts.baseEdges || !s.fits(c)
	}
	// The splitter writes half its clip counts in copies: double them to
	// write one copy per clip event.
	nLow, nHigh := slices.Clone(rt.nLow), slices.Clone(rt.nHigh)
	for i := range nLow {
		nLow[i] *= r.copies()
		nHigh[i] *= r.copies()
	}
	es, err := r.edges.newEdgeSplitter(bounds, slab, nLow, nHigh, divides)
	if err != nil {
		tb.Fatal(err)
	}
	if slices.Contains(divides, true) {
		before := s.env.Disk.Stats()
		if err := edm.MergeInto(es.add); err != nil {
			tb.Fatal(err)
		}
		replayReads := s.env.Disk.Stats().Sub(before).Reads
		allBase := true
		for _, c := range rt.counts {
			allBase = allBase && s.fits(c)
		}
		if allBase {
			led.replay += replayReads
		} else {
			led.kept++
		}
	}
	childEdges, err := es.finish()
	if err != nil {
		tb.Fatal(err)
	}
	if err := edm.Release(); err != nil {
		tb.Fatal(err)
	}
	for i, c := range rt.counts {
		if s.fits(c) && childEdges[i] != nil {
			led.baseEdges += uint64(childEdges[i].Blocks())
		}
	}
	return bounds, assembleChildren(rt, childEdges, slab), rt.spanning
}

// sameResult reports whether two results agree in every float's bits.
func sameResult(a, b sweep.Result) bool {
	fa := []float64{a.Region.X.Lo, a.Region.X.Hi, a.Region.Y.Lo, a.Region.Y.Hi, a.Sum}
	fb := []float64{b.Region.X.Lo, b.Region.X.Hi, b.Region.Y.Lo, b.Region.Y.Hi, b.Sum}
	return slices.EqualFunc(fa, fb, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// savingsCase is one input of the saving tests.
type savingsCase struct {
	name string
	env  func() em.Env
	objs []geom.Object
	w, h float64
}

func savingsCases() []savingsCase {
	rng := rand.New(rand.NewSource(26))
	return []savingsCase{
		{"resident", fusionEnv, workload.Uniform(26, 500, 2000), 90, 90},
		{"certified", fusionEnv, workload.Uniform(2012, 2000, 8000), 450, 450},
		{"one-level", fusionEnv, workload.Uniform(2012, 4000, 16000), 900, 900},
		{"two-level", func() em.Env { return em.MustNewEnv(256, 2048) }, randFloatObjects(rng, 600, 4000), 60, 40},
	}
}

// solveBoth solves c on the current schedule and on the reference with
// parts, each on a fresh disk, fails unless the results agree bit for
// bit, and returns both transfer counts (the object scan included) and
// the reference's ledger. Neither may leave a block allocated beyond the
// object file.
func solveBoth(t *testing.T, c savingsCase, p int, parts unreadParts) (st, refSt em.Stats, led *unreadLedger) {
	t.Helper()
	refEnv := c.env()
	refFile := writeObjects(t, refEnv, c.objs)
	ref := mustSolver(t, refEnv, Config{Parallelism: p}).task(nil, nil)
	rr, err := em.OpenRecordReader(ref.env, refFile, rec.ObjectCodec{})
	if err != nil {
		t.Fatal(err)
	}
	refEnv.Disk.ResetStats()
	want, led := ref.solveUnreadRef(t, parts, func() (rec.WRect, error) {
		o, err := rr.Read()
		if err != nil {
			return rec.WRect{}, err
		}
		return rec.FromObject(o, c.w, c.h), nil
	})
	refSt = refEnv.Disk.Stats()
	if n, blocks := refEnv.Disk.InUse(), refFile.Blocks(); n != blocks {
		t.Fatalf("%s reference %+v: %d blocks in use, want %d", c.name, parts, n, blocks)
	}

	env := c.env()
	f := writeObjects(t, env, c.objs)
	env.Disk.ResetStats()
	got, err := mustSolver(t, env, Config{Parallelism: p}).SolveObjects(f, c.w, c.h)
	if err != nil {
		t.Fatal(err)
	}
	st = env.Disk.Stats()
	if n, blocks := env.Disk.InUse(), f.Blocks(); n != blocks {
		t.Fatalf("%s: %d blocks in use, want %d", c.name, n, blocks)
	}
	if !sameResult(got, want) {
		t.Fatalf("%s: result %+v, reference %+v %+v", c.name, got, parts, want)
	}
	return st, refSt, led
}

// TestUnreadFilesSaving is the golden test of the unread-file removal: for
// a resident root, two roots whose children are all base cases (all of
// them certified in one), and a root whose children divide again, at
// p = 1, 2, 4 and 8, the solve must return
// the unread-file schedule's sweep.Result bit for bit, and save exactly
// the root slab file's blocks in both reads and writes, plus the base-case
// children's edge-file blocks in writes and the skipped replays' blocks in
// reads.
func TestUnreadFilesSaving(t *testing.T) {
	dividing := map[string]bool{"two-level": true}
	for _, c := range savingsCases() {
		for _, p := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/p=%d", c.name, p)
			st, refSt, led := solveBoth(t, c, p, unreadParts{rootSlab: true, baseEdges: true})
			resident := c.name == "resident"
			if led.rootTuples == 0 || resident != (led.baseEdges == 0) || resident != (led.replay == 0) {
				t.Fatalf("%s: ledger %+v does not exercise the case", name, led)
			}
			if st.Writes+led.rootTuples+led.baseEdges != refSt.Writes || st.Reads+led.rootTuples+led.replay != refSt.Reads {
				t.Fatalf("%s: %v transfers, unread-file schedule %v: saving %d writes and %d reads, want %d (root tuples %d + base-case edges %d) and %d (root tuples %d + replays %d)",
					name, st, refSt, refSt.Writes-st.Writes, refSt.Reads-st.Reads,
					led.rootTuples+led.baseEdges, led.rootTuples, led.baseEdges, led.rootTuples+led.replay, led.rootTuples, led.replay)
			}
			if dividing[c.name] != (led.kept > 0) {
				t.Fatalf("%s: %d divisions with a dividing child, want some: %v", name, led.kept, dividing[c.name])
			}
		}
	}
}

// TestHalfFileSavings pins the three savings of one value per piece
// edge, rectangle files for certified base cases and a partial last
// reduce level, one at a time, at p = 1, 2, 4 and 8. The reference with
// no part must match the solve transfer for transfer. With one part, it
// must return the solve's result bit for bit, and its surplus over the
// solve must be the pinned saving — the same at every p — and sit
// wholly in the kind of file the part touches: the edge files for
// twoEdgeCopies, the root runs (event and edge) for wholeLevels, and,
// for eventFiles, the other files, by exactly the blocks the certified
// children's event files outgrow their rectangle files.
func TestHalfFileSavings(t *testing.T) {
	// saving is a part's (reads, writes) surplus over the solve.
	type saving struct{ reads, writes uint64 }
	want := map[string]map[string]saving{
		"resident":  {"twoEdgeCopies": {}, "eventFiles": {}, "wholeLevels": {}},
		"certified": {"twoEdgeCopies": {8, 8}, "eventFiles": {34, 34}, "wholeLevels": {}},
		"one-level": {"twoEdgeCopies": {16, 16}, "eventFiles": {}, "wholeLevels": {}},
		"two-level": {"twoEdgeCopies": {301, 204}, "eventFiles": {92, 92}, "wholeLevels": {32, 32}},
	}
	parts := map[string]unreadParts{
		"twoEdgeCopies": {twoEdgeCopies: true},
		"eventFiles":    {eventFiles: true},
		"wholeLevels":   {wholeLevels: true},
	}
	for _, c := range savingsCases() {
		for _, p := range []int{1, 2, 4, 8} {
			st, noneSt, none := solveBoth(t, c, p, unreadParts{})
			if st != noneSt {
				t.Fatalf("%s/p=%d: %v transfers, reference with no part %v", c.name, p, st, noneSt)
			}
			for _, part := range []string{"twoEdgeCopies", "eventFiles", "wholeLevels"} {
				name := fmt.Sprintf("%s/p=%d/%s", c.name, p, part)
				st, refSt, led := solveBoth(t, c, p, parts[part])
				got := saving{refSt.Reads - st.Reads, refSt.Writes - st.Writes}
				if got != want[c.name][part] {
					t.Errorf("%s: saving %+v, want %+v", name, got, want[c.name][part])
				}
				edges := led.edges.Stats().Sub(none.edges.Stats())
				rootEvents := led.rootEvents.Stats().Sub(none.rootEvents.Stats())
				rest := led.rest.Stats().Sub(none.rest.Stats())
				var inPart em.Stats
				switch part {
				case "twoEdgeCopies":
					inPart = edges
					if rootEvents.Total() != 0 || rest.Total() != 0 {
						t.Errorf("%s: root events moved %v, other files %v", name, rootEvents, rest)
					}
				case "eventFiles":
					inPart = rest
					if edges.Total() != 0 || rootEvents.Total() != 0 {
						t.Errorf("%s: edge files moved %v, root events %v", name, edges, rootEvents)
					}
					if top := (em.Stats{Reads: led.topEvents, Writes: led.topEvents}); rest != top {
						t.Errorf("%s: other files moved %v, want the top events' %v", name, rest, top)
					}
				case "wholeLevels":
					inPart = em.Stats{Reads: edges.Reads + rootEvents.Reads, Writes: edges.Writes + rootEvents.Writes}
					if rest.Total() != 0 {
						t.Errorf("%s: other files moved %v", name, rest)
					}
				}
				if inPart != (em.Stats{Reads: got.reads, Writes: got.writes}) {
					t.Errorf("%s: saving %+v, but its files moved %v", name, got, inPart)
				}
			}
		}
	}
}

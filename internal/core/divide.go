package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// The division step (§5.2.1) is one function, divide, run at every
// recursion level. It reads the node through two extsort.Mergers, one over
// its y-sorted events and one over its x-sorted edge values, and feeds
// three streaming sinks that each consume one record at a time:
// boundsPicker, router and edgeSplitter. At the root the mergers hold the
// root sorts' final-level runs (divideFused), so the sorted root files are
// never written. Below the root each merger holds the node's one sorted
// file, a one-run merge that reads the file once per pass. Either way each
// sink sees exactly the record sequence a sorted file would give it. Only
// a child that divides again reads its edge values, so the splitter writes
// edge files for those children alone, and runs not at all when every
// child is a base case. A child the bounds picker certifies as a base
// case before routing reads only its pieces, so the router writes it one
// rectangle per piece instead of two events.

// divisionFanout returns the slab fan-out m for one division step. For
// pathologically small memories an auto-selected fan-out below 4 cannot
// guarantee that tied edge values straddle a quantile rank; clamp
// (documented deviation, ≤ 2 blocks of slack). An explicitly configured
// fan-out (ablation) is honored as-is.
func (s *task) divisionFanout() int {
	m := s.fanout()
	if m < 4 && s.cfg.Fanout == 0 {
		m = 4
	}
	return m
}

// boundsPicker streams the x-sorted edge-value multiset once and selects
// up to m−1 strictly increasing boundary values, each strictly inside the
// slab, splitting the multiset into roughly equal parts (the division
// criterion of §5.2.1 / Lemma 1). An edge file stores one value per piece
// edge and the picker counts each twice, once per event of the piece, so
// total — the exact count — and the quantile ranks are in event units.
//
// In the same pass it counts each child's edge values V_c, twice each:
// the values v with childOfPoint(bounds, v) == c, so the values equal to
// a bound move to the child above it when the bound is picked. Every
// piece routed to child c owns a distinct node edge with childOfPoint ==
// c — a left or whole fragment its x1, a right fragment its x2, which is
// then no bound and so not the node's high border — hence V_c is at least
// the child's event count, and a child with fits(V_c) is certainly a base
// case (DESIGN.md §8.1).
type boundsPicker struct {
	slab                     geom.Interval
	i, step, nextRank        int64
	bounds                   []float64
	minInterior, maxInterior float64
	haveInterior             bool

	values []int64 // V_c of each child under the bounds picked so far
	last   float64 // the previous value
	tie    int64   // the count of values equal to last, twice each
}

func newBoundsPicker(m int, total int64, slab geom.Interval) *boundsPicker {
	step := total / int64(m)
	if step < 1 {
		step = 1
	}
	return &boundsPicker{slab: slab, step: step, nextRank: step, values: []int64{0}, last: math.NaN()}
}

// add consumes the next edge value (ascending order), which stands for
// the edge's two events at ranks i+1 and i+2.
func (bp *boundsPicker) add(v float64) {
	bp.i += 2
	interior := v > bp.slab.Lo && v < bp.slab.Hi && !math.IsInf(v, 0)
	if interior {
		if !bp.haveInterior {
			bp.minInterior, bp.maxInterior, bp.haveInterior = v, v, true
		} else {
			bp.maxInterior = v
		}
	}
	if v != bp.last {
		bp.last, bp.tie = v, 0
	}
	bp.tie += 2
	bp.values[len(bp.values)-1] += 2
	for ; bp.nextRank <= bp.i; bp.nextRank += bp.step {
		if interior && (len(bp.bounds) == 0 || v > bp.bounds[len(bp.bounds)-1]) {
			bp.bounds = append(bp.bounds, v)
			bp.values[len(bp.values)-1] -= bp.tie
			bp.values = append(bp.values, bp.tie)
		}
	}
}

// finish returns the selected boundaries and each child's V_c. If every
// quantile rank landed on a border-valued edge it falls back to a single
// interior split so the recursion still progresses; the counts, taken
// under no bound, then certify nothing and are nil. A finite slab whose
// values all sit on its border holds only pieces that span it — a shard's
// root under a halo wider than the shard — and is split at its midpoint:
// every piece then spans both halves and goes to R′, and MergeSweep over
// the two empty children answers.
func (bp *boundsPicker) finish() ([]float64, []int64) {
	if len(bp.bounds) > 0 {
		return bp.bounds, bp.values
	}
	if bp.haveInterior {
		if bp.minInterior < bp.maxInterior {
			return []float64{bp.minInterior + (bp.maxInterior-bp.minInterior)/2}, nil
		}
		return []float64{bp.minInterior}, nil
	}
	if mid := bp.slab.Mid(); bp.i > 0 && bp.slab.Lo < mid && mid < bp.slab.Hi {
		return []float64{mid}, nil
	}
	return nil, bp.values
}

// slabLo returns the low x-boundary of child i under bounds within slab.
func slabLo(slab geom.Interval, bounds []float64, i int) float64 {
	if i == 0 {
		return slab.Lo
	}
	return bounds[i-1]
}

// slabHi returns the high x-boundary of child i under bounds within slab.
func slabHi(slab geom.Interval, bounds []float64, i int) float64 {
	if i == len(bounds) {
		return slab.Hi
	}
	return bounds[i]
}

// childOfPoint returns the child slab containing x: the number of bounds ≤ x.
func childOfPoint(bounds []float64, x float64) int {
	// sort.SearchFloat64s returns the count of bounds < x; add equals.
	i := sort.SearchFloat64s(bounds, x)
	for i < len(bounds) && bounds[i] == x {
		i++
	}
	return i
}

// childOfSup returns the child slab containing the supremum of [_, x): the
// number of bounds strictly below x.
func childOfSup(bounds []float64, x float64) int {
	return sort.SearchFloat64s(bounds, x)
}

// router is the division sink (§5.2.1): it distributes piece events into
// len(bounds)+1 child files, diverting every fragment that spans a whole
// child slab into the spanning file R′. A certified child (see
// boundsPicker) is a base case that reads only rectangles, so its file
// holds just the bottom events' rectangles; every other child's holds
// both events of each fragment. Event order (y) is preserved in every
// output file. It also tallies the clip counts (nLow, nHigh) the edge
// splitter needs.
type router struct {
	bounds []float64
	slab   geom.Interval

	childFiles   []*em.File
	eventWriters []*em.RecordWriter[rec.PieceEvent] // nil for a certified child
	rectWriters  []*em.RecordWriter[rec.WRect]      // nil for every other child
	spanning     *em.File
	spanWriter   *em.RecordWriter[rec.PieceEvent]

	counts []int64 // events routed to each child, bottom and top alike
	nLow   []int64 // right-fragment clip events at each child's low bound
	nHigh  []int64 // left-fragment clip events at each child's high bound
}

// newRouter allocates the child files, the spanning file and their
// writers; certified[i] gives child i a rectangle file. On error every
// partial file is released.
func (s *task) newRouter(bounds []float64, slab geom.Interval, certified []bool) (_ *router, err error) {
	nc := len(bounds) + 1
	rt := &router{
		bounds:       bounds,
		slab:         slab,
		childFiles:   make([]*em.File, nc),
		eventWriters: make([]*em.RecordWriter[rec.PieceEvent], nc),
		rectWriters:  make([]*em.RecordWriter[rec.WRect], nc),
		counts:       make([]int64, nc),
		nLow:         make([]int64, nc),
		nHigh:        make([]int64, nc),
	}
	for i := range rt.childFiles {
		rt.childFiles[i] = s.env.NewFile()
	}
	rt.spanning = s.env.NewFile()
	defer func() {
		if err != nil {
			rt.abort()
		}
	}()
	for i, f := range rt.childFiles {
		if certified[i] {
			if rt.rectWriters[i], err = em.NewRecordWriter(f, rec.WRectCodec{}); err != nil {
				return nil, err
			}
		} else if rt.eventWriters[i], err = em.NewRecordWriter(f, rec.PieceEventCodec{}); err != nil {
			return nil, err
		}
	}
	rt.spanWriter, err = em.NewRecordWriter(rt.spanning, rec.PieceEventCodec{})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

func (rt *router) emit(i int, e rec.PieceEvent, x1, x2 float64) error {
	e.R.X1, e.R.X2 = x1, x2
	rt.counts[i]++
	if w := rt.rectWriters[i]; w != nil {
		if e.Top {
			return nil // the bottom event carries the full geometry
		}
		return w.Write(e.R)
	}
	return rt.eventWriters[i].Write(e)
}

// add routes one piece event (ascending y order).
func (rt *router) add(e rec.PieceEvent) error {
	x1, x2 := e.R.X1, e.R.X2
	i := childOfPoint(rt.bounds, x1)
	j := childOfSup(rt.bounds, x2)
	leftSpan := x1 == slabLo(rt.slab, rt.bounds, i)
	rightSpan := x2 == slabHi(rt.slab, rt.bounds, j)
	if i == j {
		if leftSpan && rightSpan {
			// The fragment coincides with a whole child slab.
			spanEvent := e
			spanEvent.R.X1, spanEvent.R.X2 = x1, x2
			return rt.spanWriter.Write(spanEvent)
		}
		return rt.emit(i, e, x1, x2)
	}
	spanStart, spanEnd := i, j
	if !leftSpan {
		if err := rt.emit(i, e, x1, slabHi(rt.slab, rt.bounds, i)); err != nil {
			return err
		}
		rt.nHigh[i]++
		spanStart = i + 1
	}
	if !rightSpan {
		if err := rt.emit(j, e, slabLo(rt.slab, rt.bounds, j), x2); err != nil {
			return err
		}
		rt.nLow[j]++
		spanEnd = j - 1
	}
	if spanStart <= spanEnd {
		spanEvent := e
		spanEvent.R.X1 = slabLo(rt.slab, rt.bounds, spanStart)
		spanEvent.R.X2 = slabHi(rt.slab, rt.bounds, spanEnd)
		return rt.spanWriter.Write(spanEvent)
	}
	return nil
}

// finish seals every output file. On error the router's files are
// released.
func (rt *router) finish() (err error) {
	defer func() {
		if err != nil {
			rt.abort()
		}
	}()
	for i, w := range rt.eventWriters {
		if w == nil {
			err = rt.rectWriters[i].Close()
		} else {
			err = w.Close()
		}
		if err != nil {
			return err
		}
	}
	return rt.spanWriter.Close()
}

// abort releases the router's files (best effort, idempotent).
func (rt *router) abort() {
	for _, f := range rt.childFiles {
		_ = f.Release()
	}
	_ = rt.spanning.Release()
}

// assembleChildren zips the router's files with the split edge files into
// child nodes.
func assembleChildren(rt *router, childEdges []*em.File, slab geom.Interval) []node {
	children := make([]node, len(rt.childFiles))
	for i := range children {
		children[i] = node{
			edges: childEdges[i],
			slab:  geom.Interval{Lo: slabLo(slab, rt.bounds, i), Hi: slabHi(slab, rt.bounds, i)},
			count: rt.counts[i],
		}
		if rt.rectWriters[i] != nil {
			children[i].rects = rt.childFiles[i]
		} else {
			children[i].events = rt.childFiles[i]
		}
	}
	return children
}

// edgeSplitter routes the parent's sorted edge values into per-child
// sorted files: one copy of the child's low bound per right-fragment clip
// (nLow[i]/2, written up front), then the parent values falling in the
// child's x-range, then one copy of the high bound per left-fragment clip
// (nHigh[i]/2, written by finish). The clip counts are in events, and
// both events of a piece route alike, so they are even. The splice keeps
// each child's file sorted. A child i with !divides[i] is a base case,
// which never reads edge values: it gets no file, and its values are
// dropped.
type edgeSplitter struct {
	bounds  []float64
	slab    geom.Interval
	files   []*em.File
	writers []*em.RecordWriter[float64]
	nHigh   []int64
}

// newEdgeSplitter allocates the edge files of the children that divide and
// writes their low-bound prologues. On error every partial file is
// released.
func (s *task) newEdgeSplitter(bounds []float64, slab geom.Interval, nLow, nHigh []int64, divides []bool) (_ *edgeSplitter, err error) {
	nc := len(bounds) + 1
	es := &edgeSplitter{
		bounds:  bounds,
		slab:    slab,
		files:   make([]*em.File, nc),
		writers: make([]*em.RecordWriter[float64], nc),
		nHigh:   nHigh,
	}
	defer func() {
		if err != nil {
			es.abort()
		}
	}()
	for i := range es.files {
		lo := slabLo(slab, bounds, i)
		if nLow[i] > 0 && math.IsInf(lo, 0) {
			return nil, fmt.Errorf("core: %d clips at infinite bound %g", nLow[i], lo)
		}
		if !divides[i] {
			continue
		}
		es.files[i] = s.env.NewFile()
		w, err := em.NewRecordWriter(es.files[i], rec.Float64Codec{})
		if err != nil {
			return nil, err
		}
		es.writers[i] = w
		for k := int64(0); k < nLow[i]/2; k++ {
			if err := w.Write(lo); err != nil {
				return nil, err
			}
		}
	}
	return es, nil
}

// add routes one parent edge value (ascending order).
func (es *edgeSplitter) add(v float64) error {
	if w := es.writers[childOfPoint(es.bounds, v)]; w != nil {
		return w.Write(v)
	}
	return nil
}

// finish writes the high-bound epilogues, seals the files and returns
// them. On error every file is released.
func (es *edgeSplitter) finish() (_ []*em.File, err error) {
	defer func() {
		if err != nil {
			es.abort()
		}
	}()
	for i, w := range es.writers {
		hi := slabHi(es.slab, es.bounds, i)
		if es.nHigh[i] > 0 && math.IsInf(hi, 0) {
			return nil, fmt.Errorf("core: %d clips at infinite bound %g", es.nHigh[i], hi)
		}
		if w == nil {
			continue
		}
		for k := int64(0); k < es.nHigh[i]/2; k++ {
			if err := w.Write(hi); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return es.files, nil
}

// abort releases the splitter's files (best effort, idempotent).
func (es *edgeSplitter) abort() {
	for _, f := range es.files {
		if f != nil {
			_ = f.Release()
		}
	}
}

// divide is the division step of Algorithm 2 (§5.2.1) for a node whose
// events and edge values are the sorted streams of evm and edm; countX is
// the number of edge values counted twice, i.e. in event units. The edges
// merge is replayed into the bounds picker, the events merge feeds the
// router and is released, and the edges merge is replayed again into the
// edge splitter — unless every child fits in memory, since only a child
// that divides gets an edge file. A child the picker certifies as a base
// case gets a rectangle file instead of an event file. It returns the
// slab bounds, the child nodes and the spanning file R′, and consumes
// both merges on every path; on error every partial output is released
// too.
func (s *task) divide(evm *extsort.Merger[rec.PieceEvent], edm *extsort.Merger[float64], countX int64, slab geom.Interval) (_ []float64, _ []node, _ *em.File, err error) {
	defer func() {
		if err != nil {
			_ = evm.Release()
			_ = edm.Release()
		}
	}()
	bp := newBoundsPicker(s.divisionFanout(), countX, slab)
	if err := edm.MergeInto(func(v float64) error { bp.add(v); return nil }); err != nil {
		return nil, nil, nil, err
	}
	if bp.i != countX {
		return nil, nil, nil, fmt.Errorf("core: edge merge gave %d of %d values", bp.i, countX)
	}
	bounds, values := bp.finish()
	if len(bounds) == 0 {
		// No usable split point: no values at all, or a root slab with no
		// float strictly inside (shard.PlanBounds never makes one). Below
		// the root every piece that spans a child went to R′. Tripwire.
		return nil, nil, nil, fmt.Errorf("%w: no interior boundary in slab %v", ErrNoProgress, slab)
	}
	certified := make([]bool, len(bounds)+1)
	for i, v := range values {
		certified[i] = s.fits(v)
	}

	rt, err := s.newRouter(bounds, slab, certified)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := evm.MergeInto(rt.add); err != nil {
		rt.abort()
		return nil, nil, nil, err
	}
	if err := rt.finish(); err != nil {
		return nil, nil, nil, err
	}
	if err := evm.Release(); err != nil {
		rt.abort()
		return nil, nil, nil, err
	}
	for i, c := range rt.counts {
		if certified[i] && !s.fits(c) {
			// V_c bounds the child's events from above. Tripwire.
			rt.abort()
			return nil, nil, nil, fmt.Errorf("core: certified child %d routed %d events, capacity %d", i, c, s.capacity())
		}
	}

	divides := make([]bool, len(rt.counts))
	for i, c := range rt.counts {
		divides[i] = !s.fits(c)
	}
	es, err := s.newEdgeSplitter(bounds, slab, rt.nLow, rt.nHigh, divides)
	if err != nil {
		rt.abort()
		return nil, nil, nil, err
	}
	if slices.Contains(divides, true) {
		if err := edm.MergeInto(es.add); err != nil {
			rt.abort()
			es.abort()
			return nil, nil, nil, err
		}
	}
	childEdges, err := es.finish()
	if err != nil {
		rt.abort()
		return nil, nil, nil, err
	}
	if err := edm.Release(); err != nil {
		rt.abort()
		es.abort()
		return nil, nil, nil, err
	}
	return bounds, assembleChildren(rt, childEdges, slab), rt.spanning, nil
}

// divideFused is the root division driven straight off the final merge of
// the two root sorts (merge→divide fusion, DESIGN.md §8): both sorts stop
// one level early and divide reads their final-level runs, so the sorted
// root event and edge files are never written or re-read. Replaying the
// edges merge twice re-reads the final merge level, which is never more
// expensive than the write+read+read of the sorted edge file it replaces.
// The root's MergeSweep streams into a best-region tracker (the output
// end of the fusion), so the whole-space slab file is never written or
// re-read. The root divides its root slab. The children, the recursion
// below them, and the result are bit-identical to the materializing
// reference of the core tests.
func (s *task) divideFused(rr *rootRuns) (sweep.Result, error) {
	count, countX := rr.events.Count(), 2*rr.edges.Count()
	evm, edm, err := s.rootMerges(rr)
	if err != nil {
		return sweep.Result{}, err
	}
	bounds, children, spanning, err := s.divide(evm, edm, countX, s.root)
	if err != nil {
		return sweep.Result{}, err
	}
	var best sweep.BestTracker
	err = s.conquer(children, spanning, bounds, s.root, count, 0, func(t rec.Tuple) error {
		best.Add(t)
		return nil
	})
	if err != nil {
		return sweep.Result{}, err
	}
	return best.Result(), nil
}

// rootMerges finishes the root's run builders and reduces their runs to
// the final merge level, consuming both builders on every path.
func (s *task) rootMerges(rr *rootRuns) (_ *extsort.Merger[rec.PieceEvent], _ *extsort.Merger[float64], err error) {
	evRuns, err := rr.events.Finish()
	if err != nil {
		rr.edges.Discard()
		return nil, nil, err
	}
	evm := extsort.NewMerger(s.env, evRuns, rec.PieceEventCodec{}, lessEventY, s.par)
	edRuns, err := rr.edges.Finish()
	if err != nil {
		_ = evm.Release()
		return nil, nil, err
	}
	edm := extsort.NewMerger(s.env, edRuns, rec.Float64Codec{}, lessFloat64, s.par)
	if err := evm.Reduce(); err != nil {
		_ = edm.Release()
		return nil, nil, err
	}
	if err := edm.Reduce(); err != nil {
		_ = evm.Release()
		return nil, nil, err
	}
	return evm, edm, nil
}

// Package core implements ExactMaxRS (§5), the paper's primary
// contribution: the first external-memory algorithm for the MaxRS problem,
// I/O-optimal at O((N/B) log_{M/B}(N/B)) block transfers.
//
// # Structure
//
// The algorithm is the distribution-sweep divide and conquer of Algorithm 2:
//
//  1. Transform every object into its centered d1×d2 rectangle (§5.1).
//  2. Recursively divide the data space into m = Θ(M/B) vertical slabs so
//     that each slab receives roughly the same number of rectangle vertical
//     edges (Lemma 1). Rectangle pieces that span a whole sub-slab are
//     diverted to a per-node spanning file R′ and never recursed on.
//  3. When a sub-problem fits in memory, solve it with the in-memory plane
//     sweep (internal/sweep), emitting a slab file of max-interval tuples.
//  4. MergeSweep (Algorithm 1) zips the m child slab files and the spanning
//     file bottom-to-top into the parent's slab file.
//
// # Representation choices
//
// A recursion node's rectangle set is stored as an *event file*: two
// records per rectangle piece (bottom edge, top edge), each carrying the
// full piece geometry, kept sorted by y. Sorting by y is established once
// at the root and preserved by distribution, which makes every later pass
// — including the spanning files consumed by MergeSweep — a linear scan.
// A child that the division certifies as a base case, which reads only
// bottom events, gets a *rectangle file* instead: its pieces in
// bottom-event order, one record each.
//
// Slab boundaries must split the *vertical edges* evenly (Lemma 1's
// termination argument), and the paper's input is x-sorted for that
// purpose. Because our piece files are y-sorted instead, every node that
// divides also carries an x-sorted *edge-value file* holding the multiset
// of its pieces' vertical-edge x-coordinates, one value per edge, which
// the division counts twice, once per event of the piece; boundary
// quantiles are read off it in one linear pass, and it is split
// (order-preserving, with clipped boundary values inserted at the splice
// points) alongside the events. This keeps the whole recursion free of
// sorts below the root and preserves the optimal I/O bound.
//
// # Pass fusion
//
// The root pipeline is fused at both ends (DESIGN.md §8). At the input
// end, records stream straight into sorted run formation
// (extsort.RunBuilder — no unsorted event/edge files are ever written or
// re-read), and the final merge of each root sort streams straight into
// the division sinks (extsort.Merger.MergeInto — no sorted root files are
// ever written or re-read). At the output end, the root's MergeSweep
// streams its tuples straight into a sweep.BestTracker, so the
// whole-space slab file is never written or re-read either. A root that
// fits in memory creates no run builder at all: it keeps its rectangles
// in one slice and runs the best-only sweep (sweep.SlabBest). Below the
// root, a child that fits in memory is a base case, which never reads
// edge values, so the division gives it no edge file, and a base case
// the division certifies before routing gets a rectangle file in place
// of its event file (see Representation choices). This is the only
// root pipeline: the materializing schedule it replaced (write the
// unsorted files, sort them into new files, re-read those) survives only
// as the reference of the package's fusion-equivalence tests, whose
// results it matches bit for bit.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// maxDepth bounds the recursion. The divide phase shrinks every child
// geometrically, so real inputs stay far below this; it exists to convert
// a logic bug into an error instead of a hang.
const maxDepth = 200

// eventBatch sizes the base case's event read batch — roughly a block's
// worth, so the per-record reader round-trip is amortized without
// materially denting the M budget.
const eventBatch = 128

// ErrNoProgress reports that a recursion step failed to shrink a
// sub-problem — impossible for valid inputs, kept as a tripwire.
var ErrNoProgress = errors.New("core: division made no progress")

// Config tunes ExactMaxRS. The zero value means "paper defaults".
type Config struct {
	// Fanout overrides the number of sub-slabs m per recursion step.
	// 0 selects the paper's m = Θ(M/B) (all memory blocks minus the
	// reader and spanning-writer buffers). Used by ablation benches.
	Fanout int

	// Parallelism bounds the worker goroutines used to solve independent
	// child slabs, form sort runs, and merge independent run groups
	// (DESIGN.md §6). 0 selects GOMAXPROCS; 1 is fully sequential
	// execution. The result and the counted block transfers are identical
	// for every value — the divide-and-conquer sub-problems are
	// independent and the transfer tally is order-free — so this knob
	// trades wall-clock time only.
	Parallelism int
}

// Solver runs ExactMaxRS instances under one EM environment.
//
// A Solver is safe for concurrent use: each Solve* call carries its own
// per-call state (a task below), while the shared worker-slot semaphore
// bounds the *total* extra goroutines across all in-flight solves at
// Parallelism−1. Slot acquisition never blocks — every call's own
// goroutine always makes progress inline — so concurrent solves cannot
// deadlock on the pool, they only share it.
type Solver struct {
	env em.Env
	cfg Config
	par int // resolved Parallelism (≥ 1)

	// sem holds the par−1 extra worker slots of one solver (the calling
	// goroutine is the implicit first worker). Acquisition never blocks:
	// when no slot is free the child is solved inline, which both bounds
	// concurrency and makes recursive fan-out deadlock-free.
	sem chan struct{}
}

// NewSolver validates the environment and returns a Solver.
func NewSolver(env em.Env, cfg Config) (*Solver, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fanout == 1 || cfg.Fanout < 0 {
		return nil, fmt.Errorf("core: fanout %d must be 0 (auto) or ≥ 2", cfg.Fanout)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: parallelism %d must be ≥ 0", cfg.Parallelism)
	}
	par := cfg.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &Solver{env: env, cfg: cfg, par: par, sem: make(chan struct{}, par-1)}, nil
}

// tryAcquire claims a worker slot without blocking.
func (s *Solver) tryAcquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a worker slot claimed by tryAcquire.
func (s *Solver) release() { <-s.sem }

// Env returns the solver's EM environment.
func (s *Solver) Env() em.Env { return s.env }

// task is the per-call state of one Solve* invocation: the shared Solver
// plus an env copy carrying the call's stat scope and cancellation
// context, so concurrent solves on one Solver charge their transfers to —
// and are cancelled by — their own query. The receiver name s is kept so
// the recursion reads the same as before; s.env (the task's scoped env)
// shadows the embedded Solver's unscoped env.
//
// root is the root slab: the center x-range the call answers for. Every
// rectangle is clipped to it on ingestion, so the root node sees exactly
// the rectangles that meet its slab, like every node below it (§5.2).
// An unrestricted solve's root slab is (−∞, +∞); a shard's is its own
// center slab.
type task struct {
	*Solver
	env  em.Env
	ctx  context.Context
	root geom.Interval
}

// wholeLine is the root slab of an unrestricted solve.
var wholeLine = geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}

func (s *Solver) task(ctx context.Context, sc *em.ScopeStats) *task {
	if ctx == nil {
		ctx = context.Background()
	}
	return &task{Solver: s, env: s.env.WithScope(sc).WithContext(ctx), ctx: ctx, root: wholeLine}
}

// fanout returns m for the current configuration.
func (s *Solver) fanout() int {
	if s.cfg.Fanout > 1 {
		return s.cfg.Fanout
	}
	// One block for the input reader, one for the spanning writer, the
	// rest for the m child writers (division) / child readers (merge).
	m := s.env.MemBlocks() - 2
	if m < 2 {
		m = 2
	}
	return m
}

// capacity returns the number of event records that fit in memory — the
// base-case threshold |R| ≤ M of Algorithm 2.
func (s *Solver) capacity() int64 {
	return int64(s.env.M / rec.PieceEventCodec{}.Size())
}

// fits reports whether a sub-problem of count events is a base case.
func (s *Solver) fits(count int64) bool { return count <= s.capacity() }

// node is one sub-problem of the recursion. It holds its pieces in
// exactly one of events and rects.
type node struct {
	events *em.File // piece events, sorted by y (2 per piece); nil for a certified base case
	rects  *em.File // a certified base case's pieces, in bottom-event order; nil otherwise
	edges  *em.File // piece vertical-edge x values, one per edge, sorted ascending; nil for a base case
	slab   geom.Interval
	count  int64 // number of piece events (2 per piece), whichever file holds them
}

// SolveObjects answers MaxRS for the objects in objFile with a w×h query
// rectangle: it transforms objects to rectangles (§5.1) and solves the
// transformed problem. The object file is not modified. Convenience form
// of SolveObjectsScoped with a background context and no stat scope.
func (s *Solver) SolveObjects(objFile *em.File, w, h float64) (sweep.Result, error) {
	return s.SolveObjectsScoped(context.Background(), objFile, w, h, nil)
}

// SolveObjectsScoped is SolveObjects with every block transfer of the call
// — including reads of objFile and all intermediate files — additionally
// charged to sc, enabling per-query I/O accounting under concurrency, and
// the whole solve bound to ctx: once ctx is cancelled, the recursion stops
// within one block-transfer's work (checks sit at every recursion node and
// on every stream), all intermediate files are released, and ctx.Err() is
// returned. A nil ctx never cancels.
func (s *Solver) SolveObjectsScoped(ctx context.Context, objFile *em.File, w, h float64, sc *em.ScopeStats) (sweep.Result, error) {
	return s.SolveObjectsInSlab(ctx, objFile, w, h, wholeLine, sc)
}

// SolveObjectsInSlab is SolveObjectsScoped restricted to the centers whose
// x lies in slab, a shard's own center slab [b_i, b_{i+1}): it returns the
// best region of those centers alone, which lies inside slab. When
// objFile holds every object within w/2 of the slab (a shard's halo), the
// score at every center of slab is the true score, whatever the weights'
// signs, so the best of the shards' answers is the global optimum
// (DESIGN.md §9.3).
func (s *Solver) SolveObjectsInSlab(ctx context.Context, objFile *em.File, w, h float64, slab geom.Interval, sc *em.ScopeStats) (sweep.Result, error) {
	if w <= 0 || h <= 0 {
		return sweep.Result{}, fmt.Errorf("core: query size %gx%g must be positive", w, h)
	}
	if !(slab.Lo < slab.Hi) {
		return sweep.Result{}, fmt.Errorf("core: root slab %v is empty", slab)
	}
	t := s.task(ctx, sc)
	t.root = slab
	rr, err := em.OpenRecordReader(t.env, objFile, rec.ObjectCodec{})
	if err != nil {
		return sweep.Result{}, err
	}
	return t.solveFused(func() (rec.WRect, error) {
		o, err := rr.Read()
		if err != nil {
			return rec.WRect{}, err
		}
		return rec.FromObject(o, w, h), nil
	}, em.RecordCount(objFile, rec.ObjectCodec{}.Size()))
}

// SolveRects answers the transformed MaxRS problem (Definition 5) for an
// arbitrary weighted-rectangle file, e.g. circle MBRs from ApproxMaxCRS.
func (s *Solver) SolveRects(rectFile *em.File) (sweep.Result, error) {
	return s.SolveRectsScoped(context.Background(), rectFile, nil)
}

// SolveRectsScoped is SolveRects with per-call stat scoping and
// cancellation (see SolveObjectsScoped).
func (s *Solver) SolveRectsScoped(ctx context.Context, rectFile *em.File, sc *em.ScopeStats) (sweep.Result, error) {
	t := s.task(ctx, sc)
	rr, err := em.OpenRecordReader(t.env, rectFile, rec.WRectCodec{})
	if err != nil {
		return sweep.Result{}, err
	}
	return t.solveFused(rr.Read, em.RecordCount(rectFile, rec.WRectCodec{}.Size()))
}

// lessEventY orders piece events by sweep y — the root event sort order.
func lessEventY(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }

// lessFloat64 is the root edge-value sort order.
func lessFloat64(a, b float64) bool { return a < b }

// solveFused drains next() and solves the transformed problem on the
// fused root pipeline (DESIGN.md §8); records, the input file's record
// count, bounds how many rectangles next() yields. Each rectangle is
// clipped to the root slab first, and one that misses it is dropped. The
// root keeps its
// non-degenerate rectangles in one slice of at most ⌊capacity/2⌋, the
// most a resident root holds (two events each). A root that stays within
// it is the base case run at the top: it sorts and sweeps the slice for
// its max-region alone and touches no file. The rectangle that would
// overflow the slice makes the root external: its two run builders are
// created, the slice is replayed into them in input order, and every
// later rectangle follows, so run formation sees the same Add sequence as
// builders fed from the first rectangle. From there the root sorts'
// final merges stream into the division (divideFused) and the root's
// tuples into a best-region tracker. Every sink consumes the exact record
// sequence a materialized sort would produce, so results match the
// materializing reference of the fusion-equivalence tests bit for bit at
// every Parallelism.
func (s *task) solveFused(next func() (rec.WRect, error), records int64) (sweep.Result, error) {
	half := int(s.capacity() / 2)
	rects := make([]rec.WRect, 0, min(records, int64(half)))
	var rr *rootRuns
	err := forEachRect(next, s.root, func(r rec.WRect) error {
		if rr == nil {
			if len(rects) < half {
				rects = append(rects, r)
				return nil
			}
			var err error
			if rr, err = s.newRootRuns(); err != nil {
				return err
			}
			for _, q := range rects {
				if err := rr.add(q); err != nil {
					return err
				}
			}
			rects = nil
		}
		return rr.add(r)
	})
	if err != nil {
		if rr != nil {
			rr.discard()
		}
		return sweep.Result{}, err
	}
	if rr != nil {
		return s.divideFused(rr)
	}
	// A stable sort by Y1 is the order of the bottom events in a sorted
	// root run, so the sweep adds up the rectangles exactly as before.
	extsort.SortStable(rects, func(a, b rec.WRect) bool { return a.Y1 < b.Y1 })
	res := sweep.SlabBest(rects, s.root)
	// With no rectangle in the slab, every center of it scores 0.
	res.Region.X = res.Region.X.Intersect(s.root)
	return res, nil
}

// rootRuns is the run formation of an external root: two piece events and
// two edge values per non-degenerate rectangle.
type rootRuns struct {
	events *extsort.RunBuilder[rec.PieceEvent]
	edges  *extsort.RunBuilder[float64]
}

func (s *task) newRootRuns() (*rootRuns, error) {
	evb, err := extsort.NewRunBuilder(s.env, rec.PieceEventCodec{}, lessEventY, s.par)
	if err != nil {
		return nil, err
	}
	edb, err := extsort.NewRunBuilder(s.env, rec.Float64Codec{}, lessFloat64, s.par)
	if err != nil {
		evb.Discard()
		return nil, err
	}
	return &rootRuns{events: evb, edges: edb}, nil
}

// add feeds one rectangle to both builders.
func (rr *rootRuns) add(r rec.WRect) error {
	bottom, top := rec.PieceEventsOf(r)
	if err := rr.events.Add(bottom); err != nil {
		return err
	}
	if err := rr.events.Add(top); err != nil {
		return err
	}
	// One value per vertical edge, as in every edge file; the division
	// counts each value twice, once per event of the piece.
	if err := rr.edges.Add(r.X1); err != nil {
		return err
	}
	return rr.edges.Add(r.X2)
}

// discard releases both builders' runs (the error path).
func (rr *rootRuns) discard() {
	rr.events.Discard()
	rr.edges.Discard()
}

// forEachRect drains next() until io.EOF, clipping every rectangle's
// x-range to slab and passing the non-degenerate ones to emit.
func forEachRect(next func() (rec.WRect, error), slab geom.Interval, emit func(rec.WRect) error) error {
	for {
		r, err := next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		r.X1, r.X2 = max(r.X1, slab.Lo), min(r.X2, slab.Hi)
		if r.X1 >= r.X2 || r.Y1 >= r.Y2 {
			continue // degenerate, or outside the slab: covers nothing
		}
		if err := emit(r); err != nil {
			return err
		}
	}
}

// release frees the node's input files (best effort, for error paths).
func (n node) release() {
	for _, f := range []*em.File{n.events, n.rects, n.edges} {
		if f != nil {
			_ = f.Release()
		}
	}
}

// solve is Algorithm 2: the base case, or divide, conquer and MergeSweep
// into the node's slab file. A node's sorted files are one-run merges, so
// divide reads them exactly as it reads the root sorts' final merge level.
// The node's input files are consumed on every path — success or error —
// as are all intermediates, so a failed solve leaves no blocks allocated.
// A base case draws its memory from scratch, the free list of the conquer
// that spawned the node.
func (s *task) solve(n node, depth int, scratch *scratchList) (_ *em.File, err error) {
	if depth > maxDepth {
		n.release()
		return nil, fmt.Errorf("%w: depth %d exceeded", ErrNoProgress, depth)
	}
	// One cancellation check per recursion node, on top of the per-block
	// checks inside every stream: a cancelled query unwinds here with its
	// input files released, and conquer's error path frees the rest.
	if err := s.ctx.Err(); err != nil {
		n.release()
		return nil, err
	}
	if s.fits(n.count) {
		return s.baseCase(n, scratch)
	}
	out := s.env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	tw, err := em.NewRecordWriter(out, rec.TupleCodec{})
	if err != nil {
		n.release()
		return nil, err
	}
	evm := extsort.NewMerger(s.env, []*em.File{n.events}, rec.PieceEventCodec{}, lessEventY, s.par)
	edm := extsort.NewMerger(s.env, []*em.File{n.edges}, rec.Float64Codec{}, lessFloat64, s.par)
	countX := 2 * em.RecordCount(n.edges, rec.Float64Codec{}.Size())
	bounds, children, spanning, err := s.divide(evm, edm, countX, n.slab)
	if err != nil {
		return nil, err
	}
	if err := s.conquer(children, spanning, bounds, n.slab, n.count, depth, tw.Write); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// conquer solves the child nodes — in parallel where pool slots allow —
// and MergeSweeps their slab files with the spanning file, passing each
// of the parent's tuples to emit. It consumes the children's input files
// and the spanning file on every path; parentCount drives the progress
// tripwire. Both the recursive divide (solve, whose emit writes the
// node's slab file) and the fused root (divideFused, whose emit keeps the
// best region) end here.
func (s *task) conquer(children []node, spanning *em.File, bounds []float64, slab geom.Interval, parentCount int64, depth int, emit func(rec.Tuple) error) error {
	releaseChildren := func() {
		for _, c := range children {
			c.release()
		}
		_ = spanning.Release()
	}
	// The progress tripwire runs for every child before any is solved:
	// returning mid-spawn would orphan goroutines still using the disk.
	for i, c := range children {
		if c.count >= parentCount {
			releaseChildren()
			return fmt.Errorf("%w: child %d kept all %d events", ErrNoProgress, i, parentCount)
		}
	}
	slabFiles, childErrs := s.solveChildren(children, depth)
	releaseSlabs := func() {
		for _, sf := range slabFiles {
			if sf != nil {
				_ = sf.Release()
			}
		}
		_ = spanning.Release()
	}
	for _, err := range childErrs {
		if err != nil {
			// Each failed child consumed its own inputs; free the slab files
			// of the children that succeeded.
			releaseSlabs()
			return err
		}
	}
	if err := s.mergeSweep(slabFiles, spanning, bounds, slab, emit); err != nil {
		releaseSlabs()
		return err
	}
	for _, sf := range slabFiles {
		if err := sf.Release(); err != nil {
			releaseSlabs()
			return err
		}
	}
	return spanning.Release()
}

// solveChildren solves the children of one node and returns their slab
// files and errors by child index. Child slabs are fully independent
// sub-problems (they share only the concurrency-safe Disk), so they run on
// the solver's worker pool. A free slot spawns a goroutine; otherwise the
// child is solved inline — Parallelism=1 reproduces the sequential
// schedule exactly. Children that are base cases share one scratch list,
// which holds at most one scratch per child running at once and dies when
// this returns, before the parent's merge.
func (s *task) solveChildren(children []node, depth int) ([]*em.File, []error) {
	slabFiles := make([]*em.File, len(children))
	childErrs := make([]error, len(children))
	scratch := new(scratchList)
	var wg sync.WaitGroup
	for i, c := range children {
		if s.tryAcquire() {
			wg.Add(1)
			go func(i int, c node) {
				defer wg.Done()
				defer s.release()
				slabFiles[i], childErrs[i] = s.solve(c, depth+1, scratch)
			}(i, c)
		} else {
			slabFiles[i], childErrs[i] = s.solve(c, depth+1, scratch)
		}
	}
	wg.Wait()
	return slabFiles, childErrs
}

// baseScratch is the memory of one base case: the rectangle array, the
// read batch and the sweep's buffers. Sibling base cases reuse it in turn.
type baseScratch struct {
	rects []rec.WRect
	batch []rec.PieceEvent
	sw    sweep.Sweeper
}

// scratchList is one conquer's free list of base-case scratch. A base case
// takes a scratch and puts it back when its slab file is written, so the
// list never holds more scratches than the conquer has children running
// at once (≤ p), and all of them are garbage once the conquer's children
// finish.
type scratchList struct {
	mu   sync.Mutex
	free []*baseScratch
}

func (l *scratchList) get() *baseScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free); k > 0 {
		b := l.free[k-1]
		l.free = l.free[:k-1]
		return b
	}
	return &baseScratch{batch: make([]rec.PieceEvent, eventBatch)}
}

func (l *scratchList) put(b *baseScratch) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// baseCase loads a memory-sized node and runs the in-memory plane sweep
// (Algorithm 2 line 9), writing the node's slab file. Its rectangles,
// read batch and sweep buffers come from scratch and go back to it once
// the slab file is written. A certified node's rectangle file is read
// straight into the rectangle array; an event file yields the rectangles
// of its bottom events, in the same order. A base case has no edge file:
// divide gives none to a child that fits. The node's input file is
// consumed on every path; on error the partial output is released too.
func (s *task) baseCase(n node, scratch *scratchList) (_ *em.File, err error) {
	defer func() {
		if err != nil {
			n.release()
		}
	}()
	b := scratch.get()
	defer scratch.put(b)
	need := int(n.count / 2)
	if cap(b.rects) < need {
		b.rects = make([]rec.WRect, 0, need)
	}
	in, rects := n.events, b.rects[:0]
	if n.rects != nil {
		in = n.rects
		rects, err = readRects(n.rects, b.rects[:need])
	} else {
		rects, err = readBottomRects(n.events, rects, b.batch)
	}
	if err != nil {
		return nil, err
	}
	out, err := s.writeSlab(b.sw.Slab(rects, n.slab))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	if err := in.Release(); err != nil {
		return nil, err
	}
	return out, nil
}

// readRects reads the first len(rects) records of a rectangle file, a
// certified node's count/2, straight into rects.
func readRects(f *em.File, rects []rec.WRect) ([]rec.WRect, error) {
	rr, err := em.NewRecordReader(f, rec.WRectCodec{})
	if err != nil {
		return nil, err
	}
	k, err := rr.ReadBatch(rects)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return rects[:k], nil
}

// readBottomRects appends the rectangles of an event file's bottom events
// to rects, reading through batch.
func readBottomRects(f *em.File, rects []rec.WRect, batch []rec.PieceEvent) ([]rec.WRect, error) {
	rr, err := em.NewRecordReader(f, rec.PieceEventCodec{})
	if err != nil {
		return nil, err
	}
	for {
		k, err := rr.ReadBatch(batch)
		for _, e := range batch[:k] {
			if e.Top {
				continue // the bottom event carries the full geometry
			}
			rects = append(rects, e.R)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return rects, nil
			}
			return nil, err
		}
	}
}

// writeSlab materializes one node's slab file from its sweep tuples,
// releasing the partial output on error.
func (s *task) writeSlab(tuples []rec.Tuple) (_ *em.File, err error) {
	out := s.env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	tw, err := em.NewRecordWriter(out, rec.TupleCodec{})
	if err != nil {
		return nil, err
	}
	if err := tw.WriteBatch(tuples); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

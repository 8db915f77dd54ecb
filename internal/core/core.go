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
//
// Slab boundaries must split the *vertical edges* evenly (Lemma 1's
// termination argument), and the paper's input is x-sorted for that
// purpose. Because our piece files are y-sorted instead, every node also
// carries an x-sorted *edge-value file* holding the multiset of its
// pieces' vertical-edge x-coordinates; boundary quantiles are read off it
// in one linear pass, and it is split (order-preserving, with clipped
// boundary values inserted at the splice points) alongside the events.
// This keeps the whole recursion free of sorts below the root and
// preserves the optimal I/O bound.
//
// # Pass fusion
//
// By default the two ends of the root pipeline are fused (DESIGN.md §8):
// input records stream straight into sorted run formation
// (extsort.RunBuilder — no unsorted event/edge files are ever written or
// re-read), and the final merge of each root sort streams straight into
// the division sinks (extsort.Merger.MergeInto — no sorted root files are
// ever written or re-read). Config.Unfused restores the materializing
// pipeline; results are bit-identical either way, only the transfer count
// differs, and everything below the root is shared by both paths.
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

// eventBatch and edgeBatch size the record batches of streaming read loops
// — roughly a block's worth, so the per-record reader round-trip is
// amortized without materially denting the M budget.
const (
	eventBatch = 128
	edgeBatch  = 512
)

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

	// Unfused disables the root pass fusion (DESIGN.md §8): the input is
	// materialized as unsorted event/edge files, externally sorted into
	// new files, and those are re-read for the root division — the
	// pre-fusion pipeline, kept for ablation and the fusion-equivalence
	// tests. Results are bit-identical either way; only the block-transfer
	// count changes (the fused default saves four full passes over the
	// event stream and at least two over the edge stream at the root).
	Unfused bool
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
type task struct {
	*Solver
	env em.Env
	ctx context.Context
}

func (s *Solver) task(ctx context.Context, sc *em.ScopeStats) *task {
	if ctx == nil {
		ctx = context.Background()
	}
	return &task{Solver: s, env: s.env.WithScope(sc).WithContext(ctx), ctx: ctx}
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

// node is one sub-problem of the recursion.
type node struct {
	events *em.File // piece events, sorted by y (2 per piece)
	edges  *em.File // piece vertical-edge x values, sorted ascending
	slab   geom.Interval
	count  int64 // number of event records
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
	if w <= 0 || h <= 0 {
		return sweep.Result{}, fmt.Errorf("core: query size %gx%g must be positive", w, h)
	}
	t := s.task(ctx, sc)
	rr, err := em.OpenRecordReader(t.env, objFile, rec.ObjectCodec{})
	if err != nil {
		return sweep.Result{}, err
	}
	return t.run(func() (rec.WRect, error) {
		o, err := rr.Read()
		if err != nil {
			return rec.WRect{}, err
		}
		return rec.FromObject(o, w, h), nil
	})
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
	return t.run(rr.Read)
}

// lessEventY orders piece events by sweep y — the root event sort order.
func lessEventY(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }

// lessFloat64 is the root edge-value sort order.
func lessFloat64(a, b float64) bool { return a < b }

// run drains next() and solves the transformed problem on the configured
// pipeline: fused by default, materializing when Config.Unfused.
func (s *task) run(next func() (rec.WRect, error)) (sweep.Result, error) {
	if s.cfg.Unfused {
		events, edges, n, err := s.buildInput(next)
		if err != nil {
			return sweep.Result{}, err
		}
		return s.solveTransformed(events, edges, n)
	}
	return s.solveFused(next)
}

// resultOfSlabFile extracts the answer from the whole-space slab file and
// releases it on every path.
func resultOfSlabFile(slabFile *em.File) (sweep.Result, error) {
	defer slabFile.Release()
	res, err := BestOfSlabFile(slabFile)
	if err != nil {
		return sweep.Result{}, err
	}
	if err := slabFile.Release(); err != nil {
		return sweep.Result{}, err
	}
	return res, nil
}

func (s *task) solveTransformed(events, edges *em.File, count int64) (sweep.Result, error) {
	slabFile, err := s.slabFileOf(events, edges, count)
	if err != nil {
		return sweep.Result{}, err
	}
	return resultOfSlabFile(slabFile)
}

// solveFused is the fused pipeline (DESIGN.md §8): records stream from
// next() straight into sorted run formation — the unsorted event and edge
// files of buildInput are never written or re-read — and, when the input
// exceeds memory, the root sorts' final merges stream straight into the
// division (divideFused), so the sorted root files are never materialized
// either. Everything below the root is the shared recursion, and every
// sink consumes the exact record sequence the unfused path reads from its
// files, so results are bit-identical to Config.Unfused at every
// Parallelism.
func (s *task) solveFused(next func() (rec.WRect, error)) (_ sweep.Result, err error) {
	evb, err := extsort.NewRunBuilder(s.env, rec.PieceEventCodec{}, lessEventY, s.par)
	if err != nil {
		return sweep.Result{}, err
	}
	edb, err := extsort.NewRunBuilder(s.env, rec.Float64Codec{}, lessFloat64, s.par)
	if err != nil {
		evb.Discard()
		return sweep.Result{}, err
	}
	defer func() {
		if err != nil {
			evb.Discard()
			edb.Discard()
		}
	}()
	err = forEachRect(next, func(r rec.WRect) error {
		bottom, top := rec.PieceEventsOf(r)
		if err := evb.Add(bottom); err != nil {
			return err
		}
		if err := evb.Add(top); err != nil {
			return err
		}
		// Two copies of each vertical edge — one per event record — so the
		// edge-file invariant (two values per piece edge) is uniform across
		// recursion levels.
		for i := 0; i < 2; i++ {
			if err := edb.Add(r.X1); err != nil {
				return err
			}
			if err := edb.Add(r.X2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return sweep.Result{}, err
	}
	var slabFile *em.File
	if evb.Count() <= s.capacity() {
		slabFile, err = s.baseCaseResident(evb, edb)
	} else {
		slabFile, err = s.divideFused(evb, edb)
	}
	if err != nil {
		return sweep.Result{}, err
	}
	return resultOfSlabFile(slabFile)
}

// baseCaseResident handles a root problem that fits in memory. The event
// run buffer cannot have spilled (capacity equals the events-per-run
// bound, and the edge buffer is strictly smaller than its own), so the
// resident events are swept without any event, edge, or sorted file ever
// touching the disk. Only the bottom events are kept: they are compacted
// to the front of the buffer, in order, and stable-sorted by Y1 with the
// back half (the tops' old slots) as the sort's scratch. A stable sort
// keeps the bottoms' relative order whether the tops are dropped before or
// after it, so the sweep sees the rectangles in exactly the order of the
// run the unfused path would spill and sort, at half the sort length.
func (s *task) baseCaseResident(evb *extsort.RunBuilder[rec.PieceEvent], edb *extsort.RunBuilder[float64]) (*em.File, error) {
	events, err := evb.Take()
	if err != nil {
		return nil, err
	}
	edb.Discard()
	n := 0
	for _, e := range events {
		if !e.Top { // the bottom event carries the full geometry
			events[n] = e
			n++
		}
	}
	extsort.SortStableScratch(events[:n], events[n:], func(a, b rec.PieceEvent) bool { return a.R.Y1 < b.R.Y1 })
	rects := make([]rec.WRect, n)
	for i, e := range events[:n] {
		rects[i] = e.R
	}
	slab := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	return s.writeSlab(sweep.Slab(rects, slab))
}

// slabFileOf sorts the freshly built input files and runs the recursion,
// returning the final whole-space slab file. Input files are consumed on
// every path, including errors.
func (s *task) slabFileOf(events, edges *em.File, count int64) (*em.File, error) {
	defer events.Release()
	defer edges.Release()
	sortedEvents, err := extsort.SortP(s.env, events, rec.PieceEventCodec{},
		func(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }, s.par)
	if err != nil {
		return nil, err
	}
	if err := events.Release(); err != nil {
		_ = sortedEvents.Release()
		return nil, err
	}
	sortedEdges, err := extsort.SortP(s.env, edges, rec.Float64Codec{},
		func(a, b float64) bool { return a < b }, s.par)
	if err != nil {
		_ = sortedEvents.Release()
		return nil, err
	}
	if err := edges.Release(); err != nil {
		_ = sortedEvents.Release()
		_ = sortedEdges.Release()
		return nil, err
	}
	root := node{
		events: sortedEvents,
		edges:  sortedEdges,
		slab:   geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
		count:  count,
	}
	return s.solve(root, 0)
}

// forEachRect drains next() until io.EOF, passing every non-degenerate
// rectangle to emit — the input iteration shared by both pipelines.
func forEachRect(next func() (rec.WRect, error), emit func(rec.WRect) error) error {
	for {
		r, err := next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if r.X1 >= r.X2 || r.Y1 >= r.Y2 {
			continue // degenerate rectangle covers nothing
		}
		if err := emit(r); err != nil {
			return err
		}
	}
}

// buildInput drains next() until io.EOF, writing two events and four edge
// values per rectangle (unsorted) — the materializing front end of the
// Config.Unfused pipeline. On error the partial outputs are released.
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
	err = forEachRect(next, func(r rec.WRect) error {
		bottom, top := rec.PieceEventsOf(r)
		if err := ew.Write(bottom); err != nil {
			return err
		}
		if err := ew.Write(top); err != nil {
			return err
		}
		// Two copies of each vertical edge — one per event record — so the
		// edge-file invariant (two values per piece edge) is uniform across
		// recursion levels.
		for i := 0; i < 2; i++ {
			if err := xw.Write(r.X1); err != nil {
				return err
			}
			if err := xw.Write(r.X2); err != nil {
				return err
			}
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

// release frees the node's input files (best effort, for error paths).
func (n node) release() {
	_ = n.events.Release()
	_ = n.edges.Release()
}

// solve is Algorithm 2: recursive divide, conquer, MergeSweep. The node's
// input files are consumed on every path — success or error — as are all
// intermediates, so a failed solve leaves no blocks allocated.
func (s *task) solve(n node, depth int) (*em.File, error) {
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
	if n.count <= s.capacity() {
		return s.baseCase(n)
	}
	bounds, err := s.chooseBounds(n)
	if err != nil {
		n.release()
		return nil, err
	}
	if len(bounds) == 0 {
		// No usable split point: every edge value sits on the slab border,
		// which would mean every piece spans the slab — impossible because
		// such pieces are diverted to R′ by the parent. Tripwire.
		n.release()
		return nil, fmt.Errorf("%w: no interior boundary in slab %v", ErrNoProgress, n.slab)
	}
	children, spanning, err := s.route(n, bounds)
	if err != nil {
		n.release()
		return nil, err
	}
	releaseChildren := func() {
		for _, c := range children {
			c.release()
		}
		_ = spanning.Release()
	}
	if err := n.events.Release(); err != nil {
		releaseChildren()
		_ = n.edges.Release()
		return nil, err
	}
	if err := n.edges.Release(); err != nil {
		releaseChildren()
		return nil, err
	}
	return s.conquer(children, spanning, bounds, n.slab, n.count, depth)
}

// conquer solves the child nodes — in parallel where pool slots allow —
// and MergeSweeps their slab files with the spanning file into the
// parent's slab file. It consumes the children's input files and the
// spanning file on every path; parentCount drives the progress tripwire.
// Both the recursive divide (solve) and the fused root (divideFused) end
// here.
func (s *task) conquer(children []node, spanning *em.File, bounds []float64, slab geom.Interval, parentCount int64, depth int) (*em.File, error) {
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
			return nil, fmt.Errorf("%w: child %d kept all %d events", ErrNoProgress, i, parentCount)
		}
	}
	// Child slabs are fully independent sub-problems (they share only the
	// concurrency-safe Disk), so they run on the solver's worker pool. A
	// free slot spawns a goroutine; otherwise the child is solved inline —
	// Parallelism=1 reproduces the sequential schedule exactly.
	slabFiles := make([]*em.File, len(children))
	childErrs := make([]error, len(children))
	var wg sync.WaitGroup
	for i, c := range children {
		if s.tryAcquire() {
			wg.Add(1)
			go func(i int, c node) {
				defer wg.Done()
				defer s.release()
				slabFiles[i], childErrs[i] = s.solve(c, depth+1)
			}(i, c)
		} else {
			slabFiles[i], childErrs[i] = s.solve(c, depth+1)
		}
	}
	wg.Wait()
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
			return nil, err
		}
	}
	out, err := s.mergeSweep(slabFiles, spanning, bounds, slab)
	if err != nil {
		releaseSlabs()
		return nil, err
	}
	for _, sf := range slabFiles {
		if err := sf.Release(); err != nil {
			releaseSlabs()
			_ = out.Release()
			return nil, err
		}
	}
	if err := spanning.Release(); err != nil {
		_ = out.Release()
		return nil, err
	}
	return out, nil
}

// baseCase loads a memory-sized node and runs the in-memory plane sweep
// (Algorithm 2 line 9), writing the node's slab file. The node's input
// files are consumed on every path; on error the partial output is
// released too.
func (s *task) baseCase(n node) (_ *em.File, err error) {
	defer func() {
		if err != nil {
			n.release()
		}
	}()
	rr, err := em.NewRecordReader(n.events, rec.PieceEventCodec{})
	if err != nil {
		return nil, err
	}
	rects := make([]rec.WRect, 0, n.count/2)
	batch := make([]rec.PieceEvent, eventBatch)
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
				break
			}
			return nil, err
		}
	}
	out, err := s.writeSlab(sweep.Slab(rects, n.slab))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	if err := n.events.Release(); err != nil {
		return nil, err
	}
	if err := n.edges.Release(); err != nil {
		return nil, err
	}
	return out, nil
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

// BestOfSlabFile streams a whole-space slab file and returns the
// max-region: the strip of the best tuple, extended up to the next tuple's
// h-line (§5.2.4, "we can find the max-region by comparing sum values of
// tuples trivially").
func BestOfSlabFile(slabFile *em.File) (sweep.Result, error) {
	rr, err := em.NewRecordReader(slabFile, rec.TupleCodec{})
	if err != nil {
		return sweep.Result{}, err
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
			return sweep.Result{}, err
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
	return best, nil
}

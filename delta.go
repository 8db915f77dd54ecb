package maxrs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/plan"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// This file implements mutable datasets with delta maintenance
// (DESIGN.md §14): Dataset.Insert/Delete buffer mutations in a bounded
// in-memory delta, queries fold the delta in exactly — combining the
// cached base solution with an exact in-memory solve of the delta's
// influence regions when a soundness gate holds, re-solving the fused
// effective set otherwise — and the delta compacts into a fresh base
// generation once it passes Options.DeltaCompactAt. The contract is
// exactness: every query on a mutated dataset answers bit-identically to
// a reload-from-scratch of the effective object set.

// ErrUnknownID is wrapped by Dataset.Delete for IDs that name no live
// object — never assigned, already deleted, or deleted earlier in the
// same call. Delete is all-or-nothing: when any ID fails, no deletion
// applies.
var ErrUnknownID = errors.New("maxrs: unknown object id")

// deltaPath values reported in Plan.Delta.Path.
const (
	// deltaPathCombined answered from the cached base solution: every
	// influence rectangle was disjoint from the incumbent strip and the
	// exact delta-neighborhood sweep bounded the effective score inside
	// the influence regions strictly below the incumbent.
	deltaPathCombined = "combined"
	// deltaPathFused re-solved the materialized effective set.
	deltaPathFused = "fused"
)

// solCacheCap bounds the per-dataset base-solution cache (solKey →
// sweep.Result, ~100 bytes each).
const solCacheCap = 64

// maxDeltaSweepRects bounds the total clipped-rect count of the
// influence-bound sweep; denser update neighborhoods skip the bound and
// re-solve fused.
const maxDeltaSweepRects = 1 << 20

// deltaSnap is one query's immutable view of the pending delta, taken
// under Dataset.mu at begin time. The maps are copy-on-write (Delete
// replaces them wholesale) and the insert slice is append-only until
// compaction, so a snapshot stays valid however the dataset mutates or
// compacts while the query runs. baseIDs/baseN ride along because a
// concurrent compaction swaps the dataset's own copies.
type deltaSnap struct {
	inserts []pendingInsert       // buffered inserts, ascending ID
	delBase map[uint64]rec.Object // deleted base records by ID
	delIns  map[uint64]struct{}   // deleted pending-insert IDs
	baseIDs []uint64              // base index → ID (nil = identity)
	baseN   int
	seq     uint64
	gen     uint64
}

// pending counts the buffered delta entries — what DeltaCompactAt
// bounds.
func (s *deltaSnap) pending() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.inserts) + len(s.delBase))
}

// liveInserts counts buffered inserts not deleted again.
func (s *deltaSnap) liveInserts() int {
	return len(s.inserts) - len(s.delIns)
}

// changedObjects returns the delta's changed points — live inserts and
// deleted base records — whose w×h neighborhoods are the only places a
// query's answer can differ from the base's.
func (s *deltaSnap) changedObjects() []rec.Object {
	out := make([]rec.Object, 0, len(s.inserts)+len(s.delBase))
	for _, p := range s.inserts {
		if _, dead := s.delIns[p.id]; dead {
			continue
		}
		out = append(out, p.obj)
	}
	for _, o := range s.delBase {
		out = append(out, o)
	}
	return out
}

// snapLocked snapshots the pending delta (nil when clean). Caller holds
// d.mu.
func (d *Dataset) snapLocked() *deltaSnap {
	if len(d.inserts) == 0 && len(d.delBase) == 0 {
		return nil
	}
	return &deltaSnap{
		inserts: d.inserts[:len(d.inserts):len(d.inserts)],
		delBase: d.delBase,
		delIns:  d.delIns,
		baseIDs: d.baseIDs,
		baseN:   d.n,
		seq:     d.seq,
		gen:     d.gen,
	}
}

// effStatsLocked merges the base statistics with the pending delta into
// the effective statistics queries plan with. Inserts fold in exactly;
// deletes decrement the count and weight sum but never shrink the extent
// or weight range (recomputing those would need a full scan). Caller
// holds d.mu.
func (d *Dataset) effStatsLocked(snap *deltaSnap) plan.Stats {
	st := d.stats
	if snap == nil {
		return st
	}
	for _, p := range snap.inserts {
		if _, dead := snap.delIns[p.id]; dead {
			continue
		}
		st.N++
		st.MinX = math.Min(st.MinX, p.obj.X)
		st.MaxX = math.Max(st.MaxX, p.obj.X)
		st.MinY = math.Min(st.MinY, p.obj.Y)
		st.MaxY = math.Max(st.MaxY, p.obj.Y)
		st.MinW = math.Min(st.MinW, p.obj.W)
		st.MaxW = math.Max(st.MaxW, p.obj.W)
		st.SumW += p.obj.W
	}
	for _, o := range snap.delBase {
		st.N--
		st.SumW -= o.W
	}
	st.Bytes = st.N * int64(rec.ObjectCodec{}.Size())
	st.Blocks = ceilBlocks(st.Bytes, int64(d.eng.opts.BlockSize))
	st.Resident = st.Bytes <= int64(d.eng.opts.Memory)
	return st
}

func ceilBlocks(n, b int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + b - 1) / b
}

// Pending returns the number of buffered delta entries — what
// Options.DeltaCompactAt bounds.
func (d *Dataset) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.inserts) + len(d.delBase)
}

// Mutations returns the dataset's mutation sequence number: it advances
// by one per successful Insert/Delete call and never goes backwards
// (compaction changes the base generation, not the sequence). Cache
// layers key result freshness on it.
func (d *Dataset) Mutations() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Compactions returns how many times the delta has been compacted into a
// fresh base generation.
func (d *Dataset) Compactions() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ncomp
}

// baseIDAt maps a base record index to its object ID under the
// dataset's (or a snapshot's) index→ID table.
func baseIDAt(ids []uint64, i int) uint64 {
	if ids == nil {
		return uint64(i)
	}
	return ids[i]
}

// baseIndexOf finds the base record index of id, if id names a base
// record. ids is sorted ascending (compaction preserves ID order), so
// membership is a binary search.
func baseIndexOf(ids []uint64, n int, id uint64) (int, bool) {
	if ids == nil {
		if id < uint64(n) {
			return int(id), true
		}
		return 0, false
	}
	j := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if j < len(ids) && ids[j] == id {
		return j, true
	}
	return 0, false
}

// Insert buffers objs into the dataset's delta and returns their
// assigned object IDs (for Delete). The IDs of a fresh dataset's loaded
// records are their load positions 0..Len()-1; inserts continue the
// sequence. Queries begun after Insert returns fold the new objects in
// exactly — bit-identical to a reload of the mutated set.
//
// When the buffered delta would pass Options.DeltaCompactAt, Insert
// first compacts the existing delta into a fresh base generation and
// only then buffers objs, so cancelling ctx mid-compaction applies
// nothing: the mutation either happens entirely or not at all, and a
// cancelled call leaves Engine.BlocksInUse exactly where it was.
// Concurrent queries are never blocked — they keep the base generation
// and delta snapshot they started with.
func (d *Dataset) Insert(ctx context.Context, objs []Object) ([]uint64, error) {
	if len(objs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for _, o := range objs {
		if err := checkObject(o.X, o.Y, o.Weight); err != nil {
			return nil, fmt.Errorf("maxrs: object %+v: %w", o, err)
		}
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	if err := d.compactIfNeeded(ctx, len(objs)); err != nil {
		return nil, err
	}
	// The append itself is memory-only and atomic under mu: nothing
	// below can fail or block on I/O.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return nil, ErrDatasetReleased
	}
	ids := make([]uint64, len(objs))
	for i, o := range objs {
		id := d.nextID
		d.nextID++
		ids[i] = id
		d.insIdx[id] = len(d.inserts)
		d.inserts = append(d.inserts, pendingInsert{id: id, obj: rec.Object{X: o.X, Y: o.Y, W: o.Weight}})
	}
	d.seq++
	return ids, nil
}

// Delete removes the objects named by ids and returns them in request
// order. All IDs are validated first — an unknown or already-deleted ID
// (or one repeated within the call) fails with ErrUnknownID and nothing
// is deleted. Deleting a base record costs one cancellable scan of the
// base file (to recover its coordinates — the influence region that
// cache invalidation and the combined query path need); deleting a
// buffered insert is memory-only. Queries begun after Delete returns are
// bit-identical to a reload without the deleted objects.
//
// Like Insert, when the buffered delta would pass Options.DeltaCompactAt,
// Delete first compacts the existing delta into a fresh base generation,
// so cancelling ctx mid-compaction deletes nothing and leaves
// Engine.BlocksInUse exactly where it was.
func (d *Dataset) Delete(ctx context.Context, ids []uint64) (_ []Object, err error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	// Compacting first keeps the delta within the threshold. Object IDs
	// survive compaction, so the IDs validate against the new base.
	if err := d.compactIfNeeded(ctx, len(ids)); err != nil {
		return nil, err
	}
	d.mu.Lock()
	released := d.released
	base := d.base
	baseIDs := d.baseIDs
	n := d.n
	if !released {
		base.acquire()
	}
	d.mu.Unlock()
	if released {
		return nil, ErrDatasetReleased
	}
	defer func() {
		if rerr := base.release(); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}()

	// Validate every ID before touching anything. mutMu excludes other
	// mutators, so insIdx/delBase/delIns are stable here.
	removed := make([]Object, len(ids))
	seen := make(map[uint64]struct{}, len(ids))
	var (
		insDel   []uint64    // pending-insert IDs to mark deleted
		baseWant map[int]int // base record index → position in ids
	)
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("%w: id %d repeated in one call", ErrUnknownID, id)
		}
		seen[id] = struct{}{}
		if _, dead := d.delIns[id]; dead {
			return nil, fmt.Errorf("%w: id %d already deleted", ErrUnknownID, id)
		}
		if _, dead := d.delBase[id]; dead {
			return nil, fmt.Errorf("%w: id %d already deleted", ErrUnknownID, id)
		}
		if idx, ok := d.insIdx[id]; ok {
			o := d.inserts[idx].obj
			removed[i] = Object{X: o.X, Y: o.Y, Weight: o.W}
			insDel = append(insDel, id)
			continue
		}
		bi, ok := baseIndexOf(baseIDs, n, id)
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownID, id)
		}
		if baseWant == nil {
			baseWant = make(map[int]int)
		}
		baseWant[bi] = i
	}

	// Recover the coordinates of deleted base records with one scan,
	// cancellable at block granularity and stopped as soon as the last
	// wanted record is seen.
	baseDel := make(map[uint64]rec.Object, len(baseWant))
	if len(baseWant) > 0 {
		rr, rerr := em.OpenRecordReader(d.eng.env.WithContext(ctx), base.f, rec.ObjectCodec{})
		if rerr != nil {
			return nil, rerr
		}
		idx, found := 0, 0
		for found < len(baseWant) {
			o, rerr := rr.Read()
			if rerr != nil {
				if errors.Is(rerr, io.EOF) {
					break
				}
				return nil, wrapCancel(rerr)
			}
			if pos, want := baseWant[idx]; want {
				removed[pos] = Object{X: o.X, Y: o.Y, Weight: o.W}
				baseDel[baseIDAt(baseIDs, idx)] = o
				found++
			}
			idx++
		}
		if found < len(baseWant) {
			// Unreachable: membership was validated against the same base.
			return nil, fmt.Errorf("maxrs: base scan found %d of %d records", found, len(baseWant))
		}
	}

	// Apply all-or-nothing: replace the copy-on-write maps under mu so
	// in-flight snapshots keep the state they began with.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return nil, ErrDatasetReleased
	}
	if len(baseDel) > 0 {
		nb := make(map[uint64]rec.Object, len(d.delBase)+len(baseDel))
		for k, v := range d.delBase {
			nb[k] = v
		}
		for k, v := range baseDel {
			nb[k] = v
		}
		d.delBase = nb
	}
	if len(insDel) > 0 {
		ni := make(map[uint64]struct{}, len(d.delIns)+len(insDel))
		for k := range d.delIns {
			ni[k] = struct{}{}
		}
		for _, k := range insDel {
			ni[k] = struct{}{}
		}
		d.delIns = ni
	}
	d.seq++
	return removed, nil
}

// Compact folds the pending delta into a fresh base generation now:
// base survivors and buffered inserts are streamed into a new file, the
// dataset atomically swaps to it, and the old generation's blocks free
// once the last query pinned to it finishes. A no-op when the delta is
// empty. Cancelling ctx aborts the rewrite at block granularity,
// releases the partial file, and leaves the dataset exactly as it was.
// Intended for background goroutines (maxrsd runs it off the mutation
// path with Options.DeltaCompactAt < 0) and tests; mutations compact
// automatically past Options.DeltaCompactAt.
func (d *Dataset) Compact(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	d.mu.Lock()
	released := d.released
	pending := len(d.inserts) + len(d.delBase)
	d.mu.Unlock()
	if released {
		return ErrDatasetReleased
	}
	if pending == 0 {
		return nil
	}
	return d.compact(ctx)
}

// compactIfNeeded compacts the existing delta when buffering incoming
// more entries would pass the engine's threshold, and fails with
// ErrDatasetReleased on a released dataset. Caller holds mutMu.
func (d *Dataset) compactIfNeeded(ctx context.Context, incoming int) error {
	limit := d.eng.deltaCompactAt()
	d.mu.Lock()
	released := d.released
	pending := len(d.inserts) + len(d.delBase)
	d.mu.Unlock()
	if released {
		return ErrDatasetReleased
	}
	if pending == 0 || pending+incoming <= limit {
		return nil
	}
	return d.compact(ctx)
}

// compact rewrites base + delta into a fresh generation. Caller holds
// mutMu (so the delta is frozen); queries keep running against the old
// generation until the swap, and across it on their pinned baseRef.
func (d *Dataset) compact(ctx context.Context) (err error) {
	d.mu.Lock()
	snap := d.snapLocked()
	base := d.base
	base.acquire()
	d.mu.Unlock()
	defer func() {
		if rerr := base.release(); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}()
	if snap == nil {
		return nil
	}

	e := d.eng
	f := em.NewFile(e.env.Disk)
	defer func() {
		if err != nil {
			err = wrapCancel(errors.Join(err, f.Release()))
		}
	}()
	// The new index→ID table. Stays nil (identity) while no deletion has
	// ever happened; otherwise survivors keep their IDs (ascending, in
	// base order) and appended inserts continue above them — IDs were
	// assigned after every existing base ID, so the table stays sorted.
	needIDs := snap.baseIDs != nil || len(snap.delBase) > 0 || len(snap.delIns) > 0
	var ids []uint64
	// Like Load, the context binds the writer and reader, never the new
	// base file itself.
	col := plan.NewCollector(e.opts.BlockSize, e.opts.Memory)
	err = snap.write(e.env.WithContext(ctx), base.f, f, func(id uint64, o rec.Object) rec.Object {
		if needIDs {
			ids = append(ids, id)
		}
		col.Add(o.X, o.Y, o.W)
		return o
	})
	if err != nil {
		return err
	}
	st := col.Finalize()

	d.mu.Lock()
	if d.released {
		d.mu.Unlock()
		return ErrDatasetReleased // deferred cleanup releases f
	}
	old := d.base
	d.base = &baseRef{f: f}
	d.n = int(st.N)
	d.stats = st
	d.baseIDs = ids
	d.inserts = nil
	d.insIdx = make(map[uint64]int)
	d.delBase = make(map[uint64]rec.Object)
	d.delIns = make(map[uint64]struct{})
	d.gen++
	d.ncomp++
	d.sol = nil // the base changed; cached incumbents are stale
	d.mu.Unlock()
	return old.kill()
}

// scan streams the effective object set of base under the delta s —
// base records minus pending deletes, then live buffered inserts — with
// their IDs, in exactly the order a reload of the mutated set would store
// them. Reads go through env: charged to its scope and cancellable at
// block granularity.
func (s *deltaSnap) scan(env em.Env, base *em.File, emit func(id uint64, o rec.Object) error) error {
	rr, err := em.OpenRecordReader(env, base, rec.ObjectCodec{})
	if err != nil {
		return err
	}
	for idx := 0; ; idx++ {
		o, rerr := rr.Read()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return rerr
		}
		id := baseIDAt(s.baseIDs, idx)
		if _, dead := s.delBase[id]; dead {
			continue
		}
		if err := emit(id, o); err != nil {
			return err
		}
	}
	for _, p := range s.inserts {
		if _, dead := s.delIns[p.id]; dead {
			continue
		}
		if err := emit(p.id, p.obj); err != nil {
			return err
		}
	}
	return nil
}

// write streams the effective object set of base under s into out
// through env, each record passing through each (which sees its ID and
// returns the record to write). The caller releases out on error.
func (s *deltaSnap) write(env em.Env, base, out *em.File, each func(id uint64, o rec.Object) rec.Object) error {
	w, err := em.OpenRecordWriter(env, out, rec.ObjectCodec{})
	if err != nil {
		return err
	}
	err = s.scan(env, base, func(id uint64, o rec.Object) error {
		return w.Write(each(id, o))
	})
	if err != nil {
		return err
	}
	return w.Close()
}

// scanEff streams the query's effective object set (see deltaSnap.scan),
// charged to the query scope.
func (q *query) scanEff(emit func(rec.Object) error) error {
	return q.delta.scan(q.env(), q.base.f, func(_ uint64, o rec.Object) error { return emit(o) })
}

// materializeEff writes the query's effective object set (optionally
// weight-mapped by fn) to a fresh file on the query's scope — the input
// a reload-from-scratch would have loaded, bit for bit — and returns it.
// The caller releases the file.
func (q *query) materializeEff(fn func(rec.Object) rec.Object) (*em.File, error) {
	q.deltaPath = deltaPathFused
	env := q.env()
	out := env.NewFile()
	err := q.delta.write(env, q.base.f, out, func(_ uint64, o rec.Object) rec.Object {
		if fn != nil {
			o = fn(o)
		}
		return o
	})
	if err != nil {
		return nil, errors.Join(err, out.Release())
	}
	return out, nil
}

// effFile returns the file a solve should read: the base file itself for
// a clean dataset with no weight map (owned = false), a mapped copy for
// a clean dataset with one, or the materialized effective set when a
// delta is pending. The caller releases owned files.
func (q *query) effFile(fn func(rec.Object) rec.Object) (*em.File, bool, error) {
	if q.delta == nil {
		if fn == nil {
			return q.base.f, false, nil
		}
		f, err := mapObjects(q.env(), q.base.f, fn)
		return f, true, err
	}
	f, err := q.materializeEff(fn)
	return f, true, err
}

// solveDelta runs an ExactMaxRS solve over a dataset with a pending
// delta. Unsharded queries first try the combined path — answer from the
// cached base solution when the delta provably cannot move the optimum
// (tryCombined) — and every other case re-solves the materialized
// effective set, so the execution (and the answer) matches a reload bit
// for bit.
func (q *query) solveDelta(w, h float64) (_ sweep.Result, _ []ShardStat, err error) {
	if q.plan.Shards == 0 {
		res, ok, err := q.tryCombined(w, h)
		if err != nil || ok {
			return res, nil, err
		}
	}
	f, err := q.materializeEff(nil)
	if err != nil {
		return sweep.Result{}, nil, err
	}
	defer func() {
		if rerr := f.Release(); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}()
	return q.solveObjects(f, w, h)
}

// tryCombined attempts the combined base+delta answer (DESIGN.md §14.3):
// obtain the base generation's exact solution for (w,h) — from the
// dataset's solution cache, else one unsharded solve of the base file,
// cached for subsequent queries — and keep it as the final answer when
// two gates prove the delta cannot change it:
//
//  1. every changed point's influence rectangle (the w×h neighborhood
//     where the rectangle-coverage of that point changes) is closed-
//     disjoint in y from the incumbent optimal strip, so the reload's
//     sweep produces the identical best tuple and strip boundaries; and
//  2. an exact mini-sweep of the effective objects clipped to each
//     influence rectangle bounds the best effective score inside every
//     influence region strictly below the incumbent score.
//
// Together they make the cached answer equal to a reload's: the optimum
// is outside every influence region (where nothing changed) and nothing
// inside an influence region can reach it. The equality is exact in real
// arithmetic, and bit-exact whenever the weight sums are (e.g. integer
// or fixed-point weights, which the equivalence tests use); arbitrary
// float64 weights can differ from a reload in the last ULP because the
// delta objects add elementary x-intervals to the reload's segment-tree
// grid and reassociate its additions. ok = false falls back to the fused
// re-solve.
func (q *query) tryCombined(w, h float64) (_ sweep.Result, ok bool, err error) {
	base, cached, err := q.baseSolution(w, h)
	if err != nil {
		return sweep.Result{}, false, err
	}
	q.deltaBaseCached = cached
	changed := q.delta.changedObjects()
	if len(changed) == 0 {
		// Every buffered insert was deleted again and no base record is
		// deleted: the effective set IS the base set.
		q.deltaPath = deltaPathCombined
		return base, true, nil
	}
	for _, o := range changed {
		r := rec.FromObject(o, w, h)
		if r.Y2 >= base.Region.Y.Lo && r.Y1 <= base.Region.Y.Hi {
			return sweep.Result{}, false, nil
		}
	}
	bound, sound, err := q.deltaBound(changed, w, h)
	if err != nil || !sound || bound >= base.Sum {
		return sweep.Result{}, false, err
	}
	q.deltaPath = deltaPathCombined
	return base, true, nil
}

// baseSolution returns the base generation's exact unsharded solution
// for (w,h), consulting and feeding the dataset's per-generation cache.
// The solve (on a miss) is charged to the query's scope like any other
// delta work. cached reports a cache hit.
func (q *query) baseSolution(w, h float64) (_ sweep.Result, cached bool, err error) {
	d := q.d
	key := solKey{w: w, h: h}
	d.mu.Lock()
	res, ok := d.sol[key]
	valid := ok && d.gen == q.delta.gen
	d.mu.Unlock()
	if valid {
		return res, true, nil
	}
	res, err = q.e.solver.SolveObjectsScoped(q.ctx, q.base.f, w, h, q.sc)
	if err != nil {
		return sweep.Result{}, false, err
	}
	d.mu.Lock()
	if !d.released && d.gen == q.delta.gen {
		if d.sol == nil {
			d.sol = make(map[solKey]sweep.Result)
		}
		if len(d.sol) >= solCacheCap {
			for k := range d.sol {
				delete(d.sol, k)
				break
			}
		}
		d.sol[key] = res
	}
	d.mu.Unlock()
	return res, false, nil
}

// errDeltaTooDense aborts the influence-bound collection when the
// neighborhood rect count passes maxDeltaSweepRects.
var errDeltaTooDense = errors.New("maxrs: delta neighborhood too dense")

// deltaBound computes, exactly, the best effective score attainable
// inside any changed point's influence rectangle: one scan of the
// effective set collects, per changed point p, every effective object
// whose coverage rectangle can intersect I_p (center within (w,h) in
// L∞ — found via a uniform grid of w×h cells over the changed points),
// then a small in-memory sweep of those rects clipped to I_p.Y over the
// slab I_p.X yields the exact maximum per region. sound = false means
// the bound was skipped (overflowing cell coordinates or too dense a
// neighborhood) and the caller must re-solve fused. The floor is 0:
// covering nothing is always attainable.
func (q *query) deltaBound(changed []rec.Object, w, h float64) (bound float64, sound bool, err error) {
	type gridKey struct{ cx, cy int64 }
	grid := make(map[gridKey][]int, len(changed))
	for i, p := range changed {
		cx, okx := cellOf(p.X, w)
		cy, oky := cellOf(p.Y, h)
		if !okx || !oky {
			return 0, false, nil
		}
		k := gridKey{cx, cy}
		grid[k] = append(grid[k], i)
	}
	rects := make([][]rec.WRect, len(changed))
	total := 0
	err = q.scanEff(func(o rec.Object) error {
		cx, okx := cellOf(o.X, w)
		cy, oky := cellOf(o.Y, h)
		if !okx || !oky {
			// Too far from every changed point to matter (their cell
			// coordinates fit; this one overflows).
			return nil
		}
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, i := range grid[gridKey{cx + dx, cy + dy}] {
					p := changed[i]
					if math.Abs(o.X-p.X) <= w && math.Abs(o.Y-p.Y) <= h {
						rects[i] = append(rects[i], rec.FromObject(o, w, h))
						total++
					}
				}
			}
		}
		if total > maxDeltaSweepRects {
			return errDeltaTooDense
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, errDeltaTooDense) {
			return 0, false, nil
		}
		return 0, false, err
	}
	for i, p := range changed {
		ip := rec.FromObject(p, w, h)
		var clipped []rec.WRect
		for _, r := range rects[i] {
			y1 := math.Max(r.Y1, ip.Y1)
			y2 := math.Min(r.Y2, ip.Y2)
			if y1 > y2 {
				continue
			}
			r.Y1, r.Y2 = y1, y2
			clipped = append(clipped, r)
		}
		if len(clipped) == 0 {
			continue
		}
		if s := sweep.SlabBest(clipped, geom.Interval{Lo: ip.X1, Hi: ip.X2}).Sum; s > bound {
			bound = s
		}
	}
	return bound, true, nil
}

// cellOf maps a coordinate to its grid cell at the given cell size,
// failing when the quotient leaves int64 range.
func cellOf(v, size float64) (int64, bool) {
	r := math.Floor(v / size)
	if r > 9.0e18 || r < -9.0e18 || math.IsNaN(r) {
		return 0, false
	}
	return int64(r), true
}

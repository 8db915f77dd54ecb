// Package shard partitions a MaxRS instance into K vertical shards that
// are solved as independent ExactMaxRS sub-problems, each on its own
// em.Disk, and merged by candidate comparison — the paper's slab division
// (§5.2) lifted one level up, from recursion steps inside one solver to a
// planner above whole solver instances.
//
// # Why the merge is exact
//
// Shard i owns the center slab [b_i, b_{i+1}) (b_0 = −∞, b_K = +∞) and
// receives every object whose x lies in [b_i − a/2, b_{i+1} + a/2], where
// a is the query width: the halo. A query rectangle centered inside shard
// i's slab covers only objects inside the halo-extended slab (an object is
// covered iff its x is within a/2 of the center's x), so for every center
// in the slab the shard-local coverage equals the true coverage. Each
// shard solves for the centers of its own slab alone: its root slab is
// [b_i, b_{i+1}) and every rectangle is clipped to it
// (core.Solver.SolveObjectsInSlab). So a shard's optimum is the best true
// score in its slab, for weights of any sign, and since the slabs
// partition the center space,
//
//	max_i ShardOpt_i = global optimum,
//
// with the winning shard's region inside its slab, where every center
// attains the global optimum on the full dataset. This is the slab-file
// argument behind Theorem 2 (each sub-problem sees every rectangle that
// meets its slab) lifted to the shards, and duplication across shards is
// harmless because no single shard's sweep ever counts an object twice.
//
// # Cost
//
// Planning and routing are two linear scans of the object file charged to
// the caller's environment; each shard additionally pays the writes of
// its halo-extended partition and a full ExactMaxRS on |shard| objects.
// All counts are deterministic for a fixed dataset, query, and shard
// count — independent of worker scheduling — so sharded queries keep the
// repo's counts-are-reproducible contract (DESIGN.md §9).
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"maxrs/internal/conc"
	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// maxPlanSample bounds the x-coordinate sample the planner sorts in
// memory (32 Ki values = 256 KB). Boundaries only steer balance — any
// strictly increasing boundary set is exact — so a bounded deterministic
// stride sample is enough even when the dataset itself is disk-resident.
const maxPlanSample = 1 << 15

// objectBatch sizes the record batches of the planner's and router's
// scan loops, amortizing the per-record reader round-trip.
const objectBatch = 256

// Merge picks the winning candidate of a sharded solve: the highest
// score, lowest shard index on ties, so the merged answer is
// deterministic. It is the exact K-way merge argued in the package
// comment, applied to local and remote shard answers alike so both
// produce bit-identical results.
func Merge(results []sweep.Result) int {
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].Sum > results[best].Sum {
			best = i
		}
	}
	return best
}

// Partition is one halo-extended shard of a partitioned dataset: its
// private disk, the partition file routed onto it, and the center slab
// it owns. PartitionObjects creates them; the caller must Close every
// partition it receives. Until SolveAll releases it, a Partition keeps
// its file, so it can be read (to ship the shard to a remote worker) and
// solved locally (halo-replica failover) any number of times — the file
// doubles as the shard's replica.
type Partition struct {
	env   em.Env
	file  *em.File
	slab  geom.Interval
	count int64
}

// Slab is the half-open center interval [Lo, Hi) the partition owns.
func (p *Partition) Slab() geom.Interval { return p.slab }

// Objects is the number of objects routed to the partition, halo copies
// included.
func (p *Partition) Objects() int64 { return p.count }

// Stats is the I/O charged to the partition's private disk so far.
func (p *Partition) Stats() em.Stats { return p.env.Disk.Stats() }

// Close closes the partition's private disk, releasing its blocks and
// any backing temp file. The partition is unusable afterwards.
func (p *Partition) Close() error { return p.env.Disk.Close() }

// Solve runs the partition's private ExactMaxRS over the centers of its
// slab and leaves the partition file intact, so a failed-over shard can
// be re-solved and a shipped shard re-read. Transfers land on the
// partition's own disk; ctx cancellation aborts within one
// block-transfer's work.
func (p *Partition) Solve(ctx context.Context, w, h float64, cfg core.Config) (sweep.Result, error) {
	solver, err := core.NewSolver(p.env, cfg)
	if err != nil {
		return sweep.Result{}, err
	}
	res, err := solver.SolveObjectsInSlab(ctx, p.file, w, h, p.slab, nil)
	if err != nil {
		return sweep.Result{}, fmt.Errorf("shard %v: %w", p.slab, err)
	}
	return res, nil
}

// ReadObjects decodes the whole partition file into memory — the
// coordinator's seam for shipping a shard's objects to a remote worker.
// Reads are charged to the partition's private disk. The file survives,
// so the same partition can be re-read (hedge, resend) or solved
// locally afterwards.
func (p *Partition) ReadObjects(ctx context.Context) ([]geom.Object, error) {
	env := p.env
	if ctx != nil {
		env = env.WithContext(ctx)
	}
	rr, err := em.OpenRecordReader(env, p.file, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	out := make([]geom.Object, 0, p.count)
	batch := make([]rec.Object, objectBatch)
	for {
		got, rerr := rr.ReadBatch(batch)
		for _, o := range batch[:got] {
			out = append(out, geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: o.W})
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return out, nil
			}
			return nil, rerr
		}
	}
}

// SolveAll solves every partition in process, at most workers at a time
// (≤ 0 = all at once), and returns the per-partition answers in slab
// order for Merge. Each partition's file is released as soon as its
// shard is solved — its blocks are dead weight once the shard has its
// candidate — so a sharded solve never holds more blocks than the
// routed partitions plus one solve's intermediates per worker. The
// partitions keep their slab, object count and disk Stats; the caller
// still closes every one. Cancelling ctx aborts every in-flight solve
// within one block-transfer's work.
func SolveAll(ctx context.Context, parts []*Partition, w, h float64, cfg core.Config, workers int) ([]sweep.Result, error) {
	if workers <= 0 {
		workers = len(parts)
	}
	results := make([]sweep.Result, len(parts))
	err := conc.ForEachIndexed(len(parts), workers, func(i int) error {
		p := parts[i]
		defer p.file.Release()
		res, err := p.Solve(ctx, w, h, cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return p.file.Release()
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// PlanBounds scans objFile once and returns up to k−1 strictly increasing
// interior slab boundaries — x-quantiles of a deterministic stride sample,
// so repeated plans of the same file agree bit-for-bit. Fewer boundaries
// than requested (down to none) come back when the data has too few
// distinct x-coordinates; the effective shard count shrinks accordingly.
func PlanBounds(env em.Env, objFile *em.File, k int) ([]float64, error) {
	if k < 2 {
		return nil, nil
	}
	n := em.RecordCount(objFile, rec.ObjectCodec{}.Size())
	if n == 0 {
		return nil, nil
	}
	stride := (n + maxPlanSample - 1) / maxPlanSample
	if stride < 1 {
		stride = 1
	}
	rr, err := em.OpenRecordReader(env, objFile, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	sample := make([]float64, 0, (n+stride-1)/stride)
	batch := make([]rec.Object, objectBatch)
	var idx int64
	for {
		got, err := rr.ReadBatch(batch)
		for _, o := range batch[:got] {
			if idx%stride == 0 {
				sample = append(sample, o.X)
			}
			idx++
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
	}
	sort.Float64s(sample)
	bounds := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		q := sample[i*len(sample)/k]
		// Strictly increasing, and strictly above the minimum x: a
		// boundary at the minimum would leave shard 0 owning no points
		// (an all-halo shard can tie the optimum but never beat it). A
		// float lies strictly between consecutive bounds, so a slab that
		// every piece spans still has a midpoint to split at.
		if q > sample[0] && (len(bounds) == 0 || q > math.Nextafter(bounds[len(bounds)-1], math.Inf(1))) {
			bounds = append(bounds, q)
		}
	}
	return bounds, nil
}

// PartitionObjects scans objFile once and routes every object into each
// shard whose halo-extended slab contains it: shard i receives the
// objects with x ∈ [b_i − halfWidth, b_{i+1} + halfWidth] (closed on
// both ends — one float of slack beyond the half-open need never hurts
// correctness, only duplicates a boundary object once more). bounds
// come from PlanBounds; halfWidth is half the query width a/2. newDisk
// allocates one shard's private disk (nil = an in-memory disk with the
// caller's block size); each shard solver later runs under the caller
// environment's full memory budget M, so sharding scales aggregate
// memory and disk K-fold. On error every already-created shard disk is
// closed and nothing stays allocated; on success the caller owns the
// partitions and must Close each one.
func PartitionObjects(env em.Env, objFile *em.File, bounds []float64, halfWidth float64, newDisk func() (*em.Disk, error)) (_ []*Partition, err error) {
	k := len(bounds) + 1
	if newDisk == nil {
		blockSize := env.B()
		newDisk = func() (*em.Disk, error) { return em.NewDisk(blockSize) }
	}
	shards := make([]*Partition, 0, k)
	defer func() {
		if err != nil {
			for _, sh := range shards {
				_ = sh.Close()
			}
		}
	}()
	writers := make([]*em.RecordWriter[rec.Object], k)
	for i := 0; i < k; i++ {
		disk, err := newDisk()
		if err != nil {
			return nil, err
		}
		// The shard env inherits the caller's ctx (one cancel reaches the
		// partition writers too) but not its scope: shard-disk traffic is
		// accounted via Disk.Stats and folded in by the caller.
		shEnv := em.Env{Disk: disk, M: env.M, Ctx: env.Ctx}
		sh := &Partition{env: shEnv, file: shEnv.NewFile(), slab: slabOf(bounds, i)}
		shards = append(shards, sh) // before Validate: the defer owns the disk now
		if err := shEnv.Validate(); err != nil {
			return nil, err
		}
		writers[i], err = em.NewRecordWriter(sh.file, rec.ObjectCodec{})
		if err != nil {
			return nil, err
		}
	}
	rr, err := em.OpenRecordReader(env, objFile, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	batch := make([]rec.Object, objectBatch)
	for {
		got, rerr := rr.ReadBatch(batch)
		for _, o := range batch[:got] {
			lo, hi := route(bounds, o.X, halfWidth)
			for i := lo; i <= hi; i++ {
				if err := writers[i].Write(o); err != nil {
					return nil, err
				}
				shards[i].count++
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return nil, rerr
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// slabOf returns shard i's center slab for the given interior boundaries.
func slabOf(bounds []float64, i int) geom.Interval {
	slab := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	if i > 0 {
		slab.Lo = bounds[i-1]
	}
	if i < len(bounds) {
		slab.Hi = bounds[i]
	}
	return slab
}

// route returns the inclusive range [lo, hi] of shard indices whose
// halo-extended slab contains x. The range is contiguous and never empty;
// when the halo is wider than a slab it spans several shards.
func route(bounds []float64, x, halfWidth float64) (lo, hi int) {
	// Shard i is needed iff b_i ≤ x + halfWidth (lower bound exists for
	// i ≥ 1) and b_{i+1} ≥ x − halfWidth (upper bound exists for i < K−1).
	lo = sort.SearchFloat64s(bounds, x-halfWidth) // first b_{i+1} ≥ x − a/2
	hi = sort.Search(len(bounds), func(j int) bool { return bounds[j] > x+halfWidth })
	return lo, hi
}

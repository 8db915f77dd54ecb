// Package maxrs solves the Maximizing Range Sum (MaxRS) problem and its
// circular variant (MaxCRS) at scale, reproducing the algorithms of
//
//	D.-W. Choi, C.-W. Chung, Y. Tao:
//	"A Scalable Algorithm for Maximizing Range Sum in Spatial Databases",
//	PVLDB 5(11), 2012.
//
// Given a set of weighted points and a rectangle of a fixed size d1×d2,
// MaxRS asks for the center location maximizing the total weight of the
// points the rectangle covers. MaxCRS asks the same for a circle of a
// fixed diameter. Typical uses: placing a store with a fixed delivery
// range over customer locations, or finding the spot of a city with the
// most attractions in walking distance.
//
// # Quick start
//
//	objs := []maxrs.Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 1}}
//	res, err := maxrs.MaxRS(context.Background(), objs, 4, 4, nil)
//	// res.Location is an optimal center; res.Score the covered weight.
//
// Every query takes a context.Context first: cancel it (or let its
// deadline pass) and the query stops within one block-transfer's work,
// releases everything it allocated, and returns an error matching both
// ErrQueryCancelled and the context error. Variadic QueryOptions
// (WithAlgorithm, WithShards, WithUnfused, WithParallelism) override the
// engine defaults per call.
//
// # Algorithms
//
// The default solver is ExactMaxRS, the paper's I/O-optimal
// external-memory distribution sweep — it runs in O((N/B) log_{M/B}(N/B))
// block transfers under the configured EM model and handles datasets far
// larger than the memory budget. The two baselines of the paper's
// evaluation (NaiveSweep, ASBTree) and a plain in-memory solver are also
// available for comparison via Options.Algorithm.
//
// All computation runs against a simulated block device that counts
// transfers; Engine.Stats exposes the I/O cost exactly as the paper
// measures it.
package maxrs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"maxrs/internal/baseline"
	"maxrs/internal/core"
	"maxrs/internal/dist"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/plan"
	"maxrs/internal/rec"
	"maxrs/internal/shard"
	"maxrs/internal/sweep"
)

// Object is a weighted point of the input set O.
type Object struct {
	X, Y   float64
	Weight float64
}

// Point is a location in the data space.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned region of optimal locations, half-open on its
// max edges. Infinite bounds mean the optimum extends indefinitely in
// that direction (possible only for degenerate inputs).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies in the region.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Result is a solved MaxRS/MaxCRS instance.
type Result struct {
	// Location is an optimal center position.
	Location Point
	// Score is the total covered weight at Location.
	Score float64
	// Region is the full set of optimal center positions (for MaxRS).
	// Every point of Region attains Score. For sharded queries
	// (Options.Shards) it is the winning shard's optimal region: every
	// point of it still attains Score on the full dataset, but equally
	// good centers in other shards are not enumerated.
	Region Rect
	// Stats is the I/O cost of this query alone (see QueryStats).
	Stats QueryStats
	// Algorithm is the solver that actually ran. For MaxRS it is the
	// resolved Options.Algorithm / WithAlgorithm; TopK, MinRS and CountRS
	// always report ExactMaxRS (the only solver they use).
	Algorithm Algorithm
	// Shards is the effective shard count the query ran with: 0 for an
	// unsharded solve, otherwise the number of shards actually planned
	// (the planner may deduplicate below the requested count). It makes
	// the silent fallbacks observable: a query requested sharded that
	// reports Shards == 0 hit the negative-weight guard, a non-ExactMaxRS
	// algorithm, or MinRS — no more inferring from a nil ShardStats.
	Shards int
	// ShardStats breaks Stats down per shard for sharded queries
	// (Options.Shards / Dataset.SetShards): entry i is shard i's routed
	// object count and the transfers of its private partition + solve.
	// Stats additionally includes the planner's and router's scans of
	// the dataset, so Stats ≥ the sum of ShardStats. Nil for unsharded
	// queries.
	ShardStats []ShardStat
	// Plan is the materialized execution decision this query ran under —
	// the planner's choice for AlgorithmAuto queries (Plan.Auto), the
	// resolved explicit settings otherwise — with its predicted cost.
	Plan Plan
	// PredictedCost is Plan.Predicted, surfaced for direct comparison
	// against Stats (the measured counts). See DESIGN.md §12.
	PredictedCost PredictedCost
	// FallbackReason is non-empty when the query silently did less than
	// the settings requested — e.g. a sharded request that ran unsharded
	// because the dataset holds negative weights (DESIGN.md §9.3), a
	// non-ExactMaxRS algorithm ignoring WithShards, or a distributed
	// request degraded to in-process execution because no workers were
	// ready. Empty otherwise.
	FallbackReason string
	// Distributed reports whether the query's shards were fanned out to
	// workers (Options.Dist) rather than solved in process. ShardStats
	// then carries the per-worker attribution.
	Distributed bool
}

// ShardStat is one shard's contribution to a sharded query (DESIGN.md §9).
// For distributed queries (Options.Dist) it additionally attributes the
// shard to the workers involved: which worker answered (or failed),
// how many network attempts it took, and which recovery path — hedge or
// local halo-replica fallback — produced the answer.
type ShardStat struct {
	// Objects is the number of objects routed to the shard, halo
	// duplicates included.
	Objects int64
	// Stats is the I/O on the shard's private disk. In process that is
	// partition writes plus the shard's independent ExactMaxRS solve;
	// distributed it is the partition writes plus the reads that shipped
	// (and, on fallback, re-solved) the shard — the remote solve's I/O
	// is the worker's and reported separately in RemoteStats.
	Stats QueryStats
	// Worker names the worker that answered the shard (the last one
	// tried, on failure). Empty for in-process shards.
	Worker string
	// Attempts counts the network calls made for the shard, hedges
	// included. 0 for in-process shards.
	Attempts int
	// Hedged reports whether a straggler duplicate was launched.
	Hedged bool
	// FellBack reports whether the shard was solved locally from its
	// halo-replicated partition file after every network path failed.
	FellBack bool
	// RemoteStats is the worker-reported I/O of the remote solve — the
	// transfers charged on the worker's disk, not this engine's.
	RemoteStats QueryStats
	// Err is the shard's terminal failure, nil on every recovered path.
	// Set only when the query itself returns ErrShardUnavailable.
	Err error
}

// QueryStats reports the block transfers attributable to one query: reads
// of the dataset plus all traffic of the query's intermediate files. It is
// scoped per call, so concurrent queries on one Engine each report their
// own meaningful cost, while Engine.Stats keeps the disk-global total. For
// a fixed dataset and query the counts are deterministic — independent of
// Options.Parallelism and of other queries in flight. Sharded queries
// (Options.Shards) include their per-shard disk traffic; the counts then
// additionally depend on the shard count, but on nothing else.
type QueryStats struct {
	Reads, Writes uint64
	// PredictedReads/PredictedWrites are the plan's cost-model prediction
	// for this query (DESIGN.md §12), riding alongside the measured
	// counts so prediction-vs-actual deltas are one subtraction away.
	// Zero in per-shard breakdown entries (the model predicts whole
	// queries, not slices).
	PredictedReads, PredictedWrites uint64
}

// Total returns Reads + Writes — the paper's I/O cost metric.
func (s QueryStats) Total() uint64 { return s.Reads + s.Writes }

func queryStatsOf(sc *em.ScopeStats) QueryStats {
	s := sc.Stats()
	return QueryStats{Reads: s.Reads, Writes: s.Writes}
}

// Algorithm selects the solver implementation.
type Algorithm int

// Available algorithms.
const (
	// ExactMaxRS is the paper's I/O-optimal external algorithm (§5).
	ExactMaxRS Algorithm = iota
	// NaiveSweep is the externalized naive plane sweep baseline (§7.1).
	NaiveSweep
	// ASBTree is the aggregate SB-tree plane sweep baseline (§7.1).
	ASBTree
	// InMemory is the RAM-model plane sweep of Imai–Asano (§4); it
	// ignores the EM budget and is intended for small inputs and tests.
	InMemory
	// AlgorithmAuto asks the engine's planner to choose: algorithm,
	// shard count and fusion are picked by the calibrated cost model over
	// the dataset's load-time statistics (DESIGN.md §12), and the chosen
	// plan rides back in Result.Plan. Opt-in — the zero value stays
	// ExactMaxRS, so existing explicit queries keep bit-identical
	// transfer schedules.
	AlgorithmAuto
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ExactMaxRS:
		return "ExactMaxRS"
	case NaiveSweep:
		return "NaiveSweep"
	case ASBTree:
		return "aSB-Tree"
	case InMemory:
		return "InMemory"
	case AlgorithmAuto:
		return "Auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures an Engine. The zero value (and nil) selects the
// paper's defaults: 4 KB blocks, 1 MB memory, ExactMaxRS.
type Options struct {
	// BlockSize is the EM-model block size B in bytes (default 4096,
	// Table 3).
	BlockSize int
	// Memory is the EM-model memory budget M in bytes (default 1 MiB,
	// the paper's synthetic-data default buffer).
	Memory int
	// Algorithm selects the solver (default ExactMaxRS).
	Algorithm Algorithm
	// Fanout overrides the recursion fan-in m of ExactMaxRS (0 = the
	// paper's Θ(M/B)); exposed for ablation studies.
	Fanout int
	// Parallelism bounds the worker goroutines ExactMaxRS uses for
	// independent child slabs, sort-run formation, and merge groups
	// (0 = GOMAXPROCS, 1 = sequential). The pool is shared by all
	// concurrent queries on the engine, bounding its total extra
	// goroutines; each query always progresses on its caller's goroutine
	// regardless. Results and the counted block transfers are identical
	// for every value; only wall-clock time changes. See DESIGN.md §6–7.
	Parallelism int
	// OnDisk stores blocks in a temporary OS file under OnDiskDir
	// (default: the system temp directory) instead of process memory, so
	// datasets larger than RAM work too. Call Engine.Close to remove the
	// backing file. Transfer accounting is identical either way. OnDisk
	// streams prefetch and write behind (DESIGN.md §8), overlapping
	// storage latency with CPU; in-memory streams, with no latency to
	// hide, run synchronously. For every query that completes, results
	// and block-transfer counts are identical either way; a query
	// abandoned by an error mid-scan may charge one extra read per
	// dropped stream for a block a synchronous stream would not have
	// fetched yet.
	OnDisk    bool
	OnDiskDir string
	// Backend selects the on-disk store (DESIGN.md §15). BackendAuto (the
	// default) follows OnDisk: process memory, or the portable
	// positioned-I/O temp file. BackendFile and BackendMmap store blocks
	// on disk under OnDiskDir whatever OnDisk says; BackendMmap
	// memory-maps the backing file — page-cache reads, batched
	// write-behind submission — and falls back to the file store when
	// mapping is unavailable. Counted transfers are bit-identical across
	// stores; only wall-clock changes. Shard disks mirror the selection.
	Backend BackendKind
	// Codec selects the physical block codec family (DESIGN.md §15).
	// CodecNone (the default) stores blocks in the fixed layout;
	// CodecDelta column-splits and delta/varint-compresses each block
	// with the codec for its stream's record layout, keeping a block raw
	// when that does not shrink it, so a counted transfer never moves
	// more than the fixed layout plus a constant header — and on sorted
	// record streams moves far less (Engine.PhysIO). Counted transfers
	// are bit-identical across codecs. Works with on-disk and in-memory
	// engines alike; shard disks mirror the selection.
	Codec CodecKind
	// Unfused disables ExactMaxRS's root pass fusion (DESIGN.md §8),
	// restoring the materialize-sort-reread pipeline. Kept for ablation
	// and regression comparison: results are bit-identical, the fused
	// default just transfers fewer blocks.
	Unfused bool
	// Shards splits object queries (MaxRS, CountRS, TopK — not MaxCRS,
	// whose rectangle transform stays unsharded) into K vertical shards
	// with halo duplication, solved as independent ExactMaxRS instances
	// on their own private disks and merged exactly (DESIGN.md §9).
	// Each shard disk mirrors the engine's backend (in-memory or a temp
	// file under OnDiskDir) and gets the full Memory budget, so sharding
	// scales aggregate memory and disk K-fold — the lever for datasets
	// that outgrow a single disk's block budget. 0 (the default) leaves
	// queries unsharded; 1 forces the degenerate single-shard path (the
	// shard machinery with one shard — useful for testing); K ≥ 2 shards
	// K ways. Scores are exact for every value, and per-query transfer
	// counts are deterministic for a fixed dataset, query, and K.
	// Dataset.SetShards overrides the count per dataset.
	//
	// The shard merge is exact only for nonnegative weights (DESIGN.md
	// §9.3), so two cases always run unsharded regardless of this
	// setting: queries on datasets holding a negative weight, and MinRS
	// (whose solve negates every weight). Non-ExactMaxRS Algorithms also
	// ignore it for MaxRS (CountRS and TopK always solve with
	// ExactMaxRS).
	Shards int
	// Retry is the policy for transient storage faults and checksum
	// mismatches on block transfers (DESIGN.md §11): every block read
	// verifies the CRC32C in its slot header, and a mismatch is retried
	// before surfacing as ErrBlockCorrupt. The zero value never retries. Retries respect the query context and count in
	// Engine.FaultStats, never in the I/O metric: a fault-free run's
	// counted transfer schedule is bit-identical with any policy. Applies
	// to the primary disk and to every shard disk.
	Retry RetryPolicy
	// Dist enables distributed execution (DESIGN.md §13): sharded
	// queries plan and route locally, then fan each halo-extended shard
	// out to a worker maxrsd over HTTP and merge replies with the same
	// exact K-way merge the in-process path uses. nil (the default)
	// keeps every shard in process. Distribution changes where shards
	// solve, never what they answer: a no-fault distributed query is
	// bit-identical to the in-process sharded query, and the unsharded
	// path (Shards 0) ignores Dist entirely.
	Dist *DistOptions
	// DeltaCompactAt bounds a mutable dataset's in-memory delta buffer
	// (DESIGN.md §14): once the pending entries — buffered inserts plus
	// deleted base records — reach the threshold, the next mutation first
	// compacts the delta into a fresh base file (rewriting survivors and
	// appending the buffered inserts) before buffering anything new, so
	// a cancelled mutation never leaves a half-applied delta. 0 selects
	// the default (1024 entries); a negative value disables automatic
	// compaction entirely — Dataset.Compact still works, which is how
	// maxrsd runs compaction on a background goroutine instead of a
	// mutation's critical path.
	DeltaCompactAt int
}

// defaultDeltaCompactAt is the Options.DeltaCompactAt default: small
// enough that the delta sweep of the combined query path stays trivially
// in-memory, large enough that compaction is rare under mixed workloads.
const defaultDeltaCompactAt = 1024

// deltaCompactAt resolves Options.DeltaCompactAt (0 = default, < 0 =
// never).
func (e *Engine) deltaCompactAt() int {
	switch {
	case e.opts.DeltaCompactAt == 0:
		return defaultDeltaCompactAt
	case e.opts.DeltaCompactAt < 0:
		return math.MaxInt
	default:
		return e.opts.DeltaCompactAt
	}
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.BlockSize == 0 {
		out.BlockSize = 4096
	}
	if out.Memory == 0 {
		out.Memory = 1 << 20
	}
	return out
}

// IOStats reports block transfers on the engine's simulated disk.
type IOStats struct {
	Reads, Writes uint64
}

// Total returns Reads + Writes — the paper's I/O cost metric.
func (s IOStats) Total() uint64 { return s.Reads + s.Writes }

// Engine owns an EM environment (simulated disk + memory budget) and
// solves MaxRS/MaxCRS instances on datasets stored on that disk.
//
// # Concurrency
//
// An Engine is safe for concurrent queries: any number of goroutines may
// call MaxRS, MaxCRS, TopK, MinRS and CountRS against shared Datasets at
// the same time (see DESIGN.md §7 for the full contract). Results are
// bit-identical to sequential execution, and each Result carries its own
// per-query Stats. Datasets are reference-counted: Release during
// in-flight queries is safe — the blocks are freed when the last query
// using the dataset finishes. Load/LoadCSV may also run concurrently with
// queries. Only Close requires exclusivity: it must not run while any
// query or load is in flight. ResetStats zeroes the disk-global counters
// and therefore makes a concurrent Stats window meaningless, but it never
// affects the per-query Stats in Results.
//
// # Cancellation
//
// Every query is bound to its ctx (DESIGN.md §10): cancellation
// propagates through the solver recursion, the external sort, the disk
// streams, and — for sharded queries — every shard's private solve, each
// checking at block-transfer granularity. A cancelled query releases all
// its intermediate files and shard disks (BlocksInUse drains to 0 once
// every query has returned) and never perturbs concurrent queries or the
// determinism of completed-query Stats; the transfers it charged before
// the cancel remain in the engine-global totals.
type Engine struct {
	opts   Options
	env    em.Env
	solver *core.Solver
	par    int // resolved Options.Parallelism (≥ 1)

	// shardReads/shardWrites accumulate the traffic of sharded queries'
	// ephemeral per-shard disks, so Engine.Stats stays the engine-global
	// total even though that traffic never touches the primary disk.
	shardReads  atomic.Uint64
	shardWrites atomic.Uint64

	// faultPlan is the armed fault-injection plan (InjectFaults), applied
	// to shard disks at creation so injection covers the whole query path.
	faultPlan atomic.Pointer[em.FaultPlan]

	// Distributed execution (Options.Dist; all nil when not distributed):
	// the coordinator owning the worker membership and fan-out policy,
	// the instrumented transport under it, and the background prober's
	// stop hook.
	coord        *dist.Coordinator
	netTransport *dist.Transport
	stopProber   func()
}

// NewEngine validates opts and returns an Engine. Misconfiguration —
// including an unknown Options.Algorithm — surfaces here, not on the
// first query.
func NewEngine(opts *Options) (*Engine, error) {
	o := opts.withDefaults()
	if o.Shards < 0 {
		return nil, fmt.Errorf("maxrs: shard count %d must be ≥ 0", o.Shards)
	}
	if !validAlgorithm(o.Algorithm) {
		return nil, fmt.Errorf("maxrs: unknown algorithm %v", o.Algorithm)
	}
	d, err := o.newDisk()
	if err != nil {
		return nil, err
	}
	env := em.Env{Disk: d, M: o.Memory}
	if err = env.Validate(); err != nil {
		return nil, errors.Join(err, d.Close())
	}
	env.Disk.SetRetryPolicy(o.Retry.em())
	solver, err := core.NewSolver(env, core.Config{Fanout: o.Fanout, Parallelism: o.Parallelism, Unfused: o.Unfused})
	if err != nil {
		return nil, errors.Join(err, env.Disk.Close())
	}
	par := o.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: o, env: env, solver: solver, par: par}
	if o.Dist != nil {
		e.netTransport = dist.NewTransport(o.Dist.Transport, o.Dist.NetFaults.dist())
		members := dist.NewMembership(nil)
		for _, w := range o.Dist.Workers {
			members.Add(w.Name, w.URL)
		}
		e.coord = dist.NewCoordinator(members, dist.Config{
			Client: &http.Client{Transport: e.netTransport},
			Retry:  o.Dist.Retry.em(),
			Hedge:  dist.HedgePolicy{Delay: o.Dist.Hedge.Delay, Max: o.Dist.Hedge.Max},
		})
		if o.Dist.ProbeInterval > 0 {
			e.stopProber = members.StartProber(o.Dist.ProbeInterval)
		}
	}
	return e, nil
}

// Close releases the engine's storage (removes the backing file of an
// OnDisk engine) and stops the distributed membership prober, if one is
// running. It must not be called while queries or loads are in flight;
// the engine and its datasets must not be used afterwards.
func (e *Engine) Close() error {
	if e.stopProber != nil {
		e.stopProber()
		e.stopProber = nil
	}
	return e.env.Disk.Close()
}

// Dataset is a point set stored on the engine's disk.
//
// A Dataset is mutable: Insert and Delete buffer changes in a bounded
// in-memory delta that queries fold in exactly (DESIGN.md §14) — every
// query answers as if the dataset had been reloaded from scratch with
// the mutations applied. Once the delta passes Options.DeltaCompactAt
// the next mutation compacts it into a fresh base file (Compact forces
// it); compaction is generation-fenced, so queries in flight keep the
// base they started on.
//
// A Dataset is reference-counted through its base file: every running
// query holds a reference to the base generation it began on, and
// Release marks the dataset dead, deferring the actual freeing of its
// disk blocks until the last in-flight query finishes. Queries and
// mutations started after Release fail with ErrDatasetReleased.
type Dataset struct {
	eng *Engine

	mu sync.Mutex
	// base is the current base generation: the on-disk object file plus
	// the per-generation reference count that keeps it alive for queries
	// begun before a compaction swapped it out.
	base *baseRef
	// n is the base file's record count.
	n int
	// stats are the base file's statistics (internal/plan), collected in
	// the loader's (or compactor's) streaming pass: the planner's whole
	// picture of the data, and the home of the smallest weight — the
	// shard merge's exactness argument needs nonnegative weights
	// (DESIGN.md §9.3), so queries on a dataset with any negative weight
	// silently fall back to the unsharded path. Queries see these merged
	// conservatively with the pending delta (effStatsLocked).
	stats plan.Stats
	// baseIDs maps base record index → object ID. nil (the common case:
	// no deletions have ever been compacted) means record i has ID i.
	// After a compaction that dropped records it is the sorted ID list
	// of the survivors — ascending by construction, so membership is a
	// binary search (delta.go).
	baseIDs  []uint64
	released bool // Release called
	shards   int  // per-dataset shard-count override (0 = engine default)

	// Pending delta (DESIGN.md §14). Snapshots are taken under mu;
	// mutators additionally serialize on mutMu (below) so validation,
	// the base-coordinate scan of Delete, and compaction never interleave.
	inserts []pendingInsert       // append-only until compaction
	insIdx  map[uint64]int        // pending-insert ID → inserts index (mutMu)
	delBase map[uint64]rec.Object // deleted base records (copy-on-write)
	delIns  map[uint64]struct{}   // deleted pending-insert IDs (copy-on-write)
	nextID  uint64                // next ID to assign to an insert
	seq     uint64                // mutation sequence number (one per Insert/Delete)
	gen     uint64                // base generation (one per compaction)
	ncomp   uint64                // compactions performed
	// sol caches the base generation's exact unsharded solutions per
	// query size — the incumbent the combined delta path merges against.
	// Cleared on compaction (the base changed).
	sol map[solKey]sweep.Result

	// mutMu serializes mutators (Insert, Delete, Compact) against each
	// other. Never held while queries run; queries only take mu.
	mutMu sync.Mutex
}

// baseRef is one base generation of a Dataset: the object file and the
// count of in-flight queries pinned to it. kill marks the generation
// dead (compaction swapped it out, or the dataset was released); the
// blocks are freed when the last reference drops.
type baseRef struct {
	mu   sync.Mutex
	f    *em.File
	refs int
	dead bool
}

func (b *baseRef) acquire() {
	b.mu.Lock()
	b.refs++
	b.mu.Unlock()
}

func (b *baseRef) release() error {
	b.mu.Lock()
	b.refs--
	free := b.dead && b.refs == 0
	b.mu.Unlock()
	if free {
		return b.f.Release()
	}
	return nil
}

func (b *baseRef) kill() error {
	b.mu.Lock()
	if b.dead {
		b.mu.Unlock()
		return nil
	}
	b.dead = true
	free := b.refs == 0
	b.mu.Unlock()
	if free {
		return b.f.Release()
	}
	return nil
}

// pendingInsert is one buffered insert: the assigned ID and the object.
type pendingInsert struct {
	id  uint64
	obj rec.Object
}

// solKey keys the base-solution cache by query rectangle size.
type solKey struct{ w, h float64 }

// newDataset wraps a freshly written base file.
func (e *Engine) newDataset(f *em.File, n int, st plan.Stats) *Dataset {
	return &Dataset{
		eng:     e,
		base:    &baseRef{f: f},
		n:       n,
		stats:   st,
		nextID:  uint64(n),
		insIdx:  make(map[uint64]int),
		delBase: make(map[uint64]rec.Object),
		delIns:  make(map[uint64]struct{}),
	}
}

// ErrDatasetReleased is returned by queries on a released Dataset.
var ErrDatasetReleased = errors.New("maxrs: dataset released")

// Len returns the effective number of objects in the dataset: the base
// records plus pending inserts, minus pending deletes.
func (d *Dataset) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n - len(d.delBase) + len(d.inserts) - len(d.delIns)
}

// SetShards overrides the engine's Options.Shards for queries on this
// dataset: 0 restores the engine default, 1 forces the degenerate
// single-shard path, K ≥ 2 shards the dataset K ways (DESIGN.md §9).
// Safe to call concurrently with queries; a query in flight keeps the
// count it started with.
func (d *Dataset) SetShards(k int) error {
	if k < 0 {
		return fmt.Errorf("%w: shard count %d must be ≥ 0", ErrInvalidQuery, k)
	}
	d.mu.Lock()
	d.shards = k
	d.mu.Unlock()
	return nil
}

// Shards returns the dataset's shard-count override (0 = engine default).
func (d *Dataset) Shards() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.shards
}

// Blocks returns the number of disk blocks the dataset's base file
// occupies (the pending delta lives in memory until compaction).
func (d *Dataset) Blocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base.f.Blocks()
}

// Release frees the dataset's disk blocks. Safe to call while queries are
// running (they keep the blocks alive until they finish) and safe to call
// more than once.
func (d *Dataset) Release() error {
	d.mu.Lock()
	if d.released {
		d.mu.Unlock()
		return nil
	}
	d.released = true
	b := d.base
	d.sol = nil
	d.mu.Unlock()
	return b.kill()
}

// acquireQuery pins one query to the dataset's current state: the base
// generation (reference-counted so a concurrent compaction or Release
// cannot free it mid-query), an immutable snapshot of the pending delta
// (nil when there is none), and the effective statistics the planner and
// the shard guard must see — the base statistics merged conservatively
// with the delta.
func (d *Dataset) acquireQuery() (*baseRef, *deltaSnap, plan.Stats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return nil, nil, plan.Stats{}, ErrDatasetReleased
	}
	b := d.base
	b.acquire()
	snap := d.snapLocked()
	return b, snap, d.effStatsLocked(snap), nil
}

// Load writes objects to the engine's disk and returns the Dataset.
// Loading is charged to the engine's I/O statistics; call ResetStats
// afterwards to measure a query in isolation. Coordinates and weights
// must be finite. Cancelling ctx (or exceeding its deadline) aborts the
// load at block-transfer granularity and returns an error matching both
// ErrQueryCancelled and the context error. On every error path — partial
// blocks included — nothing stays allocated.
func (e *Engine) Load(ctx context.Context, objs []Object) (_ *Dataset, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	f := em.NewFile(e.env.Disk)
	defer func() {
		if err != nil {
			err = wrapCancel(errors.Join(err, f.Release()))
		}
	}()
	// The context binds the writer, not the file: a dataset must not
	// carry its load context permanently (readers opened on it later
	// would inherit the cancellation).
	w, err := em.OpenRecordWriter(e.env.WithContext(ctx), f, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	col := plan.NewCollector()
	for _, o := range objs {
		if err := checkObject(o.X, o.Y, o.Weight); err != nil {
			return nil, fmt.Errorf("maxrs: object %+v: %w", o, err)
		}
		if err := w.Write(rec.Object{X: o.X, Y: o.Y, W: o.Weight}); err != nil {
			return nil, err
		}
		col.Add(o.X, o.Y, o.Weight)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return e.newDataset(f, len(objs), col.Finalize(e.opts.BlockSize, e.opts.Memory)), nil
}

// checkObject rejects NaN and ±Inf coordinates/weights — infinities
// poison the rectangle transform (an object at +Inf produces an invalid
// empty rectangle and, worse, ±Inf edge values break slab division).
func checkObject(x, y, w float64) error {
	for _, v := range [3]float64{x, y, w} {
		if math.IsNaN(v) {
			return errors.New("NaN value")
		}
		if math.IsInf(v, 0) {
			return errors.New("infinite value")
		}
	}
	return nil
}

// Stats returns the engine's accumulated block-transfer counts across all
// loads and queries — the primary disk's total plus the traffic of
// sharded queries' ephemeral per-shard disks, so the engine-global tally
// covers everything the engine transferred anywhere. For the cost of a
// single query under concurrency, use the Stats field of its Result
// instead.
func (e *Engine) Stats() IOStats {
	s := e.env.Disk.Stats()
	return IOStats{
		Reads:  s.Reads + e.shardReads.Load(),
		Writes: s.Writes + e.shardWrites.Load(),
	}
}

// ResetStats zeroes the engine-global transfer counters (primary disk and
// accumulated shard traffic). Per-query Result stats are unaffected.
func (e *Engine) ResetStats() {
	e.env.Disk.ResetStats()
	e.shardReads.Store(0)
	e.shardWrites.Store(0)
}

// BlocksInUse returns the number of live (allocated, unfreed) blocks on
// the engine's disk. After every dataset is released and every query has
// finished it returns 0; anything else indicates a leak — useful as an
// operational health check for long-running servers.
func (e *Engine) BlocksInUse() int { return e.env.Disk.InUse() }

// ErrQueryCancelled wraps the context error of every query abandoned by
// cancellation or deadline: errors.Is(err, ErrQueryCancelled) identifies
// "the caller gave up", and errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) still matches the underlying cause. A
// cancelled query stops within one block-transfer's work, releases every
// intermediate file and shard disk it held (Engine.BlocksInUse drains to
// 0), and leaves concurrent queries untouched — see DESIGN.md §10 for the
// full contract.
var ErrQueryCancelled = errors.New("maxrs: query cancelled")

// wrapCancel marks an error caused by ctx cancellation with
// ErrQueryCancelled, preserving the context error for errors.Is.
func wrapCancel(err error) error {
	if err == nil || errors.Is(err, ErrQueryCancelled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrQueryCancelled, err)
	}
	return err
}

// query is one in-flight query: the unified request path every public
// query method funnels through. It pins the resolved per-call settings
// (engine defaults + QueryOptions), the cancellation context, the
// per-query stat scope, and the core solver the call runs on, so the five
// query kinds share one begin/solve/end shape.
type query struct {
	e      *Engine
	ctx    context.Context
	d      *Dataset
	set    querySettings
	sc     *em.ScopeStats
	solver *core.Solver
	par    int // resolved parallelism (≥ 1) for the shard worker budget

	// base pins the dataset's base generation for the query's duration;
	// delta is the immutable snapshot of the pending mutations (nil when
	// the dataset is clean — the overwhelmingly common case, whose
	// execution and transfer schedule are bit-identical to pre-delta
	// builds); effSt are the effective statistics both merged.
	base  *baseRef
	delta *deltaSnap
	effSt plan.Stats

	// deltaPath records how a delta-carrying solve answered ("combined":
	// cached base solution survived the influence-bound check; "fused":
	// full re-solve over the materialized effective set); deltaBaseCached
	// whether the base incumbent came from the dataset's solution cache.
	deltaPath       string
	deltaBaseCached bool

	// plan is the materialized execution decision (DESIGN.md §12):
	// under AlgorithmAuto the planner's choice (already folded back into
	// set, so execution downstream is byte-identical to an explicit
	// query), otherwise the resolved settings with their predicted cost.
	plan     Plan
	fallback string // Result.FallbackReason

	// distributedRan records that the coordinator actually fanned this
	// query's shards out (Result.Distributed) — not set when distribution
	// degraded to in-process execution.
	distributedRan bool
}

// distribute reports whether this query's sharded solve should fan out
// to workers, noting the fallback when distribution was requested on an
// engine that has none configured.
func (q *query) distribute() bool {
	if !q.set.distributed {
		return false
	}
	if q.e.coord == nil {
		if q.set.distributedSet {
			q.noteFallback("distributed execution requested but Options.Dist is not configured; solved in process")
		}
		return false
	}
	return true
}

// noteFallback appends one reason to the query's FallbackReason.
func (q *query) noteFallback(reason string) {
	if q.fallback == "" {
		q.fallback = reason
		return
	}
	q.fallback += "; " + reason
}

// begin opens the unified request path: it resolves the call's options
// against the engine defaults, rejects an already-cancelled context
// before any work, acquires the dataset reference, materializes the
// query's Plan (running the planner for AlgorithmAuto), and picks the
// solver the planned settings need. Every error that can be diagnosed
// without touching the disk surfaces here. The caller must
// `defer q.end(&err)` on success.
func (e *Engine) begin(ctx context.Context, d *Dataset, kind queryKind, w, h float64, opts []QueryOption) (*query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	set, err := e.resolveQuery(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	base, snap, effSt, err := d.acquireQuery()
	if err != nil {
		return nil, err
	}
	pl, fallback, _ := e.planQuery(d, effSt, snap.pending(), kind, w, h, &set, false)
	solver, par, err := e.solverFor(set)
	if err != nil {
		return nil, errors.Join(err, base.release())
	}
	pl.Parallelism = par
	return &query{
		e: e, ctx: ctx, d: d, set: set, sc: new(em.ScopeStats),
		base: base, delta: snap, effSt: effSt,
		solver: solver, par: par, plan: pl, fallback: fallback,
	}, nil
}

// end is the deferred tail of every query: it drops the base-generation
// reference, joins in a final-free failure (the query error, if any,
// stays primary), and wraps cancellation-caused failures in
// ErrQueryCancelled.
func (q *query) end(err *error) {
	if rerr := q.base.release(); rerr != nil {
		*err = errors.Join(*err, rerr)
	}
	*err = wrapCancel(*err)
}

// env returns the engine env bound to this query's scope and context —
// what every stream and sub-solver of the query runs under.
func (q *query) env() em.Env {
	return q.e.env.WithScope(q.sc).WithContext(q.ctx)
}

// result assembles a Result from a finished solve: geometry, per-query
// stats, the effective algorithm / shard count actually used, and the
// plan the query ran under.
func (q *query) result(res sweep.Result, shards []ShardStat, alg Algorithm) Result {
	out := fromSweep(res)
	out.Stats = queryStatsOf(q.sc)
	out.Algorithm = alg
	out.Shards = len(shards)
	out.ShardStats = shards
	q.annotate(&out)
	return out
}

// annotate stamps the query's plan, prediction and fallback reason onto
// a Result (TopK calls it per round; result covers the single-result
// queries).
func (q *query) annotate(out *Result) {
	if q.delta != nil {
		q.plan.Delta = &DeltaPlan{
			Pending:    int(q.delta.pending()),
			Inserts:    q.delta.liveInserts(),
			Deletes:    len(q.delta.delBase) + len(q.delta.delIns),
			Path:       q.deltaPath,
			BaseCached: q.deltaBaseCached,
		}
	}
	out.Plan = q.plan
	out.PredictedCost = q.plan.Predicted
	out.FallbackReason = q.fallback
	out.Distributed = q.distributedRan
	out.Stats.PredictedReads = uint64(q.plan.Predicted.Reads)
	out.Stats.PredictedWrites = uint64(q.plan.Predicted.Writes)
}

// MaxRS finds a center location for a w×h rectangle maximizing the total
// covered weight of the dataset. Safe to call concurrently with other
// queries on the same engine and dataset. Cancelling ctx (or exceeding
// its deadline) aborts the solve within one block-transfer's work,
// releases every intermediate file, and returns an error matching both
// ErrQueryCancelled and the context error. QueryOptions override the
// engine defaults for this call only.
func (e *Engine) MaxRS(ctx context.Context, d *Dataset, w, h float64, opts ...QueryOption) (_ Result, err error) {
	if err := checkQuery(w, h); err != nil {
		return Result{}, err
	}
	q, err := e.begin(ctx, d, kindMaxRS, w, h, opts)
	if err != nil {
		return Result{}, err
	}
	defer q.end(&err)
	res, shards, alg, err := q.maxRS(w, h)
	if err != nil {
		if errors.Is(err, ErrShardUnavailable) && shards != nil {
			// A distributed query that lost a shard for good fails typed,
			// but the partial Result still carries the per-worker
			// attribution (ShardStats) so operators can see exactly which
			// worker failed how. Location/Score are zero — never a
			// silently partial answer.
			out := Result{Algorithm: alg, Shards: len(shards), ShardStats: shards}
			out.Stats = queryStatsOf(q.sc)
			q.annotate(&out)
			return out, err
		}
		return Result{}, err
	}
	return q.result(res, shards, alg), nil
}

// maxRS dispatches one already-begun MaxRS solve. Only the ExactMaxRS
// algorithm honors sharding; the per-shard breakdown (nil when unsharded)
// and the algorithm that ran ride back alongside the result.
func (q *query) maxRS(w, h float64) (sweep.Result, []ShardStat, Algorithm, error) {
	var (
		res sweep.Result
		err error
	)
	switch q.set.algorithm {
	case ExactMaxRS:
		if q.delta != nil {
			r, shards, err := q.solveDelta(w, h)
			return r, shards, ExactMaxRS, err
		}
		r, shards, err := q.solveObjects(q.base.f, w, h, q.shardsFor())
		return r, shards, ExactMaxRS, err
	case NaiveSweep:
		res, err = q.solveBaseline(baseline.NaiveSweep, w, h)
	case ASBTree:
		res, err = q.solveBaseline(baseline.ASBTreeSweep, w, h)
	case InMemory:
		var objs []geom.Object
		objs, err = q.readEffObjects()
		if err == nil {
			res = sweep.MaxRS(objs, w, h)
		}
	default:
		// Unreachable: NewEngine and WithAlgorithm validate. Tripwire.
		err = fmt.Errorf("%w: unknown algorithm %v", ErrInvalidQuery, q.set.algorithm)
	}
	return res, nil, q.set.algorithm, err
}

// solveBaseline runs one of the externalized baseline sweeps over the
// query's effective object file (the base file directly when the dataset
// is clean).
func (q *query) solveBaseline(fn func(em.Env, *em.File, float64, float64) (sweep.Result, error), w, h float64) (sweep.Result, error) {
	f, owned, err := q.effFile(nil)
	if err != nil {
		return sweep.Result{}, err
	}
	res, err := fn(q.env(), f, w, h)
	if owned {
		if rerr := f.Release(); rerr != nil && err == nil {
			err = rerr
		}
	}
	return res, err
}

// shardsFor resolves the shard count for this query: WithShards when
// given, else the dataset's override, else the engine's Options.Shards.
// Datasets holding any negative weight always resolve to 0 (unsharded): a
// shard's unrestricted optimum can land outside its slab, where missing
// negative-weight objects beyond the halo would inflate its local score
// — the merge is only exact for nonnegative weights (DESIGN.md §9.3).
// The guard reads the effective statistics, so a buffered insert with a
// negative weight disables sharding exactly like a loaded one.
func (q *query) shardsFor() int {
	if q.effSt.MinW < 0 {
		return 0
	}
	return q.requestedShards()
}

// requestedShards is the resolution step alone — query option, dataset
// override, engine default — without the weight-sign guard, for solves on
// a weight-mapped copy whose shardability does not depend on the
// dataset's own weights (CountRS).
func (q *query) requestedShards() int {
	return q.e.requestedShardsFor(q.d, q.set)
}

// solveObjects runs one ExactMaxRS object solve, sharded K ways when
// k ≥ 1 (0 = the plain single-solver path). All transfers — the primary
// disk's and, for sharded solves, the ephemeral shard disks' — are
// charged to the query scope and to the engine-global totals, keeping
// both accounting contracts intact (DESIGN.md §7.2, §9).
func (q *query) solveObjects(f *em.File, w, h float64, k int) (sweep.Result, []ShardStat, error) {
	if k < 1 {
		res, err := q.solver.SolveObjectsScoped(q.ctx, f, w, h, q.sc)
		return res, nil, err
	}
	if q.distribute() {
		return q.solveDistributed(f, w, h, k)
	}
	// Shard-level fan-out replaces slab-level fan-out as the outer
	// parallelism: the shard pool is bounded by the query's resolved
	// parallelism, and the shard layer splits that budget evenly over
	// the effective shard count (Core.Parallelism left zero), so a
	// sharded query never runs more workers than an unsharded one.
	r, err := shard.SolveObjects(q.ctx, q.e.env.WithScope(q.sc), f, w, h, shard.Config{
		Shards:  k,
		Workers: q.par,
		Core:    core.Config{Fanout: q.e.opts.Fanout, Unfused: q.set.unfused},
		NewDisk: q.e.newShardDisk,
	})
	if err != nil {
		return sweep.Result{}, nil, err
	}
	stats := make([]ShardStat, len(r.Shards))
	for i, si := range r.Shards {
		stats[i] = ShardStat{
			Objects: si.Objects,
			Stats:   QueryStats{Reads: si.Stats.Reads, Writes: si.Stats.Writes},
		}
	}
	ext := r.Stats()
	q.sc.Add(ext)
	q.e.shardReads.Add(ext.Reads)
	q.e.shardWrites.Add(ext.Writes)
	return r.Res, stats, nil
}

// newShardDisk allocates one shard's private disk, mirroring the
// engine's store and codec choices.
func (e *Engine) newShardDisk() (*em.Disk, error) {
	d, err := e.opts.newDisk()
	if err != nil {
		return nil, err
	}
	d.SetRetryPolicy(e.opts.Retry.em())
	if p := e.faultPlan.Load(); p != nil {
		d.InjectFaults(*p)
	}
	return d, nil
}

// ErrInvalidQuery is wrapped by every query-parameter validation failure
// (non-positive or infinite sizes, k < 1), so callers — e.g. an HTTP
// layer mapping errors to status codes — can classify with errors.Is
// instead of matching message text.
var ErrInvalidQuery = errors.New("maxrs: invalid query")

func checkQuery(w, h float64) error {
	if !(w > 0) || !(h > 0) || math.IsInf(w, 0) || math.IsInf(h, 0) {
		return fmt.Errorf("%w: size %gx%g must be positive and finite", ErrInvalidQuery, w, h)
	}
	return nil
}

// readEffObjects loads the query's effective object set into memory, in
// exactly the order a reload of the mutated set would store it: the base
// records minus pending deletes, then the live pending inserts in ID
// order. For a clean dataset it is a plain scan of the base file.
func (q *query) readEffObjects() ([]geom.Object, error) {
	if q.delta == nil {
		recs, err := em.ReadAllEnv(q.env(), q.base.f, rec.ObjectCodec{})
		if err != nil {
			return nil, err
		}
		objs := make([]geom.Object, len(recs))
		for i, r := range recs {
			objs[i] = r.Geom()
		}
		return objs, nil
	}
	var objs []geom.Object
	err := q.scanEff(func(o rec.Object) error {
		objs = append(objs, o.Geom())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return objs, nil
}

func fromSweep(res sweep.Result) Result {
	best := res.Best()
	return Result{
		Location: Point{X: best.X, Y: best.Y},
		Score:    res.Sum,
		Region: Rect{
			MinX: res.Region.X.Lo, MaxX: res.Region.X.Hi,
			MinY: res.Region.Y.Lo, MaxY: res.Region.Y.Hi,
		},
	}
}

// MaxRS is the one-shot convenience form: it builds a default engine
// (paper-default EM parameters, or opts), loads objs, solves under ctx,
// and closes the engine on every path — with Options.OnDisk the backing
// temp file is removed even when loading, solving, or cancellation fails
// the call.
func MaxRS(ctx context.Context, objs []Object, w, h float64, opts *Options, qopts ...QueryOption) (_ Result, err error) {
	e, err := NewEngine(opts)
	if err != nil {
		return Result{}, err
	}
	defer closeEngine(e, &err)
	d, err := e.Load(ctx, objs)
	if err != nil {
		return Result{}, err
	}
	return e.MaxRS(ctx, d, w, h, qopts...)
}

// closeEngine is the deferred tail of the one-shot forms: it closes the
// engine and joins the close failure into the call's error (the earlier
// error, if any, stays primary).
func closeEngine(e *Engine, err *error) {
	if cerr := e.Close(); cerr != nil {
		*err = errors.Join(*err, cerr)
	}
}

// ErrEmptyDataset is returned by queries that need at least one object.
var ErrEmptyDataset = errors.New("maxrs: empty dataset")

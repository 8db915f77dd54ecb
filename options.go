package maxrs

import (
	"fmt"
	"runtime"

	"maxrs/internal/core"
)

// A QueryOption overrides one engine default for a single query. Every
// query method (Engine.MaxRS, MaxCRS, TopK, MinRS, CountRS and the
// one-shot forms) accepts a variadic tail of QueryOptions; the engine's
// Options keep the defaults, the query decides. Options are resolved per
// call, so one engine can serve diverse workloads — a throttled caller
// with WithParallelism(1) next to production traffic, a huge dataset with
// WithShards(8) next to small ones — without rebuilding anything.
//
// Invalid values (an unknown Algorithm, a negative shard count) fail the
// query with an error wrapping ErrInvalidQuery before any work starts.
type QueryOption func(*querySettings) error

// WithAlgorithm overrides Options.Algorithm for one query. Only MaxRS
// honors the concrete algorithms (exactly like the engine-level default:
// TopK, MinRS and CountRS always solve with ExactMaxRS, and MaxCRS's
// rectangle transform is ExactMaxRS by construction). AlgorithmAuto asks
// the planner to choose algorithm × shards from the dataset's load-time
// statistics (DESIGN.md §12); for the solver-only kinds it still picks
// the shard count where the kind allows one.
func WithAlgorithm(a Algorithm) QueryOption {
	return func(q *querySettings) error {
		if !validAlgorithm(a) {
			return fmt.Errorf("%w: unknown algorithm %v", ErrInvalidQuery, a)
		}
		q.algorithm = a
		return nil
	}
}

// WithShards overrides the shard count for one query, taking precedence
// over both Dataset.SetShards and Options.Shards (0 = unsharded, 1 = the
// degenerate single-shard path, K ≥ 2 shards K ways — DESIGN.md §9).
// Non-ExactMaxRS algorithms and MaxCRS ignore it; Result.Shards reports
// what actually ran.
func WithShards(k int) QueryOption {
	return func(q *querySettings) error {
		if k < 0 {
			return fmt.Errorf("%w: shard count %d must be ≥ 0", ErrInvalidQuery, k)
		}
		q.shards = k
		q.shardsSet = true
		return nil
	}
}

// WithParallelism overrides Options.Parallelism for one query (0 =
// GOMAXPROCS, 1 = sequential). A query running with the engine's default
// parallelism shares the engine-wide worker pool; an overridden query
// gets its own pool bounded by the override, so one heavy caller can be
// throttled to WithParallelism(1) without starving the shared pool.
// Results and counted transfers are identical for every value.
func WithParallelism(p int) QueryOption {
	return func(q *querySettings) error {
		if p < 0 {
			return fmt.Errorf("%w: parallelism %d must be ≥ 0", ErrInvalidQuery, p)
		}
		q.parallelism = p
		return nil
	}
}

// WithDistributed overrides where one query's shards execute: true fans
// them out to the engine's workers (the default whenever Options.Dist is
// configured), false pins this query to the in-process sharded path —
// e.g. to A/B fan-out overhead, or to keep a latency-critical query off
// a degraded cluster. Requesting true on an engine without Options.Dist
// runs in process and reports it in Result.FallbackReason. Distribution
// never changes answers, only where shards solve; unsharded queries are
// unaffected.
func WithDistributed(on bool) QueryOption {
	return func(q *querySettings) error {
		q.distributed = on
		q.distributedSet = true
		return nil
	}
}

// querySettings is the per-query resolution of the engine Options and the
// call's QueryOptions.
type querySettings struct {
	algorithm Algorithm
	// shards is the requested shard count, resolved once per query:
	// WithShards, else the dataset's override, else Options.Shards. The
	// Plan applies the kind's execution rules to it (effectiveStrategy).
	shards         int
	shardsSet      bool // WithShards given: overrides dataset and engine
	parallelism    int  // unresolved (0 = GOMAXPROCS), as in Options
	distributed    bool
	distributedSet bool // WithDistributed given explicitly
}

// validAlgorithm reports whether a names a known solver (or the planner
// sentinel AlgorithmAuto).
func validAlgorithm(a Algorithm) bool {
	switch a {
	case ExactMaxRS, InMemory, AlgorithmAuto:
		return true
	}
	return false
}

// resolveQuery folds the call's options over the engine defaults and
// the dataset's shard override.
func (e *Engine) resolveQuery(d *Dataset, opts []QueryOption) (querySettings, error) {
	set := querySettings{
		algorithm:   e.opts.Algorithm,
		parallelism: e.opts.Parallelism,
		distributed: e.coord != nil,
	}
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return querySettings{}, err
		}
	}
	if !set.shardsSet {
		if set.shards = d.Shards(); set.shards == 0 {
			set.shards = e.opts.Shards
		}
	}
	return set, nil
}

// solverFor returns the core solver a query with these settings runs on:
// the engine's shared solver (and its shared worker pool) when the query
// keeps the engine's parallelism, or a transient per-query solver
// otherwise. A transient solver is two allocations — the
// cost sits entirely in the solve. The resolved parallelism (≥ 1) rides
// along for the shard layer's worker budget.
func (e *Engine) solverFor(set querySettings) (*core.Solver, int, error) {
	if set.parallelism == e.opts.Parallelism {
		return e.solver, e.par, nil
	}
	s, err := core.NewSolver(e.env, core.Config{Parallelism: set.parallelism})
	if err != nil {
		return nil, 0, err
	}
	par := set.parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return s, par, nil
}

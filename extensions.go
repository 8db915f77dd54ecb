package maxrs

import (
	"context"
	"errors"
	"fmt"
	"io"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// This file implements the extensions the paper lists as future work (§8):
// the MaxkRS problem (top-k placements), the MinRS problem, and the
// alternative aggregates mentioned in §2 (COUNT alongside SUM).

// TopK solves the MaxkRS problem with the standard greedy semantics: it
// repeatedly finds the best location, removes the objects its rectangle
// covers, and recurses, returning up to k results in non-increasing score
// order. Results therefore cover disjoint object subsets (their rectangles
// may still geometrically overlap empty space). Iteration stops early when
// no remaining object can be covered. Safe to call concurrently with other
// queries; each Result's Stats is the cost of its round alone.
//
// Each round costs one full MaxRS solve plus one linear filtering scan, so
// the total is k times the cost of Engine.MaxRS. Cancelling ctx aborts the
// current round within one block-transfer's work, releasing the round's
// intermediates. Every round runs the one Plan made when the call
// began.
func (e *Engine) TopK(ctx context.Context, d *Dataset, w, h float64, k int) (_ []Result, err error) {
	if err := checkQuery(w, h); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k = %d must be ≥ 1", ErrInvalidQuery, k)
	}
	q, err := e.begin(ctx, d, kindTopK, w, h, false)
	if err != nil {
		return nil, err
	}
	defer q.end(&err)
	env := q.env()
	// Every round removes ≥ 1 object, so results never exceed d.Len();
	// don't let an untrusted huge k size the allocation.
	results := make([]Result, 0, min(k, d.Len()))
	cur := q.base.f
	owned := false // whether cur is an intermediate we must release
	defer func() {
		if owned {
			_ = cur.Release()
		}
	}()
	if q.delta != nil {
		// Pending mutations: every round solves the materialized
		// effective set (and its filtrates) — the rounds run
		// bit-identically to a reload.
		f, err := q.materializeEff(nil)
		if err != nil {
			return nil, err
		}
		cur, owned = f, true
	}
	var prev QueryStats // scope snapshot at the start of the round
	for round := 0; round < k; round++ {
		if cur.Size() == 0 {
			break
		}
		res, shardStats, err := q.solveObjects(cur, w, h)
		if err != nil {
			return nil, err
		}
		if res.Sum <= 0 {
			break // nothing left to cover
		}
		out := fromSweep(res)
		out.Algorithm = ExactMaxRS
		out.Shards = len(shardStats)
		out.ShardStats = shardStats
		// Every round carries the same plan; its prediction covers one
		// solve over the full dataset — later rounds solve shrinking
		// filtrates, so their measured Stats fall below it.
		q.annotate(&out)
		if round < k-1 {
			// The final round's filtrate would never be solved — skip the
			// pass instead of paying its scan + rewrite.
			rect := geom.RectFromCenter(res.Best(), w, h)
			next, err := filterObjects(env, cur, func(o rec.Object) bool {
				return !rect.Contains(geom.Point{X: o.X, Y: o.Y})
			})
			if err != nil {
				return nil, err
			}
			if owned {
				if err := cur.Release(); err != nil {
					_ = next.Release()
					return nil, err
				}
			}
			cur, owned = next, true
		}
		now := queryStatsOf(q.sc)
		out.Stats.Reads, out.Stats.Writes = now.Reads-prev.Reads, now.Writes-prev.Writes
		prev = now
		results = append(results, out)
	}
	if owned {
		owned = false
		if err := cur.Release(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// filterObjects streams in into a fresh file keeping objects where keep
// returns true. The input is read and the output written under env's stat
// scope; on error the partial output is released.
func filterObjects(env em.Env, in *em.File, keep func(rec.Object) bool) (*em.File, error) {
	return transformObjects(env, in, func(o rec.Object, emit func(rec.Object) error) error {
		if keep(o) {
			return emit(o)
		}
		return nil
	})
}

// mapObjects streams in into a fresh file applying f to every record.
func mapObjects(env em.Env, in *em.File, f func(rec.Object) rec.Object) (*em.File, error) {
	return transformObjects(env, in, func(o rec.Object, emit func(rec.Object) error) error {
		return emit(f(o))
	})
}

// transformObjects streams in into a fresh file on env's disk via fn,
// which may emit zero or more records per input. On error no blocks of
// the partial output stay allocated.
func transformObjects(env em.Env, in *em.File, fn func(o rec.Object, emit func(rec.Object) error) error) (_ *em.File, err error) {
	rr, err := em.OpenRecordReader(env, in, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	out := env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	w, err := em.NewRecordWriter(out, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	for {
		o, err := rr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		if err := fn(o, w.Write); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// MinRS finds the center location of a w×h rectangle minimizing the total
// covered weight — the MinRS problem of §8. It negates every weight and
// runs ExactMaxRS, so a location whose rectangle covers nothing is a valid
// (score 0) answer when one exists; with negative-weight objects present
// the optimum may be strictly below zero. Safe to call concurrently with
// other queries, and cancellable through ctx like every query. It shards
// like MaxRS: each shard answers for its own slab, so the merge is exact
// for the negated weights too (DESIGN.md §9.3).
func (e *Engine) MinRS(ctx context.Context, d *Dataset, w, h float64) (Result, error) {
	res, err := e.solveMapped(ctx, d, w, h, kindMinRS, func(o rec.Object) rec.Object {
		o.W = -o.W
		return o
	})
	if err != nil {
		return Result{}, err
	}
	res.Score = 0 - res.Score // not -res.Score: a zero optimum is +0, not -0
	return res, nil
}

// CountRS solves MaxRS under the COUNT aggregate (§2): every object
// contributes 1 regardless of its weight. Safe to call concurrently with
// other queries, and cancellable through ctx like every query. It shards
// like MaxRS.
func (e *Engine) CountRS(ctx context.Context, d *Dataset, w, h float64) (Result, error) {
	return e.solveMapped(ctx, d, w, h, kindCountRS, func(o rec.Object) rec.Object {
		o.W = 1
		return o
	})
}

// solveMapped runs ExactMaxRS on a weight-transformed copy of the dataset
// with the Plan's shard count, releasing the intermediate file on every
// path (solve errors and cancellation included).
func (e *Engine) solveMapped(ctx context.Context, d *Dataset, w, h float64, kind queryKind, f func(rec.Object) rec.Object) (_ Result, err error) {
	if err := checkQuery(w, h); err != nil {
		return Result{}, err
	}
	q, err := e.begin(ctx, d, kind, w, h, false)
	if err != nil {
		return Result{}, err
	}
	defer q.end(&err)
	mapped, owned, err := q.effFile(f)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		if !owned {
			return
		}
		if rerr := mapped.Release(); rerr != nil && err == nil {
			err = rerr
		}
	}()
	res, shardStats, err := q.solveObjects(mapped, w, h)
	if err != nil {
		return Result{}, err
	}
	return q.result(res, shardStats, ExactMaxRS), nil
}

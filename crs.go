package maxrs

import (
	"context"
	"fmt"
	"math"

	"maxrs/internal/crs"
	"maxrs/internal/geom"
)

// CRSResult is a MaxCRS answer.
type CRSResult struct {
	// Location is the chosen circle center.
	Location Point
	// Score is the total weight covered by the diameter-d circle at
	// Location.
	Score float64
	// LowerBoundRatio is the guaranteed worst-case fraction of the
	// optimum that Score attains (1/4 for ApproxMaxCRS, 1 for the exact
	// solver).
	LowerBoundRatio float64
	// Stats is the I/O cost of this query alone (zero for the in-memory
	// exact solver).
	Stats QueryStats
	// Plan is the materialized execution decision (zero for the
	// in-memory exact solver); PredictedCost is its cost-model
	// prediction, comparable against Stats. See DESIGN.md §12.
	Plan          Plan
	PredictedCost PredictedCost
	// FallbackReason is non-empty when the settings requested something
	// MaxCRS never does (e.g. sharding — the rectangle transform runs
	// unsharded by construction).
	FallbackReason string
}

// MaxCRS approximates the circular MaxRS problem with the paper's
// ApproxMaxCRS algorithm (§6): it runs the external-memory ExactMaxRS on
// the circles' bounding squares and returns the best of the max-region
// center and four shifted candidates. The answer is guaranteed to cover
// at least 1/4 of the optimal weight (Theorem 3) and empirically ~90% for
// realistic densities (Fig. 17).
//
// Cancelling ctx aborts the inner solve or the candidate scan within one
// block-transfer's work. Options.Algorithm and the shard count do not
// apply: the rectangle transform is ExactMaxRS by construction and stays
// unsharded.
func (e *Engine) MaxCRS(ctx context.Context, d *Dataset, diameter float64) (_ CRSResult, err error) {
	if !(diameter > 0) || math.IsInf(diameter, 0) {
		return CRSResult{}, fmt.Errorf("%w: diameter %g must be positive and finite", ErrInvalidQuery, diameter)
	}
	q, err := e.begin(ctx, d, kindMaxCRS, diameter, diameter, false)
	if err != nil {
		return CRSResult{}, err
	}
	defer q.end(&err)
	f, owned, err := q.effFile(nil)
	if err != nil {
		return CRSResult{}, err
	}
	res, err := crs.ApproxScoped(q.ctx, q.e.solver, f, diameter, q.sc)
	if owned {
		if rerr := f.Release(); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return CRSResult{}, err
	}
	out := CRSResult{
		Location:        Point{X: res.Center.X, Y: res.Center.Y},
		Score:           res.Weight,
		LowerBoundRatio: 0.25,
		Stats:           queryStatsOf(q.sc),
		Plan:            q.plan,
		PredictedCost:   q.plan.Predicted,
		FallbackReason:  q.fallback,
	}
	out.Stats.PredictedReads = uint64(q.plan.Predicted.Reads)
	out.Stats.PredictedWrites = uint64(q.plan.Predicted.Writes)
	return out, nil
}

// MaxCRS is the one-shot convenience form of Engine.MaxCRS: it builds an
// engine, loads objs, solves under ctx, and closes the engine on every
// path — with Options.OnDisk the backing temp file is removed even when
// loading or solving fails.
func MaxCRS(ctx context.Context, objs []Object, diameter float64, opts *Options) (_ CRSResult, err error) {
	e, err := NewEngine(opts)
	if err != nil {
		return CRSResult{}, err
	}
	defer closeEngine(e, &err)
	d, err := e.Load(ctx, objs)
	if err != nil {
		return CRSResult{}, err
	}
	return e.MaxCRS(ctx, d, diameter)
}

// MaxCRSExact solves MaxCRS exactly with the in-memory arrangement-sweep
// oracle (the role Drezner's O(n² log n) algorithm plays in the paper's
// quality experiment). It requires the dataset in memory and non-negative
// weights; use it for moderate n or as a quality reference.
func MaxCRSExact(objs []Object, diameter float64) (CRSResult, error) {
	if !(diameter > 0) || math.IsInf(diameter, 0) {
		return CRSResult{}, fmt.Errorf("maxrs: diameter %g must be positive and finite", diameter)
	}
	gobjs := make([]geom.Object, len(objs))
	for i, o := range objs {
		if o.Weight < 0 {
			return CRSResult{}, fmt.Errorf("maxrs: MaxCRSExact requires non-negative weights, got %g", o.Weight)
		}
		gobjs[i] = geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: o.Weight}
	}
	res := crs.Exact(gobjs, diameter)
	return CRSResult{
		Location:        Point{X: res.Center.X, Y: res.Center.Y},
		Score:           res.Weight,
		LowerBoundRatio: 1,
	}, nil
}

package maxrs

import (
	"context"
	"fmt"

	"maxrs/internal/plan"
)

// This file is the public face of the engine's decision layer
// (internal/plan, DESIGN.md §12): load-time dataset statistics, the
// scale-model transfer-count cost model, and the planner behind
// AlgorithmAuto. Every query — explicit algorithm or Auto — flows
// through a materialized Plan; Result carries it back next to the
// effective-settings fields.

// DatasetStats are the statistics collected in the loader's single
// streaming pass (no extra scan, no extra block transfers) and stored on
// the Dataset. They are the planner's entire picture of the data.
type DatasetStats struct {
	// N is the object count; Bytes and Blocks the object file's size on
	// the engine's disk.
	N      int64
	Bytes  int64
	Blocks int64
	// MinX..MaxY is the dataset extent.
	MinX, MaxX float64
	MinY, MaxY float64
	// MinW/MaxW/MeanW summarize the weights. Their signs decide nothing:
	// every query shards exactly for weights of any sign (DESIGN.md §9.3).
	MinW, MaxW, MeanW float64
	// Resident reports that the whole dataset fits in the engine's
	// memory budget M — the regime where single-scan strategies win.
	Resident bool
}

// Stats returns the dataset's effective statistics: the base file's
// load-time statistics merged with the pending delta (inserts folded in
// exactly; deletes decrement the count and weight sum but conservatively
// never shrink the extent or weight range — see DESIGN.md §14.2). For a
// dataset with no pending mutations they are exactly the load-time
// statistics.
func (d *Dataset) Stats() DatasetStats {
	d.mu.Lock()
	st := d.effStatsLocked(d.snapLocked())
	d.mu.Unlock()
	return datasetStatsOf(st)
}

func datasetStatsOf(st plan.Stats) DatasetStats {
	return DatasetStats{
		N: st.N, Bytes: st.Bytes, Blocks: st.Blocks,
		MinX: st.MinX, MaxX: st.MaxX,
		MinY: st.MinY, MaxY: st.MaxY,
		MinW: st.MinW, MaxW: st.MaxW, MeanW: st.MeanW(),
		Resident: st.Resident,
	}
}

// PredictedCost is the cost model's transfer-count prediction for a
// strategy. Exact marks a prediction that is the query's own schedule —
// the InMemory scan, or an ExactMaxRS solve priced on a dataset small
// enough to be its own sample — which the calibration tests hold
// bit-for-bit; the rest come from a scale model of the dataset, and the
// calibration matrix bounds their measured error (DESIGN.md §12.4).
type PredictedCost struct {
	Reads, Writes int64
	Exact         bool
}

// Total returns Reads + Writes — the paper's I/O metric, and what the
// planner ranks candidates by.
func (c PredictedCost) Total() int64 { return c.Reads + c.Writes }

// Plan is the materialized execution decision of one query: the strategy
// that ran (or is about to run, in an Explanation) and its predicted
// cost. Auto distinguishes a planner choice from the engine's explicit
// settings carried through unchanged.
type Plan struct {
	Algorithm   Algorithm
	Shards      int // effective shard count (fallbacks applied), as requested of the shard planner
	Parallelism int // resolved worker budget (≥ 1); never affects transfer counts
	Auto        bool
	Predicted   PredictedCost
	// Delta reports the base+delta composition of a query that ran on a
	// dataset with pending mutations (DESIGN.md §14); nil on a clean
	// dataset — the immutable fast path, whose execution is untouched.
	Delta *DeltaPlan
}

// DeltaPlan is the delta-maintenance composition of one query's answer.
type DeltaPlan struct {
	// Pending is the buffered delta size the query saw (inserts +
	// deleted base records); Inserts/Deletes break it into live buffered
	// inserts and pending deletions (of base records and of buffered
	// inserts).
	Pending int
	Inserts int
	Deletes int
	// Path is how the solve answered: "combined" (the cached base
	// solution survived the influence-bound gates and is the exact
	// answer) or "fused" (full re-solve of the materialized effective
	// set). Empty in an Explanation — the path is chosen adaptively at
	// solve time.
	Path string
	// BaseCached reports that the combined path's base incumbent came
	// from the dataset's per-generation solution cache rather than a
	// fresh base solve.
	BaseCached bool
}

// PlanCandidate is one row of the planner's candidate table: a strategy,
// its predicted cost, and whether the planner may pick it. Ineligible
// rows (strategies the execution rules forbid, with the reason in Note)
// are kept for explain visibility.
type PlanCandidate struct {
	Algorithm Algorithm
	Shards    int
	// Delta marks the informational combined base+delta row shown when
	// the dataset has pending mutations; it is never chosen by the
	// planner (the path is taken adaptively at solve time when its
	// soundness gates hold — DESIGN.md §14.3).
	Delta     bool
	Predicted PredictedCost
	Eligible  bool
	Chosen    bool
	Note      string
}

// Explanation is the result of Engine.Explain: the plan a MaxRS query
// would run, without executing anything.
type Explanation struct {
	Plan Plan
	// FallbackReason is non-empty when the settings requested something
	// the query would silently not do (see Result.FallbackReason).
	FallbackReason string
	Stats          DatasetStats
	Candidates     []PlanCandidate
}

// Explain plans a MaxRS query without executing it: no transfers on the
// engine's disks, no worker time — just the planner over the dataset's
// effective statistics. The planner may run its scale model, a solve of
// the load-time sample on a private in-memory disk, once per ExactMaxRS
// row and query size (DESIGN.md §12.2), so a cold Explain costs CPU
// time like a small query. Under AlgorithmAuto the returned plan is the
// planner's choice and the candidate table marks the chosen row; with
// an explicit Options.Algorithm the plan reflects the engine's settings
// and the table shows what the planner would have considered. Explain
// opens the query path like a query does: it holds a dataset reference
// for its duration, so it never races a concurrent Release, and checks
// ctx before planning. The planning itself, scale-model solves
// included, is not interrupted by ctx.
func (e *Engine) Explain(ctx context.Context, d *Dataset, w, h float64) (_ Explanation, err error) {
	if err := checkQuery(w, h); err != nil {
		return Explanation{}, err
	}
	q, err := e.begin(ctx, d, kindMaxRS, w, h, true)
	if err != nil {
		return Explanation{}, err
	}
	defer q.end(&err)
	out := Explanation{
		Plan:           q.plan,
		FallbackReason: q.fallback,
		Stats:          datasetStatsOf(q.st),
		Candidates:     make([]PlanCandidate, len(q.cands)),
	}
	for i, c := range q.cands {
		out.Candidates[i] = PlanCandidate{
			Algorithm: Algorithm(c.Algorithm),
			Shards:    c.Shards,
			Delta:     c.Delta,
			Predicted: PredictedCost{Reads: c.Cost.Reads, Writes: c.Cost.Writes, Exact: c.Cost.Exact},
			Eligible:  c.Eligible,
			Chosen:    c.Chosen,
			Note:      c.Note,
		}
	}
	return out, nil
}

// queryKind names the five query shapes the plan layer distinguishes:
// they differ in which strategy dimensions are free (MaxCRS never
// shards, only MaxRS swaps algorithms) and in the kind-specific passes
// charged on top of the solve.
type queryKind int

const (
	kindMaxRS queryKind = iota
	kindTopK
	kindMinRS
	kindCountRS
	kindMaxCRS
)

// planSettingsFor builds the cost-model settings for one query kind:
// the engine's EM geometry, the query rectangle, the kind's strategy
// restrictions, and its extra passes (charged to every candidate alike,
// so they never change the ranking — only the absolute prediction).
func (e *Engine) planSettingsFor(st plan.Stats, kind queryKind, w, h float64) plan.Settings {
	set := plan.Settings{W: w, H: h}
	switch kind {
	case kindMinRS, kindCountRS:
		// The weight map pass: read the object file, write the mapped
		// copy.
		set.SolverOnly = true
		set.ExtraReads, set.ExtraWrites = st.Blocks, st.Blocks
	case kindTopK:
		// The prediction covers one round's solve over the full dataset;
		// later rounds solve shrinking filtrates and cost less.
		set.SolverOnly = true
	case kindMaxCRS:
		// The inner MaxRS on the bounding squares is ExactMaxRS by
		// construction and stays unsharded; the candidate scan streams
		// the object file once more.
		set.SolverOnly, set.NoShards = true, true
		set.ExtraReads = st.Blocks
	}
	return set
}

// planQuery materializes the query's Plan. It requests
// Options.Algorithm with the given shard count, or under AlgorithmAuto
// the planner's choice, and applies the kind's execution rules to it;
// the execution path downstream reads only the Plan, so an Auto query
// runs byte-identically to an explicit one with the chosen settings.
// The candidate table is built when wantCands (Explain).
func (e *Engine) planQuery(st plan.Stats, pending int64, kind queryKind, w, h float64, shards int, wantCands bool) (Plan, string, []plan.Candidate) {
	pset := e.planSettingsFor(st, kind, w, h)
	pset.DeltaPending = pending
	auto := e.opts.Algorithm == AlgorithmAuto
	req := plan.Strategy{Algorithm: plan.Algorithm(e.opts.Algorithm), Shards: shards}
	var cands []plan.Candidate
	if auto {
		req, cands = plan.Choose(st, pset)
	} else if wantCands {
		cands = plan.Candidates(st, pset)
	}
	eff := effectiveStrategy(kind, req)
	cost := plan.Estimate(st, pset, eff)
	if pending > 0 || kind == kindTopK || (eff.Shards > 0 && e.coord != nil) {
		// The model schedules none of this work exactly: a pending
		// delta's (the base incumbent, the influence sweep or the fused
		// materialization), TopK's later rounds, and shards shipped to
		// workers instead of solved on the query's shard disks.
		cost.Exact = false
	}
	if !auto {
		for i := range cands {
			if cands[i].Delta {
				continue // informational row, never the executed strategy
			}
			if cands[i].Strategy == eff {
				cands[i].Chosen = true
				break
			}
		}
	}
	pl := Plan{
		Algorithm:   Algorithm(eff.Algorithm),
		Shards:      eff.Shards,
		Parallelism: e.par,
		Auto:        auto,
		Predicted:   PredictedCost{Reads: cost.Reads, Writes: cost.Writes, Exact: cost.Exact},
	}
	if !wantCands {
		cands = nil
	}
	return pl, fallbackReason(req.Shards, eff, kind), cands
}

// effectiveStrategy applies the kind's execution rules to the requested
// strategy, yielding the strategy the query runs: execution reads the
// Plan built from it, so these rules are the only shard decision. Every
// ExactMaxRS object solve shards as asked, whatever the weights' signs
// (DESIGN.md §9.3).
func effectiveStrategy(kind queryKind, req plan.Strategy) plan.Strategy {
	if kind != kindMaxRS {
		req.Algorithm = plan.ExactMaxRS // TopK, MinRS, CountRS and MaxCRS only ever solve with ExactMaxRS
	}
	if req.Algorithm != plan.ExactMaxRS || kind == kindMaxCRS {
		req.Shards = 0
	}
	return req
}

// fallbackReason explains — in Result.FallbackReason — why a query that
// requested sharding runs unsharded. It reads the decision instead of
// restating it: the requested count, the strategy that runs, and the
// query kind. Empty when nothing was overridden.
func fallbackReason(requested int, eff plan.Strategy, kind queryKind) string {
	switch {
	case requested <= 0 || eff.Shards > 0:
		return ""
	case kind == kindMaxCRS:
		return "MaxCRS never shards: the rectangle transform runs unsharded by construction"
	}
	return fmt.Sprintf("algorithm %v ignores sharding: only ExactMaxRS shards", Algorithm(eff.Algorithm))
}

package plan

import (
	"context"
	"math"
	"sync"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/rec"
	"maxrs/internal/shard"
)

// Estimate predicts the block transfers of one strategy for one query
// over the dataset. InMemory is closed-form; ExactMaxRS is priced on the
// dataset's scale model (see scaleModel). See DESIGN.md §12 for the
// derivation and the measured calibration error.
func Estimate(st Stats, set Settings, strat Strategy) Cost {
	c := estimate(st, set, strat)
	c.Reads += set.ExtraReads
	c.Writes += set.ExtraWrites
	return c
}

func estimate(st Stats, set Settings, strat Strategy) Cost {
	if st.N == 0 {
		return Cost{Exact: true}
	}
	if strat.Algorithm == InMemory {
		// ReadAll of the object file; the sweep itself is CPU-only.
		return Cost{Reads: st.Blocks, Exact: true}
	}
	if st.model == nil {
		return Cost{} // hand-built Stats carry no sample to price
	}
	c := st.model.price(set.W, set.H, strat.Shards)
	c.Exact = c.Exact && set.DeltaPending == 0
	return c
}

// memoCap bounds a scale model's memo. Query sizes come from callers
// (maxrsd takes them from HTTP), so an unbounded memo would grow with
// every distinct size; a full memo starts over.
const memoCap = 64

// scaleModel is one base generation's scale model: the sample's objects
// and the EM geometry that makes their solve cost what the full query
// costs. In the EM model ExactMaxRS's transfer count depends on N/B and
// M/B (Theorem 2): run lengths, merge fan-in, division fan-out and the
// base-case capacity are all counts of blocks or memory-loads. A sample
// of n = N/s objects at block size B/s and memory M/s keeps both ratios,
// so the engine's own solve of it makes the same passes over the same
// number of blocks. Routing scales too: a slab boundary cuts 1/s as many
// sample pieces, into blocks 1/s as big.
type scaleModel struct {
	objs  []rec.Object
	b, m  int  // scaled block size and memory budget
	whole bool // objs is the whole dataset: the model is the query

	mu   sync.Mutex
	memo map[modelKey]Cost
}

type modelKey struct {
	w, h   float64
	shards int
}

// newScaleModel scales the engine geometry (blockSize, memory) to a
// sample of n objects: B·n/N, rounded, and M·n/N, held to the same
// whole number of blocks as M/B, which fixes the merge fan-in and the
// division fan-out.
func newScaleModel(sample []rec.Object, n int64, blockSize, memory int) *scaleModel {
	sm := &scaleModel{objs: sample, b: blockSize, m: memory, whole: int64(len(sample)) == n}
	if !sm.whole {
		f := float64(len(sample)) / float64(n)
		sm.b = max(1, int(math.Round(float64(blockSize)*f)))
		blocks := memory / blockSize
		sm.m = min(max(int(math.Round(float64(memory)*f)), blocks*sm.b), (blocks+1)*sm.b-1)
	}
	return sm
}

// price returns the memoized count of one ExactMaxRS query shape,
// running the model on a miss.
func (sm *scaleModel) price(w, h float64, shards int) Cost {
	key := modelKey{w: w, h: h, shards: shards}
	sm.mu.Lock()
	c, ok := sm.memo[key]
	sm.mu.Unlock()
	if ok {
		return c
	}
	c, err := sm.solve(w, h, shards)
	if err != nil {
		return Cost{} // a model that cannot run predicts nothing
	}
	sm.mu.Lock()
	if sm.memo == nil || len(sm.memo) >= memoCap {
		sm.memo = make(map[modelKey]Cost)
	}
	sm.memo[key] = c
	sm.mu.Unlock()
	return c
}

// solve runs the engine's calls for one strategy on the sample, on a
// private in-memory disk: SolveObjectsScoped unsharded, or the sharded
// executor's PlanBounds → PartitionObjects → SolveAll, single-threaded
// (transfer counts do not depend on parallelism). It touches nothing of
// the engine's — not its disk, its stats, a query's scope or context.
func (sm *scaleModel) solve(w, h float64, shards int) (_ Cost, err error) {
	d, err := em.NewDisk(sm.b)
	if err != nil {
		return Cost{}, err
	}
	defer d.Close()
	f, err := em.WriteAll(d, rec.ObjectCodec{}, sm.objs)
	if err != nil {
		return Cost{}, err
	}
	sc := new(em.ScopeStats)
	env := em.Env{Disk: d, M: sm.m}
	cfg := core.Config{Parallelism: 1}
	if shards == 0 {
		s, err := core.NewSolver(env, cfg)
		if err != nil {
			return Cost{}, err
		}
		if _, err := s.SolveObjectsScoped(context.Background(), f, w, h, sc); err != nil {
			return Cost{}, err
		}
	} else {
		env = env.WithScope(sc)
		bounds, err := shard.PlanBounds(env, f, shards)
		if err != nil {
			return Cost{}, err
		}
		parts, err := shard.PartitionObjects(env, f, bounds, w/2, nil)
		if err != nil {
			return Cost{}, err
		}
		_, err = shard.SolveAll(context.Background(), parts, w, h, cfg, 1)
		for _, p := range parts {
			sc.Add(p.Stats())
			_ = p.Close() // in-memory disks: closing frees blocks and cannot fail
		}
		if err != nil {
			return Cost{}, err
		}
	}
	st := sc.Stats()
	return Cost{Reads: int64(st.Reads), Writes: int64(st.Writes), Exact: sm.whole}, nil
}

package plan_test

import (
	"math/rand"
	"reflect"
	"testing"

	"maxrs/internal/plan"
	"maxrs/internal/rec"
)

// TestCollectorDeterminism: the sample keys come from a PRNG seeded
// with a fixed constant, so the same input sequence yields identical
// Stats — the object sample included — and therefore identical
// predictions and the same plan on every load.
func TestCollectorDeterminism(t *testing.T) {
	build := func() plan.Stats {
		c := plan.NewCollector(4096, 52428)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			c.Add(rng.Float64()*1000, rng.Float64()*1000, 1)
		}
		return c.Finalize()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two loads of the same sequence produced different Stats")
	}
	if len(a.Sample) != 2048 {
		t.Fatalf("sample holds %d objects, want 2048", len(a.Sample))
	}
	set := plan.Settings{W: 20, H: 20}
	for _, k := range []int{0, 2} {
		s := plan.Strategy{Algorithm: plan.ExactMaxRS, Shards: k}
		if pa, pb := plan.Estimate(a, set, s), plan.Estimate(b, set, s); pa != pb || pa.Total() == 0 {
			t.Fatalf("K=%d: predictions %+v and %+v of two loads, want equal and nonzero", k, pa, pb)
		}
	}
}

// TestSampleIsUniform: the sample keeps load order, and an input
// sorted by x yields a sample spread over the whole range — no part of
// the load is favoured.
func TestSampleIsUniform(t *testing.T) {
	c := plan.NewCollector(4096, 52428)
	const n = 100000
	for i := 0; i < n; i++ {
		c.Add(float64(i), 0, 1)
	}
	st := c.Finalize()
	if len(st.Sample) != 2048 {
		t.Fatalf("sample holds %d objects, want 2048", len(st.Sample))
	}
	var quarter [4]int
	for i, o := range st.Sample {
		if i > 0 && o.X <= st.Sample[i-1].X {
			t.Fatal("sample not in load order")
		}
		quarter[int(o.X)*4/n]++
	}
	for q, got := range quarter {
		if got < 400 || got > 624 {
			t.Fatalf("quarter %d of the load holds %d of 2048 sample objects", q, got)
		}
	}
}

func TestCollectorStats(t *testing.T) {
	c := plan.NewCollector(4096, 1<<20)
	c.Add(3, -2, 5)
	c.Add(-1, 8, -0.5)
	c.Add(10, 0, 2)
	st := c.Finalize()
	objSize := int64(rec.ObjectCodec{}.Size())
	if st.N != 3 || st.Bytes != 3*objSize || st.Blocks != 1 {
		t.Fatalf("sizes = %+v", st)
	}
	if st.MinX != -1 || st.MaxX != 10 || st.MinY != -2 || st.MaxY != 8 {
		t.Fatalf("extent = %+v", st)
	}
	if st.MinW != -0.5 || st.MaxW != 5 || st.SumW != 6.5 {
		t.Fatalf("weights = %+v", st)
	}
	if !st.Resident {
		t.Fatal("3 objects must be resident under a 1 MiB budget")
	}
	if got := st.MeanW(); got != 6.5/3 {
		t.Fatalf("MeanW = %g", got)
	}

	empty := plan.NewCollector(4096, 1<<20).Finalize()
	if empty.N != 0 || empty.MinX != 0 || empty.MaxX != 0 || empty.MinW != 0 || empty.MeanW() != 0 {
		t.Fatalf("empty stats not zeroed: %+v", empty)
	}
}

// syntheticStats builds Stats for n objects spread uniformly over x —
// enough structure for the chooser tests without running a loader.
func syntheticStats(n int64, minW float64, blockSize, memory int) plan.Stats {
	c := plan.NewCollector(blockSize, memory)
	rng := rand.New(rand.NewSource(42))
	for i := int64(0); i < n; i++ {
		w := 1.0
		if i == 0 {
			w = minW
		}
		c.Add(rng.Float64()*50000, rng.Float64()*50000, w)
	}
	return c.Finalize()
}

func TestChooseResidentPicksSingleScan(t *testing.T) {
	st := syntheticStats(100, 1, 4096, 1<<20)
	if !st.Resident {
		t.Fatal("setup: dataset must be resident")
	}
	strat, cands := plan.Choose(st, plan.Settings{W: 50, H: 50})
	if strat.Algorithm != plan.InMemory || strat.Shards != 0 {
		t.Fatalf("resident choice = %+v, want InMemory unsharded", strat)
	}
	chosen := 0
	for _, c := range cands {
		if c.Chosen {
			chosen++
			if !c.Eligible {
				t.Fatal("chosen row is ineligible")
			}
			if !c.Cost.Exact {
				t.Fatal("the resident single scan is a closed-form schedule; Cost.Exact must hold")
			}
			if c.Cost.Reads != st.Blocks || c.Cost.Writes != 0 {
				t.Fatalf("resident scan cost = %+v, want %d reads", c.Cost, st.Blocks)
			}
		}
	}
	if chosen != 1 {
		t.Fatalf("%d rows chosen, want 1", chosen)
	}
}

func TestChooseNeverPicksIneligible(t *testing.T) {
	st := syntheticStats(12500, -3, 4096, 52428) // negative weights, external
	_, cands := plan.Choose(st, plan.Settings{W: 50, H: 50})
	for _, c := range cands {
		// Shards answer for their own slabs, so weight signs rule out no
		// shard count.
		if c.Algorithm == plan.ExactMaxRS && !c.Delta && !c.Eligible {
			t.Fatalf("ExactMaxRS row ineligible on negative weights: %+v", c)
		}
		if !c.Eligible && c.Note == "" {
			t.Fatal("ineligible row carries no note for explain output")
		}
		if c.Chosen && !c.Eligible {
			t.Fatalf("ineligible row chosen: %+v", c)
		}
		if c.Algorithm == plan.InMemory && c.Eligible && !st.Resident {
			t.Fatalf("in-memory row eligible on an external dataset: %+v", c)
		}
	}
}

func TestCandidatesRespectRestrictions(t *testing.T) {
	st := syntheticStats(12500, 1, 4096, 52428)
	for _, c := range plan.Candidates(st, plan.Settings{W: 50, H: 50, NoShards: true, SolverOnly: true}) {
		if c.Algorithm != plan.ExactMaxRS {
			t.Fatalf("SolverOnly table holds %v", c.Algorithm)
		}
		if c.Shards > 0 {
			t.Fatalf("NoShards table holds a %d-shard row", c.Shards)
		}
	}
}

// TestEstimateChargesExtras: kind-specific passes land on every candidate
// alike, so they shift the absolute prediction without touching the
// ranking.
func TestEstimateChargesExtras(t *testing.T) {
	st := syntheticStats(12500, 1, 4096, 52428)
	base := plan.Settings{W: 50, H: 50}
	extra := base
	extra.ExtraReads, extra.ExtraWrites = 7, 9
	s := plan.Strategy{Algorithm: plan.ExactMaxRS}
	c0, c1 := plan.Estimate(st, base, s), plan.Estimate(st, extra, s)
	if c1.Reads != c0.Reads+7 || c1.Writes != c0.Writes+9 {
		t.Fatalf("extras not charged: base %+v extra %+v", c0, c1)
	}
}

func TestEstimateDegenerate(t *testing.T) {
	empty := plan.NewCollector(4096, 52428).Finalize()
	c := plan.Estimate(empty, plan.Settings{W: 50, H: 50}, plan.Strategy{Algorithm: plan.ExactMaxRS})
	if c.Reads != 0 || c.Writes != 0 || !c.Exact {
		t.Fatalf("empty dataset cost = %+v, want exact zero", c)
	}
}

package maxrs_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"maxrs"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
)

func planTestEngine(t *testing.T, opts *maxrs.Options) (*maxrs.Engine, *maxrs.Dataset) {
	t.Helper()
	if opts == nil {
		opts = &maxrs.Options{BlockSize: 512, Memory: 8192}
	}
	eng, err := maxrs.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	d, err := eng.Load(context.Background(), []maxrs.Object{
		{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 5},
		{X: 3, Y: 1, Weight: 1}, {X: 90, Y: 90, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestDatasetStats(t *testing.T) {
	_, d := planTestEngine(t, nil)
	st := d.Stats()
	if st.N != 4 || st.MinX != 1 || st.MaxX != 90 || st.MinY != 1 || st.MaxY != 90 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MinW != 1 || st.MaxW != 5 || st.MeanW != 9.0/4 {
		t.Fatalf("weight stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Blocks <= 0 || !st.Resident {
		t.Fatalf("size stats = %+v, want resident", st)
	}
}

// TestExplainDoesNoIO: Explain is pure planning — not one block transfer.
func TestExplainDoesNoIO(t *testing.T) {
	eng, d := planTestEngine(t, nil)
	eng.ResetStats()
	ex, err := eng.Explain(context.Background(), d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if io := eng.Stats(); io.Reads != 0 || io.Writes != 0 {
		t.Fatalf("Explain performed I/O: %+v", io)
	}
	if len(ex.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	chosen := 0
	for _, c := range ex.Candidates {
		if c.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("%d rows chosen, want 1", chosen)
	}
	if ex.Plan.Auto {
		t.Fatal("default engine plan marked Auto")
	}
	if ex.Stats.N != 4 {
		t.Fatalf("explanation stats = %+v", ex.Stats)
	}
}

// TestExplainMarksExplicitAlgorithm: for every explicit algorithm, on a
// resident and on a non-resident dataset, the candidate table holds
// exactly one Chosen row, and it is the strategy the Plan runs.
func TestExplainMarksExplicitAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	objs := make([]maxrs.Object, 3000)
	for i := range objs {
		objs[i] = maxrs.Object{X: rng.Float64() * 1e4, Y: rng.Float64() * 1e4, Weight: float64(rng.Intn(5) + 1)}
	}
	for _, mem := range []struct {
		name     string
		memory   int
		resident bool
	}{
		{"resident", 1 << 20, true},
		{"nonresident", 16 << 10, false},
	} {
		for _, alg := range []maxrs.Algorithm{maxrs.ExactMaxRS, maxrs.InMemory} {
			eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: mem.memory, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			d, err := eng.Load(context.Background(), objs)
			if err != nil {
				t.Fatal(err)
			}
			if d.Stats().Resident != mem.resident {
				t.Fatalf("%s: Resident = %v", mem.name, !mem.resident)
			}
			ex, err := eng.Explain(context.Background(), d, 100, 100)
			if err != nil {
				t.Fatal(err)
			}
			var chosen []maxrs.PlanCandidate
			for _, c := range ex.Candidates {
				if c.Chosen {
					chosen = append(chosen, c)
				}
			}
			if len(chosen) != 1 {
				t.Errorf("%s %v: %d rows chosen, want 1", mem.name, alg, len(chosen))
				continue
			}
			if c := chosen[0]; c.Algorithm != ex.Plan.Algorithm || c.Shards != ex.Plan.Shards {
				t.Errorf("%s %v: chosen row %v/K=%d, plan %v/K=%d",
					mem.name, alg, c.Algorithm, c.Shards, ex.Plan.Algorithm, ex.Plan.Shards)
			}
		}
	}
}

func TestExplainReleasedDataset(t *testing.T) {
	eng, d := planTestEngine(t, nil)
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(context.Background(), d, 4, 4); !errors.Is(err, maxrs.ErrDatasetReleased) {
		t.Fatalf("err = %v, want ErrDatasetReleased", err)
	}
	if _, err := eng.Explain(context.Background(), d, 0, 4); !errors.Is(err, maxrs.ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery before acquire", err)
	}
}

// TestResultCarriesPlan: every query kind comes back with its
// materialized plan and a prediction next to the measured stats.
func TestResultCarriesPlan(t *testing.T) {
	ctx := context.Background()
	eng, d := planTestEngine(t, nil)

	res, err := eng.MaxRS(ctx, d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != maxrs.ExactMaxRS || res.Plan.Auto {
		t.Fatalf("plan = %+v, want explicit ExactMaxRS", res.Plan)
	}
	if res.Plan.Parallelism < 1 {
		t.Fatalf("plan parallelism = %d", res.Plan.Parallelism)
	}
	if res.PredictedCost != res.Plan.Predicted {
		t.Fatal("Result.PredictedCost diverges from Plan.Predicted")
	}
	if res.Stats.PredictedReads != uint64(res.PredictedCost.Reads) ||
		res.Stats.PredictedWrites != uint64(res.PredictedCost.Writes) {
		t.Fatalf("QueryStats prediction fields = %+v", res.Stats)
	}

	topk, err := eng.TopK(ctx, d, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range topk {
		if r.Plan.Algorithm != maxrs.ExactMaxRS || r.PredictedCost.Total() <= 0 {
			t.Fatalf("topk round %d plan = %+v predicted %+v", i, r.Plan, r.PredictedCost)
		}
	}

	minrs, err := eng.MinRS(ctx, d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if minrs.Plan.Shards != 0 || minrs.PredictedCost.Total() <= 0 {
		t.Fatalf("minrs plan = %+v predicted %+v", minrs.Plan, minrs.PredictedCost)
	}

	crs, err := eng.MaxCRS(ctx, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if crs.Plan.Algorithm != maxrs.ExactMaxRS || crs.Plan.Shards != 0 || crs.PredictedCost.Total() <= 0 {
		t.Fatalf("maxcrs plan = %+v predicted %+v", crs.Plan, crs.PredictedCost)
	}
}

// TestFallbackReasons: every silent "ran less than requested" path names
// itself; clean queries stay silent.
func TestFallbackReasons(t *testing.T) {
	ctx := context.Background()
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	pos, err := eng.Load(context.Background(), []maxrs.Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 5}, {X: 3, Y: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := eng.Load(context.Background(), []maxrs.Object{{X: 1, Y: 1, Weight: 2}, {X: 2, Y: 2, Weight: -1}, {X: 3, Y: 1, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}

	if res, err := eng.MaxRS(ctx, pos, 4, 4); err != nil || res.FallbackReason != "" {
		t.Fatalf("clean sharded maxrs: err %v reason %q", err, res.FallbackReason)
	}
	// Weight signs never stop a shard request.
	for _, q := range []struct {
		name string
		run  func(context.Context, *maxrs.Dataset, float64, float64) (maxrs.Result, error)
		d    *maxrs.Dataset
	}{
		{"maxrs on negative weights", eng.MaxRS, neg},
		{"minrs", eng.MinRS, pos},
		{"minrs on negative weights", eng.MinRS, neg},
		{"countrs on negative weights", eng.CountRS, neg},
	} {
		if res, err := q.run(ctx, q.d, 4, 4); err != nil || res.FallbackReason != "" || res.Shards == 0 {
			t.Fatalf("%s: err %v shards %d reason %q, want sharded with no reason", q.name, err, res.Shards, res.FallbackReason)
		}
	}
	if res, err := eng.MaxCRS(ctx, pos, 4); err != nil || !strings.Contains(res.FallbackReason, "MaxCRS never shards") {
		t.Fatalf("maxcrs fallback: err %v reason %q", err, res.FallbackReason)
	}
	inMem, posIM := planTestEngine(t, &maxrs.Options{BlockSize: 512, Memory: 8192, Algorithm: maxrs.InMemory, Shards: 2})
	if res, err := inMem.MaxRS(ctx, posIM, 4, 4); err != nil || !strings.Contains(res.FallbackReason, "ignores sharding") {
		t.Fatalf("in-memory algorithm fallback: err %v reason %q", err, res.FallbackReason)
	}

	// Without a shard request there is nothing to explain away.
	plain, posPlain := planTestEngine(t, nil)
	if res, err := plain.MaxCRS(ctx, posPlain, 4); err != nil || res.FallbackReason != "" {
		t.Fatalf("unsharded maxcrs: err %v reason %q", err, res.FallbackReason)
	}
}

// TestAutoOnResident: the planner routes a resident dataset to the
// single-scan strategy and the result says so.
func TestAutoOnResident(t *testing.T) {
	ctx := context.Background()
	eng, d := planTestEngine(t, &maxrs.Options{BlockSize: 512, Memory: 8192, Algorithm: maxrs.AlgorithmAuto})
	res, err := eng.MaxRS(ctx, d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Auto || res.Plan.Algorithm != maxrs.InMemory {
		t.Fatalf("auto plan on resident data = %+v, want InMemory", res.Plan)
	}
	if res.Score != 7 {
		t.Fatalf("auto score = %g, want 7", res.Score)
	}
	if !res.PredictedCost.Exact || res.Stats.Total() != uint64(res.PredictedCost.Total()) {
		t.Fatalf("resident scan prediction %+v vs measured %+v, want exact match", res.PredictedCost, res.Stats)
	}

	// A two-object dataset plans the same way.
	auto, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192, Algorithm: maxrs.AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auto.Close() })
	d2, err := auto.Load(context.Background(), []maxrs.Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := auto.MaxRS(ctx, d2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Plan.Auto || res2.Algorithm != maxrs.InMemory {
		t.Fatalf("engine-default auto result = alg %v plan %+v", res2.Algorithm, res2.Plan)
	}
}

// TestTopKShardPlanUnderBaselineDefault: TopK always solves with
// ExactMaxRS, so an engine-default InMemory algorithm does not stop it
// sharding — and the Result must not claim it did.
func TestTopKShardPlanUnderBaselineDefault(t *testing.T) {
	eng, d := planTestEngine(t, &maxrs.Options{BlockSize: 512, Memory: 8192, Algorithm: maxrs.InMemory, Shards: 2})
	res, err := eng.TopK(context.Background(), d, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Later rounds solve smaller filtrates, whose boundaries may
	// deduplicate to one shard; every round still runs sharded.
	for i, r := range res {
		if r.Plan.Shards != 2 || r.Shards < 1 || r.FallbackReason != "" {
			t.Errorf("round %d: Plan.Shards %d, Shards %d, FallbackReason %q; want 2, ≥ 1 and none",
				i, r.Plan.Shards, r.Shards, r.FallbackReason)
		}
	}
}

// TestDeltaPathsShardNegativeWeights: on a dataset with a pending delta
// and negative weights — one deleted, one live — MaxRS and every TopK
// round run the requested shards on the materialized set, answer like the
// unsharded query, and report no fallback.
func TestDeltaPathsShardNegativeWeights(t *testing.T) {
	ctx := context.Background()
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	objs := make([]maxrs.Object, 450)
	for i := range objs {
		objs[i] = maxrs.Object{X: float64(i * 37 % 1000), Y: float64(i * 91 % 1000), Weight: 1}
	}
	objs[17].Weight = -3
	objs[18].Weight = -2
	d, err := eng.Load(ctx, objs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(ctx, []uint64{17}); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, r, want maxrs.Result) {
		t.Helper()
		if r.Shards != 2 || r.Plan.Shards != 2 || r.FallbackReason != "" {
			t.Errorf("%s: Shards %d, Plan.Shards %d, FallbackReason %q; want 2, 2 and none",
				kind, r.Shards, r.Plan.Shards, r.FallbackReason)
		}
		if r.Score != want.Score {
			t.Errorf("%s: sharded score %g, unsharded %g", kind, r.Score, want.Score)
		}
	}
	var live []geom.Object
	for i, o := range objs {
		if i != 17 {
			live = append(live, geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: o.Weight})
		}
	}
	want := maxrs.Result{Score: sweep.MaxRS(live, 60, 60).Sum}
	res, err := eng.MaxRS(ctx, d, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	check("MaxRS", res, want)
	rounds, err := eng.TopK(ctx, d, 60, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("TopK returned no rounds")
	}
	check("TopK", rounds[0], want)
	for _, r := range rounds[1:] {
		check("TopK", r, r)
	}
}

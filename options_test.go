package maxrs

import (
	"context"
	"errors"
	"testing"
)

// optEngine builds a small-budget engine with the given options.
func optEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	opts.BlockSize = 512
	opts.Memory = 8192
	e, err := NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestQueryOptionsMatchEngineOptions is the override-equivalence
// contract: a query with per-call overrides must produce results — and
// per-query transfer counts — bit-identical to the same query on an
// engine configured with those values at construction.
func TestQueryOptionsMatchEngineOptions(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		opts Options       // engine-level configuration of the reference
		q    []QueryOption // per-query overrides applied to a default engine
	}{
		{"Shards3", Options{Shards: 3}, []QueryOption{WithShards(3)}},
		{"Shards1", Options{Shards: 1}, []QueryOption{WithShards(1)}},
		{"InMemory", Options{Algorithm: InMemory}, []QueryOption{WithAlgorithm(InMemory)}},
		{"Sequential", Options{Parallelism: 1}, []QueryOption{WithParallelism(1)}},
		{"SequentialSharded", Options{Parallelism: 1, Shards: 2}, []QueryOption{WithParallelism(1), WithShards(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := optEngine(t, tc.opts)
			dRef := testDataset(t, ref, 1500)
			base := optEngine(t, Options{})
			dBase := testDataset(t, base, 1500)

			want, err := ref.MaxRS(ctx, dRef, 150, 150)
			if err != nil {
				t.Fatal(err)
			}
			got, err := base.MaxRS(ctx, dBase, 150, 150, tc.q...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Errorf("MaxRS with options = %+v, want %+v", got, want)
			}
			if got.Algorithm != want.Algorithm || got.Shards != want.Shards {
				t.Errorf("effective fields: got (%v, %d), want (%v, %d)",
					got.Algorithm, got.Shards, want.Algorithm, want.Shards)
			}

			wantC, err := ref.CountRS(ctx, dRef, 250, 250)
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := base.CountRS(ctx, dBase, 250, 250, tc.q...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(gotC, wantC) {
				t.Errorf("CountRS with options = %+v, want %+v", gotC, wantC)
			}

			wantK, err := ref.TopK(ctx, dRef, 200, 200, 2)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := base.TopK(ctx, dBase, 200, 200, 2, tc.q...)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("TopK returned %d results, want %d", len(gotK), len(wantK))
			}
			for i := range gotK {
				if !sameResult(gotK[i], wantK[i]) {
					t.Errorf("TopK[%d] with options = %+v, want %+v", i, gotK[i], wantK[i])
				}
			}
		})
	}
}

// TestWithShardsPrecedence checks the three-level resolution: query
// option over dataset override over engine default — including forcing a
// sharded engine back to unsharded with WithShards(0).
func TestWithShardsPrecedence(t *testing.T) {
	ctx := context.Background()
	e := optEngine(t, Options{Shards: 4})
	d := testDataset(t, e, 1500)

	res, err := e.MaxRS(ctx, d, 150, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards == 0 || res.ShardStats == nil {
		t.Fatalf("engine default Shards=4 did not shard: %+v", res.Shards)
	}

	// Query override beats the engine default: force unsharded.
	res0, err := e.MaxRS(ctx, d, 150, 150, WithShards(0))
	if err != nil {
		t.Fatal(err)
	}
	if res0.Shards != 0 || res0.ShardStats != nil {
		t.Fatalf("WithShards(0) still sharded: Shards=%d", res0.Shards)
	}
	if res0.Score != res.Score {
		t.Fatalf("sharded and unsharded scores differ: %g vs %g", res.Score, res0.Score)
	}

	// Query override beats the dataset override too.
	if err := d.SetShards(2); err != nil {
		t.Fatal(err)
	}
	res3, err := e.MaxRS(ctx, d, 150, 150, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Shards != 3 {
		t.Fatalf("WithShards(3) over SetShards(2): effective %d, want 3", res3.Shards)
	}
}

// TestResultEffectiveFields pins the observability satellite: the silent
// fallbacks (negative weights, MinRS, non-ExactMaxRS algorithms) are
// visible in Result.Shards / Result.Algorithm instead of being inferable
// only from a nil ShardStats.
func TestResultEffectiveFields(t *testing.T) {
	ctx := context.Background()
	e := optEngine(t, Options{})

	neg := make([]Object, 600)
	for i := range neg {
		neg[i] = Object{X: float64(i % 40), Y: float64(i / 40), Weight: 1}
	}
	neg[17].Weight = -2
	dNeg, err := e.Load(context.Background(), neg)
	if err != nil {
		t.Fatal(err)
	}
	defer dNeg.Release()

	// A negative weight changes nothing: every object query shards as
	// asked, answers exactly, and reports no fallback.
	want, err := e.MaxRS(ctx, dNeg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MaxRS(ctx, dNeg, 5, 5, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards == 0 || len(res.ShardStats) != res.Shards || res.FallbackReason != "" {
		t.Errorf("negative-weight MaxRS: Shards=%d, ShardStats=%d, FallbackReason=%q", res.Shards, len(res.ShardStats), res.FallbackReason)
	}
	if res.Score != want.Score {
		t.Errorf("negative-weight MaxRS: sharded %g, unsharded %g", res.Score, want.Score)
	}
	if res.Algorithm != ExactMaxRS {
		t.Errorf("Algorithm = %v, want ExactMaxRS", res.Algorithm)
	}
	resC, err := e.CountRS(ctx, dNeg, 5, 5, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if resC.Shards == 0 || len(resC.ShardStats) != resC.Shards || resC.FallbackReason != "" {
		t.Errorf("CountRS on negative-weight dataset: Shards=%d, ShardStats=%d, FallbackReason=%q", resC.Shards, len(resC.ShardStats), resC.FallbackReason)
	}
	wantM, err := e.MinRS(ctx, dNeg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := e.MinRS(ctx, dNeg, 5, 5, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if resM.Shards == 0 || len(resM.ShardStats) != resM.Shards || resM.FallbackReason != "" {
		t.Errorf("MinRS: Shards=%d, ShardStats=%d, FallbackReason=%q", resM.Shards, len(resM.ShardStats), resM.FallbackReason)
	}
	if resM.Score != wantM.Score {
		t.Errorf("MinRS: sharded %g, unsharded %g", resM.Score, wantM.Score)
	}

	// Non-ExactMaxRS algorithms report themselves and never shard.
	d := testDataset(t, e, 400)
	defer d.Release()
	resI, err := e.MaxRS(ctx, d, 100, 100, WithAlgorithm(InMemory), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if resI.Algorithm != InMemory || resI.Shards != 0 {
		t.Errorf("InMemory query: Algorithm=%v Shards=%d, want InMemory, 0", resI.Algorithm, resI.Shards)
	}
}

// TestInvalidQueryOptions verifies option validation fails the query up
// front with ErrInvalidQuery and leaks neither blocks nor dataset
// references.
func TestInvalidQueryOptions(t *testing.T) {
	ctx := context.Background()
	e := optEngine(t, Options{})
	d := testDataset(t, e, 100)
	base := e.BlocksInUse()
	for _, tc := range []struct {
		name string
		opt  QueryOption
	}{
		{"BadAlgorithm", WithAlgorithm(Algorithm(42))},
		{"NegativeShards", WithShards(-1)},
		{"NegativeParallelism", WithParallelism(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.MaxRS(ctx, d, 10, 10, tc.opt); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("err = %v, want ErrInvalidQuery", err)
			}
			wantInUse(t, e, base, "after rejected option")
		})
	}
	// The rejected queries must not have pinned the dataset: Release frees
	// its blocks immediately.
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	wantInUse(t, e, 0, "after release")
}

// TestNewEngineValidatesAlgorithm pins the construction-time validation
// satellite: a bad Options.Algorithm fails NewEngine, not the first query.
func TestNewEngineValidatesAlgorithm(t *testing.T) {
	if _, err := NewEngine(&Options{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("NewEngine accepted Algorithm(42)")
	}
}

package maxrs

import (
	"context"
	"errors"
	"testing"

	"maxrs/internal/sweep"
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

// TestWithShardsPrecedence checks the two-level resolution: the
// dataset's override over the engine default, with SetShards(0)
// restoring the default. Every shard count answers the unsharded score.
func TestWithShardsPrecedence(t *testing.T) {
	ctx := context.Background()
	e := optEngine(t, Options{Shards: 4})
	d := testDataset(t, e, 1500)
	want := sweep.MaxRS(geomObjects(testObjects(1500), func(o Object) float64 { return o.Weight }), 150, 150)

	for _, c := range []struct{ set, shards int }{{0, 4}, {2, 2}, {0, 4}} {
		if err := d.SetShards(c.set); err != nil {
			t.Fatal(err)
		}
		res, err := e.MaxRS(ctx, d, 150, 150)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != c.shards || len(res.ShardStats) != c.shards {
			t.Fatalf("SetShards(%d) on a Shards=4 engine: effective %d (%d shard stats), want %d",
				c.set, res.Shards, len(res.ShardStats), c.shards)
		}
		if res.Score != want.Sum {
			t.Fatalf("SetShards(%d): score %g, unsharded %g", c.set, res.Score, want.Sum)
		}
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
	wantM, err := e.MinRS(ctx, dNeg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := dNeg.SetShards(4); err != nil {
		t.Fatal(err)
	}
	res, err := e.MaxRS(ctx, dNeg, 5, 5)
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
	resC, err := e.CountRS(ctx, dNeg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Shards == 0 || len(resC.ShardStats) != resC.Shards || resC.FallbackReason != "" {
		t.Errorf("CountRS on negative-weight dataset: Shards=%d, ShardStats=%d, FallbackReason=%q", resC.Shards, len(resC.ShardStats), resC.FallbackReason)
	}
	resM, err := e.MinRS(ctx, dNeg, 5, 5)
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
	eI := optEngine(t, Options{Algorithm: InMemory, Shards: 4})
	d := testDataset(t, eI, 400)
	defer d.Release()
	resI, err := eI.MaxRS(ctx, d, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if resI.Algorithm != InMemory || resI.Shards != 0 {
		t.Errorf("InMemory query: Algorithm=%v Shards=%d, want InMemory, 0", resI.Algorithm, resI.Shards)
	}
}

// TestInvalidSettings: every invalid query setting fails up front,
// where it is set. An unknown algorithm, a negative parallelism or a
// negative shard count fails NewEngine; a negative Dataset.SetShards
// fails with ErrInvalidQuery, keeps the dataset's count and leaks
// nothing.
func TestInvalidSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"BadAlgorithm", Options{Algorithm: Algorithm(42)}},
		{"NegativeParallelism", Options{Parallelism: -1}},
		{"NegativeShards", Options{Shards: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if e, err := NewEngine(&tc.opts); err == nil {
				e.Close()
				t.Fatalf("NewEngine accepted %+v", tc.opts)
			}
			if tc.opts.Shards == 0 {
				return
			}
			e := optEngine(t, Options{})
			d := testDataset(t, e, 100)
			base := e.BlocksInUse()
			if err := d.SetShards(3); err != nil {
				t.Fatal(err)
			}
			if err := d.SetShards(-1); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("SetShards(-1): err = %v, want ErrInvalidQuery", err)
			}
			if k := d.Shards(); k != 3 {
				t.Fatalf("rejected SetShards(-1) changed the count to %d", k)
			}
			wantInUse(t, e, base, "after rejected SetShards")
			if err := d.Release(); err != nil {
				t.Fatal(err)
			}
			wantInUse(t, e, 0, "after release")
		})
	}
}

// TestNewEngineValidatesAlgorithm pins the construction-time validation
// satellite: a bad Options.Algorithm fails NewEngine, not the first query.
func TestNewEngineValidatesAlgorithm(t *testing.T) {
	if _, err := NewEngine(&Options{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("NewEngine accepted Algorithm(42)")
	}
}

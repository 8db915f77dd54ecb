package maxrs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// newShardTestEngine builds an engine with a small external budget and
// the given shard count.
func newShardTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.BlockSize == 0 {
		opts.BlockSize = 512
	}
	if opts.Memory == 0 {
		opts.Memory = 8 * 1024
	}
	e, err := NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEngineShardedEquivalence: Options.Shards never changes the score,
// and the degenerate K=1 engine matches the unsharded one bit for bit on
// location, region and score.
func TestEngineShardedEquivalence(t *testing.T) {
	ref := newShardTestEngine(t, Options{})
	dRef := testDataset(t, ref, 500)
	want, err := ref.MaxRS(context.Background(), dRef, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want.ShardStats != nil {
		t.Fatalf("unsharded query reported shard stats: %+v", want.ShardStats)
	}
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			e := newShardTestEngine(t, Options{Shards: k})
			d := testDataset(t, e, 500)
			got, err := e.MaxRS(context.Background(), d, 300, 300)
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Score {
				t.Errorf("score %g, want %g", got.Score, want.Score)
			}
			if k == 1 && (got.Location != want.Location || got.Region != want.Region) {
				t.Errorf("K=1 not bit-identical: got %+v / %+v, want %+v / %+v",
					got.Location, got.Region, want.Location, want.Region)
			}
			if len(got.ShardStats) == 0 || len(got.ShardStats) > k {
				t.Fatalf("K=%d: %d shard stats", k, len(got.ShardStats))
			}
			// Stats aggregation: the per-query total must cover the sum of
			// the shard-disk traffic plus the primary-disk scans (routing
			// always scans once; planning scans only when K ≥ 2).
			var shardTotal uint64
			for _, s := range got.ShardStats {
				shardTotal += s.Stats.Total()
			}
			if shardTotal == 0 {
				t.Error("empty shard stats on a sharded query")
			}
			wantScans := uint64(d.Blocks())
			if k >= 2 {
				wantScans *= 2
			}
			if got.Stats.Total() != shardTotal+wantScans {
				t.Errorf("stats %d != shard sum %d + %d primary scans",
					got.Stats.Total(), shardTotal, wantScans)
			}
		})
	}
}

// TestEngineShardStatsInGlobalTotals: Engine.Stats must include the
// ephemeral shard-disk traffic, and ResetStats must clear it.
func TestEngineShardStatsInGlobalTotals(t *testing.T) {
	e := newShardTestEngine(t, Options{Shards: 4})
	d := testDataset(t, e, 500)
	e.ResetStats()
	res, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if g, q := e.Stats().Total(), res.Stats.Total(); g < q {
		t.Errorf("engine-global total %d < per-query total %d", g, q)
	}
	e.ResetStats()
	if g := e.Stats().Total(); g != 0 {
		t.Errorf("stats after reset: %d", g)
	}
	if n := e.BlocksInUse(); n != d.Blocks() {
		t.Errorf("%d blocks in use, want the dataset's %d", n, d.Blocks())
	}
}

// TestDatasetSetShards: the per-dataset override beats the engine
// default, 0 restores it, and negative counts are rejected.
func TestDatasetSetShards(t *testing.T) {
	e := newShardTestEngine(t, Options{})
	d := testDataset(t, e, 400)
	want, err := e.MaxRS(context.Background(), d, 250, 250)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetShards(3); err != nil {
		t.Fatal(err)
	}
	got, err := e.MaxRS(context.Background(), d, 250, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ShardStats) == 0 {
		t.Error("SetShards(3) did not shard the query")
	}
	if got.Score != want.Score {
		t.Errorf("sharded score %g != unsharded %g", got.Score, want.Score)
	}
	if err := d.SetShards(0); err != nil {
		t.Fatal(err)
	}
	got, err = e.MaxRS(context.Background(), d, 250, 250)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardStats != nil {
		t.Error("SetShards(0) did not restore the unsharded default")
	}
	if err := d.SetShards(-1); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewEngine(&Options{Shards: -2}); err == nil {
		t.Error("NewEngine accepted negative Options.Shards")
	}
}

// TestShardedExtensions: MinRS, CountRS and TopK run through the shard
// layer and agree with their unsharded answers.
func TestShardedExtensions(t *testing.T) {
	ref := newShardTestEngine(t, Options{})
	e := newShardTestEngine(t, Options{Shards: 4})
	dRef := testDataset(t, ref, 400)
	d := testDataset(t, e, 400)

	wantMin, err := ref.MinRS(context.Background(), dRef, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	gotMin, err := e.MinRS(context.Background(), d, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if gotMin.Score != wantMin.Score {
		t.Errorf("MinRS: %g != %g", gotMin.Score, wantMin.Score)
	}
	// MinRS negates every weight and shards like MaxRS: each shard answers
	// for its own slab, so the negated weights merge exactly (DESIGN.md
	// §9.3).
	if len(gotMin.ShardStats) == 0 || gotMin.FallbackReason != "" {
		t.Errorf("MinRS: %d shards, FallbackReason %q; want sharded, none", len(gotMin.ShardStats), gotMin.FallbackReason)
	}

	wantCount, err := ref.CountRS(context.Background(), dRef, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	gotCount, err := e.CountRS(context.Background(), d, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if gotCount.Score != wantCount.Score {
		t.Errorf("CountRS: %g != %g", gotCount.Score, wantCount.Score)
	}

	wantTop, err := ref.TopK(context.Background(), dRef, 200, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := e.TopK(context.Background(), d, 200, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK: %d results, want %d", len(gotTop), len(wantTop))
	}
	for i := range gotTop {
		if gotTop[i].Score != wantTop[i].Score {
			t.Errorf("TopK[%d]: %g != %g", i, gotTop[i].Score, wantTop[i].Score)
		}
		if len(gotTop[i].ShardStats) == 0 {
			t.Errorf("TopK[%d] missing shard stats", i)
		}
	}
}

// TestConcurrentShardedQueries: goroutines sharing one sharded engine
// get identical scores and a clean leak gauge — the §7 concurrency
// contract extended to the shard layer (run under -race in CI).
func TestConcurrentShardedQueries(t *testing.T) {
	e := newShardTestEngine(t, Options{Shards: 3, Parallelism: 4})
	d := testDataset(t, e, 500)
	want, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := e.MaxRS(context.Background(), d, 300, 300)
			if err != nil {
				errs[g] = err
				return
			}
			if got.Score != want.Score || got.Stats != want.Stats {
				errs[g] = fmt.Errorf("goroutine %d: got score %g stats %+v, want %g %+v",
					g, got.Score, got.Stats, want.Score, want.Stats)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Errorf("%d blocks leaked", n)
	}
}

// TestNegativeWeightsShardExactly pins the slab-restricted shard solve: a
// shard solving over the whole line could place its optimum outside its
// slab, where a negative-weight object beyond its halo is invisible and
// the local score overshoots the truth. The construction pins the K=2
// boundary at x≈500 via zero-weight fillers, puts +10 between two −100
// guards less than the query width apart (so every covering window also
// catches a guard; the true optimum is 0), and would read 10 from shard 0
// — which cannot see the guard at x=502.5 — if that shard answered for
// centers beyond its slab.
func TestNegativeWeightsShardExactly(t *testing.T) {
	objs := make([]Object, 0, 1004)
	for i := 0; i <= 1000; i++ {
		objs = append(objs, Object{X: float64(i), Y: 50, Weight: 0})
	}
	objs = append(objs,
		Object{X: 498.6, Y: 50, Weight: -100},
		Object{X: 501.5, Y: 50, Weight: 10},
		Object{X: 502.5, Y: 50, Weight: -100},
	)
	ref := newShardTestEngine(t, Options{})
	dRef, err := ref.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MaxRS(context.Background(), dRef, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := newShardTestEngine(t, Options{Shards: 2})
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MaxRS(context.Background(), d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("sharded engine returned %g on a negative-weight dataset, want %g", got.Score, want.Score)
	}
	if len(got.ShardStats) != 2 || got.FallbackReason != "" {
		t.Fatalf("negative-weight MaxRS: %d shards, FallbackReason %q; want 2 and none", len(got.ShardStats), got.FallbackReason)
	}
	for _, q := range []func(context.Context, *Dataset, float64, float64) (Result, error){e.CountRS, e.MinRS} {
		r, err := q(context.Background(), d, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.ShardStats) != 2 || r.FallbackReason != "" {
			t.Errorf("%d shards, FallbackReason %q; want 2 and none", len(r.ShardStats), r.FallbackReason)
		}
	}
}

// TestShardedOnDisk: the sharded path works with file-backed primary and
// shard disks, and the per-query counts match the in-memory engine
// exactly (the backend never changes a count).
func TestShardedOnDisk(t *testing.T) {
	mem := newShardTestEngine(t, Options{Shards: 4})
	dMem := testDataset(t, mem, 500)
	want, err := mem.MaxRS(context.Background(), dMem, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	disk := newShardTestEngine(t, Options{Shards: 4, OnDisk: true, OnDiskDir: t.TempDir()})
	dDisk := testDataset(t, disk, 500)
	got, err := disk.MaxRS(context.Background(), dDisk, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.Stats != want.Stats {
		t.Errorf("on-disk sharded query: score %g stats %+v, want %g %+v",
			got.Score, got.Stats, want.Score, want.Stats)
	}
}

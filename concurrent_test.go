package maxrs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sameResult compares two Results field by field — Result itself stopped
// being ==-comparable when it grew the ShardStats slice.
func sameResult(a, b Result) bool {
	if len(a.ShardStats) != len(b.ShardStats) {
		return false
	}
	for i := range a.ShardStats {
		if a.ShardStats[i] != b.ShardStats[i] {
			return false
		}
	}
	return a.Location == b.Location && a.Score == b.Score &&
		a.Region == b.Region && a.Stats == b.Stats
}

// testDataset loads testObjects(n), a pseudo-random weighted dataset
// large enough to push ExactMaxRS through external recursion under the
// tiny test EM budget.
func testDataset(t *testing.T, e *Engine, n int) *Dataset {
	t.Helper()
	d, err := e.Load(context.Background(), testObjects(n))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testObjects returns the n objects testDataset loads: the same for
// every call, so two engines can load the same dataset.
func testObjects(n int) []Object {
	rng := rand.New(rand.NewSource(7))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			X:      math.Floor(rng.Float64() * 8000),
			Y:      math.Floor(rng.Float64() * 8000),
			Weight: float64(1 + rng.Intn(5)),
		}
	}
	return objs
}

// mixedQuery runs the i-th query of the deterministic mixed workload and
// returns a comparable fingerprint of its results and the query's block
// transfers (for TopK, the sum over its rounds).
func mixedQuery(e *Engine, d *Dataset, i int) (string, uint64, error) {
	size := float64(50 * (1 + i%5))
	switch i % 5 {
	case 0:
		r, err := e.MaxRS(context.Background(), d, size, size)
		return fmt.Sprintf("maxrs %+v", r), r.Stats.Total(), err
	case 1:
		rs, err := e.TopK(context.Background(), d, size, size, 3)
		var total uint64
		for _, r := range rs {
			total += r.Stats.Total()
		}
		return fmt.Sprintf("topk %+v", rs), total, err
	case 2:
		r, err := e.MinRS(context.Background(), d, size, size)
		return fmt.Sprintf("minrs %+v", r), r.Stats.Total(), err
	case 3:
		r, err := e.CountRS(context.Background(), d, size, size)
		return fmt.Sprintf("countrs %+v", r), r.Stats.Total(), err
	default:
		r, err := e.MaxCRS(context.Background(), d, size)
		return fmt.Sprintf("maxcrs %+v", r), r.Stats.Total(), err
	}
}

// TestConcurrentQueriesMatchSequential drives N goroutines of mixed
// MaxRS/TopK/MinRS/CountRS/MaxCRS queries against one shared engine and
// dataset and requires bit-identical results — including the per-query
// Stats — versus sequential execution, and per-query Stats that sum to
// the engine's global transfer delta under concurrency (DESIGN.md §7.2).
// Run under -race in CI.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := testDataset(t, e, 1500)

	const queries = 20
	want := make([]string, queries)
	for i := range want {
		s, _, err := mixedQuery(e, d, i)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		want[i] = s
	}

	const goroutines = 10
	got := make([][]string, goroutines)
	ios := make([]uint64, goroutines)
	errs := make([]error, goroutines)
	before := e.Stats().Total()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]string, queries)
			// Each goroutine runs the full mix in a different order.
			for k := 0; k < queries; k++ {
				i := (k + g) % queries
				s, io, err := mixedQuery(e, d, i)
				if err != nil {
					errs[g] = fmt.Errorf("query %d: %w", i, err)
					return
				}
				got[g][i] = s
				ios[g] += io
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		sum += ios[g]
	}
	// Attribution is exact: no transfer is lost or charged to two queries.
	if delta := e.Stats().Total() - before; sum != delta {
		t.Fatalf("concurrent per-query transfers sum to %d, global delta is %d", sum, delta)
	}
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d query %d:\n got  %s\n want %s", g, i, got[g][i], want[i])
			}
		}
	}

	// Every query's intermediates must be back; only the dataset remains.
	if n := e.BlocksInUse(); n != d.Blocks() {
		t.Fatalf("BlocksInUse = %d after queries, want dataset's %d", n, d.Blocks())
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after release, want 0", n)
	}
}

// TestConcurrentBaselineAlgorithms exercises the InMemory algorithm
// concurrently too — it shares the engine env rather than the solver,
// so its reentrancy is separately load-bearing.
func TestConcurrentBaselineAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{InMemory} {
		t.Run(alg.String(), func(t *testing.T) {
			e, err := NewEngine(&Options{BlockSize: 512, Memory: 4096, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d := testDataset(t, e, 400)
			want, err := e.MaxRS(context.Background(), d, 200, 200)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got, err := e.MaxRS(context.Background(), d, 200, 200)
					if err != nil {
						errs[g] = err
						return
					}
					if !sameResult(got, want) {
						errs[g] = fmt.Errorf("got %+v, want %+v", got, want)
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if n := e.BlocksInUse(); n != d.Blocks() {
				t.Fatalf("BlocksInUse = %d, want %d", n, d.Blocks())
			}
		})
	}
}

// TestDatasetReleaseDuringQueries releases a dataset while queries are in
// flight: running queries either finish normally or observe
// ErrDatasetReleased (if they started after Release), and the blocks are
// freed exactly once, when the last query drains.
func TestDatasetReleaseDuringQueries(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := testDataset(t, e, 800)

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				_, err := e.MaxRS(context.Background(), d, 100, 100)
				if err != nil && err != ErrDatasetReleased {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	close(start)
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after release + drain, want 0", n)
	}
	// Queries after release must fail cleanly.
	if _, err := e.MaxRS(context.Background(), d, 100, 100); err != ErrDatasetReleased {
		t.Fatalf("query on released dataset: err = %v, want ErrDatasetReleased", err)
	}
	if err := d.Release(); err != nil {
		t.Fatalf("double release: %v", err)
	}
}

// TestPerQueryStats checks that Result.Stats reports this query's cost:
// deterministic across runs, additive against the global counters, and
// zero-read for nothing.
func TestPerQueryStats(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := testDataset(t, e, 1000)
	e.ResetStats()

	r1, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Total() == 0 {
		t.Fatal("per-query stats are zero")
	}
	global := e.Stats()
	if r1.Stats.Reads != global.Reads || r1.Stats.Writes != global.Writes {
		t.Fatalf("solo query stats %+v != global delta %+v", r1.Stats, global)
	}
	r2, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats != r1.Stats {
		t.Fatalf("same query, different stats: %+v vs %+v", r2.Stats, r1.Stats)
	}

	// TopK rounds: per-round stats sum to the call's global delta.
	e.ResetStats()
	rs, err := e.TopK(context.Background(), d, 300, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, r := range rs {
		sum += r.Stats.Total()
	}
	if g := e.Stats().Total(); sum != g {
		t.Fatalf("topk per-round stats sum %d != global delta %d", sum, g)
	}
}

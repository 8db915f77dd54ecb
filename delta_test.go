package maxrs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// deltaEngineOpts builds the option matrix legs for the mutate/reload
// equivalence tests: backing (in-memory vs on-disk blocks) × solver
// parallelism. Shard counts vary per dataset via SetShards.
func deltaEngineOpts(mem bool, parallelism int) *Options {
	o := &Options{BlockSize: 512, Memory: 8192, Parallelism: parallelism}
	if !mem {
		o.OnDisk = true
	}
	return o
}

// idObj tracks one live effective object with its engine-assigned id,
// in the engine's canonical materialization order (base order, then
// inserts by ascending id) — the order a reload must use to be
// bit-identical.
type idObj struct {
	id  uint64
	obj Object
}

// reloadSolve loads the effective objects into a fresh engine with the
// same options and solves, returning the reference Result. The fresh
// engine's disk is independent, so the reference run never perturbs the
// mutated engine's block accounting.
func reloadSolve(t *testing.T, opts *Options, objs []idObj, shards int, w, h float64) Result {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plain := make([]Object, len(objs))
	for i, o := range objs {
		plain[i] = o.obj
	}
	d, err := e.Load(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	if err := d.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	res, err := e.MaxRS(context.Background(), d, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameGeometry compares the solution geometry — Location, Score, Region
// — bit-exactly (NaN equals NaN: an unbounded optimal region, as MinRS
// produces on sparse data, has a NaN center in both results). Stats are
// intentionally excluded: the delta paths exist to spend fewer transfers
// than a reload.
func sameGeometry(a, b Result) bool {
	return eqF(a.Location.X, b.Location.X) && eqF(a.Location.Y, b.Location.Y) &&
		eqF(a.Score, b.Score) &&
		eqF(a.Region.MinX, b.Region.MinX) && eqF(a.Region.MaxX, b.Region.MaxX) &&
		eqF(a.Region.MinY, b.Region.MinY) && eqF(a.Region.MaxY, b.Region.MaxY)
}

// eqF is float equality with NaN == NaN.
func eqF(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// TestMutateReloadEquivalence is the exactness matrix of the delta
// layer: random insert/delete/compact sequences across backing ×
// shards × parallelism, with the mutated dataset's answer required to
// be bit-identical to a from-scratch reload of the effective objects
// after every step. Weights are positive (sharded legs stay eligible —
// negative weights force the unsharded fallback) and dyadic, so the
// sweep sums are exact and bit-identity is well-defined.
func TestMutateReloadEquivalence(t *testing.T) {
	const (
		w, h  = 8.0, 6.0
		baseN = 120
		steps = 14
	)
	for _, mem := range []bool{true, false} {
		for _, shards := range []int{0, 2} {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("mem=%v/shards=%d/p=%d", mem, shards, par)
				t.Run(name, func(t *testing.T) {
					opts := deltaEngineOpts(mem, par)
					e, err := NewEngine(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					rng := rand.New(rand.NewSource(int64(baseN + shards*10 + par)))
					objs := make([]Object, baseN)
					for i := range objs {
						objs[i] = Object{
							X:      rng.Float64() * 100,
							Y:      rng.Float64() * 100,
							Weight: 1 + dyadic(rng),
						}
					}
					d, err := e.Load(context.Background(), objs)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = d.Release() }()
					if err := d.SetShards(shards); err != nil {
						t.Fatal(err)
					}
					live := make([]idObj, len(objs))
					for i, o := range objs {
						live[i] = idObj{id: uint64(i), obj: o}
					}
					check := func(step string) {
						t.Helper()
						got, err := e.MaxRS(context.Background(), d, w, h)
						if err != nil {
							t.Fatalf("%s: MaxRS: %v", step, err)
						}
						want := reloadSolve(t, opts, live, shards, w, h)
						if !sameGeometry(got, want) {
							t.Fatalf("%s: mutated dataset diverged from reload:\ngot  loc=%+v score=%v region=%+v (delta=%+v)\nwant loc=%+v score=%v region=%+v",
								step, got.Location, got.Score, got.Region, got.Plan.Delta,
								want.Location, want.Score, want.Region)
						}
						if d.Len() != len(live) {
							t.Fatalf("%s: Len() = %d, want %d", step, d.Len(), len(live))
						}
					}
					check("initial")
					for step := 0; step < steps; step++ {
						switch op := rng.Intn(5); {
						case op <= 1: // insert a batch
							n := 1 + rng.Intn(6)
							batch := make([]Object, n)
							for i := range batch {
								batch[i] = Object{
									X:      rng.Float64() * 100,
									Y:      rng.Float64() * 100,
									Weight: 1 + dyadic(rng),
								}
							}
							ids, err := d.Insert(context.Background(), batch)
							if err != nil {
								t.Fatalf("step %d: Insert: %v", step, err)
							}
							for i, id := range ids {
								live = append(live, idObj{id: id, obj: batch[i]})
							}
						case op <= 3: // delete a batch of live ids
							if len(live) == 0 {
								continue
							}
							n := 1 + rng.Intn(4)
							if n > len(live) {
								n = len(live)
							}
							ids := make([]uint64, 0, n)
							seen := make(map[int]bool)
							for len(ids) < n {
								i := rng.Intn(len(live))
								if seen[i] {
									continue
								}
								seen[i] = true
								ids = append(ids, live[i].id)
							}
							removed, err := d.Delete(context.Background(), ids)
							if err != nil {
								t.Fatalf("step %d: Delete(%v): %v", step, ids, err)
							}
							if len(removed) != len(ids) {
								t.Fatalf("step %d: Delete removed %d, want %d", step, len(removed), len(ids))
							}
							kept := live[:0]
							for _, o := range live {
								if !seen2(ids, o.id) {
									kept = append(kept, o)
								}
							}
							live = kept
						default: // compact
							if err := d.Compact(context.Background()); err != nil {
								t.Fatalf("step %d: Compact: %v", step, err)
							}
							if d.Pending() != 0 {
								t.Fatalf("step %d: Pending() = %d after Compact", step, d.Pending())
							}
						}
						check(fmt.Sprintf("step %d", step))
					}
					// The other query kinds must see the same effective
					// dataset; spot-check them once per leg against reload.
					checkKinds(t, e, opts, d, live, shards)
					if err := d.Release(); err != nil {
						t.Fatal(err)
					}
					if n := e.BlocksInUse(); n != 0 {
						t.Fatalf("BlocksInUse = %d after Release, want 0", n)
					}
				})
			}
		}
	}
}

// dyadic returns a random weight increment that is a multiple of 1/8.
// Fixed-point weights make every float64 partial sum exact, so the slab
// sweep's sums are independent of summation order and the combined
// delta path is bit-identical to a reload — with arbitrary float
// weights the two can differ in the last ULP because the delta objects
// add x-edges to the reload's elementary-interval grid.
func dyadic(rng *rand.Rand) float64 {
	return float64(rng.Intn(8)) / 8
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func seen2(ids []uint64, id uint64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// checkKinds cross-checks TopK, MinRS, CountRS and MaxCRS on the
// mutated dataset against a reload of the effective objects.
func checkKinds(t *testing.T, e *Engine, opts *Options, d *Dataset, live []idObj, shards int) {
	t.Helper()
	ref, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	plain := make([]Object, len(live))
	for i, o := range live {
		plain[i] = o.obj
	}
	rd, err := ref.Load(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rd.Release() }()
	if err := rd.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	const w, h = 8.0, 6.0
	gotK, err := e.TopK(context.Background(), d, w, h, 3)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	wantK, err := ref.TopK(context.Background(), rd, w, h, 3)
	if err != nil {
		t.Fatalf("reload TopK: %v", err)
	}
	if len(gotK) != len(wantK) {
		t.Fatalf("TopK returned %d results, reload %d", len(gotK), len(wantK))
	}
	for i := range gotK {
		if !sameGeometry(gotK[i], wantK[i]) {
			t.Fatalf("TopK[%d] diverged: got %+v score %v, want %+v score %v",
				i, gotK[i].Location, gotK[i].Score, wantK[i].Location, wantK[i].Score)
		}
	}
	for _, kind := range []struct {
		name string
		run  func(*Engine, *Dataset) (Result, error)
	}{
		{"MinRS", func(e *Engine, d *Dataset) (Result, error) {
			return e.MinRS(context.Background(), d, w, h)
		}},
		{"CountRS", func(e *Engine, d *Dataset) (Result, error) {
			return e.CountRS(context.Background(), d, w, h)
		}},
	} {
		got, err := kind.run(e, d)
		if err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		want, err := kind.run(ref, rd)
		if err != nil {
			t.Fatalf("reload %s: %v", kind.name, err)
		}
		if !sameGeometry(got, want) {
			t.Fatalf("%s diverged: got %+v score %v, want %+v score %v",
				kind.name, got.Location, got.Score, want.Location, want.Score)
		}
	}
	gotC, err := e.MaxCRS(context.Background(), d, w)
	if err != nil {
		t.Fatalf("MaxCRS: %v", err)
	}
	wantC, err := ref.MaxCRS(context.Background(), rd, w)
	if err != nil {
		t.Fatalf("reload MaxCRS: %v", err)
	}
	if gotC.Location != wantC.Location || gotC.Score != wantC.Score {
		t.Fatalf("MaxCRS diverged: got %+v score %v, want %+v score %v",
			gotC.Location, gotC.Score, wantC.Location, wantC.Score)
	}
}

// TestDeltaCombinedPath pins the adaptive fast path: a light insert far
// from the incumbent optimum is answered from the cached base solution
// ("combined", no re-solve), a heavy insert near it forces the fused
// re-solve — and both answers are bit-identical to a reload.
func TestDeltaCombinedPath(t *testing.T) {
	opts := &Options{BlockSize: 512, Memory: 8192}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A dense heavy cluster near the origin and scattered light noise.
	// Weights are dyadic (multiples of 1/8) so every partial sum is exact
	// in float64 and bit-identity between the combined and reload paths
	// is well-defined (see the tryCombined doc comment).
	rng := rand.New(rand.NewSource(7))
	var objs []Object
	for i := 0; i < 40; i++ {
		objs = append(objs, Object{X: rng.Float64() * 4, Y: rng.Float64() * 3, Weight: 10 + dyadic(rng)})
	}
	for i := 0; i < 40; i++ {
		objs = append(objs, Object{X: 200 + rng.Float64()*400, Y: 200 + rng.Float64()*300, Weight: 0.5 + dyadic(rng)})
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	const w, h = 8.0, 6.0

	// Warm the per-generation base-solution cache.
	if _, err := e.MaxRS(context.Background(), d, w, h); err != nil {
		t.Fatal(err)
	}

	// Far + light: influence rectangle disjoint from the incumbent
	// strip, delta bound below the incumbent sum → combined.
	ids, err := d.Insert(context.Background(), []Object{{X: 600, Y: 600, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	live := append(sliceOf(objs), idObj{id: ids[0], obj: Object{X: 600, Y: 600, Weight: 1}})
	res, err := e.MaxRS(context.Background(), d, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Delta == nil || res.Plan.Delta.Path != "combined" {
		t.Fatalf("far light insert: Plan.Delta = %+v, want path \"combined\"", res.Plan.Delta)
	}
	if want := reloadSolve(t, opts, live, 0, w, h); !sameGeometry(res, want) {
		t.Fatalf("combined path diverged from reload: got %+v/%v, want %+v/%v",
			res.Location, res.Score, want.Location, want.Score)
	}
	// The first combined query solved the base generation and cached the
	// solution; an identical repeat serves the incumbent from that cache.
	again, err := e.MaxRS(context.Background(), d, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if again.Plan.Delta == nil || again.Plan.Delta.Path != "combined" || !again.Plan.Delta.BaseCached {
		t.Fatalf("repeat combined query: Plan.Delta = %+v, want combined with BaseCached", again.Plan.Delta)
	}
	if !sameGeometry(again, res) {
		t.Fatalf("repeat combined query diverged: %+v vs %+v", again, res)
	}

	// Near + heavy: the influence rectangle overlaps the incumbent
	// strip → fused re-solve, still exact.
	ids2, err := d.Insert(context.Background(), []Object{{X: 1, Y: 1, Weight: 500}})
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, idObj{id: ids2[0], obj: Object{X: 1, Y: 1, Weight: 500}})
	res2, err := e.MaxRS(context.Background(), d, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Plan.Delta == nil || res2.Plan.Delta.Path != "fused" {
		t.Fatalf("near heavy insert: Plan.Delta = %+v, want path \"fused\"", res2.Plan.Delta)
	}
	if want := reloadSolve(t, opts, live, 0, w, h); !sameGeometry(res2, want) {
		t.Fatalf("fused path diverged from reload: got %+v/%v, want %+v/%v",
			res2.Location, res2.Score, want.Location, want.Score)
	}
}

func sliceOf(objs []Object) []idObj {
	out := make([]idObj, len(objs))
	for i, o := range objs {
		out[i] = idObj{id: uint64(i), obj: o}
	}
	return out
}

// TestDeltaCompactionTrigger pins the compact-before-append policy: an
// insert that would push the buffer past Options.DeltaCompactAt first
// folds the existing delta into the base, so the buffer never exceeds
// the limit and a cancelled insert can never leave a half-applied batch.
func TestDeltaCompactionTrigger(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192, DeltaCompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.Load(context.Background(), []Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	if _, err := d.Insert(context.Background(), []Object{{X: 3, Y: 3, Weight: 3}, {X: 4, Y: 4, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	if p, c := d.Pending(), d.Compactions(); p != 2 || c != 0 {
		t.Fatalf("after first insert: pending %d compactions %d, want 2, 0", p, c)
	}
	// 2 pending + 2 incoming > 3 → compacts first, then buffers the batch.
	if _, err := d.Insert(context.Background(), []Object{{X: 5, Y: 5, Weight: 5}, {X: 6, Y: 6, Weight: 6}}); err != nil {
		t.Fatal(err)
	}
	if p, c := d.Pending(), d.Compactions(); p != 2 || c != 1 {
		t.Fatalf("after second insert: pending %d compactions %d, want 2, 1", p, c)
	}
	if n := d.Len(); n != 6 {
		t.Fatalf("Len() = %d, want 6", n)
	}
	// DeltaCompactAt < 0 disables the trigger entirely.
	e2, err := NewEngine(&Options{BlockSize: 512, Memory: 8192, DeltaCompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	d2, err := e2.Load(context.Background(), []Object{{X: 1, Y: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Release() }()
	for i := 0; i < 8; i++ {
		if _, err := d2.Insert(context.Background(), []Object{{X: float64(i), Y: 1, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if p, c := d2.Pending(), d2.Compactions(); p != 8 || c != 0 {
		t.Fatalf("DeltaCompactAt=-1: pending %d compactions %d, want 8, 0", p, c)
	}
}

// TestDeltaDeleteCompactsPastThreshold: Delete honours DeltaCompactAt as
// Insert does. Single-ID deletes keep the pending delta within the
// threshold by compacting first, every answer matches a reload of the
// remaining objects, and a Delete cancelled during that compaction
// deletes nothing and leaves the engine's blocks where they were.
func TestDeltaDeleteCompactsPastThreshold(t *testing.T) {
	const w, h = 40.0, 40.0
	opts := &Options{BlockSize: 512, Memory: 8192, DeltaCompactAt: 3}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Larger than the engine's buffer pool, so a compaction transfers
	// blocks and each transfer is a cancellation point.
	objs := make([]Object, 2000)
	for i := range objs {
		objs[i] = Object{X: float64(i % 97), Y: float64(i % 89), Weight: 1 + float64(i%5)}
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	live := make([]idObj, len(objs))
	for i, o := range objs {
		live[i] = idObj{id: uint64(i), obj: o}
	}
	remove := func(id uint64) {
		for i, o := range live {
			if o.id == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
		t.Fatalf("id %d not live", id)
	}
	check := func(step string) {
		t.Helper()
		got, err := e.MaxRS(context.Background(), d, w, h)
		if err != nil {
			t.Fatalf("%s: MaxRS: %v", step, err)
		}
		if want := reloadSolve(t, opts, live, 0, w, h); !sameGeometry(got, want) {
			t.Fatalf("%s: answer %+v score %v, reload %+v score %v", step, got.Region, got.Score, want.Region, want.Score)
		}
	}

	for i := 0; i < 10; i++ {
		id := uint64(i*173 + 11)
		removed, err := d.Delete(context.Background(), []uint64{id})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if removed[0] != objs[id] {
			t.Fatalf("delete %d removed %+v, want %+v", i, removed[0], objs[id])
		}
		remove(id)
		if p := d.Pending(); p > 3 {
			t.Fatalf("after delete %d: pending %d past the threshold 3", i, p)
		}
		check(fmt.Sprintf("delete %d", i))
	}
	if c := d.Compactions(); c == 0 {
		t.Fatal("ten deletes past DeltaCompactAt=3 never compacted")
	}

	// Fill the delta to the threshold, so the next Delete compacts first,
	// and cancel that Delete inside its compaction.
	for id := uint64(1990); d.Pending() < 3; id++ {
		if _, err := d.Delete(context.Background(), []uint64{id}); err != nil {
			t.Fatal(err)
		}
		remove(id)
	}
	pending, comps, n, inUse := d.Pending(), d.Compactions(), d.Len(), e.BlocksInUse()
	if _, err := d.Delete(newCancelAfter(3), []uint64{5}); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("Delete cancelled mid-compaction: err = %v, want ErrQueryCancelled", err)
	}
	if p, c, l := d.Pending(), d.Compactions(), d.Len(); p != pending || c != comps || l != n {
		t.Fatalf("after cancelled Delete: pending %d compactions %d len %d, want %d, %d, %d", p, c, l, pending, comps, n)
	}
	if b := e.BlocksInUse(); b != inUse {
		t.Fatalf("BlocksInUse = %d after cancelled Delete, want %d", b, inUse)
	}
	check("cancelled delete")
	if _, err := d.Delete(context.Background(), []uint64{5}); err != nil {
		t.Fatalf("retried Delete: %v", err)
	}
	remove(5)
	if c := d.Compactions(); c != comps+1 {
		t.Fatalf("retried Delete: compactions %d, want %d", c, comps+1)
	}
	check("retried delete")
}

// TestDeltaMutationCancellation drives each mutation into cancellation
// and requires atomicity: no partial application, and the engine's
// block accounting back at its pre-call value.
func TestDeltaMutationCancellation(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Larger than the engine's 16-buffer pool, so the base scans below
	// must transfer blocks (each transfer is a cancellation point).
	objs := make([]Object, 2000)
	for i := range objs {
		objs[i] = Object{X: float64(i), Y: float64(i % 17), Weight: 1 + float64(i%5)}
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	base := e.BlocksInUse()

	// Pre-cancelled Insert applies nothing.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Insert(cancelled, []Object{{X: 1, Y: 1, Weight: 1}}); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("pre-cancelled Insert: err = %v, want ErrQueryCancelled", err)
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("pending %d after cancelled Insert, want 0", p)
	}

	// Delete cancelled mid-scan of the base file: nothing deleted,
	// nothing leaked. The wanted id sits at the end of the file, so the
	// scan cannot finish before the cancellation point.
	if _, err := d.Delete(newCancelAfter(3), []uint64{1995}); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("mid-scan Delete: err = %v, want ErrQueryCancelled", err)
	}
	if p, n := d.Pending(), d.Len(); p != 0 || n != 2000 {
		t.Fatalf("after cancelled Delete: pending %d len %d, want 0, 2000", p, n)
	}
	if n := e.BlocksInUse(); n != base {
		t.Fatalf("BlocksInUse = %d after cancelled Delete, want %d", n, base)
	}

	// Compact cancelled mid-rewrite: the delta survives, the partial
	// output is released, queries still answer exactly.
	if _, err := d.Insert(context.Background(), []Object{{X: 500, Y: 500, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	inUse := e.BlocksInUse()
	if err := d.Compact(newCancelAfter(3)); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("mid-rewrite Compact: err = %v, want ErrQueryCancelled", err)
	}
	if p := d.Pending(); p != 1 {
		t.Fatalf("pending %d after cancelled Compact, want 1", p)
	}
	if n := e.BlocksInUse(); n != inUse {
		t.Fatalf("BlocksInUse = %d after cancelled Compact, want %d", n, inUse)
	}
	if got, err := e.MaxRS(context.Background(), d, 4, 4); err != nil || got.Score <= 0 {
		t.Fatalf("query after cancelled Compact: %v (score %v)", err, got.Score)
	}
}

// TestLoadCancellation covers the ctx-first loaders: a load cancelled at
// block granularity releases every partial block.
func TestLoadCancellation(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	objs := make([]Object, 500)
	for i := range objs {
		objs[i] = Object{X: float64(i), Y: float64(i), Weight: 1}
	}
	if _, err := e.Load(newCancelAfter(2), objs); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("mid-load Load: err = %v, want ErrQueryCancelled", err)
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after cancelled Load, want 0", n)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Load(cancelled, objs); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("pre-cancelled Load: err = %v, want ErrQueryCancelled", err)
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after pre-cancelled Load, want 0", n)
	}
}

// TestDeleteUnknownID pins the atomic all-or-nothing contract.
func TestDeleteUnknownID(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.Load(context.Background(), []Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	if _, err := d.Delete(context.Background(), []uint64{0, 99}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("Delete with unknown id: err = %v, want ErrUnknownID", err)
	}
	if n := d.Len(); n != 2 {
		t.Fatalf("Len() = %d after failed Delete, want 2 (atomic)", n)
	}
	// Duplicate ids in one call are rejected the same way.
	if _, err := d.Delete(context.Background(), []uint64{0, 0}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("Delete with duplicate id: err = %v, want ErrUnknownID", err)
	}
	// Deleting a buffered insert works and never touches the base.
	ids, err := d.Insert(context.Background(), []Object{{X: 9, Y: 9, Weight: 9}})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := d.Delete(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0].X != 9 {
		t.Fatalf("Delete of buffered insert returned %+v", removed)
	}
	if n := d.Len(); n != 2 {
		t.Fatalf("Len() = %d, want 2", n)
	}
}

// TestConcurrentMutation races queries, inserts, deletes and explicit
// compactions against each other. Every query must return a result that
// was exact for SOME consistent delta state (the generation fencing and
// the frozen-delta snapshot guarantee it); afterwards the dataset must
// agree with a reload of the surviving objects and release cleanly.
func TestConcurrentMutation(t *testing.T) {
	opts := &Options{BlockSize: 512, Memory: 8192, DeltaCompactAt: 16}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(42))
	objs := make([]Object, 100)
	for i := range objs {
		objs[i] = Object{X: rng.Float64() * 100, Y: rng.Float64() * 100, Weight: 1 + dyadic(rng)}
	}
	d, err := e.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()

	const writers = 2
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards live
		live = sliceOf(objs)
	)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 20; step++ {
				switch rng.Intn(3) {
				case 0:
					o := Object{X: rng.Float64() * 100, Y: rng.Float64() * 100, Weight: 1 + dyadic(rng)}
					mu.Lock()
					ids, err := d.Insert(context.Background(), []Object{o})
					if err == nil {
						live = append(live, idObj{id: ids[0], obj: o})
					}
					mu.Unlock()
					if err != nil {
						t.Errorf("concurrent Insert: %v", err)
						return
					}
				case 1:
					mu.Lock()
					if len(live) > 10 {
						i := rng.Intn(len(live))
						id := live[i].id
						if _, err := d.Delete(context.Background(), []uint64{id}); err != nil {
							mu.Unlock()
							t.Errorf("concurrent Delete(%d): %v", id, err)
							return
						}
						live = append(live[:i], live[i+1:]...)
					}
					mu.Unlock()
				default:
					if err := d.Compact(context.Background()); err != nil {
						t.Errorf("concurrent Compact: %v", err)
						return
					}
				}
			}
		}(int64(1000 + wi))
	}
	for ri := 0; ri < 2; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 15; q++ {
				if _, err := e.MaxRS(context.Background(), d, 8, 6); err != nil {
					t.Errorf("concurrent MaxRS: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := e.MaxRS(context.Background(), d, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := reloadSolve(t, opts, live, 0, 8, 6)
	if !sameGeometry(got, want) {
		t.Fatalf("after concurrent mutation: got %+v/%v, want %+v/%v",
			got.Location, got.Score, want.Location, want.Score)
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after Release, want 0", n)
	}
}

// TestEffectiveStats requires Dataset.Stats to reflect pending
// mutations: inserts extend N/SumW/extent exactly; deletes decrement
// the counts (extent and MinW stay conservative until compaction).
func TestEffectiveStats(t *testing.T) {
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.Load(context.Background(), []Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	if _, err := d.Insert(context.Background(), []Object{{X: 50, Y: -3, Weight: 7}}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.N != 3 || st.MaxX != 50 || st.MinY != -3 || st.MaxW != 7 {
		t.Fatalf("effective stats after insert: %+v", st)
	}
	if got, want := st.MeanW, 10.0/3; !closeTo(got, want) {
		t.Fatalf("effective MeanW after insert = %v, want %v", got, want)
	}
	if _, err := d.Delete(context.Background(), []uint64{0}); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.N != 2 {
		t.Fatalf("effective stats after delete: %+v", st)
	}
	if got, want := st.MeanW, 9.0/2; !closeTo(got, want) {
		t.Fatalf("effective MeanW after delete = %v, want %v", got, want)
	}
	// Compaction makes the conservative fields exact again.
	if err := d.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.N != 2 || st.MinX != 2 || st.MinW != 2 {
		t.Fatalf("stats after compaction: %+v", st)
	}
}

package maxrs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"maxrs/internal/dist"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
)

// oracleData is one seeded dataset of the shard oracle: n integer
// objects on a 1000×1000 extent with integer weights, mixed-sign or, for
// every 7th dataset, all negative, and a query size from the widths.
type oracleData struct {
	objs []Object
	w, h float64
}

// oracleWidths are the oracle's query sizes on its 1000 extent: from
// narrow to a halo three times the extent, which every slab of every
// shard count is spanned by.
var oracleWidths = []float64{5, 40, 200, 900, 3000}

func newOracleData(seed int64) oracleData {
	rng := rand.New(rand.NewSource(seed))
	n := int(5 * math.Pow(6000.0/5, rng.Float64())) // log-uniform in [5, 6000]
	allNegative := seed%7 == 0
	objs := make([]Object, n)
	for i := range objs {
		w := float64(rng.Intn(11) - 5)
		if allNegative {
			w = -float64(1 + rng.Intn(5))
		}
		objs[i] = Object{X: math.Floor(rng.Float64() * 1000), Y: math.Floor(rng.Float64() * 1000), Weight: w}
	}
	return oracleData{objs: objs, w: oracleWidths[rng.Intn(len(oracleWidths))], h: oracleWidths[rng.Intn(len(oracleWidths))]}
}

// geomObjects converts objects for the brute-force evaluators.
func geomObjects(objs []Object, weight func(Object) float64) []geom.Object {
	out := make([]geom.Object, len(objs))
	for i, o := range objs {
		out[i] = geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: weight(o)}
	}
	return out
}

// shardOracle compares every sharded answer on one dataset with the
// unsharded one and with brute force: equal scores (integer weights make
// them bit-identical), the true score at Location equal to Score, no
// fallback, and TopK checked round by round against the greedy
// definition on the objects its earlier rounds left. The dataset is its
// own, so Dataset.SetShards sets each shard count; e must leave queries
// unsharded by default. It returns the number of answers that differ.
func shardOracle(t *testing.T, e *Engine, od oracleData, ks []int, extensions bool) (checked, bad int) {
	t.Helper()
	ctx := context.Background()
	d, err := e.Load(ctx, od.objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	weight := func(o Object) float64 { return o.Weight }
	one := func(Object) float64 { return 1 }
	type kind struct {
		name string
		run  func(context.Context, *Dataset, float64, float64) (Result, error)
		w    func(Object) float64
	}
	kinds := []kind{{"MaxRS", e.MaxRS, weight}}
	if extensions {
		kinds = append(kinds, kind{"CountRS", e.CountRS, one}, kind{"MinRS", e.MinRS, weight})
	}
	fail := func(format string, args ...any) {
		bad++
		if bad <= 10 {
			t.Errorf("n=%d %gx%g: "+format, append([]any{len(od.objs), od.w, od.h}, args...)...)
		}
	}
	setShards := func(k int) {
		if err := d.SetShards(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range kinds {
		objs := geomObjects(od.objs, q.w)
		setShards(0)
		want, err := q.run(ctx, d, od.w, od.h)
		if err != nil {
			t.Fatal(err)
		}
		if want.Shards != 0 {
			t.Fatalf("%s: reference ran with %d shards, want unsharded", q.name, want.Shards)
		}
		for _, k := range ks {
			setShards(k)
			got, err := q.run(ctx, d, od.w, od.h)
			if err != nil {
				t.Fatalf("%s K=%d: %v", q.name, k, err)
			}
			checked++
			score := geom.WeightIn(objs, geom.Point(got.Location), od.w, od.h)
			switch {
			case got.Shards == 0 || got.FallbackReason != "":
				fail("%s K=%d ran with %d shards, fallback %q", q.name, k, got.Shards, got.FallbackReason)
			case got.Score != want.Score:
				fail("%s K=%d: sharded %g, unsharded %g", q.name, k, got.Score, want.Score)
			case score != got.Score:
				fail("%s K=%d: true score %g at %v, reported %g", q.name, k, score, got.Location, got.Score)
			}
		}
	}
	if !extensions {
		return checked, bad
	}
	for _, k := range ks {
		setShards(k)
		rounds, err := e.TopK(ctx, d, od.w, od.h, 3)
		if err != nil {
			t.Fatalf("TopK K=%d: %v", k, err)
		}
		checked++
		left := geomObjects(od.objs, weight)
		for i := 0; ; i++ {
			best := sweep.MaxRS(left, od.w, od.h).Sum
			if i == len(rounds) {
				if i < 3 && len(left) > 0 && best > 0 {
					fail("TopK K=%d stopped after %d rounds with %g left to cover", k, i, best)
				}
				break
			}
			r := rounds[i]
			if score := geom.WeightIn(left, geom.Point(r.Location), od.w, od.h); r.Score != best || score != best || r.Shards == 0 || r.FallbackReason != "" {
				fail("TopK K=%d round %d: score %g, true %g at %v, greedy best %g, %d shards, fallback %q",
					k, i, r.Score, score, r.Location, best, r.Shards, r.FallbackReason)
				break
			}
			rect := geom.RectFromCenter(geom.Point(r.Location), od.w, od.h)
			kept := left[:0:0]
			for _, o := range left {
				if !rect.Contains(o.Point) {
					kept = append(kept, o)
				}
			}
			left = kept
		}
	}
	return checked, bad
}

// TestShardOracle is the seeded oracle of slab-restricted sharding
// (DESIGN.md §9.3): 300 datasets (n from 5 to 6000, B = 512, M = 8 KB, so
// most solve externally), each sharded at K ∈ {2, 3, 4, 8}. With weights
// of both signs, a shard that answered for centers outside its slab would
// overcount; with query widths up to three times the extent, every piece
// of a shard spans its slab and the root's midpoint split runs. Every
// 10th dataset also checks TopK, CountRS and MinRS.
func TestShardOracle(t *testing.T) {
	datasets, step := 300, 1
	switch {
	case testing.Short():
		datasets = 30
	case raceDetector:
		step = 10
	}
	runShardOracle(t, newShardTestEngine(t, Options{}), datasets, step)
}

// TestShardOracleDistributed runs the oracle's every 10th dataset with
// its shards solved by workers: the slab travels in the request, so the
// workers answer the same restricted problems.
func TestShardOracleDistributed(t *testing.T) {
	workers := []string{testWorker(t, 0).URL, testWorker(t, 0).URL}
	e := distTestEngine(t, 0, workers, nil)
	datasets, step := 300, 10
	switch {
	case testing.Short():
		datasets = 60
	case raceDetector:
		step = 30
	}
	runShardOracle(t, e, datasets, step)
	if fs := e.NetFaultStats(); fs.Calls == 0 {
		t.Fatal("no shard went to a worker")
	}
}

// runShardOracle checks the oracle datasets with seeds 0, step, 2·step, …
// below datasets on e, in parallel, and fails with the count of differing
// answers. Every 10th seed also checks the extensions.
func runShardOracle(t *testing.T, e *Engine, datasets, step int) {
	var checked, bad atomic.Int64
	t.Run("datasets", func(t *testing.T) {
		for seed := 0; seed < datasets; seed += step {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				c, b := shardOracle(t, e, newOracleData(int64(seed)), []int{2, 3, 4, 8}, seed%10 == 0)
				checked.Add(int64(c))
				bad.Add(int64(b))
			})
		}
	})
	if bad.Load() > 0 {
		t.Fatalf("%d of %d sharded answers differ", bad.Load(), checked.Load())
	}
	if n := e.BlocksInUse(); n != 0 {
		t.Fatalf("%d blocks in use after the oracle", n)
	}
}

// TestDistributedStaleWorkerFallsBack: a worker that does not echo the
// request's slab — what a worker from before slab-restricted shards
// sends — solved some other problem. The coordinator refuses its answer
// and sends the shard to the next ready worker that is current; only
// when none is left does the shard fall back to the local halo-replica
// solve. Either way the answer stays exact.
func TestDistributedStaleWorkerFallsBack(t *testing.T) {
	od := newOracleData(7) // all negative
	for _, c := range []struct {
		name     string
		current  bool // a current worker is ready beside the stale one
		fellBack bool
	}{
		{"stale only", false, true},
		{"stale and current", true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			workers := []string{editingWorker(t, 0, func(r *dist.SolveReply) { r.Slab = dist.Slab{} }).URL}
			if c.current {
				workers = append(workers, testWorker(t, 0).URL)
			}
			e := distTestEngine(t, 2, workers, nil)
			d, err := e.Load(context.Background(), od.objs)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = d.Release() }()
			want := sweep.MaxRS(geomObjects(od.objs, func(o Object) float64 { return o.Weight }), od.w, od.h)
			got, err := e.MaxRS(context.Background(), d, od.w, od.h)
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Sum {
				t.Fatalf("score %g, want %g", got.Score, want.Sum)
			}
			if len(got.ShardStats) != 2 {
				t.Fatalf("%d shards, want 2", len(got.ShardStats))
			}
			for i, s := range got.ShardStats {
				switch {
				case s.FellBack != c.fellBack:
					t.Errorf("shard %d: %+v, want FellBack %v", i, s, c.fellBack)
				case c.fellBack && s.Attempts != 1:
					t.Errorf("shard %d: %+v, want one refused attempt before the local fallback", i, s)
				case !c.fellBack && s.Worker != "w1":
					t.Errorf("shard %d: %+v, want the answer of the current worker w1", i, s)
				}
			}
		})
	}
}

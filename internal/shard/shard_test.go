package shard

import (
	"context"
	"math"
	"testing"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
	"maxrs/internal/workload"
)

const (
	testBlock = 512
	testMem   = 8 * 1024 // small enough that a few thousand objects go external
)

// solveUnsharded is the reference: one ExactMaxRS over the whole file.
func solveUnsharded(t *testing.T, env em.Env, f *em.File, w, h float64) (res struct {
	Sum    float64
	Region geom.Rect
}) {
	t.Helper()
	solver, err := core.NewSolver(env, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := solver.SolveObjects(f, w, h)
	if err != nil {
		t.Fatal(err)
	}
	res.Sum = r.Sum
	res.Region = r.Region
	return res
}

// sharded is one end-to-end sharded solve: the merged answer, the
// winning shard's index, and the (closed) partitions, whose slab, object
// count and disk Stats outlive Close.
type sharded struct {
	Res    sweep.Result
	Winner int
	Shards []*Partition
}

// Stats sums the partitions' private-disk traffic.
func (s sharded) Stats() em.Stats {
	var total em.Stats
	for _, p := range s.Shards {
		st := p.Stats()
		total.Reads += st.Reads
		total.Writes += st.Writes
	}
	return total
}

// solveSharded chains the primitives the way the engine's sharded
// executor does — plan, route, solve in process, merge — and closes
// every partition before returning.
func solveSharded(env em.Env, f *em.File, w, h float64, k int) (sharded, error) {
	bounds, err := PlanBounds(env, f, k)
	if err != nil {
		return sharded{}, err
	}
	parts, err := PartitionObjects(env, f, bounds, w/2, nil)
	if err != nil {
		return sharded{}, err
	}
	defer func() {
		for _, p := range parts {
			_ = p.Close()
		}
	}()
	results, err := SolveAll(context.Background(), parts, w, h, core.Config{}, 0)
	if err != nil {
		return sharded{}, err
	}
	win := Merge(results)
	return sharded{Res: results[win], Winner: win, Shards: parts}, nil
}

func writeObjects(t *testing.T, env em.Env, objs []geom.Object) *em.File {
	t.Helper()
	f, err := workload.Write(env.Disk, objs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEquivalenceAcrossShardCounts is the core exactness gate: for the
// paper's Uniform and Gaussian workloads, the sharded solve returns the
// same optimal score as the unsharded solver at every shard count, and
// the winning candidate's score is bit-identical (unit weights make every
// partial sum exact).
func TestEquivalenceAcrossShardCounts(t *testing.T) {
	workloads := map[string][]geom.Object{
		"uniform":  workload.Uniform(7, 3000, 12000),
		"gaussian": workload.Gaussian(7, 3000, 12000),
	}
	for name, objs := range workloads {
		t.Run(name, func(t *testing.T) {
			env := em.MustNewEnv(testBlock, testMem)
			defer env.Disk.Close()
			f := writeObjects(t, env, objs)
			defer f.Release()
			const edge = 480.0
			want := solveUnsharded(t, env, f, edge, edge)
			if want.Sum <= 0 {
				t.Fatalf("degenerate reference score %g", want.Sum)
			}
			for _, k := range []int{1, 2, 4, 8} {
				res, err := solveSharded(env, f, edge, edge, k)
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				if res.Res.Sum != want.Sum {
					t.Errorf("K=%d: score %g, want %g", k, res.Res.Sum, want.Sum)
				}
				if len(res.Shards) > k {
					t.Errorf("K=%d: %d effective shards", k, len(res.Shards))
				}
				var routed int64
				for _, sh := range res.Shards {
					routed += sh.Objects()
				}
				if routed < int64(len(objs)) {
					t.Errorf("K=%d: only %d of %d objects routed", k, routed, len(objs))
				}
			}
		})
	}
}

// TestSingleShardBitIdentical: the degenerate K=1 shard is a verbatim
// copy of the input file, so its solve must match the unsharded solver
// bit for bit — region included.
func TestSingleShardBitIdentical(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	objs := workload.Uniform(11, 2500, 10000)
	f := writeObjects(t, env, objs)
	defer f.Release()
	want := solveUnsharded(t, env, f, 300, 300)
	res, err := solveSharded(env, f, 300, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Sum != want.Sum || res.Res.Region != want.Region {
		t.Fatalf("K=1 differs: got %+v sum %g, want %+v sum %g",
			res.Res.Region, res.Res.Sum, want.Region, want.Sum)
	}
	if len(res.Shards) != 1 || res.Winner != 0 {
		t.Fatalf("K=1: %d shards, winner %d", len(res.Shards), res.Winner)
	}
	if res.Shards[0].Objects() != int64(len(objs)) {
		t.Fatalf("K=1 shard holds %d objects, want %d", res.Shards[0].Objects(), len(objs))
	}
}

// TestStraddlingOptimum forces the optimal rectangle across a shard
// boundary: a symmetric cluster around x=500 puts the K=2 boundary (the
// x-median) in the middle of the best placement, so only halo duplication
// can keep the score exact.
func TestStraddlingOptimum(t *testing.T) {
	var objs []geom.Object
	// 20 points tightly clustered around (500, 100): the unique optimum
	// for a 30×30 query covers all of them, straddling x=500.
	for i := 0; i < 10; i++ {
		d := float64(i + 1)
		objs = append(objs,
			geom.Object{Point: geom.Point{X: 500 - d, Y: 100 - d/2}, W: 1},
			geom.Object{Point: geom.Point{X: 500 + d, Y: 100 + d/2}, W: 1},
		)
	}
	// Background noise far away, spread over x so boundaries land mid-cluster.
	bg := workload.Uniform(3, 400, 1000)
	for _, o := range bg {
		o.Y += 5000 // same x spread, y far from the cluster
		objs = append(objs, o)
	}
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, objs)
	defer f.Release()
	want := solveUnsharded(t, env, f, 30, 30)
	if want.Sum != 20 {
		t.Fatalf("reference score %g, want the full 20-point cluster", want.Sum)
	}
	for _, k := range []int{2, 3, 5, 8} {
		res, err := solveSharded(env, f, 30, 30, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.Res.Sum != want.Sum {
			t.Errorf("K=%d: score %g, want %g (optimum straddles a boundary)", k, res.Res.Sum, want.Sum)
		}
		best := res.Res.Region.Pick()
		if math.Abs(best.X-500) > 15 || math.Abs(best.Y-100) > 15 {
			t.Errorf("K=%d: optimum at %v, want near (500, 100)", k, best)
		}
	}
}

// TestMoreShardsThanDistinctX: boundary deduplication must absorb a shard
// count exceeding the number of distinct x-coordinates instead of
// producing degenerate empty slabs or failing.
func TestMoreShardsThanDistinctX(t *testing.T) {
	var objs []geom.Object
	for i := 0; i < 60; i++ {
		objs = append(objs, geom.Object{
			Point: geom.Point{X: float64(i%3) * 10, Y: float64(i)},
			W:     1,
		})
	}
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, objs)
	defer f.Release()
	want := solveUnsharded(t, env, f, 25, 8)
	for _, k := range []int{4, 8, 16} {
		res, err := solveSharded(env, f, 25, 8, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.Res.Sum != want.Sum {
			t.Errorf("K=%d: score %g, want %g", k, res.Res.Sum, want.Sum)
		}
		if len(res.Shards) > 3 {
			t.Errorf("K=%d: %d effective shards from 3 distinct x values", k, len(res.Shards))
		}
	}
}

// TestWeightedEquivalence: with arbitrary float weights the winning
// shard sums the same weights as the reference but possibly in another
// order, so equality is asserted to a relative tolerance.
func TestWeightedEquivalence(t *testing.T) {
	objs := workload.Uniform(19, 2000, 8000)
	for i := range objs {
		objs[i].W = 0.25 + float64((i*2654435761)%1000)/997.0
	}
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, objs)
	defer f.Release()
	want := solveUnsharded(t, env, f, 400, 400)
	for _, k := range []int{2, 4, 8} {
		res, err := solveSharded(env, f, 400, 400, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if rel := math.Abs(res.Res.Sum-want.Sum) / want.Sum; rel > 1e-12 {
			t.Errorf("K=%d: score %g vs %g (rel %g)", k, res.Res.Sum, want.Sum, rel)
		}
	}
}

// TestWideQueryReplicatesEverywhere: a halo wider than the data extent
// routes every object into every shard — maximum duplication, still
// exact.
func TestWideQueryReplicatesEverywhere(t *testing.T) {
	objs := workload.Uniform(23, 500, 100)
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, objs)
	defer f.Release()
	res, err := solveSharded(env, f, 1000, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Sum != float64(len(objs)) {
		t.Fatalf("score %g, want all %d objects covered", res.Res.Sum, len(objs))
	}
	for i, sh := range res.Shards {
		if sh.Objects() != int64(len(objs)) {
			t.Errorf("shard %d holds %d objects, want all %d (halo spans the space)", i, sh.Objects(), len(objs))
		}
	}
}

// TestEmptyDataset: zero objects collapse to one empty shard and a zero
// score, like the unsharded solver.
func TestEmptyDataset(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, nil)
	defer f.Release()
	res, err := solveSharded(env, f, 10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Sum != 0 {
		t.Fatalf("score %g on empty dataset", res.Res.Sum)
	}
	if len(res.Shards) != 1 {
		t.Fatalf("%d shards on empty dataset, want 1", len(res.Shards))
	}
}

// TestNoLeaksOnPrimaryDisk: a sharded solve must leave the primary disk
// exactly as it found it — only the dataset's own blocks live.
func TestNoLeaksOnPrimaryDisk(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	objs := workload.Uniform(29, 1500, 6000)
	f := writeObjects(t, env, objs)
	defer f.Release()
	before := env.Disk.InUse()
	if _, err := solveSharded(env, f, 200, 200, 4); err != nil {
		t.Fatal(err)
	}
	if after := env.Disk.InUse(); after != before {
		t.Fatalf("primary disk: %d blocks in use after solve, want %d", after, before)
	}
}

// TestScopeChargesPrimaryScans: the caller's scope must see exactly the
// planner's and router's scans of the object file (shard-disk traffic is
// reported per shard instead).
func TestScopeChargesPrimaryScans(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	objs := workload.Uniform(31, 2000, 8000)
	f := writeObjects(t, env, objs)
	defer f.Release()
	sc := new(em.ScopeStats)
	res, err := solveSharded(env.WithScope(sc), f, 250, 250, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.Stats()
	wantReads := uint64(2 * f.Blocks()) // one planning scan + one routing scan
	if got.Reads != wantReads || got.Writes != 0 {
		t.Fatalf("scope saw %v, want reads=%d writes=0", got, wantReads)
	}
	if agg := res.Stats(); agg.Total() == 0 {
		t.Fatalf("aggregate shard stats empty: %v", agg)
	}
}

// TestRoute pins the routing arithmetic at boundaries and beyond.
func TestRoute(t *testing.T) {
	bounds := []float64{10, 20, 30}
	cases := []struct {
		x, hw  float64
		lo, hi int
	}{
		{5, 1, 0, 0},    // interior of shard 0
		{9.5, 1, 0, 1},  // within halo of b_1=10
		{10, 0, 0, 1},   // exactly on a boundary: both sides (inclusive slack)
		{10, 1, 0, 1},   // boundary with halo: both neighbors
		{25, 1, 2, 2},   // interior of shard 2
		{35, 1, 3, 3},   // last shard
		{20, 15, 0, 3},  // halo swallows everything
		{-50, 1, 0, 0},  // far left
		{999, 1, 3, 3},  // far right
		{19, 1.5, 1, 2}, // halo reaches b_2=20 exactly (19+1.5 > 20? yes 20.5>20)
	}
	for _, c := range cases {
		lo, hi := route(bounds, c.x, c.hw)
		if lo != c.lo || hi != c.hi {
			t.Errorf("route(%g, hw=%g) = [%d,%d], want [%d,%d]", c.x, c.hw, lo, hi, c.lo, c.hi)
		}
		if lo > hi {
			t.Errorf("route(%g, hw=%g): empty range", c.x, c.hw)
		}
	}
}

// TestSlabsPartitionCenterSpace: consecutive shard slabs must tile
// (−∞, +∞) without gaps or overlap.
func TestSlabsPartitionCenterSpace(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	objs := workload.Gaussian(37, 2000, 10000)
	f := writeObjects(t, env, objs)
	defer f.Release()
	res, err := solveSharded(env, f, 100, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	slabs := res.Shards
	if !math.IsInf(slabs[0].Slab().Lo, -1) || !math.IsInf(slabs[len(slabs)-1].Slab().Hi, 1) {
		t.Fatalf("outer slabs not unbounded: %v .. %v", slabs[0].Slab(), slabs[len(slabs)-1].Slab())
	}
	for i := 1; i < len(slabs); i++ {
		if slabs[i].Slab().Lo != slabs[i-1].Slab().Hi {
			t.Errorf("gap between slab %d and %d: %v vs %v", i-1, i, slabs[i-1].Slab(), slabs[i].Slab())
		}
		if slabs[i].Slab().Lo >= slabs[i].Slab().Hi && !math.IsInf(slabs[i].Slab().Hi, 1) {
			t.Errorf("degenerate slab %d: %v", i, slabs[i].Slab())
		}
	}
}

// TestNegativeWeightSharded: with mixed-sign and all-negative weights,
// every shard solves its own slab alone, so the merged score equals the
// unsharded one, the winning region lies inside the winning shard's
// slab, and the true score at its center is the score.
func TestNegativeWeightSharded(t *testing.T) {
	for _, allNegative := range []bool{false, true} {
		objs := workload.Uniform(43, 1500, 1000)
		for i := range objs {
			objs[i].W = float64(i%7) - 3
			if allNegative {
				objs[i].W = -1 - float64(i%3)
			}
		}
		env := em.MustNewEnv(testBlock, testMem)
		f := writeObjects(t, env, objs)
		before := env.Disk.InUse()
		want := solveUnsharded(t, env, f, 50, 50)
		for _, k := range []int{2, 3, 8} {
			res, err := solveSharded(env, f, 50, 50, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Res.Sum != want.Sum {
				t.Errorf("allNegative=%v K=%d: sharded %g, unsharded %g", allNegative, k, res.Res.Sum, want.Sum)
			}
			slab := res.Shards[res.Winner].Slab()
			if x := res.Res.Region.X; x.Lo < slab.Lo || x.Hi > slab.Hi {
				t.Errorf("allNegative=%v K=%d: region %v outside the winning slab %v", allNegative, k, x, slab)
			}
			if got := geom.WeightIn(objs, res.Res.Best(), 50, 50); got != res.Res.Sum {
				t.Errorf("allNegative=%v K=%d: true score %g at %v, reported %g", allNegative, k, got, res.Res.Best(), res.Res.Sum)
			}
		}
		if after := env.Disk.InUse(); after != before {
			t.Fatalf("sharded solves leaked primary blocks: %d -> %d", before, after)
		}
		_ = f.Release()
		_ = env.Disk.Close()
	}
}

// TestBoundsLeaveAMidpoint: consecutive plan bounds have a float strictly
// between them, so a shard every piece spans can still be split. With
// three adjacent x values, a wide query and more objects than fit in
// memory, the middle shard would otherwise own a slab one float wide.
func TestBoundsLeaveAMidpoint(t *testing.T) {
	var objs []geom.Object
	x := 1.0
	for i := 0; i < 600; i++ {
		if i%200 == 0 && i > 0 {
			x = math.Nextafter(x, 2)
		}
		objs = append(objs, geom.Object{Point: geom.Point{X: x, Y: float64(i)}, W: float64(i%5) - 2})
	}
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, objs)
	defer f.Release()
	bounds, err := PlanBounds(env, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bounds); i++ {
		if math.Nextafter(bounds[i-1], math.Inf(1)) >= bounds[i] {
			t.Fatalf("bounds %v leave no float between %d and %d", bounds, i-1, i)
		}
	}
	want := solveUnsharded(t, env, f, 10, 10)
	res, err := solveSharded(env, f, 10, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Sum != want.Sum {
		t.Fatalf("sharded %g, unsharded %g", res.Res.Sum, want.Sum)
	}
}

// TestSolveAllReleasesPartitions: the local solver frees each partition
// file once its shard is solved, so the shard disks hold nothing when
// SolveAll returns — only Close is left to the caller.
func TestSolveAllReleasesPartitions(t *testing.T) {
	env := em.MustNewEnv(testBlock, testMem)
	defer env.Disk.Close()
	f := writeObjects(t, env, workload.Uniform(47, 1500, 6000))
	defer f.Release()
	bounds, err := PlanBounds(env, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionObjects(env, f, bounds, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, p := range parts {
			_ = p.Close()
		}
	}()
	for i, p := range parts {
		if p.env.Disk.InUse() == 0 {
			t.Fatalf("shard %d: routed partition holds no blocks", i)
		}
	}
	if _, err := SolveAll(context.Background(), parts, 200, 200, core.Config{}, 2); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if n := p.env.Disk.InUse(); n != 0 {
			t.Errorf("shard %d: %d blocks in use after SolveAll, want 0", i, n)
		}
	}
}

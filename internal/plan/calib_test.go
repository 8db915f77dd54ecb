package plan_test

import (
	"context"
	"fmt"
	"testing"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/plan"
	"maxrs/internal/shard"
	"maxrs/internal/workload"
)

// measure runs one real solve and returns its scoped transfer counts.
func measure(t *testing.T, objs []geom.Object, blockSize, memory int, w, h float64, shards int) (reads, writes int64) {
	t.Helper()
	d, err := em.NewDisk(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	f, err := workload.Write(d, objs)
	if err != nil {
		t.Fatal(err)
	}
	env := em.Env{Disk: d, M: memory}
	sc := &em.ScopeStats{}
	if shards > 0 {
		// The engine's sharded executor, step by step: plan and route on
		// the primary disk's scope, solve each partition on its own disk,
		// then fold the shard disks' traffic into the scope.
		bounds, err := shard.PlanBounds(env.WithScope(sc), f, shards)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := shard.PartitionObjects(env.WithScope(sc), f, bounds, w/2, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = shard.SolveAll(context.Background(), parts, w, h, core.Config{}, 0)
		for _, p := range parts {
			sc.Add(p.Stats())
			_ = p.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	} else {
		s, err := core.NewSolver(env, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveObjectsScoped(context.Background(), f, w, h, sc); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.Stats()
	return int64(st.Reads), int64(st.Writes)
}

func statsOf(objs []geom.Object, blockSize, memory int) plan.Stats {
	c := plan.NewCollector()
	for _, o := range objs {
		c.Add(o.X, o.Y, o.W)
	}
	return c.Finalize(blockSize, memory)
}

// TestCalibrationDev prints predicted-vs-measured for the shard-bench
// grid. Dev harness; run with -v.
func TestCalibrationDev(t *testing.T) {
	if testing.Short() {
		t.Skip("dev harness")
	}
	const (
		n         = 12500
		blockSize = 4096
		memory    = 52428
		seed      = 2012
	)
	extent := 4.0 * n
	q := extent / 1000
	for _, wl := range []struct {
		name string
		objs []geom.Object
	}{
		{"uniform", workload.Uniform(seed, n, extent)},
		{"gaussian", workload.Gaussian(seed, n, extent)},
	} {
		st := statsOf(wl.objs, blockSize, memory)
		set := plan.Settings{B: blockSize, M: memory, W: q, H: q}
		for _, k := range []int{0, 1, 2, 4, 8} {
			pred := plan.Estimate(st, set, plan.Strategy{Algorithm: plan.ExactMaxRS, Shards: k})
			r, w := measure(t, wl.objs, blockSize, memory, q, q, k)
			errPct := 100 * float64(pred.Total()-(r+w)) / float64(r+w)
			fmt.Printf("%-9s K=%d predicted=%6d (r=%5d w=%5d) measured=%6d (r=%5d w=%5d) err=%+6.1f%%\n",
				wl.name, k, pred.Total(), pred.Reads, pred.Writes, r+w, r, w, errPct)
		}
	}
}

package plan

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/geom"
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

func statsOf(objs []geom.Object, blockSize, memory int) Stats {
	c := NewCollector(blockSize, memory)
	for _, o := range objs {
		c.Add(o.X, o.Y, o.W)
	}
	return c.Finalize()
}

// The calibration geometry of the root package's TestCalibrationMatrix
// and of maxrsbench -exp=plan at -scale=0.05.
const (
	calibN    = 12500
	calibB    = 4096
	calibM    = 52428
	calibSeed = 2012
)

type calibLoad struct {
	name string
	objs []geom.Object
	q    float64 // query square side: extent/1000
}

func calibLoads(n int) []calibLoad {
	extent := 4.0 * float64(n)
	return []calibLoad{
		{"uniform", workload.Uniform(calibSeed, n, extent), extent / 1000},
		{"gaussian", workload.Gaussian(calibSeed, n, extent), extent / 1000},
		{"ne", workload.Sample(calibSeed, workload.SyntheticNE(calibSeed), n), workload.SpaceExtent / 1000},
	}
}

// TestCalibrationDev prints predicted-vs-measured for the shard-bench
// grid, with the time the scale model took to price each row on its
// first (w, h, K). Dev harness; run with -v.
func TestCalibrationDev(t *testing.T) {
	if testing.Short() {
		t.Skip("dev harness")
	}
	for _, l := range calibLoads(calibN) {
		st := statsOf(l.objs, calibB, calibM)
		set := Settings{W: l.q, H: l.q}
		for _, k := range []int{0, 1, 2, 4, 8} {
			start := time.Now()
			pred := Estimate(st, set, Strategy{Algorithm: ExactMaxRS, Shards: k})
			took := time.Since(start)
			r, w := measure(t, l.objs, calibB, calibM, l.q, l.q, k)
			errPct := 100 * float64(pred.Total()-(r+w)) / float64(r+w)
			fmt.Printf("%-9s K=%d predicted=%6d (r=%5d w=%5d) measured=%6d (r=%5d w=%5d) err=%+6.1f%% model=%5.1fms\n",
				l.name, k, pred.Total(), pred.Reads, pred.Writes, r+w, r, w, errPct, float64(took.Microseconds())/1000)
		}
	}
}

// TestScaleInvariance is the scale model's premise as a property: a
// sample of n objects solved at B·n/N and M·n/N costs what the full
// query costs, within ±4%, on every calibration workload and shard
// count away from K = 2's bistable point (DESIGN.md §12.4), and at a
// geometry whose sample must grow past sampleMin to give every scaled
// block two piece events.
func TestScaleInvariance(t *testing.T) {
	type geometry struct {
		n, b, m int
		shards  []int
	}
	geos := []geometry{{calibN, calibB, calibM, []int{0, 1, 4, 8}}}
	if !testing.Short() {
		// ⌈40 000·82/1024⌉ = 3204 sample objects. K = 4 is left out:
		// at this geometry its shards' grandchildren sit within a few
		// percent of the base-case capacity, another bistable point.
		geos = append(geos, geometry{40000, 1024, 13107, []int{0, 8}})
	}
	for _, g := range geos {
		for _, l := range calibLoads(g.n) {
			st := statsOf(l.objs, g.b, g.m)
			sm := st.model
			if want := sampleSize(int64(g.n), g.b); int64(len(st.Sample)) != want || want < sampleMin {
				t.Fatalf("N=%d B=%d: sample of %d objects, want %d", g.n, g.b, len(st.Sample), want)
			}
			if sm.b < 2*eventSize || sm.m/sm.b != g.m/g.b {
				t.Fatalf("N=%d B=%d: scaled block %d B, memory %d B: want two events a block and M/B = %d",
					g.n, g.b, sm.b, sm.m, g.m/g.b)
			}
			for _, k := range g.shards {
				pred := Estimate(st, Settings{W: l.q, H: l.q}, Strategy{Algorithm: ExactMaxRS, Shards: k})
				r, w := measure(t, l.objs, g.b, g.m, l.q, l.q, k)
				meas := r + w
				if errFrac := float64(pred.Total()-meas) / float64(meas); errFrac > 0.04 || errFrac < -0.04 {
					t.Errorf("N=%d B=%d %s K=%d: predicted %d, measured %d (%+.1f%%)",
						g.n, g.b, l.name, k, pred.Total(), meas, 100*errFrac)
				}
			}
		}
	}
}

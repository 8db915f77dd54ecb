package maxrs_test

import (
	"context"
	"testing"

	"maxrs"
	"maxrs/internal/geom"
	"maxrs/internal/workload"
)

// This file holds the cost model's acceptance tests (DESIGN.md §12.4):
// the calibration matrix pinning predicted transfer counts to measured
// ones across workloads × strategies × parallelism, and the AlgorithmAuto
// property that the planner's pick is never far from the measured best.

// Calibration geometry: the shard bench's configuration (bench/shard.go)
// — small enough for CI, large enough that every strategy runs genuinely
// externally (the dataset is ~59 pages at B=4096, M covers 12).
const (
	calibN    = 12500
	calibB    = 4096
	calibM    = 52428
	calibSeed = 2012
)

type calibWorkload struct {
	name string
	objs []maxrs.Object
	q    float64 // query square side, extent/1000 as in the paper's setup
}

func calibWorkloads() []calibWorkload {
	extent := 4.0 * calibN
	toObjs := func(gs []geom.Object) []maxrs.Object {
		out := make([]maxrs.Object, len(gs))
		for i, g := range gs {
			out[i] = maxrs.Object{X: g.X, Y: g.Y, Weight: g.W}
		}
		return out
	}
	return []calibWorkload{
		{"uniform", toObjs(workload.Uniform(calibSeed, calibN, extent)), extent / 1000},
		{"gaussian", toObjs(workload.Gaussian(calibSeed, calibN, extent)), extent / 1000},
		// The NE stand-in is sampled down to the calibration cardinality so
		// the grid stays CI-sized; its extent is the paper's 10⁶ space.
		{"ne", toObjs(workload.Sample(calibSeed, workload.SyntheticNE(calibSeed), calibN)), workload.SpaceExtent / 1000},
	}
}

// calibRig is one engine with one loaded dataset.
type calibRig struct {
	e *maxrs.Engine
	d *maxrs.Dataset
}

// calibEngine builds an engine at the calibration geometry with opts'
// other settings and loads objs into it.
func calibEngine(t *testing.T, opts maxrs.Options, objs []maxrs.Object) calibRig {
	t.Helper()
	opts.BlockSize, opts.Memory = calibB, calibM
	eng, err := maxrs.NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	d, err := eng.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	return calibRig{eng, d}
}

// calibTolerance is the documented error bound for a grid point
// (DESIGN.md §12.4): exact-schedule rows are asserted bit-for-bit before
// this is consulted; K=2 sits on the division capacity threshold where
// the solve is bistable and the expectation-based model can land on the
// other side (§12.4's worst case), every other row holds a few percent.
func calibTolerance(shards int) float64 {
	if shards == 2 {
		return 0.30
	}
	return 0.04
}

// TestCalibrationMatrix pins plan.Estimate to the measured em counters
// across {uniform, gaussian, ne} × shards {1,2,4} ×
// parallelism {1,4}, one engine per parallelism. Parallelism must not
// move a single transfer — the schedule is deterministic (DESIGN.md §7) —
// so the p=1 and p=4 measurements are asserted identical, not merely
// both in tolerance.
func TestCalibrationMatrix(t *testing.T) {
	ctx := context.Background()
	for _, wl := range calibWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			engines := map[int]calibRig{}
			for _, p := range []int{1, 4} {
				engines[p] = calibEngine(t, maxrs.Options{Parallelism: p}, wl.objs)
			}
			for _, k := range []int{1, 2, 4} {
				var prevTotal uint64
				for _, p := range []int{1, 4} {
					eng := engines[p]
					if err := eng.d.SetShards(k); err != nil {
						t.Fatal(err)
					}
					res, err := eng.e.MaxRS(ctx, eng.d, wl.q, wl.q)
					if err != nil {
						t.Fatal(err)
					}
					pred := res.PredictedCost
					meas := res.Stats.Total()
					if uint64(pred.Reads) != res.Stats.PredictedReads || uint64(pred.Writes) != res.Stats.PredictedWrites {
						t.Errorf("K=%d p=%d: QueryStats prediction fields disagree with PredictedCost", k, p)
					}
					if pred.Exact {
						if uint64(pred.Total()) != meas {
							t.Errorf("K=%d p=%d: exact prediction %d != measured %d", k, p, pred.Total(), meas)
						}
					} else {
						errFrac := float64(pred.Total()-int64(meas)) / float64(meas)
						if tol := calibTolerance(k); errFrac > tol || errFrac < -tol {
							t.Errorf("K=%d p=%d: predicted %d vs measured %d (%+.1f%%, tolerance ±%.0f%%)",
								k, p, pred.Total(), meas, 100*errFrac, 100*tol)
						}
					}
					if p == 1 {
						prevTotal = meas
					} else if meas != prevTotal {
						t.Errorf("K=%d: parallelism moved transfers %d -> %d", k, prevTotal, meas)
					}
					if res.Plan.Parallelism != p {
						t.Errorf("K=%d p=%d: Plan.Parallelism = %d", k, p, res.Plan.Parallelism)
					}
				}
			}
		})
	}
}

// TestAutoNeverFarFromBest is the planner's acceptance property: across
// the calibration workloads, AlgorithmAuto's measured transfer count
// never exceeds the measured-best eligible candidate's by more than 10%.
func TestAutoNeverFarFromBest(t *testing.T) {
	ctx := context.Background()
	for _, wl := range calibWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			auto := calibEngine(t, maxrs.Options{Algorithm: maxrs.AlgorithmAuto}, wl.objs)
			ex, err := auto.e.Explain(context.Background(), auto.d, wl.q, wl.q)
			if err != nil {
				t.Fatal(err)
			}
			// One engine per candidate algorithm; the dataset's shard
			// count selects the row.
			engines := map[maxrs.Algorithm]calibRig{}
			best := uint64(0)
			for _, c := range ex.Candidates {
				if !c.Eligible {
					continue
				}
				ce, ok := engines[c.Algorithm]
				if !ok {
					ce = calibEngine(t, maxrs.Options{Algorithm: c.Algorithm}, wl.objs)
					engines[c.Algorithm] = ce
				}
				if err := ce.d.SetShards(c.Shards); err != nil {
					t.Fatal(err)
				}
				res, err := ce.e.MaxRS(ctx, ce.d, wl.q, wl.q)
				if err != nil {
					t.Fatal(err)
				}
				if total := res.Stats.Total(); best == 0 || total < best {
					best = total
				}
			}
			if best == 0 {
				t.Fatal("no eligible candidates measured")
			}
			res, err := auto.e.MaxRS(ctx, auto.d, wl.q, wl.q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Plan.Auto {
				t.Fatal("AlgorithmAuto result not marked Auto")
			}
			if got := res.Stats.Total(); float64(got) > 1.10*float64(best) {
				t.Errorf("auto picked %v/K=%d (measured %d), best measured %d: %+.1f%% over",
					res.Plan.Algorithm, res.Plan.Shards, got, best, 100*(float64(got)/float64(best)-1))
			}
		})
	}
}

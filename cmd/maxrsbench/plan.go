package main

import (
	"context"
	"fmt"
	"math"

	"maxrs"
	"maxrs/internal/experiments"
	"maxrs/internal/geom"
	"maxrs/internal/workload"
)

// runPlan is the -exp=plan mode: the cost model's calibration grid
// (DESIGN.md §12.4). For every (workload, strategy) point — the shard grid
// (fused), the unfused ablation, and the planner's own AlgorithmAuto pick,
// on the Uniform and Gaussian workloads — it runs one real query, records
// the measured block transfers next to the model's prediction, and prints
// the error. Both counts are deterministic at a fixed seed/scale, so
// `-baseline` gates them: a regression in either the engine's schedules or
// the model's fidelity fails CI.
func runPlan(cfg gridConfig) ([]experiments.Series, error) {
	extent := 4 * float64(cfg.objects)
	queryEdge := extent / 1000
	loads := []struct {
		name string
		objs []geom.Object
	}{
		{"uniform", workload.Uniform(cfg.seed, cfg.objects, extent)},
		{"gaussian", workload.Gaussian(cfg.seed, cfg.objects, extent)},
	}

	type strat struct {
		label   string
		shards  int
		unfused bool
		auto    bool
	}
	strats := []strat{
		{"K=0", 0, false, false},
		{"K=1", 1, false, false},
		{"K=2", 2, false, false},
		{"K=4", 4, false, false},
		{"K=8", 8, false, false},
		{"unfused", 0, true, false},
		{"auto", 0, false, true},
	}

	fmt.Fprintf(cfg.out, "plan: %d objects per workload, M=%dKB, B=%d, query %gx%g, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, cfg.par)
	fmt.Fprintf(cfg.out, "%-10s %-10s %10s %10s %8s %8s\n",
		"workload", "strategy", "measured", "predicted", "err%", "exact")

	measured := map[string][]float64{}
	predicted := map[string][]float64{}
	order := make([]string, 0, len(loads))
	for _, load := range loads {
		order = append(order, load.name)
		objs := make([]maxrs.Object, len(load.objs))
		for i, o := range load.objs {
			objs[i] = maxrs.Object{X: o.X, Y: o.Y, Weight: o.W}
		}
		for _, st := range strats {
			opts := &maxrs.Options{
				BlockSize:   experiments.DefaultBlockSize,
				Memory:      cfg.memory,
				Parallelism: cfg.par,
			}
			if st.auto {
				opts.Algorithm = maxrs.AlgorithmAuto
			}
			eng, err := maxrs.NewEngine(opts)
			if err != nil {
				return nil, err
			}
			ds, err := eng.Load(context.Background(), objs)
			if err != nil {
				_ = eng.Close()
				return nil, err
			}
			qopts := []maxrs.QueryOption{maxrs.WithUnfused(st.unfused)}
			if !st.auto {
				qopts = append(qopts, maxrs.WithShards(st.shards))
			}
			res, err := eng.MaxRS(context.Background(), ds, queryEdge, queryEdge, qopts...)
			if err != nil {
				_ = eng.Close()
				return nil, fmt.Errorf("plan: %s %s: %w", load.name, st.label, err)
			}
			if err := eng.Close(); err != nil {
				return nil, err
			}
			meas := float64(res.Stats.Total())
			pred := float64(res.PredictedCost.Total())
			errPct := 0.0
			if meas > 0 {
				errPct = 100 * (pred - meas) / meas
			}
			label := st.label
			if st.auto {
				label = fmt.Sprintf("auto(%v/K=%d)", res.Plan.Algorithm, res.Plan.Shards)
			}
			fmt.Fprintf(cfg.out, "%-10s %-10s %10.0f %10.0f %+7.1f%% %8v\n",
				load.name, label, meas, pred, errPct, res.PredictedCost.Exact)
			if res.PredictedCost.Exact && pred != meas {
				return nil, fmt.Errorf("plan: %s %s: exact prediction %g != measured %g",
					load.name, st.label, pred, meas)
			}
			measured[load.name] = append(measured[load.name], meas)
			predicted[load.name] = append(predicted[load.name], pred)
		}
	}

	// Worst absolute error across the explicit grid (auto excluded — its
	// point duplicates a grid row) for the text summary.
	worst := 0.0
	for _, l := range loads {
		for i := range strats {
			if strats[i].auto {
				continue
			}
			m, p := measured[l.name][i], predicted[l.name][i]
			if m > 0 {
				worst = math.Max(worst, math.Abs(p-m)/m)
			}
		}
	}
	fmt.Fprintf(cfg.out, "worst grid error %.1f%% (K=2 sits on the division capacity threshold; DESIGN.md §12.4)\n",
		100*worst)

	xs := make([]float64, len(strats))
	for i := range strats {
		xs[i] = float64(i)
	}
	mk := func(title string, vals map[string][]float64) experiments.Series {
		return experiments.Series{
			Title:  title,
			XLabel: "strategy index (K=0,1,2,4,8, unfused, auto)",
			X:      xs,
			Order:  order,
			Values: vals,
		}
	}
	return []experiments.Series{
		mk("plan: measured I/O per query (block transfers)", measured),
		mk("plan: predicted I/O per query (block transfers)", predicted),
	}, nil
}

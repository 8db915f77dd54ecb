package main

import (
	"context"
	"fmt"

	"maxrs"
	"maxrs/internal/experiments"
	"maxrs/internal/geom"
	"maxrs/internal/workload"
)

// shardCounts are the measured shard counts; 0 is the unsharded
// reference engine.
var shardCounts = []int{0, 1, 2, 4, 8}

// runShard is the -exp=shard mode: the sharded engine (DESIGN.md §9)
// against the unsharded reference on the paper's Uniform and Gaussian
// workloads. It asserts bit-identical best scores for K = 1, 2, 4, 8
// versus the unsharded engine (unit weights make every partial sum exact,
// so "identical" means identical to the last bit), and that each sharded
// query's per-shard stats add up to its reported total. It then reports
// io/op and halo duplication for every (workload, K) point.
func runShard(cfg gridConfig) ([]experiments.Series, error) {
	extent := 4 * float64(cfg.objects)
	queryEdge := extent / 1000
	loads := []struct {
		name string
		objs []geom.Object
	}{
		{"uniform", workload.Uniform(cfg.seed, cfg.objects, extent)},
		{"gaussian", workload.Gaussian(cfg.seed, cfg.objects, extent)},
	}

	fmt.Fprintf(cfg.out, "shard: %d objects per workload, M=%dKB, B=%d, query %gx%g, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, cfg.par)
	fmt.Fprintf(cfg.out, "%-10s %8s %12s %12s %10s\n",
		"workload", "K", "io/op", "routed", "score")

	type measured struct {
		io     uint64
		routed int64 // objects across all shards, halo copies included
		score  float64
	}
	results := map[string][]measured{}

	for _, load := range loads {
		objs := make([]maxrs.Object, len(load.objs))
		for i, o := range load.objs {
			objs[i] = maxrs.Object{X: o.X, Y: o.Y, Weight: o.W}
		}
		points := make([]measured, 0, len(shardCounts))
		for _, k := range shardCounts {
			eng, err := maxrs.NewEngine(&maxrs.Options{
				BlockSize:   experiments.DefaultBlockSize,
				Memory:      cfg.memory,
				Parallelism: cfg.par,
				Shards:      k,
			})
			if err != nil {
				return nil, err
			}
			ds, err := eng.Load(context.Background(), objs)
			if err != nil {
				_ = eng.Close()
				return nil, err
			}
			eng.ResetStats()
			res, err := eng.MaxRS(context.Background(), ds, queryEdge, queryEdge)
			if err != nil {
				_ = eng.Close()
				return nil, fmt.Errorf("shard: %s K=%d: %w", load.name, k, err)
			}
			// Aggregation invariant: with a single query since
			// ResetStats, the engine-global total (primary disk +
			// shard-disk traffic) must equal the per-query total.
			if g, q := eng.Stats().Total(), res.Stats.Total(); g != q {
				_ = eng.Close()
				return nil, fmt.Errorf("shard: %s K=%d: engine total %d != query total %d",
					load.name, k, g, q)
			}
			if err := eng.Close(); err != nil {
				return nil, err
			}
			m := measured{io: res.Stats.Total(), routed: int64(len(objs)), score: res.Score}
			if k >= 1 {
				m.routed = 0
				for _, s := range res.ShardStats {
					m.routed += s.Objects
				}
			}
			points = append(points, m)
			fmt.Fprintf(cfg.out, "%-10s %8d %12d %12d %10.0f\n",
				load.name, k, m.io, m.routed, m.score)
		}
		// The gate: every shard count returns the unsharded score, bit
		// for bit.
		for i, k := range shardCounts {
			if points[i].score != points[0].score {
				return nil, fmt.Errorf("shard: %s K=%d score %g differs from unsharded %g",
					load.name, k, points[i].score, points[0].score)
			}
		}
		results[load.name] = points
	}
	fmt.Fprintf(cfg.out, "scores bit-identical across K=%v on every workload ✓\n", shardCounts)

	xs := make([]float64, len(shardCounts))
	for i, k := range shardCounts {
		xs[i] = float64(k)
	}
	order := make([]string, 0, len(loads))
	for _, l := range loads {
		order = append(order, l.name)
	}
	mkSeries := func(title string, val func(measured) float64) experiments.Series {
		s := experiments.Series{
			Title:  title,
			XLabel: "shards (0 = unsharded)",
			X:      xs,
			Order:  order,
			Values: map[string][]float64{},
		}
		for _, l := range loads {
			vals := make([]float64, len(shardCounts))
			for i, m := range results[l.name] {
				vals[i] = val(m)
			}
			s.Values[l.name] = vals
		}
		return s
	}
	return []experiments.Series{
		mkSeries("shard: I/O per query (block transfers)", func(m measured) float64 { return float64(m.io) }),
		mkSeries("shard: halo duplication (routed objects / input objects)", func(m measured) float64 {
			return float64(m.routed) / float64(cfg.objects)
		}),
	}, nil
}

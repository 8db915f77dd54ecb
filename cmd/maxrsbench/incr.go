package main

import (
	"context"
	"fmt"
	"math/rand"

	"maxrs"
	"maxrs/internal/experiments"
)

// incrBatches is the mutation-rate axis: objects inserted per round.
var incrBatches = []int{1, 16, 128}

const (
	incrRounds  = 3 // mutation rounds per batch size
	incrQueries = 3 // queries after each round
)

// runIncr is the -exp=incr mode: the incremental-maintenance benchmark of
// the mutable-dataset layer (DESIGN.md §14). For each insert-batch size it
// interleaves mutation rounds with queries on one long-lived dataset and
// measures the transfers each query costs, next to the reload-from-scratch
// alternative (load the effective objects into a fresh engine, solve
// once). After every round the mutated dataset's answer must be
// bit-identical to the reload's (weights are dyadic, so the sweep sums are
// exact and bit-identity is well-defined).
func runIncr(cfg expConfig) ([]experiments.Series, error) {
	extent := 4 * float64(cfg.objects)
	queryEdge := extent / 1000
	opts := &maxrs.Options{
		BlockSize:   experiments.DefaultBlockSize,
		Memory:      cfg.memory,
		Parallelism: cfg.par,
	}
	fmt.Fprintf(cfg.out, "incr: %d uniform objects, M=%dKB, B=%d, query %gx%g, %d rounds x %d queries, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge,
		incrRounds, incrQueries, cfg.par)
	fmt.Fprintf(cfg.out, "%-12s %14s %14s %12s\n",
		"batch", "delta io/q", "reload io/q", "combined")

	deltaIO := make([]float64, len(incrBatches))
	reloadIO := make([]float64, len(incrBatches))
	combined := make([]float64, len(incrBatches))

	for bi, batch := range incrBatches {
		rng := rand.New(rand.NewSource(cfg.seed + int64(bi)))
		mkObj := func() maxrs.Object {
			return maxrs.Object{
				X:      rng.Float64() * extent,
				Y:      rng.Float64() * extent,
				Weight: 1 + float64(rng.Intn(8))/8,
			}
		}
		base := make([]maxrs.Object, cfg.objects)
		for i := range base {
			base[i] = mkObj()
		}
		eng, err := maxrs.NewEngine(opts)
		if err != nil {
			return nil, err
		}
		ds, err := eng.Load(context.Background(), base)
		if err != nil {
			_ = eng.Close()
			return nil, err
		}
		eff := append([]maxrs.Object(nil), base...)

		var (
			qIO, rIO   uint64
			nCombined  int
			queriesRun int
		)
		for round := 0; round < incrRounds; round++ {
			ins := make([]maxrs.Object, batch)
			for i := range ins {
				ins[i] = mkObj()
			}
			if _, err := ds.Insert(context.Background(), ins); err != nil {
				_ = eng.Close()
				return nil, fmt.Errorf("incr: batch %d round %d: %w", batch, round, err)
			}
			eff = append(eff, ins...)

			var last maxrs.Result
			for q := 0; q < incrQueries; q++ {
				res, err := eng.MaxRS(context.Background(), ds, queryEdge, queryEdge)
				if err != nil {
					_ = eng.Close()
					return nil, fmt.Errorf("incr: batch %d round %d query %d: %w", batch, round, q, err)
				}
				qIO += res.Stats.Total()
				if res.Plan.Delta != nil && res.Plan.Delta.Path == "combined" {
					nCombined++
				}
				queriesRun++
				last = res
			}

			// The reload alternative — and the exactness oracle.
			ref, err := maxrs.NewEngine(opts)
			if err != nil {
				_ = eng.Close()
				return nil, err
			}
			rd, err := ref.Load(context.Background(), eff)
			if err != nil {
				_ = ref.Close()
				_ = eng.Close()
				return nil, err
			}
			want, err := ref.MaxRS(context.Background(), rd, queryEdge, queryEdge)
			if err != nil {
				_ = ref.Close()
				_ = eng.Close()
				return nil, err
			}
			rIO += ref.Stats().Total() // load + solve: the full reload cost
			if err := ref.Close(); err != nil {
				_ = eng.Close()
				return nil, err
			}
			if last.Location != want.Location || last.Score != want.Score || last.Region != want.Region {
				_ = eng.Close()
				return nil, fmt.Errorf(
					"incr: batch %d round %d: delta answer diverged from reload: got %+v/%v, want %+v/%v",
					batch, round, last.Location, last.Score, want.Location, want.Score)
			}
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		deltaIO[bi] = float64(qIO) / float64(queriesRun)
		reloadIO[bi] = float64(rIO) / float64(incrRounds)
		combined[bi] = float64(nCombined) / float64(queriesRun)
		fmt.Fprintf(cfg.out, "%-12d %14.1f %14.1f %11.1f%%\n",
			batch, deltaIO[bi], reloadIO[bi], 100*combined[bi])
	}
	fmt.Fprintf(cfg.out, "every round bit-identical to reload ✓\n")

	x := make([]float64, len(incrBatches))
	for i, b := range incrBatches {
		x[i] = float64(b)
	}
	mkSeries := func(title string, vals map[string][]float64) experiments.Series {
		return experiments.Series{
			Title:  title,
			XLabel: "insert batch size",
			X:      x,
			Order:  []string{"delta", "reload"},
			Values: vals,
		}
	}
	return []experiments.Series{
		mkSeries("incr: I/O per query after mutations (block transfers)", map[string][]float64{
			"delta":  deltaIO,
			"reload": reloadIO,
		}),
		mkSeries("incr: combined-path share of queries", map[string][]float64{
			"delta": combined,
		}),
	}, nil
}

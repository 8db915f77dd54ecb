package main

import (
	"fmt"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/experiments"
	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// fusionVariant is one measured configuration.
type fusionVariant struct {
	name       string
	fileBacked bool
	unfused    bool
}

var fusionVariants = []fusionVariant{
	{name: "mem/unfused", unfused: true},
	{name: "mem/fused"},
	{name: "disk/unfused", fileBacked: true, unfused: true},
	{name: "disk/fused", fileBacked: true},
}

// runFusion is the -exp=fusion mode: a head-to-head of the fused root
// pipeline (DESIGN.md §8) against the materializing one, on the in-memory
// disk and the file-backed disk (whose streams pipeline). It asserts
// bit-identical results across all four variants, the golden
// transfer-saving floor of the fusion, and count-invariance of the storage
// medium and its prefetch/write-behind, then reports io/op and pipeline
// coverage.
func runFusion(cfg gridConfig) ([]experiments.Series, error) {
	objs := workload.Uniform(cfg.seed, cfg.objects, 4*float64(cfg.objects))
	queryEdge := 4 * float64(cfg.objects) / 1000

	fmt.Fprintf(cfg.out, "fusion: %d uniform objects, M=%dKB, B=%d, query %gx%g, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, cfg.par)
	fmt.Fprintf(cfg.out, "%-24s %12s %12s %12s\n", "variant", "io/op", "pre-reads", "wb-writes")

	type measured struct {
		io       uint64
		preReads float64 // prefetched reads / total reads
		wbWrites float64 // write-behind writes / total writes
		region   [4]float64
		sum      float64
	}
	results := make([]measured, len(fusionVariants))

	for vi, v := range fusionVariants {
		var (
			d   *em.Disk
			err error
		)
		if v.fileBacked {
			d, err = em.NewFileBackedDisk("", experiments.DefaultBlockSize)
		} else {
			d, err = em.NewDisk(experiments.DefaultBlockSize)
		}
		if err != nil {
			return nil, err
		}
		env := em.Env{Disk: d, M: cfg.memory}
		f, err := workload.Write(d, objs)
		if err != nil {
			return nil, closeJoin(d, err)
		}
		solver, err := core.NewSolver(env, core.Config{Parallelism: cfg.par, Unfused: v.unfused})
		if err != nil {
			return nil, closeJoin(d, err)
		}
		d.ResetStats()
		res, err := solver.SolveObjects(f, queryEdge, queryEdge)
		if err != nil {
			return nil, closeJoin(d, fmt.Errorf("fusion: %s: %w", v.name, err))
		}
		stats := d.Stats()
		pr, pw := d.PipelineStats()
		if err := d.Close(); err != nil {
			return nil, err
		}
		m := measured{
			io:     stats.Total(),
			region: [4]float64{res.Region.X.Lo, res.Region.X.Hi, res.Region.Y.Lo, res.Region.Y.Hi},
			sum:    res.Sum,
		}
		if stats.Reads > 0 {
			m.preReads = float64(pr) / float64(stats.Reads)
		}
		if stats.Writes > 0 {
			m.wbWrites = float64(pw) / float64(stats.Writes)
		}
		results[vi] = m
		fmt.Fprintf(cfg.out, "%-24s %12d %11.1f%% %11.1f%%\n",
			v.name, m.io, 100*m.preReads, 100*m.wbWrites)
	}

	// Invariants (DESIGN.md §8). 1: every variant returns the same answer.
	for vi := 1; vi < len(results); vi++ {
		if results[vi].region != results[0].region || results[vi].sum != results[0].sum {
			return nil, fmt.Errorf("fusion: %s result differs from %s",
				fusionVariants[vi].name, fusionVariants[0].name)
		}
	}
	byName := func(name string) measured {
		for vi, v := range fusionVariants {
			if v.name == name {
				return results[vi]
			}
		}
		panic("unknown variant " + name)
	}
	// 2: io/op depends only on fused/unfused — never on the medium or on
	// pipelining.
	for _, pair := range [][2]string{
		{"mem/fused", "disk/fused"},
		{"mem/unfused", "disk/unfused"},
	} {
		if a, b := byName(pair[0]), byName(pair[1]); a.io != b.io {
			return nil, fmt.Errorf("fusion: io/op %d (%s) != %d (%s)", a.io, pair[0], b.io, pair[1])
		}
	}
	// 3: the fusion saves at least four event-stream passes and two
	// edge-stream passes at the root (the golden floor of
	// core.TestFusionEquivalence).
	blockOf := func(bytes int) uint64 {
		return uint64((bytes + experiments.DefaultBlockSize - 1) / experiments.DefaultBlockSize)
	}
	minSaving := 4*blockOf(2*cfg.objects*rec.PieceEventCodec{}.Size()) +
		2*blockOf(4*cfg.objects*rec.Float64Codec{}.Size())
	fusedIO, unfusedIO := byName("mem/fused").io, byName("mem/unfused").io
	if fusedIO >= unfusedIO || unfusedIO-fusedIO < minSaving {
		return nil, fmt.Errorf("fusion: saving %d transfers < asserted floor %d (fused %d, unfused %d)",
			unfusedIO-fusedIO, minSaving, fusedIO, unfusedIO)
	}
	fmt.Fprintf(cfg.out, "results identical, io/op backend- and pipeline-invariant, fusion saves %d ≥ %d transfers ✓\n",
		unfusedIO-fusedIO, minSaving)

	names := make([]string, len(fusionVariants))
	for i, v := range fusionVariants {
		names[i] = v.name
	}
	return []experiments.Series{
		variantSeries("fusion: I/O per query (block transfers)", names, results, func(m measured) float64 { return float64(m.io) }),
		variantSeries("fusion: prefetch coverage (reads via read-ahead)", names, results, func(m measured) float64 { return m.preReads }),
		variantSeries("fusion: write-behind coverage (writes via background)", names, results, func(m measured) float64 { return m.wbWrites }),
	}, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"

	"maxrs"
	"maxrs/internal/experiments"
)

// codecBenchVariant is one measured storage stack.
type codecBenchVariant struct {
	name    string
	backend maxrs.BackendKind
	codec   maxrs.CodecKind
}

var codecBenchVariants = []codecBenchVariant{
	{name: "file/none", backend: maxrs.BackendFile, codec: maxrs.CodecNone},
	{name: "file/delta", backend: maxrs.BackendFile, codec: maxrs.CodecDelta},
	{name: "mmap/none", backend: maxrs.BackendMmap, codec: maxrs.CodecNone},
	{name: "mmap/delta", backend: maxrs.BackendMmap, codec: maxrs.CodecDelta},
}

// codecObjects builds the uniform workload the grid runs on — the same
// distribution the paper's Fig. 12 sweep uses.
func codecObjects(seed int64, n int) []maxrs.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]maxrs.Object, n)
	extent := 4 * float64(n)
	for i := range objs {
		objs[i] = maxrs.Object{
			X:      rng.Float64() * extent,
			Y:      rng.Float64() * extent,
			Weight: float64(rng.Intn(9) + 1),
		}
	}
	return objs
}

// runCodec is the -exp=codec mode: the storage-stack grid of DESIGN.md
// §15 — file vs mmap backend, fixed vs delta-compressed block layout — on
// a Fig. 12-style uniform workload. It asserts bit-identical results and
// bit-identical counted transfer schedules across every stack (the codecs
// and the mmap path live below the transfer counters), and a strict
// physical-byte win for the delta codec over the fixed layout. Only the
// "(block transfers)" series is baseline-gated; physical bytes are
// recorded, never gated.
func runCodec(cfg gridConfig) ([]experiments.Series, error) {
	objs := codecObjects(cfg.seed, cfg.objects)
	queryEdge := 4 * float64(cfg.objects) / 1000

	fmt.Fprintf(cfg.out, "codec: %d uniform objects, M=%dKB, B=%d, query %gx%g, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, cfg.par)
	fmt.Fprintf(cfg.out, "%-16s %-12s %10s %14s %8s\n",
		"variant", "resolved", "io/op", "phys bytes/op", "ratio")

	type measured struct {
		io         uint64
		physBytes  uint64
		compressed uint64
		measured   bool
		backend    string
		result     maxrs.Result
	}
	results := make([]measured, len(codecBenchVariants))

	for vi, v := range codecBenchVariants {
		e, err := maxrs.NewEngine(&maxrs.Options{
			BlockSize:   experiments.DefaultBlockSize,
			Memory:      cfg.memory,
			Parallelism: cfg.par,
			OnDisk:      true,
			Backend:     v.backend,
			Codec:       v.codec,
		})
		if err != nil {
			return nil, fmt.Errorf("codec: %s: %w", v.name, err)
		}
		d, err := e.Load(context.Background(), objs)
		if err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("codec: %s: %w", v.name, err)
		}
		e.ResetStats() // scope counted and physical I/O to the query
		res, err := e.MaxRS(context.Background(), d, queryEdge, queryEdge)
		if err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("codec: %s: %w", v.name, err)
		}
		phys := e.PhysIO()
		m := measured{
			io:         e.Stats().Total(),
			physBytes:  phys.Bytes(),
			compressed: phys.BlocksCompressed,
			measured:   phys.Measured,
			backend:    e.StorageInfo().Backend,
			result:     res,
		}
		if err := d.Release(); err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("codec: %s: %w", v.name, err)
		}
		if err := e.Close(); err != nil {
			return nil, fmt.Errorf("codec: %s: %w", v.name, err)
		}
		results[vi] = m
		fixed := m.io * uint64(experiments.DefaultBlockSize)
		fmt.Fprintf(cfg.out, "%-16s %-12s %10d %14d %7.1f%%\n",
			v.name, m.backend, m.io, m.physBytes, 100*float64(m.physBytes)/float64(fixed))
	}

	// Invariants (DESIGN.md §15). 1: every stack returns the same answer.
	for vi := 1; vi < len(results); vi++ {
		a, b := results[vi].result, results[0].result
		if a.Region != b.Region || a.Score != b.Score {
			return nil, fmt.Errorf("codec: %s result differs from %s",
				codecBenchVariants[vi].name, codecBenchVariants[0].name)
		}
	}
	// 2: the counted transfer schedule is bit-identical across every
	// backend and codec — compression and mmap sit below the counters.
	for vi := 1; vi < len(results); vi++ {
		if results[vi].io != results[0].io {
			return nil, fmt.Errorf("codec: io/op %d (%s) != %d (%s) — the counted schedule moved",
				results[vi].io, codecBenchVariants[vi].name, results[0].io, codecBenchVariants[0].name)
		}
	}
	// 3: the delta codec moves strictly fewer physical bytes than the
	// uncompressed fixed layout (io × B — exactly what file/none derives),
	// and actually compressed blocks to get there.
	byName := func(name string) measured {
		for vi, v := range codecBenchVariants {
			if v.name == name {
				return results[vi]
			}
		}
		panic("unknown variant " + name)
	}
	fixedBytes := results[0].io * uint64(experiments.DefaultBlockSize)
	for _, name := range []string{"file/delta", "mmap/delta"} {
		m := byName(name)
		if !m.measured {
			return nil, fmt.Errorf("codec: %s did not measure physical bytes", name)
		}
		if m.compressed == 0 {
			return nil, fmt.Errorf("codec: %s compressed no blocks on a sorted stream workload", name)
		}
		if m.physBytes >= fixedBytes {
			return nil, fmt.Errorf("codec: %s moved %d physical bytes ≥ fixed layout %d — no compression win",
				name, m.physBytes, fixedBytes)
		}
	}
	fmt.Fprintf(cfg.out, "results identical, io/op backend- and codec-invariant, delta moves %d < %d fixed-layout bytes ✓\n",
		byName("file/delta").physBytes, fixedBytes)

	names := make([]string, len(codecBenchVariants))
	for i, v := range codecBenchVariants {
		names[i] = v.name
	}
	return []experiments.Series{
		variantSeries("codec: I/O per query (block transfers)", names, results, func(m measured) float64 { return float64(m.io) }),
		variantSeries("codec: physical bytes per query", names, results, func(m measured) float64 { return float64(m.physBytes) }),
		variantSeries("codec: blocks compressed per query", names, results, func(m measured) float64 { return float64(m.compressed) }),
	}, nil
}

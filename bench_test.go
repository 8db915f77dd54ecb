package maxrs

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§7), plus ablation benches for the design choices
// called out in DESIGN.md §5. Each bench reports the EM-model block
// transfers per operation (io/op) — the paper's cost metric — alongside
// Go's own timing.
//
// These run at a reduced scale so `go test -bench=.` completes in minutes;
// cmd/maxrsbench regenerates the figures at any scale up to the paper's.

import (
	"context"
	"fmt"
	"testing"

	"maxrs/internal/core"
	"maxrs/internal/crs"
	"maxrs/internal/em"
	"maxrs/internal/experiments"
	"maxrs/internal/geom"
	"maxrs/internal/workload"
)

// benchCfg is the reduced-scale configuration for benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, BufScale: 0.05, Seed: 2012, OracleCap: 10_000}
}

// reportSeries runs a figure once per b.N iteration batch and reports the
// summed I/O of its first panel point as io/op for visibility.
func benchFigure(b *testing.B, fn func(experiments.Config) ([]experiments.Series, error)) {
	b.Helper()
	var lastIO float64
	for i := 0; i < b.N; i++ {
		series, err := fn(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		lastIO = 0
		for _, s := range series {
			for _, vs := range s.Values {
				for _, v := range vs {
					lastIO += v
				}
			}
		}
	}
	b.ReportMetric(lastIO, "io/op")
}

// BenchmarkTable2Datasets regenerates Table 2 (real dataset loading).
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ux := workload.SyntheticUX(2012)
		ne := workload.SyntheticNE(2012)
		if len(ux) != workload.UXCardinality || len(ne) != workload.NECardinality {
			b.Fatal("cardinality mismatch")
		}
	}
}

// BenchmarkFig12Cardinality regenerates Fig. 12 (I/O vs cardinality).
func BenchmarkFig12Cardinality(b *testing.B) { benchFigure(b, experiments.Fig12) }

// BenchmarkFig13BufferSize regenerates Fig. 13 (I/O vs buffer size).
func BenchmarkFig13BufferSize(b *testing.B) { benchFigure(b, experiments.Fig13) }

// BenchmarkFig14RangeSize regenerates Fig. 14 (I/O vs range size).
func BenchmarkFig14RangeSize(b *testing.B) { benchFigure(b, experiments.Fig14) }

// BenchmarkFig15RealBuffer regenerates Fig. 15 (real datasets, buffer).
func BenchmarkFig15RealBuffer(b *testing.B) { benchFigure(b, experiments.Fig15) }

// BenchmarkFig16RealRange regenerates Fig. 16 (real datasets, range).
func BenchmarkFig16RealRange(b *testing.B) { benchFigure(b, experiments.Fig16) }

// BenchmarkFig17ApproxQuality regenerates Fig. 17 (approximation quality);
// reports the mean ratio as ratio/op.
func BenchmarkFig17ApproxQuality(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig17(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, vs := range s.Values {
			for _, v := range vs {
				sum += v
				n++
			}
		}
		mean = sum / float64(n)
	}
	b.ReportMetric(mean, "ratio/op")
}

// --- Per-algorithm benches at a fixed workload (the Fig. 12 default
// point, scaled): direct comparison of the three MaxRS solvers.

func benchAlgo(b *testing.B, algo Algorithm) {
	const n = 12_500 // 250k × 0.05
	pts := workload.Uniform(2012, n, 4*float64(n))
	objs := make([]Object, len(pts))
	for i, p := range pts {
		objs[i] = Object{X: p.X, Y: p.Y, Weight: p.W}
	}
	queryEdge := 4 * float64(n) / 1000
	var io uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(&Options{
			BlockSize: 4096,
			Memory:    52 * 1024, // 1 MB × 0.05 scale
			Algorithm: algo,
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := e.Load(context.Background(), objs)
		if err != nil {
			b.Fatal(err)
		}
		e.ResetStats()
		if _, err := e.MaxRS(context.Background(), d, queryEdge, queryEdge); err != nil {
			b.Fatal(err)
		}
		io = e.Stats().Total()
	}
	b.ReportMetric(float64(io), "io/op")
}

func BenchmarkExactMaxRS(b *testing.B) { benchAlgo(b, ExactMaxRS) }
func BenchmarkInMemory(b *testing.B)   { benchAlgo(b, InMemory) }

// BenchmarkParallelExactMaxRS runs the BenchmarkExactMaxRS workload at
// several Parallelism values (DESIGN.md §6). io/op must be identical at
// every p — the transfer schedule does not depend on the worker count —
// while ns/op drops toward 1/min(p, cores); the sub-benches assert the
// io/op half of that contract against the p=1 baseline.
func BenchmarkParallelExactMaxRS(b *testing.B) {
	const n = 12_500
	pts := workload.Uniform(2012, n, 4*float64(n))
	objs := make([]Object, len(pts))
	for i, p := range pts {
		objs[i] = Object{X: p.X, Y: p.Y, Weight: p.W}
	}
	queryEdge := 4 * float64(n) / 1000
	var baseIO uint64 // io/op at p=1; 0 when that sub-bench was filtered out
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var io uint64
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(&Options{
					BlockSize:   4096,
					Memory:      52 * 1024,
					Algorithm:   ExactMaxRS,
					Parallelism: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				d, err := e.Load(context.Background(), objs)
				if err != nil {
					b.Fatal(err)
				}
				e.ResetStats()
				if _, err := e.MaxRS(context.Background(), d, queryEdge, queryEdge); err != nil {
					b.Fatal(err)
				}
				io = e.Stats().Total()
			}
			if p == 1 {
				baseIO = io
			} else if baseIO != 0 && io != baseIO {
				b.Fatalf("p=%d: io/op %d != p=1 io/op %d", p, io, baseIO)
			}
			b.ReportMetric(float64(io), "io/op")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationFanout sweeps the recursion fan-in m of ExactMaxRS,
// isolating the effect of the paper's m = Θ(M/B) choice: small fan-ins
// add recursion levels, each a full extra pass over the data.
func BenchmarkAblationFanout(b *testing.B) {
	const n = 50_000 // deep recursion at M=64KB: N/M ratio ≈ 64
	pts := workload.Uniform(2012, n, 4*float64(n))
	queryEdge := 4 * float64(n) / 1000
	for _, fanout := range []int{2, 4, 8, 0 /* Θ(M/B) */} {
		name := fmt.Sprintf("m=%d", fanout)
		if fanout == 0 {
			name = "m=M/B"
		}
		b.Run(name, func(b *testing.B) {
			var io uint64
			for i := 0; i < b.N; i++ {
				env := em.MustNewEnv(4096, 64*1024)
				f, err := workload.Write(env.Disk, pts)
				if err != nil {
					b.Fatal(err)
				}
				s, err := core.NewSolver(env, core.Config{Fanout: fanout})
				if err != nil {
					b.Fatal(err)
				}
				env.Disk.ResetStats()
				if _, err := s.SolveObjects(f, queryEdge, queryEdge); err != nil {
					b.Fatal(err)
				}
				io = env.Disk.Stats().Total()
			}
			b.ReportMetric(float64(io), "io/op")
		})
	}
}

// BenchmarkAblationShiftedPoints compares ApproxMaxCRS as published
// (center + 4 shifted points) against a center-only variant, measuring
// achieved quality. The shifted points are what rescue the worst case
// (Theorem 4); this shows what they buy on average.
func BenchmarkAblationShiftedPoints(b *testing.B) {
	objs := workload.Sample(7, workload.SyntheticNE(2012), 10_000)
	const d = 4000.0
	for _, variant := range []string{"center-only", "center+4shifted"} {
		b.Run(variant, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				env := em.MustNewEnv(4096, 256*1024)
				f, err := workload.Write(env.Disk, objs)
				if err != nil {
					b.Fatal(err)
				}
				solver, err := core.NewSolver(env, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				exact := crs.Exact(objs, d)
				var got float64
				if variant == "center-only" {
					rs, err := solver.SolveObjects(f, d, d)
					if err != nil {
						b.Fatal(err)
					}
					p0 := rs.Best()
					got = geom.WeightInCircle(objs, p0, d)
				} else {
					res, err := crs.Approx(solver, f, d)
					if err != nil {
						b.Fatal(err)
					}
					got = res.Weight
				}
				if exact.Weight > 0 {
					ratio = got / exact.Weight
				}
			}
			b.ReportMetric(ratio, "ratio/op")
		})
	}
}

// BenchmarkAblationBaseCaseThreshold varies the memory budget (hence the
// base-case size and recursion depth) at fixed block size, isolating the
// log_{M/B} factor of Theorem 2.
func BenchmarkAblationBaseCaseThreshold(b *testing.B) {
	const n = 25_000
	pts := workload.Uniform(2012, n, 4*float64(n))
	queryEdge := 4 * float64(n) / 1000
	for _, memKB := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("M=%dKB", memKB), func(b *testing.B) {
			var io uint64
			for i := 0; i < b.N; i++ {
				env := em.MustNewEnv(4096, memKB*1024)
				f, err := workload.Write(env.Disk, pts)
				if err != nil {
					b.Fatal(err)
				}
				s, err := core.NewSolver(env, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				env.Disk.ResetStats()
				if _, err := s.SolveObjects(f, queryEdge, queryEdge); err != nil {
					b.Fatal(err)
				}
				io = env.Disk.Stats().Total()
			}
			b.ReportMetric(float64(io), "io/op")
		})
	}
}

// BenchmarkAblationGridCRS compares ApproxMaxCRS (five candidates, EM
// cost) against the resolution-bounded grid scheme of §3's related work
// at several grid resolutions: quality converges only as the candidate
// count explodes, which is the paper's argument for the fixed-candidate
// design.
func BenchmarkAblationGridCRS(b *testing.B) {
	objs := workload.Sample(3, workload.SyntheticNE(2012), 5000)
	const d = 4000.0
	exact := crs.Exact(objs, d)
	for _, div := range []float64{2, 8, 32} {
		b.Run(fmt.Sprintf("delta=d/%g", div), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := crs.GridCRS(objs, d, d/div)
				if exact.Weight > 0 {
					ratio = res.Weight / exact.Weight
				}
			}
			b.ReportMetric(ratio, "ratio/op")
		})
	}
	b.Run("ApproxMaxCRS", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			env := em.MustNewEnv(4096, 256*1024)
			f, err := workload.Write(env.Disk, objs)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := core.NewSolver(env, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := crs.Approx(solver, f, d)
			if err != nil {
				b.Fatal(err)
			}
			if exact.Weight > 0 {
				ratio = res.Weight / exact.Weight
			}
		}
		b.ReportMetric(ratio, "ratio/op")
	})
}

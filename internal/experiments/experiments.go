// Package experiments reproduces every table and figure of the paper's
// empirical study (§7). Each Fig/Table function generates the workload,
// runs the competing algorithms under the paper's EM parameters, and
// returns the measured block-transfer counts (the paper's metric) in a
// structured form; Render prints them as aligned text tables.
//
// The Scale knob shrinks cardinalities proportionally so the full suite
// can run in CI; Scale=1 is the paper's setup (Table 3). Shapes — who
// wins, by how many orders, where crossovers fall — are preserved at
// reduced scale because every cost is polynomial in N.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"

	"maxrs/internal/baseline"
	"maxrs/internal/conc"
	"maxrs/internal/core"
	"maxrs/internal/crs"
	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
	"maxrs/internal/workload"
)

// Paper defaults (Table 3).
const (
	DefaultBlockSize    = 4 * 1024
	DefaultBufSynthetic = 1024 * 1024
	DefaultBufReal      = 256 * 1024
	DefaultCardinality  = 250_000
	DefaultRange        = 1000.0
	DefaultDiameter     = 1000.0
)

// Algo names as they appear in the figures.
const (
	AlgoNaive = "Naive"
	AlgoASB   = "aSB-Tree"
	AlgoExact = "ExactMaxRS"
)

// Algos is the figure ordering of the compared algorithms.
var Algos = []string{AlgoNaive, AlgoASB, AlgoExact}

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every dataset cardinality (1 = paper scale).
	Scale float64
	// BufScale multiplies every buffer size (1 = paper scale). Scaled-down
	// runs should shrink buffers along with cardinalities, or the Naive
	// baseline's everything-fits shortcut fires everywhere and the
	// figures degenerate.
	BufScale float64
	// BlockSize overrides the EM block size B (0 = paper's 4096).
	BlockSize int
	// Seed drives all data generation.
	Seed int64
	// OracleCap bounds the dataset size fed to the exact MaxCRS oracle
	// in the quality experiment (0 = 50k). The paper's oracle [8] is
	// O(n² log n); ours is cheaper but still superlinear on dense data.
	OracleCap int
	// Parallelism bounds the goroutines running figure panel points
	// concurrently, and is threaded into each solver (DESIGN.md §6).
	// 0 = GOMAXPROCS, 1 = sequential. Every panel point runs on its own
	// simulated disk, so the measured transfer counts are identical for
	// every value.
	Parallelism int
}

// par resolves the worker count.
func (c Config) par() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.BufScale <= 0 {
		c.BufScale = 1
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	if c.OracleCap <= 0 {
		c.OracleCap = 50_000
	}
	return c
}

// buf scales a buffer size in bytes, keeping at least 4 blocks; clamped
// reports that the scaled size fell below that floor.
func (c Config) buf(bytes int) (b int, clamped bool) {
	b = int(float64(bytes) * c.BufScale)
	if min := 4 * c.BlockSize; b < min {
		return min, true
	}
	return b, false
}

func (c Config) n(base int) int {
	n := int(math.Round(float64(base) * c.Scale))
	if n < 10 {
		n = 10
	}
	return n
}

// Series is one figure panel: a labelled family of curves over a shared
// x-axis. Values[algo][i] corresponds to X[i].
type Series struct {
	Title  string               `json:"title"`
	XLabel string               `json:"xlabel"`
	X      []float64            `json:"x"`
	Order  []string             `json:"order"`
	Values map[string][]float64 `json:"values"`
	// Clamped[i] marks a point whose scaled buffer fell below the 4-block
	// floor, so it ran at the floor: adjacent clamped points of a buffer
	// sweep are one run. Nil for series without a scaled buffer.
	Clamped []bool `json:"clamped,omitempty"`
}

// runAlgo executes one algorithm over objs with the given EM parameters
// and returns its optimal score and the I/O cost of the query phase (data
// loading excluded, as in the paper: the dataset pre-exists on disk).
func runAlgo(algo string, objs []geom.Object, blockSize, mem, par int, w, h float64) (score, io float64, err error) {
	env := em.MustNewEnv(blockSize, mem)
	f, err := workload.Write(env.Disk, objs)
	if err != nil {
		return 0, 0, err
	}
	env.Disk.ResetStats()
	var res sweep.Result
	switch algo {
	case AlgoNaive:
		res, err = baseline.NaiveSweep(env, f, w, h)
	case AlgoASB:
		res, err = baseline.ASBTreeSweep(env, f, w, h)
	case AlgoExact:
		var s *core.Solver
		s, err = core.NewSolver(env, core.Config{Parallelism: par})
		if err == nil {
			res, err = s.SolveObjects(f, w, h)
		}
	default:
		err = fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
	if err != nil {
		return 0, 0, err
	}
	return res.Sum, float64(env.Disk.Stats().Total()), nil
}

// forEachCell runs fn(i) for every panel cell i on up to par goroutines,
// returning the lowest-index error.
func forEachCell(n, par int, fn func(i int) error) error {
	return conc.ForEachIndexed(n, par, fn)
}

// ioSweep builds a Series by running every algorithm at every x, with the
// paper's buffer of buffer(x) bytes scaled by cfg.buf. Panel points run
// concurrently (each on its own simulated disk); results land in their
// cells by index, so the Series is identical at any parallelism. A panel
// point fails unless every algorithm reports the same optimal score: the
// figure workloads have unit weights, so the sums are exact integers.
func ioSweep(cfg Config, title, xlabel string, xs []float64, gen func(x float64) []geom.Object,
	buffer func(x float64) int, rng func(x float64) (w, h float64)) (Series, error) {
	s := Series{Title: title, XLabel: xlabel, X: xs, Order: Algos, Values: map[string][]float64{},
		Clamped: make([]bool, len(xs))}
	for _, algo := range Algos {
		s.Values[algo] = make([]float64, len(xs))
	}
	err := forEachCell(len(xs), cfg.par(), func(xi int) error {
		x := xs[xi]
		objs := gen(x)
		mem, clamped := cfg.buf(buffer(x))
		s.Clamped[xi] = clamped
		w, h := rng(x)
		var want float64
		for i, algo := range Algos {
			score, io, err := runAlgo(algo, objs, cfg.BlockSize, mem, cfg.Parallelism, w, h)
			if err != nil {
				return fmt.Errorf("%s at %g: %w", algo, x, err)
			}
			if i == 0 {
				want = score
			} else if score != want {
				return fmt.Errorf("%s at %g: score %g, but %s scored %g", algo, x, score, Algos[0], want)
			}
			s.Values[algo][xi] = io
		}
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return s, nil
}

// Fig12 — effect of dataset cardinality (I/O vs N, Gaussian and Uniform).
// Paper: N = 100k..500k, range 1k×1k, buffer 1024 KB, space [0, 4N]².
func Fig12(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	var out []Series
	for _, dist := range []string{"Gaussian", "Uniform"} {
		var xs []float64
		for _, base := range []int{100_000, 200_000, 300_000, 400_000, 500_000} {
			xs = append(xs, float64(cfg.n(base)))
		}
		gen := func(x float64) []geom.Object {
			n := int(x)
			extent := 4 * float64(n) // paper: coordinates in [0, 4|O|]
			if dist == "Gaussian" {
				return workload.Gaussian(cfg.Seed, n, extent)
			}
			return workload.Uniform(cfg.Seed, n, extent)
		}
		s, err := ioSweep(
			cfg,
			fmt.Sprintf("Fig 12 (%s): I/O vs cardinality", dist), "N",
			xs, gen,
			func(float64) int { return DefaultBufSynthetic },
			func(x float64) (float64, float64) {
				// Keep the query/space ratio of the paper's defaults
				// (1k range in a 1M space at N=250k → range = 4N/1000).
				r := 4 * x / 1000
				return r, r
			},
		)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig13 — effect of buffer size (I/O vs M, Gaussian and Uniform).
// Paper: N = 250k, buffers up to 2048 KB, range 1k×1k.
func Fig13(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	n := cfg.n(DefaultCardinality)
	extent := 4 * float64(n)
	r := extent / 1000
	buffers := []float64{128, 256, 512, 1024, 2048} // KB
	var out []Series
	for _, dist := range []string{"Gaussian", "Uniform"} {
		var objs []geom.Object
		if dist == "Gaussian" {
			objs = workload.Gaussian(cfg.Seed, n, extent)
		} else {
			objs = workload.Uniform(cfg.Seed, n, extent)
		}
		s, err := ioSweep(
			cfg,
			fmt.Sprintf("Fig 13 (%s): I/O vs buffer size", dist), "buffer KB",
			buffers,
			func(float64) []geom.Object { return objs },
			func(x float64) int { return int(x) * 1024 },
			func(float64) (float64, float64) { return r, r },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig14 — effect of the range size (I/O vs d1=d2, Gaussian and Uniform).
// Paper: N = 250k, range 1k..10k, buffer 1024 KB.
func Fig14(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	n := cfg.n(DefaultCardinality)
	extent := 4 * float64(n)
	scaleR := extent / 1_000_000 // keep range/space ratio when scaled down
	ranges := []float64{1000, 2000, 4000, 6000, 8000, 10000}
	var out []Series
	for _, dist := range []string{"Gaussian", "Uniform"} {
		var objs []geom.Object
		if dist == "Gaussian" {
			objs = workload.Gaussian(cfg.Seed, n, extent)
		} else {
			objs = workload.Uniform(cfg.Seed, n, extent)
		}
		s, err := ioSweep(
			cfg,
			fmt.Sprintf("Fig 14 (%s): I/O vs range size", dist), "range",
			ranges,
			func(float64) []geom.Object { return objs },
			func(float64) int { return DefaultBufSynthetic },
			func(x float64) (float64, float64) { return x * scaleR, x * scaleR },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// realDataset materializes a (possibly scaled) real-data stand-in.
func realDataset(cfg Config, name string) []geom.Object {
	var objs []geom.Object
	switch name {
	case "UX":
		objs = workload.SyntheticUX(cfg.Seed)
	default:
		objs = workload.SyntheticNE(cfg.Seed)
	}
	if cfg.Scale < 1 {
		objs = workload.Sample(cfg.Seed, objs, int(float64(len(objs))*cfg.Scale))
	}
	return objs
}

// Fig15 — effect of buffer size on the real datasets (UX, NE).
// Paper: buffers 64..512 KB, range 1k×1k.
func Fig15(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	buffers := []float64{64, 128, 256, 384, 512} // KB
	var out []Series
	for _, name := range []string{"UX", "NE"} {
		objs := realDataset(cfg, name)
		s, err := ioSweep(
			cfg,
			fmt.Sprintf("Fig 15 (%s): I/O vs buffer size", name), "buffer KB",
			buffers,
			func(float64) []geom.Object { return objs },
			func(x float64) int { return int(x) * 1024 },
			func(float64) (float64, float64) { return DefaultRange, DefaultRange },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig16 — effect of the range size on the real datasets (UX, NE).
// Paper: range 1k..10k, buffer 256 KB.
func Fig16(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	ranges := []float64{1000, 2000, 4000, 6000, 8000, 10000}
	var out []Series
	for _, name := range []string{"UX", "NE"} {
		objs := realDataset(cfg, name)
		s, err := ioSweep(
			cfg,
			fmt.Sprintf("Fig 16 (%s): I/O vs range size", name), "range",
			ranges,
			func(float64) []geom.Object { return objs },
			func(float64) int { return DefaultBufReal },
			func(x float64) (float64, float64) { return x, x },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig17 — quality of approximation: W(ĉ)/W(c*) vs circle diameter on all
// four datasets. ApproxMaxCRS runs externally; the optimum comes from the
// in-memory oracle (crs.Exact), on a capped subsample when the dataset
// exceeds cfg.OracleCap (both sides see the same subsample, so the ratio
// is well-defined).
func Fig17(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	diameters := []float64{1000, 2000, 4000, 6000, 8000, 10000}
	n := cfg.n(DefaultCardinality)
	datasets := map[string][]geom.Object{
		"Uniform":  workload.Uniform(cfg.Seed, n, workload.SpaceExtent),
		"Gaussian": workload.Gaussian(cfg.Seed, n, workload.SpaceExtent),
		"UX":       realDataset(cfg, "UX"),
		"NE":       realDataset(cfg, "NE"),
	}
	order := []string{"Uniform", "Gaussian", "UX", "NE"}
	s := Series{
		Title:  "Fig 17: approximation quality W(ĉ)/W(c*) vs diameter",
		XLabel: "diameter",
		X:      diameters,
		Order:  order,
		Values: map[string][]float64{},
	}
	mem, clamped := cfg.buf(DefaultBufSynthetic)
	s.Clamped = slices.Repeat([]bool{clamped}, len(diameters))
	samples := map[string][]geom.Object{}
	for _, name := range order {
		s.Values[name] = make([]float64, len(diameters))
		samples[name] = workload.Sample(cfg.Seed, datasets[name], cfg.OracleCap)
	}
	err := forEachCell(len(order)*len(diameters), cfg.par(), func(cell int) error {
		name := order[cell/len(diameters)]
		d := diameters[cell%len(diameters)]
		objs := samples[name]
		env := em.MustNewEnv(cfg.BlockSize, mem)
		f, err := workload.Write(env.Disk, objs)
		if err != nil {
			return err
		}
		solver, err := core.NewSolver(env, core.Config{Parallelism: cfg.Parallelism})
		if err != nil {
			return err
		}
		approx, err := crs.Approx(solver, f, d)
		if err != nil {
			return fmt.Errorf("%s d=%g: %w", name, d, err)
		}
		exact := crs.Exact(objs, d)
		ratio := 1.0
		if exact.Weight > 0 {
			ratio = approx.Weight / exact.Weight
		}
		s.Values[name][cell%len(diameters)] = ratio
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return s, nil
}

// Table2 prints the real dataset cardinalities.
func Table2(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "Table 2: real dataset cardinalities")
	fmt.Fprintf(w, "  UX  %d (paper: %d)\n", len(realDataset(cfg, "UX")), workload.UXCardinality)
	fmt.Fprintf(w, "  NE  %d (paper: %d)\n", len(realDataset(cfg, "NE")), workload.NECardinality)
	fmt.Fprintln(w)
}

// Table3 prints the default parameters.
func Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: default parameter values")
	fmt.Fprintf(w, "  Cardinality (|O|)     %d\n", DefaultCardinality)
	fmt.Fprintf(w, "  Block size            %d B\n", DefaultBlockSize)
	fmt.Fprintf(w, "  Buffer size           %d KB (real), %d KB (synthetic)\n",
		DefaultBufReal/1024, DefaultBufSynthetic/1024)
	fmt.Fprintf(w, "  Space size            %.0f x %.0f\n", workload.SpaceExtent, workload.SpaceExtent)
	fmt.Fprintf(w, "  Rectangle size        %.0f x %.0f\n", DefaultRange, DefaultRange)
	fmt.Fprintf(w, "  Circle diameter       %.0f\n", DefaultDiameter)
}

// Render prints a Series as an aligned table.
func Render(w io.Writer, s Series) {
	fmt.Fprintln(w, s.Title)
	fmt.Fprintf(w, "  %-12s", s.XLabel)
	for _, name := range s.Order {
		fmt.Fprintf(w, " %14s", name)
	}
	fmt.Fprintln(w)
	for i, x := range s.X {
		label := fmt.Sprintf("%.4g", x)
		if s.Clamped != nil && s.Clamped[i] {
			label += "*"
		}
		fmt.Fprintf(w, "  %-12s", label)
		for _, name := range s.Order {
			v := s.Values[name][i]
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				fmt.Fprintf(w, " %14.0f", v)
			} else {
				fmt.Fprintf(w, " %14.4f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if slices.Contains(s.Clamped, true) {
		fmt.Fprintln(w, "  * buffer scaled below the 4-block floor ran at the floor; a buffer sweep's starred rows are one run")
	}
	fmt.Fprintln(w)
}

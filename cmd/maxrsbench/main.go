// Command maxrsbench regenerates the tables and figures of the paper's
// evaluation (§7). Each experiment prints the same rows/series the paper
// reports, measured on the EM simulator.
//
// Usage:
//
//	maxrsbench -exp=all                 # everything, paper scale
//	maxrsbench -exp=fig12 -scale=0.1    # one figure at 10% cardinality
//	maxrsbench -exp=fig13,fig17
//	maxrsbench -exp=all -parallel=8     # panel points on 8 goroutines
//	maxrsbench -exp=fig12 -json=BENCH_fig12.json
//	maxrsbench -exp=fusion,shard,fault,plan,dist,incr,codec -scale=0.05 \
//	    -json=BENCH_grid.json -baseline=bench/baseline.json
//
// The last form runs the transfer-count grid: seven experiments outside
// the paper's set, each asserting its own invariants, whose series are
// deterministic counts. Their "(block transfers)" series are compared
// against the committed baseline (the CI perf gate). Wall-clock belongs
// to bench/e2e, which takes medians over repeated runs.
//
// At -scale below 1 the buffer sizes shrink with the data (-bufscale
// defaults to -scale) so the baselines stay on their external paths.
// Measured transfer counts are identical at every -parallel value; the
// flag trades wall-clock time only (DESIGN.md §6).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"maxrs/internal/experiments"
)

// jsonExperiment is one experiment's entry in the -json summary.
type jsonExperiment struct {
	Name   string               `json:"name"`
	Series []experiments.Series `json:"series,omitempty"`
}

// jsonSummary is the BENCH_*.json payload: the run's configuration and
// every experiment's series, so the transfer counts can be tracked across
// revisions without re-parsing the text tables. It records no wall-clock,
// so re-running at the same configuration rewrites it byte for byte.
type jsonSummary struct {
	Bench       string           `json:"bench"`
	Scale       float64          `json:"scale"`
	BufScale    float64          `json:"bufscale"`
	Seed        int64            `json:"seed"`
	Parallelism int              `json:"parallelism"`
	Experiments []jsonExperiment `json:"experiments"`
}

// gridConfig sizes one grid experiment; every experiment gets the same
// one, so their baselines stay comparable.
type gridConfig struct {
	objects int
	seed    int64
	memory  int // EM budget M in bytes, per engine
	par     int
	out     io.Writer
}

// grid is the transfer-count grid, in run order. These experiments are
// never part of -exp=all.
var grid = []struct {
	name string
	run  func(gridConfig) ([]experiments.Series, error)
}{
	{"shard", runShard},
	{"fault", runFault},
	{"dist", runDist},
	{"plan", runPlan},
	{"incr", runIncr},
	{"codec", runCodec},
	{"fusion", runFusion},
}

// validateFlags rejects flag values that would otherwise be silently
// replaced by defaults or clamped.
func validateFlags(scale, bufscale float64, parallel int) error {
	switch {
	case !(scale > 0):
		return fmt.Errorf("-scale=%g must be > 0", scale)
	case !(bufscale >= 0):
		return fmt.Errorf("-bufscale=%g must be ≥ 0 (0 = same as -scale)", bufscale)
	case parallel < 0:
		return fmt.Errorf("-parallel=%d must be ≥ 0 (0 = GOMAXPROCS)", parallel)
	}
	return nil
}

// variantSeries is a series with one point per variant: names[i] is a
// label whose single value is val(results[i]).
func variantSeries[M any](title string, names []string, results []M, val func(M) float64) experiments.Series {
	s := experiments.Series{
		Title:  title,
		XLabel: "variant",
		X:      []float64{1},
		Order:  names,
		Values: map[string][]float64{},
	}
	for i, name := range names {
		s.Values[name] = []float64{val(results[i])}
	}
	return s
}

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated: table2,table3,fig12,fig13,fig14,fig15,fig16,fig17,all,fusion,shard,fault,plan,dist,incr,codec (fusion, shard, fault, plan, dist, incr and codec are never part of all)")
		scale     = flag.Float64("scale", 1.0, "cardinality scale factor (1 = paper scale)")
		bufscale  = flag.Float64("bufscale", 0, "buffer scale factor (default: same as -scale)")
		seed      = flag.Int64("seed", 2012, "data generation seed")
		oracleCap = flag.Int("oraclecap", 50000, "max points fed to the exact MaxCRS oracle (fig17)")
		parallel  = flag.Int("parallel", 0, "worker goroutines for panel points and the solver (0 = GOMAXPROCS, 1 = sequential)")
		jsonPath  = flag.String("json", "", "also write a BENCH_*.json summary to this path")
		baseline  = flag.String("baseline", "", "compare this run's I/O metrics against a committed BENCH summary and exit 1 on any increase (the CI perf-regression gate)")
	)
	flag.Parse()
	if err := validateFlags(*scale, *bufscale, *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "maxrsbench: %v\n", err)
		os.Exit(2)
	}
	if *bufscale == 0 {
		*bufscale = *scale
	}
	cfg := experiments.Config{
		Scale:       *scale,
		BufScale:    *bufscale,
		Seed:        *seed,
		OracleCap:   *oracleCap,
		Parallelism: *parallel,
	}

	registered := []string{"all", "table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}
	for _, g := range grid {
		registered = append(registered, g.name)
	}
	known := map[string]bool{}
	for _, name := range registered {
		known[name] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if name == "" {
			continue
		}
		if !known[name] {
			fmt.Fprintf(os.Stderr, "maxrsbench: unknown experiment %q; registered: %s\n",
				name, strings.Join(registered, ", "))
			os.Exit(2)
		}
		want[name] = true
	}
	all := want["all"]
	summary := jsonSummary{
		Bench:       "maxrsbench",
		Scale:       *scale,
		BufScale:    *bufscale,
		Seed:        *seed,
		Parallelism: *parallel,
	}
	run := func(name string, fn func() ([]experiments.Series, error)) {
		start := time.Now()
		series, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		summary.Experiments = append(summary.Experiments, jsonExperiment{Name: name, Series: series})
	}

	fmt.Printf("maxrsbench: scale=%g bufscale=%g seed=%d parallel=%d\n\n",
		*scale, *bufscale, *seed, *parallel)

	// scaledWorkload sizes every grid experiment from the shared flags.
	scaledWorkload := func() (n, mem int) {
		n = int(float64(experiments.DefaultCardinality) * *scale)
		if n < 2000 {
			n = 2000 // keep the workload non-trivial at tiny scales
		}
		mem = int(float64(experiments.DefaultBufSynthetic) * *bufscale)
		if mem < 8*experiments.DefaultBlockSize {
			mem = 8 * experiments.DefaultBlockSize
		}
		return n, mem
	}
	n, mem := scaledWorkload()
	gcfg := gridConfig{objects: n, seed: *seed, memory: mem, par: *parallel, out: os.Stdout}
	for _, g := range grid {
		if want[g.name] {
			run(g.name, func() ([]experiments.Series, error) { return g.run(gcfg) })
		}
	}

	paper := func(name string, fn func() ([]experiments.Series, error)) {
		if all || want[name] {
			run(name, fn)
		}
	}
	paper("table2", func() ([]experiments.Series, error) { experiments.Table2(os.Stdout, cfg); return nil, nil })
	paper("table3", func() ([]experiments.Series, error) { experiments.Table3(os.Stdout); return nil, nil })
	multi := func(fn func(experiments.Config) ([]experiments.Series, error)) func() ([]experiments.Series, error) {
		return func() ([]experiments.Series, error) {
			series, err := fn(cfg)
			if err != nil {
				return nil, err
			}
			for _, s := range series {
				experiments.Render(os.Stdout, s)
			}
			return series, nil
		}
	}
	paper("fig12", multi(experiments.Fig12))
	paper("fig13", multi(experiments.Fig13))
	paper("fig14", multi(experiments.Fig14))
	paper("fig15", multi(experiments.Fig15))
	paper("fig16", multi(experiments.Fig16))
	paper("fig17", func() ([]experiments.Series, error) {
		s, err := experiments.Fig17(cfg)
		if err != nil {
			return nil, err
		}
		experiments.Render(os.Stdout, s)
		return []experiments.Series{s}, nil
	})

	if *jsonPath != "" {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[json summary written to %s]\n", *jsonPath)
	}
	// The gate compares deterministic transfer counts only; see
	// compareBaseline.
	if *baseline != "" {
		if err := compareBaseline(os.Stdout, *baseline, summary); err != nil {
			fmt.Fprintf(os.Stderr, "maxrsbench: %v\n", err)
			os.Exit(1)
		}
	}
}

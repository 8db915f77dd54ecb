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
//	maxrsbench -exp=fusion -json=BENCH_3.json   # fused-vs-unfused record
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
	"os"
	"strings"
	"time"

	"maxrs/internal/experiments"
)

// jsonExperiment is one experiment's entry in the -json summary.
type jsonExperiment struct {
	Name      string               `json:"name"`
	ElapsedMS int64                `json:"elapsed_ms"`
	Series    []experiments.Series `json:"series,omitempty"`
}

// jsonSummary is the BENCH_*.json payload: enough to track the perf and
// I/O trajectory across revisions without re-parsing the text tables.
type jsonSummary struct {
	Bench       string           `json:"bench"`
	Scale       float64          `json:"scale"`
	BufScale    float64          `json:"bufscale"`
	Seed        int64            `json:"seed"`
	Parallelism int              `json:"parallelism"`
	TotalMS     int64            `json:"total_ms"`
	Experiments []jsonExperiment `json:"experiments"`
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
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "maxrsbench: -parallel=%d must be ≥ 0 (0 = GOMAXPROCS)\n", *parallel)
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

	registered := []string{
		"all", "table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fusion", "shard", "fault", "plan", "dist", "incr", "codec",
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
	started := time.Now()
	writeSummary := func() {
		if *jsonPath == "" {
			return
		}
		summary.TotalMS = time.Since(started).Milliseconds()
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
	// finish ends the run: write the JSON summary, then gate on the
	// committed baseline (deterministic transfer counts only — see
	// compareBaseline) when -baseline is set.
	finish := func() {
		writeSummary()
		if *baseline != "" {
			if err := compareBaseline(os.Stdout, *baseline, summary); err != nil {
				fmt.Fprintf(os.Stderr, "maxrsbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	// scaledWorkload sizes the fusion and shard gate workloads from the
	// shared flags — one definition, so the two experiments' baselines
	// stay comparable.
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
	if want["shard"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runShard(shardBenchConfig{
			objects: n,
			iters:   3,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "shard",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "shard")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["fault"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runFault(faultConfig{
			objects: n,
			iters:   3,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "fault",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "fault")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["dist"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runDist(distBenchConfig{
			objects: n,
			iters:   3,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "dist",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "dist")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["plan"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runPlan(planConfig{
			objects: n,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "plan: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "plan",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "plan")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["incr"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runIncr(incrConfig{
			objects: n,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "incr: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "incr",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "incr")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["codec"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runCodec(codecBenchConfig{
			objects: n,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "codec: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "codec",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "codec")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	if want["fusion"] {
		n, mem := scaledWorkload()
		start := time.Now()
		series, err := runFusion(fusionConfig{
			objects: n,
			iters:   3,
			seed:    *seed,
			memory:  mem,
			par:     *parallel,
			out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusion: %v\n", err)
			os.Exit(1)
		}
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      "fusion",
			ElapsedMS: time.Since(start).Milliseconds(),
			Series:    series,
		})
		delete(want, "fusion")
		if len(want) == 0 {
			finish()
			return
		}
		fmt.Println()
	}
	run := func(name string, fn func() ([]experiments.Series, error)) {
		if !all && !want[name] {
			return
		}
		start := time.Now()
		series, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("[%s done in %v]\n\n", name, elapsed.Round(time.Millisecond))
		summary.Experiments = append(summary.Experiments, jsonExperiment{
			Name:      name,
			ElapsedMS: elapsed.Milliseconds(),
			Series:    series,
		})
	}

	fmt.Printf("maxrsbench: scale=%g bufscale=%g seed=%d parallel=%d\n\n",
		*scale, *bufscale, *seed, *parallel)
	run("table2", func() ([]experiments.Series, error) { experiments.Table2(os.Stdout, cfg); return nil, nil })
	run("table3", func() ([]experiments.Series, error) { experiments.Table3(os.Stdout); return nil, nil })
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
	run("fig12", multi(experiments.Fig12))
	run("fig13", multi(experiments.Fig13))
	run("fig14", multi(experiments.Fig14))
	run("fig15", multi(experiments.Fig15))
	run("fig16", multi(experiments.Fig16))
	run("fig17", func() ([]experiments.Series, error) {
		s, err := experiments.Fig17(cfg)
		if err != nil {
			return nil, err
		}
		experiments.Render(os.Stdout, s)
		return []experiments.Series{s}, nil
	})

	finish()
}

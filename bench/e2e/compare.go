package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minRuns is the fewest runs per side -compare accepts: quartiles of
// fewer say nothing about spread.
const minRuns = 3

// runCompare prints one row per (workload, end-to-end metric) comparing
// the result files under dir a (the parent) with those under dir b (the
// change), and exits non-zero when any row is worse or unresolved.
func runCompare(a, b, benchPath string, stdout, stderr io.Writer) int {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	runsA, errA := loadResults(a)
	runsB, errB := loadResults(b)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	var names []string
	for w := range runsA {
		if len(runsB[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "e2e: the two sets share no workload")
		return 2
	}
	fmt.Fprintf(stdout, "%-13s %-22s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]", "change", "bound", "verdict")
	status := 0
	for _, w := range names {
		if len(runsA[w]) < minRuns || len(runsB[w]) < minRuns {
			fmt.Fprintf(stderr, "e2e: %s: %d and %d runs; -compare needs at least %d per side\n",
				w, len(runsA[w]), len(runsB[w]), minRuns)
			status = 2
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := valuesOf(runsA[w], m.Name), valuesOf(runsB[w], m.Name)
			if len(va) != len(runsA[w]) || len(vb) != len(runsB[w]) {
				fmt.Fprintf(stderr, "e2e: %s: some runs lack %s\n", w, m.Name)
				status = 2
				continue
			}
			v := judge(va, vb, m.Better == "lower", m.Bound)
			fmt.Fprintf(stdout, "%-13s %-22s %28s %28s %+7.2f%% %5.1f%%  %s\n",
				w, m.Name, summary(va), summary(vb), 100*v.change, 100*m.Bound, v.verdict)
			if v.verdict == "worse" || v.verdict == "unresolved" {
				status = max(status, 1)
			}
		}
	}
	return status
}

// verdict is one row's outcome. change is B's median relative to A's.
type verdict struct {
	change  float64
	verdict string
}

// judge compares run sets a (parent) and b (change) of one metric:
//   - unresolved when either side's quartile spread, as a share of its
//     median, exceeds the bound — unless every run of b reads better
//     than every run of a;
//   - worse or better when b's median is worse or better than a's by
//     more than the bound;
//   - same otherwise.
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	v := verdict{change: (mb - ma) / ma}
	gain := -v.change // improvement as a share of a's median
	if !lowerBetter {
		gain = v.change
	}
	wide := (qa3-qa1)/ma > bound || (qb3-qb1)/mb > bound
	switch {
	case wide && !allBetter(a, b, lowerBetter):
		v.verdict = "unresolved"
	case -gain > bound:
		v.verdict = "worse"
	case gain > bound:
		v.verdict = "better"
	default:
		v.verdict = "same"
	}
	return v
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m, q1, q3)
}

func valuesOf(runs []outcome, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadResults reads every untraced result-<workload>.json under dir,
// grouped by workload.
func loadResults(dir string) (map[string][]outcome, error) {
	out := map[string][]outcome{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() || !strings.HasPrefix(name, "result-") || !strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, "-traced.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var o outcome
		if err := json.Unmarshal(b, &o); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out[o.Workload] = append(out[o.Workload], o)
		return nil
	})
	return out, err
}

// loadBenchmark reads BENCHMARK.json from path, or when path is empty
// from the working directory or the nearest parent holding one.
func loadBenchmark(path string) (*benchmarkFile, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, errors.New("no BENCHMARK.json here or in any parent directory (use -bench)")
			}
			dir = parent
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

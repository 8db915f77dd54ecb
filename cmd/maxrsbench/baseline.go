package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"maxrs/internal/experiments"
)

// ioSeriesMarker selects the baseline-gated metrics: series measured in
// deterministic block transfers. Other counts (coverage, halo
// duplication, physical bytes, fault counters) are recorded, not gated.
const ioSeriesMarker = "(block transfers)"

// compareBaseline checks the current run's I/O metrics against a
// committed baseline summary (bench/baseline.json in CI) and returns an
// error if any transfer count increased — the perf-regression gate. Every
// gated series and label the baseline holds for an experiment that ran
// must be in the run with at least as many values, so renaming or
// dropping a gated metric fails instead of silently ungating it.
// Experiments that did not run, and metrics the baseline does not hold
// yet, pass. A baseline recorded at different -scale, -bufscale, or -seed
// is a configuration error, because transfer counts are only comparable
// on identical workloads. Improvements are reported so the baseline can be
// ratcheted down.
func compareBaseline(out io.Writer, path string, cur jsonSummary) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base jsonSummary
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Scale != cur.Scale || base.BufScale != cur.BufScale || base.Seed != cur.Seed {
		return fmt.Errorf("baseline %s recorded at scale=%g bufscale=%g seed=%d, run is scale=%g bufscale=%g seed=%d — counts are not comparable",
			path, base.Scale, base.BufScale, base.Seed, cur.Scale, cur.BufScale, cur.Seed)
	}
	ran := map[string]jsonExperiment{}
	for _, e := range cur.Experiments {
		ran[e.Name] = e
	}
	var regressions, missing []string
	compared, improved := 0, 0
	for _, baseExp := range base.Experiments {
		exp, ok := ran[baseExp.Name]
		if !ok {
			continue
		}
		for _, bs := range baseExp.Series {
			if !strings.Contains(bs.Title, ioSeriesMarker) {
				continue
			}
			si := slices.IndexFunc(exp.Series, func(s experiments.Series) bool { return s.Title == bs.Title })
			if si < 0 {
				missing = append(missing, fmt.Sprintf("%s / %q: gated series missing from the run", exp.Name, bs.Title))
				continue
			}
			vals := exp.Series[si].Values
			for _, label := range slices.Sorted(maps.Keys(bs.Values)) {
				bvals := bs.Values[label]
				if len(vals[label]) < len(bvals) {
					missing = append(missing, fmt.Sprintf("%s / %q / %s: %d of the baseline's %d values in the run",
						exp.Name, bs.Title, label, len(vals[label]), len(bvals)))
					continue
				}
				for i, bv := range bvals {
					v := vals[label][i]
					compared++
					switch {
					case v > bv:
						regressions = append(regressions, fmt.Sprintf(
							"%s / %q / %s[%d]: %.0f > baseline %.0f (+%.1f%%)",
							exp.Name, bs.Title, label, i, v, bv, 100*(v-bv)/bv))
					case v < bv:
						improved++
						fmt.Fprintf(out, "[baseline] improvement: %s / %s[%d]: %.0f < %.0f — consider refreshing %s\n",
							exp.Name, label, i, v, bv, path)
					}
				}
			}
		}
	}
	if len(regressions)+len(missing) > 0 {
		return fmt.Errorf("baseline %s: %d I/O regression(s), %d gated metric(s) missing from the run:\n  %s",
			path, len(regressions), len(missing), strings.Join(append(regressions, missing...), "\n  "))
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s: no comparable I/O metrics — run the experiments the baseline was recorded with", path)
	}
	fmt.Fprintf(out, "[baseline] %d I/O metrics within baseline (%d improved) ✓\n", compared, improved)
	return nil
}

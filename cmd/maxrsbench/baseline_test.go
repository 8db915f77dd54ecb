package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxrs/internal/experiments"
)

// benchSummary builds a minimal summary with one gated I/O series and
// one ungated count series that must never gate.
func benchSummary(ioVal, halo float64) jsonSummary {
	return jsonSummary{
		Scale: 0.05, BufScale: 0.05, Seed: 2012,
		Experiments: []jsonExperiment{{
			Name: "shard",
			Series: []experiments.Series{
				{
					Title: "shard: I/O per query (block transfers)",
					X:     []float64{0, 2},
					Values: map[string][]float64{
						"uniform":  {ioVal, ioVal - 1},
						"gaussian": {ioVal, ioVal - 2},
					},
				},
				{
					Title:  "shard: halo duplication (routed objects / input objects)",
					X:      []float64{0, 2},
					Values: map[string][]float64{"uniform": {halo, halo}},
				},
			},
		}},
	}
}

func writeBaseline(t *testing.T, sum jsonSummary) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	base := benchSummary(1000, 1.5)
	// The baseline also holds an experiment the runs below never run.
	base.Experiments = append(base.Experiments, jsonExperiment{
		Name: "fault",
		Series: []experiments.Series{{
			Title:  "fault: I/O per query (block transfers)",
			X:      []float64{1},
			Values: map[string][]float64{"plain": {500}},
		}},
	})
	path := writeBaseline(t, base)
	gated := func(sum jsonSummary) *experiments.Series { return &sum.Experiments[0].Series[0] }

	// Identical run (without the fault experiment): passes.
	if err := compareBaseline(io.Discard, path, benchSummary(1000, 1.5)); err != nil {
		t.Fatalf("identical run failed the gate: %v", err)
	}
	// Fewer transfers: passes (improvement).
	if err := compareBaseline(io.Discard, path, benchSummary(900, 1.5)); err != nil {
		t.Fatalf("improvement failed the gate: %v", err)
	}
	// More transfers: fails.
	err := compareBaseline(io.Discard, path, benchSummary(1001, 1.5))
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("transfer increase passed the gate: %v", err)
	}
	// An ungated series moving alone: passes.
	if err := compareBaseline(io.Discard, path, benchSummary(1000, 9)); err != nil {
		t.Fatalf("ungated series failed the gate: %v", err)
	}
	// Metrics the baseline does not hold yet: pass.
	grown := benchSummary(1000, 1.5)
	gated(grown).Values["clustered"] = []float64{7, 7}
	gated(grown).Values["uniform"] = append(gated(grown).Values["uniform"], 5)
	grown.Experiments[0].Series = append(grown.Experiments[0].Series, experiments.Series{
		Title:  "shard: new metric (block transfers)",
		Values: map[string][]float64{"uniform": {1}},
	})
	if err := compareBaseline(io.Discard, path, grown); err != nil {
		t.Fatalf("new metrics failed the gate: %v", err)
	}
	// A ran experiment dropping a gated series, label or value: fails —
	// otherwise a rename would silently turn its gate off.
	for name, drop := range map[string]func(*experiments.Series){
		"renamed series": func(s *experiments.Series) { s.Title = "shard: I/O per query (transfers)" },
		"missing label":  func(s *experiments.Series) { delete(s.Values, "gaussian") },
		"fewer values":   func(s *experiments.Series) { s.Values["uniform"] = s.Values["uniform"][:1] },
	} {
		run := benchSummary(1000, 1.5)
		drop(gated(run))
		err := compareBaseline(io.Discard, path, run)
		if err == nil || !strings.Contains(err.Error(), "missing from the run") {
			t.Errorf("%s passed the gate: %v", name, err)
		}
	}
	// Mismatched workload configuration: refused.
	other := benchSummary(1000, 1.5)
	other.Scale = 1
	if err := compareBaseline(io.Discard, path, other); err == nil {
		t.Fatal("scale mismatch passed the gate")
	}
	// A run with nothing comparable: refused (the gate must not
	// silently pass when the experiments were not run).
	empty := jsonSummary{Scale: 0.05, BufScale: 0.05, Seed: 2012}
	if err := compareBaseline(io.Discard, path, empty); err == nil {
		t.Fatal("empty run passed the gate")
	}
	// Missing baseline file: surfaced.
	if err := compareBaseline(io.Discard, filepath.Join(t.TempDir(), "nope.json"), base); err == nil {
		t.Fatal("missing baseline passed the gate")
	}
}

// TestCommittedBaselineCoversGrid reads the committed bench/baseline.json:
// every grid experiment must be in it with at least one gated series, and
// no field or series may record wall-clock.
func TestCommittedBaselineCoversGrid(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "bench", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields() // a wall-clock field would be unknown
	var base jsonSummary
	if err := dec.Decode(&base); err != nil {
		t.Fatalf("bench/baseline.json: %v", err)
	}
	recorded := map[string]jsonExperiment{}
	for _, e := range base.Experiments {
		recorded[e.Name] = e
	}
	for _, g := range grid {
		e, ok := recorded[g.name]
		if !ok {
			t.Errorf("grid experiment %q missing from bench/baseline.json", g.name)
			continue
		}
		gatedSeries := 0
		for _, s := range e.Series {
			if strings.Contains(s.Title, ioSeriesMarker) {
				gatedSeries++
			}
			if strings.Contains(s.Title, "wall-clock") || strings.Contains(s.Title, "(ns)") {
				t.Errorf("%s: series %q records wall-clock", g.name, s.Title)
			}
		}
		if gatedSeries == 0 {
			t.Errorf("%s: no %s series in bench/baseline.json", g.name, ioSeriesMarker)
		}
	}
}

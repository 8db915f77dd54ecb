//go:build benchtrace

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeTraced runs every workload traced at a few operations and
// checks that each BENCHMARK.json per-layer metric is reported with its
// unit and that each workload's span file holds a replay.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ops", "8", "-trace", "1", "-work", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		var res outcome
		readJSON(t, filepath.Join(out, "result-"+name+"-traced.json"), &res)
		for _, m := range bench.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v, want unit %s", name, m.Name, got, m.Unit)
			}
		}
		if len(res.Metrics) != len(bench.PerLayer) {
			t.Errorf("%s: %d metrics, BENCHMARK.json %d", name, len(res.Metrics), len(bench.PerLayer))
		}
		var spans struct{ Spans []spanRec }
		readJSON(t, filepath.Join(out, "trace-"+name+".json"), &spans)
		replays := 0
		for _, s := range spans.Spans {
			if s.Name == "replay" {
				replays++
			}
		}
		if replays == 0 {
			t.Errorf("%s: no replay span among %d", name, len(spans.Spans))
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestSelfTime(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	children := []spanRec{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}
	if got := selfTime(parent, children); got != 100-40-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
}

func TestGCLine(t *testing.T) {
	r := newRecorder(config{})
	r.onGCLine("gc 3 @0.5s 2%: 0.010+1.5+0.020 ms clock, 0.020+0.5/1.0/0.1+0.040 ms cpu, 9->10->4 MB, 11 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	r.begin()
	r.onGCLine("gc 4 @0.6s 2%: 0.030+1.5+0.050 ms clock, 0.020+0.5/1.0/0.1+0.040 ms cpu, 12->13->5 MB, 14 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	r.onGCLine("maxrsd: listening")
	cycles, pause, heap := r.stopGC()
	if cycles != 1 || pause < 0.0799 || pause > 0.0801 || heap != 12 {
		t.Errorf("gc summary = %d cycles, %g ms, %g MB; want 1, 0.08, 12", cycles, pause, heap)
	}
}

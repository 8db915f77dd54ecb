package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/build"
	"go/parser"
	"go/token"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"maxrs"
)

// TestMain lets the smoke test's parent run re-execute this test binary
// as a workload's child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// goldenInputs pins each workload's generated inputs for seed 1: a
// change here changes what the benchmark measures, and must be a
// deliberate change of the benchmark.
var goldenInputs = map[string]string{
	"exact-mem":    "e5768eaf8bd8e2db15085299087fa072800dcc3a22db3a781ff69680e2fedade",
	"disk-codec":   "64537f71bd88fd4d9d8293af5ae527e4b8a83ca65b210f8d4b81129c6bef1962",
	"resident-mix": "131aa31a71d07718ae70e52084f91f542206cc8fe3f527a005a0d29e0f7ea5da",
	"serve-mixed":  "93de5a2972899cfd19ba1f3b57ff1c675fb6ddc8c5122d2e1e4d3f9aeb27d20a",
}

func TestGoldenInputs(t *testing.T) {
	for _, name := range workloadNames {
		if got := inputsDigest(name, 1); got != goldenInputs[name] {
			t.Errorf("%s: inputs digest %s, golden %s", name, got, goldenInputs[name])
		}
	}
	if inputsDigest("exact-mem", 2) == inputsDigest("exact-mem", 1) {
		t.Error("seeds 1 and 2 generate the same inputs")
	}
}

// inputsDigest is the SHA-256 of a workload's dataset and the first
// thousand entries of its schedule.
func inputsDigest(name string, seed int64) string {
	h := sha256.New()
	if spec, ok := inprocSpecFor(name); ok {
		writeObjects(h, spec.objects(seed))
		for _, o := range spec.schedule(seed, 1000) {
			fmt.Fprintf(h, "%v/%g;", o.kind, spec.sides[o.side])
		}
	} else {
		spec, _ := serveSpecFor(name)
		writeObjects(h, spec.objects(seed))
		for _, q := range spec.schedule(seed, 1000) {
			fmt.Fprintf(h, "%s/%g;", q.op, q.side)
			writeObjects(h, q.inserts)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeObjects(h hash.Hash, objs []maxrs.Object) {
	var b [24]byte
	for _, o := range objs {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(o.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(o.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(o.Weight))
		h.Write(b[:])
	}
}

// TestSmoke runs every workload through the full command at a few
// operations and checks the output contract: each BENCHMARK.json
// end-to-end metric printed by name with its unit, nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds maxrsd and runs every workload")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-ops", "8", "-work", dir, "-out", filepath.Join(dir, "out")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	bench, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	results := 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		results++
		var res struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("result %s: correct=%v failed=%d attempted=%d", line, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range bench.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("metric %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
			}
		}
		if len(res.Metrics) != len(bench.EndToEnd) {
			t.Errorf("result has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(bench.EndToEnd))
		}
	}
	if results != len(workloadNames) {
		t.Errorf("%d result lines for %d workloads", results, len(workloadNames))
	}
	for _, name := range workloadNames {
		b, err := os.ReadFile(filepath.Join(dir, "out", "result-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		if err := json.Unmarshal(b, &o); err != nil {
			t.Fatal(err)
		}
		if ff := o.Extra["failed_frac"]; ff.Value != 0 || ff.Unit == "" {
			t.Errorf("%s: failed_frac %+v", name, ff)
		}
		for _, m := range bench.EndToEnd {
			if !strings.Contains(stdout.String(), fmt.Sprintf("%s %s\n", formatValue(o.Metrics[m.Name].Value), m.Unit)) {
				t.Errorf("%s: metric %s not printed with its unit", name, m.Name)
			}
		}
	}
}

func formatValue(v float64) string { return fmt.Sprintf("%16.6g", v) }

// TestUntracedImports holds the untraced build to the public API: it
// must compile against any commit whose internals were refactored.
func TestUntracedImports(t *testing.T) {
	pkg, err := build.Default.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkg.GoFiles {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "maxrs/internal/") {
				t.Errorf("%s imports %s; only the benchtrace build may", f, path)
			}
		}
	}
	for _, f := range pkg.IgnoredGoFiles {
		if f == "trace.go" {
			return
		}
	}
	t.Error("trace.go is not excluded from the untraced build")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, []float64{100, 102, 99, 101, 100}, true, "same"},
		{"worse", steady, []float64{120, 121, 119, 120, 120}, true, "worse"},
		{"better", steady, []float64{90, 91, 89, 90, 90}, true, "better"},
		{"higher is better", steady, []float64{90, 91, 89, 90, 90}, false, "worse"},
		{"unresolved", steady, []float64{70, 130, 100, 80, 125}, true, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lowerBetter, 0.05).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

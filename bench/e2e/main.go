// Command e2e is the repository's end-to-end benchmark. It runs four
// workloads against the public maxrs API and the maxrsd server, checks
// every answer, and prints every end-to-end metric by name with its unit
// (README.md has the workloads, metrics and bounds).
//
// From the repository root:
//
//	bash bench/e2e/run.sh --workload exact-mem --seed 1 --seconds 20 --trace 0
//	bash bench/e2e/run.sh -seed=1 -out=DIR        # all four workloads
//	bash bench/e2e/run.sh -trace=1 -out=DIR       # per-layer metrics, span files
//	bash bench/e2e/run.sh -compare A B            # two sets of result files
//
// Each workload runs in a child process of its own. The last line of
// standard output is the run's result as one JSON object; a failed check
// makes the run exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// tracing is the traced build's recorder (trace.go, build tag
// benchtrace): spans from this package's own files around calls into
// each layer, twin replays through internal packages, and the per-layer
// metrics derived from them. The untraced build has none.
type tracing interface {
	// begin marks the start of the measured phase.
	begin()
	// span starts a span of the given trace id; calling end ends it.
	span(trace int64, name string) (end func())
	// maxrsdEnv returns the environment a traced maxrsd runs with and the
	// sink for its stderr lines.
	maxrsdEnv() (env []string, onLine func(string))
	inproc(ctx context.Context, r *inprocRun, s []sample) (metricSet, error)
	serve(ctx context.Context, r *serveRun, s []serveSample) (metricSet, error)
	write(path string) error
}

// newTracing is set by the traced build.
var newTracing func(cfg config) tracing

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		child   = fs.Bool("child", false, "run one workload in this process (used by the parent)")
		compare = fs.Bool("compare", false, "compare two sets of result files: -compare A B")
		bench   = fs.String("bench", "", "BENCHMARK.json holding the bounds -compare applies (default: found upward from the working directory)")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files (needs -tags benchtrace)")
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after another)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&cfg.ops, "ops", 0, "smoke mode: measure exactly this many operations, without warm-up or repeated set-up")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "e2e"), "scratch directory")
	fs.StringVar(&cfg.out, "out", "", "directory for result-<workload>.json and trace-<workload>.json (default: -work)")
	fs.StringVar(&cfg.maxrsd, "maxrsd", "", "maxrsd binary (default: built from maxrs/cmd/maxrsd into -work)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare needs two directories of result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *bench, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "e2e: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2e: -trace must be 0 or 1")
		return 2
	}
	if cfg.trace && newTracing == nil {
		fmt.Fprintln(stderr, "e2e: -trace=1 needs a build with -tags benchtrace (run.sh does this)")
		return 2
	}
	if cfg.out == "" {
		cfg.out = cfg.work
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *child {
		return runChild(ctx, cfg, stdout, stderr)
	}
	return runParent(ctx, cfg, stdout, stderr)
}

// runParent prepares the scratch directories and the maxrsd binary, then
// runs each workload in a child process and relays its output.
func runParent(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	names := workloadNames
	if cfg.workload != "" {
		if err := checkWorkload(cfg.workload); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
		names = []string{cfg.workload}
	}
	for _, d := range []string{cfg.work, cfg.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	if cfg.maxrsd == "" {
		bin, err := buildMaxrsd(ctx, cfg.work)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		cfg.maxrsd = bin
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	status := 0
	for _, name := range names {
		line, err := runChildProcess(ctx, exe, name, cfg, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "e2e: %s: %v\n", name, err)
			status = 1
			continue
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
			return 1
		}
	}
	return status
}

// buildMaxrsd builds the server the serve workload drives (and a traced
// run's twins query) from the program's source.
func buildMaxrsd(ctx context.Context, work string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(work, "maxrsd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "maxrs/cmd/maxrsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build maxrs/cmd/maxrsd: %v\n%s", err, out)
	}
	return bin, nil
}

// runChildProcess runs one workload in a child and returns its result
// line, after relaying every earlier line of its output.
func runChildProcess(ctx context.Context, exe, name string, cfg config, stdout, stderr io.Writer) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", name,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-ops", fmt.Sprint(cfg.ops), "-work", cfg.work, "-out", cfg.out, "-maxrsd", cfg.maxrsd}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			if _, err := fmt.Fprintf(stdout, "%s\n", last); err != nil {
				return nil, err
			}
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := errors.Join(cmd.Wait(), scanErr); err != nil {
		if last != nil {
			fmt.Fprintf(stdout, "%s\n", last)
		}
		return nil, err
	}
	if !bytes.HasPrefix(last, []byte("{")) {
		return nil, fmt.Errorf("no result line (last line %q)", last)
	}
	return last, nil
}

// runChild runs one workload in this process.
func runChild(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	if err := checkWorkload(cfg.workload); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	cfg.work = filepath.Join(cfg.work, cfg.workload)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	var tr tracing
	if cfg.trace {
		tr = newTracing(cfg)
	}
	var (
		res *outcome
		err error
	)
	if spec, ok := inprocSpecFor(cfg.workload); ok {
		res, err = runInproc(ctx, spec, cfg, tr)
	} else {
		spec, _ := serveSpecFor(cfg.workload)
		res, err = runServe(ctx, spec, cfg, tr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.Workload, res.Seed = cfg.workload, cfg.seed
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2e: %s: metric %s is %v\n", cfg.workload, name, m.Value)
			return 1
		}
	}
	res.Correct = res.Failed == 0
	res.Extra.set("failed_frac", "failed/attempted", float64(res.Failed)/float64(res.Attempted))
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", cfg.workload, p)
	}
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	printTable(stdout, fmt.Sprintf("%s seed=%d %s metrics:", cfg.workload, cfg.seed, kind), res.Metrics)
	printTable(stdout, fmt.Sprintf("%s seed=%d not gated:", cfg.workload, cfg.seed), res.Extra)
	if err := writeResult(cfg, res, tr); err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := res.resultLine()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeResult writes result-<workload>.json (and a traced run's
// trace-<workload>.json) to the output directory.
func writeResult(cfg config, res *outcome, tr tracing) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := "result-" + cfg.workload + ".json"
	if cfg.trace {
		name = "result-" + cfg.workload + "-traced.json"
	}
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"))
}

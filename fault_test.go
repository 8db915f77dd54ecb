package maxrs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// faultClasses enumerates the injected fault classes of the fault matrix
// and what each must surface. A torn write may go undetected when the
// damaged block is never reread, and a one-shot corrupt read is recovered
// by a reread (mayComplete): then the query must succeed with the result
// of a clean run.
var faultClasses = []struct {
	name        string
	op          FaultOp
	kind        FaultKind
	wantErr     error
	mayComplete bool
}{
	{"permanentRead", OpRead, FaultPermanent, ErrIOFault, false},
	{"permanentWrite", OpWrite, FaultPermanent, ErrIOFault, true},
	{"tornWrite", OpWrite, FaultTorn, ErrBlockCorrupt, true},
	{"corruptRead", OpRead, FaultCorrupt, ErrBlockCorrupt, true},
}

// hardenedEngine returns an engine with a small retry budget and the
// matrix's EM configuration.
func hardenedEngine(t *testing.T, onDisk bool, dir string, shards int) *Engine {
	t.Helper()
	e, err := NewEngine(&Options{
		BlockSize: 512,
		Memory:    4096,
		OnDisk:    onDisk,
		OnDiskDir: dir,
		Shards:    shards,
		Retry:     RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestFaultMatrix is the robustness acceptance matrix (DESIGN.md §11):
// every fault class × {in-memory, OnDisk} × {unsharded, sharded},
// injected at exact and randomized transfer indices across the query's
// schedule. Every faulted query must surface the class's typed error (or,
// where the fault can land on dead data, complete with a bit-identical
// result), release every intermediate and shard disk, and leave no temp
// file behind. Runs race-clean under -race in CI.
func TestFaultMatrix(t *testing.T) {
	for _, onDisk := range []bool{false, true} {
		for _, shards := range []int{0, 3} {
			name := fmt.Sprintf("onDisk=%v/shards=%d", onDisk, shards)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				e := hardenedEngine(t, onDisk, dir, shards)
				d := testDataset(t, e, 1200)
				base := e.BlocksInUse()

				// Measure a clean run's primary-disk transfer counts: the
				// index space the exact fault schedules sample. (Sharded
				// queries keep their writes on shard disks — the engine's
				// plan reaches those too, with per-disk indices counting
				// from zero, so small indices exercise them.)
				before := e.env.Disk.Stats()
				want, err := e.MaxRS(context.Background(), d, 200, 200)
				if err != nil {
					t.Fatal(err)
				}
				clean := e.env.Disk.Stats().Sub(before)
				wantInUse(t, e, base, "after clean run")

				for _, fc := range faultClasses {
					t.Run(fc.name, func(t *testing.T) {
						total := clean.Writes
						if fc.op == OpRead {
							total = clean.Reads
						}
						points := []uint64{1, 2} // early: hits shard disks too
						if total > 2 {
							points = append(points,
								total/2, total,
								2+uint64(rand.Int63n(int64(total-2)))) // one randomized point per run
						}
						for _, p := range points {
							e.InjectFaults(FaultPlan{At: []FaultAt{
								{Op: fc.op, Transfer: p, Kind: fc.kind},
							}})
							got, err := e.MaxRS(context.Background(), d, 200, 200)
							if err == nil {
								if !fc.mayComplete {
									t.Fatalf("%s at transfer %d/%d: query completed", fc.name, p, total)
								}
								if !sameResult(got, want) {
									t.Fatalf("%s at transfer %d: undetected fault perturbed the result: %+v != %+v",
										fc.name, p, got, want)
								}
							} else {
								if !errors.Is(err, fc.wantErr) {
									t.Fatalf("%s at transfer %d/%d: err = %v, want %v", fc.name, p, total, err, fc.wantErr)
								}
								if errors.Is(err, ErrQueryCancelled) {
									t.Fatalf("%s at transfer %d: fault misclassified as cancellation: %v", fc.name, p, err)
								}
							}
							// Disarm and discard the injector: permanent
							// faults poison their block until freed, and the
							// fault may have landed on a dataset block.
							e.InjectFaults(FaultPlan{})
							wantInUse(t, e, base, fmt.Sprintf("after %s at transfer %d/%d", fc.name, p, total))
						}
						if onDisk {
							entries, err := os.ReadDir(dir)
							if err != nil {
								t.Fatal(err)
							}
							if len(entries) != 1 {
								names := make([]string, len(entries))
								for i, en := range entries {
									names[i] = en.Name()
								}
								t.Fatalf("leaked backing files after faults: %v", names)
							}
						}
						// The engine must still serve clean queries
						// bit-identically after surviving the class.
						got, err := e.MaxRS(context.Background(), d, 200, 200)
						if err != nil {
							t.Fatalf("clean query after %s faults: %v", fc.name, err)
						}
						if !sameResult(got, want) {
							t.Fatalf("result drifted after %s faults: %+v != %+v", fc.name, got, want)
						}
					})
				}

				if err := d.Release(); err != nil {
					t.Fatal(err)
				}
				wantInUse(t, e, 0, "after release")
			})
		}
	}
}

// transientRuns builds TestTransientFaultRecovery's engine at the given
// parallelism, arms its 1% transient plan after a clean query, and runs
// five faulted queries, each of which must answer like the clean one.
func transientRuns(t *testing.T, par int) (*Engine, *Dataset) {
	t.Helper()
	e, err := NewEngine(&Options{
		BlockSize:   512,
		Memory:      4096,
		Parallelism: par,
		Retry:       RetryPolicy{MaxRetries: 8, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	d := testDataset(t, e, 1200)
	want, err := e.MaxRS(context.Background(), d, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	e.InjectFaults(FaultPlan{
		Seed:               99,
		TransientReadRate:  0.01,
		TransientWriteRate: 0.01,
	})
	for i := 0; i < 5; i++ {
		got, err := e.MaxRS(context.Background(), d, 200, 200)
		if err != nil {
			t.Fatalf("p=%d run %d under 1%% transient faults: %v", par, i, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("p=%d run %d: result under transient faults = %+v, want %+v", par, i, got, want)
		}
	}
	return e, d
}

// TestTransientFaultRecovery is the 1%-rate acceptance check: with a 1%
// transient fault rate on both transfer directions, queries succeed with
// bit-identical results and the recoveries show up in FaultStats.
//
// Whether the n-th read or write attempt faults is a keyed draw on
// (seed, direction, n), but which transfer takes a faulting index still
// depends on goroutine interleaving, and the draws hold clusters of
// faulting indices a few attempts apart: one transfer may take a whole
// cluster. The retry budget is sized so that no such cluster can exhaust
// it.
func TestTransientFaultRecovery(t *testing.T) {
	e, d := transientRuns(t, 0)
	fs := e.FaultStats()
	if fs.InjectedTransient == 0 {
		t.Fatal("1% rate fired no transient faults across 5 runs")
	}
	if fs.ReadRetries+fs.WriteRetries < fs.InjectedTransient {
		t.Fatalf("retries (%d+%d) < injected transients (%d): recoveries not counted",
			fs.ReadRetries, fs.WriteRetries, fs.InjectedTransient)
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	wantInUse(t, e, 0, "after release")
}

// TestTransientFaultCountsParallelismInvariant pins what the keyed fault
// draws buy: TestTransientFaultRecovery's engine and plan give the same
// FaultStats, field by field, at every parallelism — every count is a
// pure function of the plan, though which block takes each fault is not.
func TestTransientFaultCountsParallelismInvariant(t *testing.T) {
	var ref FaultStats
	for _, par := range []int{1, 2, 4} {
		e, _ := transientRuns(t, par)
		fs := e.FaultStats()
		if fs.InjectedTransient == 0 {
			t.Fatalf("p=%d: 1%% rate fired no transient faults", par)
		}
		if par == 1 {
			ref = fs
		} else if fs != ref {
			t.Fatalf("p=%d fault stats %+v, p=1 %+v", par, fs, ref)
		}
	}
}

// TestChecksumRetryInvariance extends the count-invariance contract to
// the hardened configuration: retries armed and a fault injector
// installed (firing nothing), on a pipelined OnDisk engine — results and
// per-query transfer counts must stay bit-identical to a plain in-memory
// engine at every parallelism level, sharded and not.
func TestChecksumRetryInvariance(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func(par int, hardened bool) Result {
				opts := &Options{
					BlockSize:   512,
					Memory:      8192,
					Parallelism: par,
					Shards:      shards,
				}
				if hardened {
					opts.Retry = RetryPolicy{MaxRetries: 3, BaseDelay: time.Microsecond}
					opts.OnDisk, opts.OnDiskDir = true, t.TempDir()
				}
				e, err := NewEngine(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				e.InjectFaults(FaultPlan{}) // armed, fires nothing
				d := testDataset(t, e, 1500)
				res, err := e.MaxRS(context.Background(), d, 150, 150)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1, false)
			for _, par := range []int{1, 2, 4, 8} {
				if got := run(par, true); !sameResult(got, want) {
					t.Fatalf("p=%d hardened result diverged: %+v != %+v", par, got, want)
				}
			}
		})
	}
}

// TestShardDiskFaultChargesEngine: a sharded query that fails on a shard
// disk — while routing (write #5) or while solving (write #50), in
// process or distributed — still charges every transfer the shard disks
// made before the fault to Engine.Stats, as the engine promises for any
// abandoned query, and leaves only the dataset's blocks allocated.
func TestShardDiskFaultChargesEngine(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusNotFound) // permanent: every shard falls back locally
	}))
	t.Cleanup(dead.Close)
	for _, distributed := range []bool{false, true} {
		for _, write := range []uint64{5, 50} {
			t.Run(fmt.Sprintf("distributed=%v/write=%d", distributed, write), func(t *testing.T) {
				var e *Engine
				if distributed {
					// The dead worker makes every shard solve through the
					// local halo-replica fallback, so a solve-time fault
					// reaches a shard disk on this path too.
					e = distTestEngine(t, 2, []string{dead.URL}, nil)
				} else {
					var err error
					if e, err = NewEngine(&Options{BlockSize: 512, Memory: 8192, Shards: 2}); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { e.Close() })
				}
				d := testDataset(t, e, 500)
				defer func() { _ = d.Release() }()
				// A sharded query writes nothing to the primary disk, so
				// the indexed write fault lands on each shard disk alone.
				e.InjectFaults(FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: write, Kind: FaultPermanent}}})
				before := e.Stats()
				if _, err := e.MaxRS(context.Background(), d, 300, 300); err == nil {
					t.Fatalf("query survived a permanent fault at shard-disk write #%d", write)
				}
				after := e.Stats()
				if after.Writes <= before.Writes {
					t.Errorf("engine writes %d -> %d: the failed shard disks' transfers were lost", before.Writes, after.Writes)
				}
				if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
					t.Errorf("BlocksInUse = %d after the failed query, want the dataset's %d", in, blocks)
				}
			})
		}
	}
}

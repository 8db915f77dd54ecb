package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"maxrs"
	"maxrs/internal/dist"
	"maxrs/internal/experiments"
	"maxrs/internal/workload"
)

// distVariant is one measured configuration. A variant with an exact
// fault schedule is a recovery drill: its fault must fire and be retried
// into the bit-identical answer.
type distVariant struct {
	name        string
	distributed bool
	faults      maxrs.NetFaultPlan
}

const distShards = 4

var distVariants = []distVariant{
	{name: "inprocess"},
	{name: "dist/clean", distributed: true},
	{name: "dist/conn@1", distributed: true,
		faults: maxrs.NetFaultPlan{At: []maxrs.NetFaultAt{{Call: 1, Kind: maxrs.NetFaultConn}}}},
	{name: "dist/corrupt@2", distributed: true,
		faults: maxrs.NetFaultPlan{At: []maxrs.NetFaultAt{{Call: 2, Kind: maxrs.NetFaultCorrupt}}}},
}

// startBenchWorker runs a worker over its own engine and disk — the
// same /shard/solve contract maxrsd serves, minus the HTTP server
// around it — so the bench measures the protocol, not maxrsd's cache
// and admission layers.
func startBenchWorker(memory, par int) (*httptest.Server, *maxrs.Engine, error) {
	eng, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize:   experiments.DefaultBlockSize,
		Memory:      memory,
		Parallelism: par,
	})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == dist.PathReady {
			w.WriteHeader(http.StatusOK)
			return
		}
		req, err := dist.DecodeRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply, err := eng.SolveShard(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = dist.WriteReply(w, reply)
	}))
	return ts, eng, nil
}

// runDist is the -exp=dist mode: the distributed fan-out record
// (DESIGN.md §13). It answers two questions with one run. First, what does
// shipping shards to workers cost the coordinator over solving the same
// shards in process, in block transfers (gated by the -baseline
// comparator). Second, does recovery hold when the network misbehaves:
// exact-call faults (a refused connection, a corrupted reply) must be
// retried into the bit-identical answer.
func runDist(cfg expConfig) ([]experiments.Series, error) {
	gobjs := workload.Uniform(cfg.seed, cfg.objects, 4*float64(cfg.objects))
	objs := make([]maxrs.Object, len(gobjs))
	for i, o := range gobjs {
		objs[i] = maxrs.Object{X: o.X, Y: o.Y, Weight: o.W}
	}
	queryEdge := 4 * float64(cfg.objects) / 1000

	// Two long-lived workers shared by every distributed variant; each
	// request loads, solves, and releases its shard, so no state leaks
	// between variants.
	var workers []maxrs.WorkerAddr
	for i := 0; i < 2; i++ {
		ts, eng, err := startBenchWorker(cfg.memory, cfg.par)
		if err != nil {
			return nil, err
		}
		defer ts.Close()
		defer eng.Close()
		workers = append(workers, maxrs.WorkerAddr{Name: fmt.Sprintf("w%d", i), URL: ts.URL})
	}

	fmt.Fprintf(cfg.out, "dist: %d uniform objects, M=%dKB, B=%d, query %gx%g, K=%d over %d workers\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, distShards, len(workers))
	fmt.Fprintf(cfg.out, "%-16s %12s %9s %9s %9s\n", "variant", "coord io/op", "netcalls", "injected", "fellback")

	type measured struct {
		io       uint64
		calls    uint64
		injected uint64
		fellback int
		region   maxrs.Rect
		score    float64
	}
	results := make([]measured, len(distVariants))

	for vi, v := range distVariants {
		// A fresh engine per variant starts the fault plan's call counter
		// at zero, so each exact-At schedule fires where it says.
		opts := &maxrs.Options{
			BlockSize:   experiments.DefaultBlockSize,
			Memory:      cfg.memory,
			Parallelism: cfg.par,
			Shards:      distShards,
		}
		if v.distributed {
			opts.Dist = &maxrs.DistOptions{
				Workers: workers,
				Retry: maxrs.RetryPolicy{
					MaxRetries: 4,
					BaseDelay:  200 * time.Microsecond,
					MaxDelay:   2 * time.Millisecond,
					JitterSeed: cfg.seed,
				},
				NetFaults: v.faults,
			}
		}
		eng, err := maxrs.NewEngine(opts)
		if err != nil {
			return nil, err
		}
		ds, err := eng.Load(context.Background(), objs)
		if err != nil {
			return nil, errJoinClose(eng, err)
		}
		res, err := eng.MaxRS(context.Background(), ds, queryEdge, queryEdge)
		if err != nil {
			return nil, errJoinClose(eng, fmt.Errorf("dist: %s: %w", v.name, err))
		}
		ns := eng.NetFaultStats()
		m := measured{
			io:       res.Stats.Total(),
			calls:    ns.Calls,
			injected: ns.InjectedConn + ns.InjectedDisconnect + ns.InjectedCorrupt + ns.InjectedLatency,
			region:   res.Region,
			score:    res.Score,
		}
		for _, sh := range res.ShardStats {
			if sh.FellBack {
				m.fellback++
			}
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		results[vi] = m
		fmt.Fprintf(cfg.out, "%-16s %12d %9d %9d %9d\n",
			v.name, m.io, m.calls, m.injected, m.fellback)
	}

	// Invariants (DESIGN.md §13). 1: every variant — in-process, clean
	// fan-out, and all recovered fault drills — returns the identical
	// answer. This is the exactness claim distributed mode rests on.
	for vi := 1; vi < len(results); vi++ {
		if results[vi].region != results[0].region || results[vi].score != results[0].score {
			return nil, fmt.Errorf("dist: %s result (%v, %g) differs from %s (%v, %g)",
				distVariants[vi].name, results[vi].region, results[vi].score,
				distVariants[0].name, results[0].region, results[0].score)
		}
	}
	// 2: the exact-schedule drills exercised recovery — their fault fired
	// and the query still succeeded (checked above) without falling back
	// to a local solve (retries, not degradation, absorbed it).
	for vi, v := range distVariants {
		if len(v.faults.At) == 0 {
			continue
		}
		if results[vi].injected == 0 {
			return nil, fmt.Errorf("dist: %s fired no faults", v.name)
		}
		if results[vi].fellback != 0 {
			return nil, fmt.Errorf("dist: %s fell back on %d shards; retries should have recovered",
				v.name, results[vi].fellback)
		}
	}
	// 3: the clean fan-out used exactly one call per shard and no
	// degradation path.
	cleanIdx := 1
	if results[cleanIdx].calls != distShards || results[cleanIdx].fellback != 0 {
		return nil, fmt.Errorf("dist: clean fan-out made %d calls (%d fallbacks), want %d calls, 0 fallbacks",
			results[cleanIdx].calls, results[cleanIdx].fellback, distShards)
	}
	fmt.Fprintf(cfg.out, "results bit-identical across all variants, recovery exercised ✓\n")

	names := make([]string, len(distVariants))
	for i, v := range distVariants {
		names[i] = v.name
	}
	return []experiments.Series{
		variantSeries("dist: coordinator I/O per query (block transfers)", names, results, func(m measured) float64 { return float64(m.io) }),
		variantSeries("dist: worker calls per query", names, results, func(m measured) float64 { return float64(m.calls) }),
		variantSeries("dist: injected faults per query", names, results, func(m measured) float64 { return float64(m.injected) }),
	}, nil
}

// errJoinClose closes eng on an error path, folding its Close error in.
func errJoinClose(eng *maxrs.Engine, err error) error {
	if cerr := eng.Close(); cerr != nil {
		return fmt.Errorf("%w (and close: %v)", err, cerr)
	}
	return err
}

// Command maxrsd is an HTTP JSON server for MaxRS/MaxCRS/TopK queries
// over named datasets — the serving layer on top of the concurrency-safe
// Engine. It loads CSV datasets (uploaded or server-local), answers
// queries through a bounded worker pool, and caches solved
// (dataset, op, parameters) results in an LRU.
//
// Usage:
//
//	maxrsd -addr=:8080 -workers=8 -cache=1024
//	maxrsd -ondisk -ondiskdir=/var/tmp      # datasets larger than RAM
//
// Cluster mode (DESIGN.md §13) — a coordinator fans sharded queries out
// to worker instances and merges exactly; workers are plain maxrsd
// processes (every instance serves /v1/shard/solve):
//
//	maxrsd -addr=:8081                                   # worker A
//	maxrsd -addr=:8082                                   # worker B
//	maxrsd -addr=:8080 -shards=2 \
//	       -peers=a=http://localhost:8081,b=http://localhost:8082
//
// or start the coordinator empty (-coordinator) and have workers join:
//
//	maxrsd -addr=:8081 -join=http://localhost:8080 \
//	       -advertise=http://localhost:8081 -name=a
//
// API (every route lives under /v1/; errors are a uniform envelope
// {"error":{"code":...,"message":...,"retryable":...}}):
//
//	GET    /v1/livez                   liveness: the process is up
//	GET    /v1/readyz                  readiness: 503 before the engine is up
//	                                   and while draining for shutdown
//	GET    /v1/stats                   global I/O counters, cache + delta +
//	                                   leak gauges
//	GET    /v1/datasets                list loaded datasets with their
//	                                   statistics, pending-mutation counts +
//	                                   cache counters
//	PUT    /v1/datasets/{name}         load CSV from the request body
//	                                   (response includes dataset statistics)
//	PUT    /v1/datasets/{name}?path=P  load CSV from P under -datadir
//	                                   (requires -datadir; confined to it)
//	PUT    /v1/datasets/{name}?shards=K  solve queries on this dataset K-way
//	                                   sharded (overrides -shards; 0 = default)
//	DELETE /v1/datasets/{name}         release a dataset (safe mid-query)
//	POST   /v1/datasets/{name}/insert  {"objects":[{"x":1,"y":2,"w":3}]} —
//	                                   buffer inserts; returns their ids
//	POST   /v1/datasets/{name}/delete  {"ids":[5,17]} — delete by id
//	                                   (atomic: any unknown id fails all)
//	POST   /v1/query                   {"dataset":"d","op":"maxrs","w":4,"h":4}
//	                                   {"dataset":"d","op":"topk","w":4,"h":4,"k":3}
//	                                   {"dataset":"d","op":"maxcrs","diameter":4}
//	POST   /v1/query?timeout=500ms     per-query deadline (504 on expiry;
//	                                   clamped to -timeout when set)
//	POST   /v1/query?explain=1         plan the query without executing it:
//	                                   returns the chosen plan, predicted
//	                                   cost, and candidate table (maxrs/topk)
//	POST   /v1/shard/solve             solve one shipped shard (cluster
//	                                   internal; checksummed JSON)
//	GET    /v1/cluster/workers         membership table (coordinator)
//	POST   /v1/cluster/workers         register a worker {"name","url"}
//	DELETE /v1/cluster/workers/{name}  remove a worker
//
// Mutations buffer into the engine's delta layer: queries on a mutated
// dataset stay exact (the engine solves the delta in memory and merges
// with the cached base optimum when its influence bound allows — such
// responses carry plan.delta.path "combined" and count into /v1/stats
// delta_hits), and the background compactor folds deltas into the base
// once they reach -deltacompact. Cached results are fenced on the
// dataset's mutation sequence and invalidated subtractively: a mutation
// drops only the entries whose optimal regions it could have changed.
//
// Under overload the server degrades instead of queueing unboundedly:
// once -workers queries execute and -queue more wait, further cache
// misses are shed with 429 + Retry-After. Failed queries are never
// cached. Beyond exact-key hits the cache answers containment reuse: a
// cached TopK(k') serves MaxRS and TopK(k ≤ k') of the same
// (dataset, w, h) — such responses carry "reused": true.
//
// Every query result carries its own per-query I/O stats; /stats keeps
// the disk-global totals. See README.md for a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"maxrs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrently executing queries (further requests queue)")
		cacheSize    = flag.Int("cache", 1024, "LRU capacity of cached query results (0 disables)")
		blockSize    = flag.Int("block", 4096, "EM block size B in bytes")
		memory       = flag.Int("mem", 1<<20, "EM memory budget M in bytes")
		parallel     = flag.Int("parallel", 0, "solver worker goroutines shared by all queries (0 = GOMAXPROCS)")
		shards       = flag.Int("shards", 0, "default shard count for object queries (0 = unsharded; PUT ?shards=K overrides per dataset)")
		onDisk       = flag.Bool("ondisk", false, "back blocks with a temp file instead of process memory")
		onDiskDir    = flag.String("ondiskdir", "", "directory for the -ondisk backing file (default: system temp)")
		backendName  = flag.String("backend", "auto", "physical storage: auto (memory, or a file with -ondisk), file, or mmap (file and mmap store blocks under -ondiskdir without -ondisk; mmap falls back to file when mapping is unavailable; counted transfers identical)")
		codecName    = flag.String("codec", "none", "physical block codec: none or delta (column-split delta/varint compression by record layout; counted transfers identical, physical bytes shrink)")
		dataDir      = flag.String("datadir", "", "directory PUT /datasets/{name}?path= may read CSV files from (empty disables server-local loads)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline: in-flight queries get this long to finish before they are cancelled")
		timeout      = flag.Duration("timeout", 0, "per-query deadline ceiling (0 = none; ?timeout= may tighten but not exceed it)")
		queue        = flag.Int("queue", -1, "max queries waiting for a worker before shedding with 429 (-1 = 4×workers, 0 = shed once all workers busy)")
		retries      = flag.Int("retries", 0, "retries per block transfer on transient storage faults and checksum mismatches (0 = fail fast)")
		retryBase    = flag.Duration("retrybase", time.Millisecond, "initial retry backoff (doubles per attempt)")
		retryMax     = flag.Duration("retrymax", 100*time.Millisecond, "retry backoff cap (0 = uncapped)")
		retryJitter  = flag.Int64("retryjitter", 0, "seed for decorrelated-jitter retry backoff, storage and worker calls alike (0 = plain doubling)")
		auto         = flag.Bool("auto", false, "let the cost model pick algorithm/shards/fusion per query (AlgorithmAuto)")
		deltaCompact = flag.Int("deltacompact", 1024, "pending-mutation threshold for background dataset compaction (0 = compact inline at the engine default instead)")

		// Cluster role flags (DESIGN.md §13). Coordinator side:
		peers       = flag.String("peers", "", "comma-separated workers to fan sharded queries out to, each url or name=url (enables distributed execution)")
		coordinator = flag.Bool("coordinator", false, "enable distributed execution with an (initially) empty membership; workers join via -join or POST /cluster/workers")
		probe       = flag.Duration("probe", 5*time.Second, "worker /readyz probe interval on a coordinator (0 disables background probing)")
		hedge       = flag.Duration("hedge", 0, "hedge delay: a shard call unanswered this long is duplicated to another worker (0 disables hedging)")
		hedgeMax    = flag.Int("hedgemax", 1, "max hedged duplicates per query")
		distRetries = flag.Int("distretries", 2, "retries per shard call on transient network faults")
		distBase    = flag.Duration("distretrybase", 50*time.Millisecond, "initial shard-call retry backoff")
		distMax     = flag.Duration("distretrymax", 2*time.Second, "shard-call retry backoff cap")
		noFallback  = flag.Bool("nolocalfallback", false, "fail shards typed (ErrShardUnavailable) instead of solving lost shards from the local halo replica")
		// Worker side:
		join      = flag.String("join", "", "coordinator base URL to register with at startup (worker role; requires -advertise)")
		advertise = flag.String("advertise", "", "this server's base URL as the coordinator should dial it, e.g. http://10.0.0.7:8081")
		name      = flag.String("name", "", "worker name for -join registration and attribution (default: the -advertise URL)")
	)
	flag.Parse()
	algorithm := maxrs.ExactMaxRS
	if *auto {
		algorithm = maxrs.AlgorithmAuto
	}
	if *join != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "maxrsd: -join requires -advertise (the URL the coordinator dials this worker at)")
		os.Exit(1)
	}
	var backend maxrs.BackendKind
	switch *backendName {
	case "auto":
		backend = maxrs.BackendAuto
	case "file":
		backend = maxrs.BackendFile
	case "mmap":
		backend = maxrs.BackendMmap
	default:
		fmt.Fprintf(os.Stderr, "maxrsd: -backend must be auto, file or mmap, got %q\n", *backendName)
		os.Exit(1)
	}
	var blockCodec maxrs.CodecKind
	switch *codecName {
	case "none":
		blockCodec = maxrs.CodecNone
	case "delta":
		blockCodec = maxrs.CodecDelta
	default:
		fmt.Fprintf(os.Stderr, "maxrsd: -codec must be none or delta, got %q\n", *codecName)
		os.Exit(1)
	}
	// -peers / -coordinator turn this instance into a coordinator:
	// sharded queries fan out to the registered workers instead of
	// solving every shard in process.
	var distOpts *maxrs.DistOptions
	if *peers != "" || *coordinator {
		distOpts = &maxrs.DistOptions{
			Retry: maxrs.RetryPolicy{
				MaxRetries: *distRetries,
				BaseDelay:  *distBase,
				MaxDelay:   *distMax,
				JitterSeed: *retryJitter,
			},
			Hedge:                maxrs.HedgePolicy{Delay: *hedge, Max: *hedgeMax},
			ProbeInterval:        *probe,
			DisableLocalFallback: *noFallback,
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			wname, url := "", p
			if i := strings.Index(p, "="); i >= 0 {
				wname, url = p[:i], p[i+1:]
			}
			distOpts.Workers = append(distOpts.Workers, maxrs.WorkerAddr{Name: wname, URL: url})
		}
	}
	// With background compaction the engine never compacts inline
	// (DeltaCompactAt < 0): mutations stay cheap appends and the
	// compactor folds deltas off the query path.
	deltaCompactAt := 0
	if *deltaCompact > 0 {
		deltaCompactAt = -1
	}
	eng, err := maxrs.NewEngine(&maxrs.Options{
		Algorithm:   algorithm,
		BlockSize:   *blockSize,
		Memory:      *memory,
		Parallelism: *parallel,
		OnDisk:      *onDisk,
		OnDiskDir:   *onDiskDir,
		Backend:     backend,
		Codec:       blockCodec,
		Shards:      *shards,
		Retry: maxrs.RetryPolicy{
			MaxRetries: *retries,
			BaseDelay:  *retryBase,
			MaxDelay:   *retryMax,
			JitterSeed: *retryJitter,
		},
		Dist:           distOpts,
		DeltaCompactAt: deltaCompactAt,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "maxrsd: %v\n", err)
		os.Exit(1)
	}
	srv := newServer(eng, *workers, *cacheSize)
	srv.dataDir = *dataDir
	srv.timeout = *timeout
	if *queue >= 0 {
		srv.queue = *queue
	}
	if *deltaCompact > 0 {
		srv.startCompactor(*deltaCompact, time.Second)
	}
	srv.markReady()
	log.Printf("maxrsd: listening on %s (workers=%d cache=%d B=%d M=%d)",
		*addr, *workers, *cacheSize, *blockSize, *memory)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	// A worker announces itself once it is serving; the coordinator's
	// prober owns its liveness from then on.
	if *join != "" {
		go func() {
			wname := *name
			if wname == "" {
				wname = *advertise
			}
			if err := joinCluster(*join, wname, *advertise); err != nil {
				log.Printf("maxrsd: %v", err)
				return
			}
			log.Printf("maxrsd: joined cluster at %s as %s", *join, wname)
		}()
	}

	// Drain on SIGINT/SIGTERM so in-flight queries finish and the engine
	// is closed — with -ondisk that removes the backing temp file, which
	// would otherwise leak on every shutdown of a long-running server.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err2 error
	select {
	case <-sigCtx.Done():
		log.Printf("maxrsd: shutting down (draining up to %s)", *drain)
		srv.startDrain() // /readyz goes 503 so balancers stop routing here
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := httpSrv.Shutdown(shutCtx)
		cancel()
		if err != nil {
			// Drain deadline hit with queries still running. Cancel the
			// stragglers through the engine's ctx path — each aborts within
			// one block-transfer's work, releasing its intermediates — and
			// give the handlers a moment to unwind.
			log.Printf("maxrsd: drain deadline exceeded, cancelling in-flight queries")
			srv.cancelQueries()
			shutCtx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
			err = httpSrv.Shutdown(shutCtx)
			cancel()
			if err != nil {
				// Handlers are somehow still mid-query; closing the engine
				// under them would violate Close's exclusivity contract.
				// Prefer leaking the backing file to a use-after-close race.
				log.Fatal(err)
			}
		}
	case err2 = <-serveErr:
	}
	// Background work (the delta compactor) must stop before the engine
	// closes under it.
	srv.stopBackground()
	if err2 = errors.Join(err2, eng.Close()); err2 != nil {
		log.Fatal(err2)
	}
}

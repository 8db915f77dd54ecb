package maxrs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxrs/internal/dist"
)

// testWorker is a minimal in-process worker maxrsd: it serves /readyz
// and /shard/solve against its own engine, exactly the way a real
// worker does (cmd/maxrsd registers the same endpoints on the same
// wire helpers and Engine.SolveShard). delay, when positive, stalls
// every solve — the straggler knob for the hedging tests.
func testWorker(t *testing.T, delay time.Duration) *httptest.Server {
	return editingWorker(t, delay, nil)
}

// editingWorker is testWorker with edit, when non-nil, applied to every
// reply before it is sent.
func editingWorker(t *testing.T, delay time.Duration, edit func(*dist.SolveReply)) *httptest.Server {
	t.Helper()
	eng, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+dist.PathReady, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST "+dist.PathSolve, func(w http.ResponseWriter, r *http.Request) {
		req, err := dist.DecodeRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Stall after consuming the body: only then does net/http's
		// background read detect a client disconnect and cancel r.Context,
		// which the cancellation test relies on.
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		reply, err := eng.SolveShard(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if edit != nil {
			edit(&reply)
		}
		_ = dist.WriteReply(w, reply)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// distTestEngine builds a distributed engine over the given worker URLs
// with a small retry budget; mut customizes the DistOptions further.
func distTestEngine(t *testing.T, shards int, workerURLs []string, mut func(*DistOptions)) *Engine {
	t.Helper()
	do := &DistOptions{
		Retry: RetryPolicy{MaxRetries: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, JitterSeed: 42},
	}
	for i, u := range workerURLs {
		do.Workers = append(do.Workers, WorkerAddr{Name: fmt.Sprintf("w%d", i), URL: u})
	}
	if mut != nil {
		mut(do)
	}
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192, Shards: shards, Dist: do})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// inProcessMaxRS is the reference every distributed answer must equal
// bit for bit: the 300×300 MaxRS over objs on an engine with e's options
// but no Dist, so its shards solve in process. Distribution changes only
// where shards solve, never what they answer.
func inProcessMaxRS(t *testing.T, e *Engine, objs []Object) Result {
	t.Helper()
	opts := e.opts
	opts.Dist = nil
	ref := newShardTestEngine(t, opts)
	d, err := ref.Load(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Release() }()
	res, err := ref.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distributed {
		t.Fatal("an engine without Dist reported a distributed run")
	}
	return res
}

// checkSameResult asserts bit-identical answers: distribution must never
// change a score, location, or region, only where shards solve.
func checkSameResult(t *testing.T, got, want Result) {
	t.Helper()
	if got.Score != want.Score || got.Location != want.Location || got.Region != want.Region {
		t.Fatalf("distributed result diverged:\n got  %+v %+v %g\n want %+v %+v %g",
			got.Location, got.Region, got.Score, want.Location, want.Region, want.Score)
	}
}

// TestDistributedNoFaultBitIdentical: with a clean network, a
// distributed solve is bit-identical to the in-process sharded path at
// K=2 and K=4, on positive and on mixed-sign weights — same planner,
// same router, same slab-restricted shard solves, same merge, so the
// wire must be invisible. Also pins the attribution plumbing and the
// leak gauge.
func TestDistributedNoFaultBitIdentical(t *testing.T) {
	workers := []string{testWorker(t, 0).URL, testWorker(t, 0).URL}
	mixed := newOracleData(3).objs // integer weights of both signs
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			e := distTestEngine(t, k, workers, nil)
			for _, objs := range [][]Object{testObjects(500), mixed} {
				d, err := e.Load(context.Background(), objs)
				if err != nil {
					t.Fatal(err)
				}
				checkDistributedBitIdentical(t, e, d, inProcessMaxRS(t, e, objs))
				if err := d.Release(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkDistributedBitIdentical compares one distributed MaxRS on d with
// want, its in-process run, and checks attribution and the leak gauge.
func checkDistributedBitIdentical(t *testing.T, e *Engine, d *Dataset, want Result) {
	t.Helper()
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, got, want)
	if !got.Distributed {
		t.Fatal("distributed query did not report Distributed")
	}
	if len(got.ShardStats) == 0 {
		t.Fatal("distributed query reported no shard stats")
	}
	for i, s := range got.ShardStats {
		if s.Worker == "" || s.Attempts < 1 {
			t.Errorf("shard %d: attribution %+v, want a worker and ≥1 attempt", i, s)
		}
		if s.FellBack || s.Err != nil {
			t.Errorf("shard %d: unexpected degradation %+v on a clean network", i, s)
		}
		if s.RemoteStats.Total() == 0 {
			t.Errorf("shard %d: no worker-reported I/O", i)
		}
	}
	if fs := e.NetFaultStats(); fs.Calls == 0 {
		t.Error("no worker calls counted")
	}
	if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
		t.Fatalf("BlocksInUse = %d after distributed query, want the dataset's %d (leaked replicas?)", in, blocks)
	}
}

// TestDistributedFaultMatrix is the chaos matrix (DESIGN.md §13): every
// injected network fault class must leave the answer bit-identical to
// the in-process solve — recovered by retry, hedging, or the
// halo-replica fallback — and never hang, leak blocks, or return a
// silently partial result.
func TestDistributedFaultMatrix(t *testing.T) {
	classes := []struct {
		name string
		mut  func(*DistOptions)
		// wantKind asserts a specific injected counter fired (exact At
		// schedules only — rate-driven classes assert on total calls).
		wantKind func(NetFaultStats) bool
	}{
		{
			name: "connExact",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{At: []NetFaultAt{{Call: 1, Kind: NetFaultConn}}}
			},
			wantKind: func(s NetFaultStats) bool { return s.InjectedConn == 1 },
		},
		{
			name: "disconnectMidStream",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{At: []NetFaultAt{{Call: 1, Kind: NetFaultDisconnect}}}
			},
			wantKind: func(s NetFaultStats) bool { return s.InjectedDisconnect == 1 },
		},
		{
			name: "corruptReply",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{At: []NetFaultAt{{Call: 2, Kind: NetFaultCorrupt}}}
			},
			wantKind: func(s NetFaultStats) bool { return s.InjectedCorrupt == 1 },
		},
		{
			name: "connRate",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{Seed: 7, ConnRate: 0.4}
			},
		},
		{
			name: "mixedRates",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{Seed: 11, ConnRate: 0.2, DisconnectRate: 0.2, CorruptRate: 0.2}
			},
		},
		{
			name: "stragglerHedged",
			mut: func(do *DistOptions) {
				do.NetFaults = NetFaultPlan{Seed: 3, LatencyRate: 0.5, Latency: 50 * time.Millisecond}
				do.Hedge = HedgePolicy{Delay: 5 * time.Millisecond, Max: 4}
			},
		},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			workers := []string{testWorker(t, 0).URL, testWorker(t, 0).URL}
			e := distTestEngine(t, 2, workers, tc.mut)
			d := testDataset(t, e, 500)
			defer func() { _ = d.Release() }()
			want := inProcessMaxRS(t, e, testObjects(500))
			got, err := e.MaxRS(context.Background(), d, 300, 300)
			if err != nil {
				t.Fatalf("distributed query under %s faults: %v", tc.name, err)
			}
			checkSameResult(t, got, want)
			fs := e.NetFaultStats()
			if fs.Calls == 0 {
				t.Fatal("no worker calls counted")
			}
			if tc.wantKind != nil && !tc.wantKind(fs) {
				t.Errorf("injected counters %+v: scheduled fault did not fire", fs)
			}
			if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
				t.Fatalf("BlocksInUse = %d after faulted query, want %d", in, blocks)
			}
		})
	}
}

// TestDistributedPermanentLossFallsBack: a worker pool that rejects
// every call permanently must not fail the query — each lost shard is
// solved from the coordinator's halo-replicated partition file,
// bit-identically, with FellBack attribution.
func TestDistributedPermanentLossFallsBack(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no such endpoint", http.StatusNotFound) // permanent: no retry can help
	}))
	t.Cleanup(dead.Close)
	e := distTestEngine(t, 2, []string{dead.URL}, nil)
	d := testDataset(t, e, 500)
	defer func() { _ = d.Release() }()
	want := inProcessMaxRS(t, e, testObjects(500))
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatalf("query with dead workers: %v (fallback should have saved it)", err)
	}
	checkSameResult(t, got, want)
	if !got.Distributed {
		t.Fatal("fallback run lost the Distributed mark")
	}
	for i, s := range got.ShardStats {
		if !s.FellBack {
			t.Errorf("shard %d: FellBack = false, want the halo-replica fallback", i)
		}
		if s.Attempts != 1 {
			t.Errorf("shard %d: %d attempts on a permanent error, want exactly 1 (no useless retries)", i, s.Attempts)
		}
	}
	if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
		t.Fatalf("BlocksInUse = %d after fallback, want %d", in, blocks)
	}
}

// TestDistributedUnavailableTyped: with the local fallback disabled, a
// lost shard fails typed — ErrShardUnavailable, carrying per-worker
// attribution in the partial Result — rather than hanging or answering
// partially.
func TestDistributedUnavailableTyped(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusNotFound)
	}))
	t.Cleanup(dead.Close)
	e := distTestEngine(t, 2, []string{dead.URL}, func(do *DistOptions) {
		do.DisableLocalFallback = true
	})
	d := testDataset(t, e, 500)
	defer func() { _ = d.Release() }()
	res, err := e.MaxRS(context.Background(), d, 300, 300)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if len(res.ShardStats) == 0 {
		t.Fatal("typed failure carried no shard attribution")
	}
	for i, s := range res.ShardStats {
		if s.Err == nil || s.Worker == "" {
			t.Errorf("shard %d: attribution %+v, want the failing worker and its error", i, s)
		}
		if s.FellBack {
			t.Errorf("shard %d: FellBack with the fallback disabled", i)
		}
	}
	if res.Score != 0 {
		t.Fatalf("failed query carried a score %g: partial answers must not look authoritative", res.Score)
	}
	if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
		t.Fatalf("BlocksInUse = %d after typed failure, want %d", in, blocks)
	}
}

// TestDistributedNoWorkersDegrades: an empty (or fully demoted)
// membership solves in process with FallbackReason set by default, and
// fails typed with ErrNoWorkers when the fallback is disabled.
func TestDistributedNoWorkersDegrades(t *testing.T) {
	e := distTestEngine(t, 2, nil, nil)
	d := testDataset(t, e, 400)
	defer func() { _ = d.Release() }()
	want := inProcessMaxRS(t, e, testObjects(400))
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, got, want)
	if got.Distributed {
		t.Fatal("in-process degradation still claimed Distributed")
	}
	if !strings.Contains(got.FallbackReason, "no ready workers") {
		t.Fatalf("FallbackReason = %q, want it to name the missing workers", got.FallbackReason)
	}

	strict := distTestEngine(t, 2, nil, func(do *DistOptions) { do.DisableLocalFallback = true })
	ds := testDataset(t, strict, 400)
	defer func() { _ = ds.Release() }()
	if _, err := strict.MaxRS(context.Background(), ds, 300, 300); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestDistributedNoWorkersCostsInProcess: a query that degrades because
// no worker is ready is exactly the in-process query — the decision is
// made before routing, so no partition is read for requests that are
// never sent. Its Stats and every shard's Stats equal those of the same
// query on an engine without Dist.
func TestDistributedNoWorkersCostsInProcess(t *testing.T) {
	e := distTestEngine(t, 2, nil, nil)
	d := testDataset(t, e, 400)
	defer func() { _ = d.Release() }()
	want := inProcessMaxRS(t, e, testObjects(400))
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, got, want)
	if got.Stats.Reads != want.Stats.Reads || got.Stats.Writes != want.Stats.Writes {
		t.Errorf("degraded query cost %+v, in-process %+v", got.Stats, want.Stats)
	}
	if len(got.ShardStats) != len(want.ShardStats) || len(got.ShardStats) == 0 {
		t.Fatalf("degraded query has %d shards, in-process %d", len(got.ShardStats), len(want.ShardStats))
	}
	for i := range got.ShardStats {
		if g, w := got.ShardStats[i], want.ShardStats[i]; g.Stats != w.Stats || g.Objects != w.Objects {
			t.Errorf("shard %d: degraded %+v, in-process %+v", i, g, w)
		}
	}
	// TopK notes the degradation once, however many rounds it ran.
	rounds, err := e.TopK(context.Background(), d, 300, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := rounds[len(rounds)-1].FallbackReason; strings.Count(r, "no ready workers") != 1 {
		t.Errorf("TopK FallbackReason = %q, want the degradation named exactly once", r)
	}
}

// TestDistributedHedgeStraggler: a straggling worker is hedged to the
// next ready one after the hedge delay; the fast duplicate wins, the
// answer is bit-identical, and the report says the shard was hedged.
func TestDistributedHedgeStraggler(t *testing.T) {
	slow := testWorker(t, 300*time.Millisecond)
	fast := testWorker(t, 0)
	e := distTestEngine(t, 2, []string{slow.URL, fast.URL}, func(do *DistOptions) {
		do.Hedge = HedgePolicy{Delay: 10 * time.Millisecond, Max: 4}
	})
	d := testDataset(t, e, 500)
	defer func() { _ = d.Release() }()
	want := inProcessMaxRS(t, e, testObjects(500))
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, got, want)
	hedged := false
	for _, s := range got.ShardStats {
		hedged = hedged || s.Hedged
	}
	if !hedged {
		t.Fatal("no shard was hedged despite a straggling worker")
	}
}

// TestDistributedCancellation: cancelling the query ctx mid-fan-out
// surfaces as a cancelled query (ErrQueryCancelled wrapping the ctx
// error), never as a lost shard — and releases everything.
func TestDistributedCancellation(t *testing.T) {
	stuck := testWorker(t, time.Hour)
	e := distTestEngine(t, 2, []string{stuck.URL}, nil)
	d := testDataset(t, e, 500)
	defer func() { _ = d.Release() }()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.MaxRS(ctx, d, 300, 300)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueryCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrQueryCancelled wrapping context.Canceled", err)
		}
		if errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("cancellation misreported as a lost shard: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled distributed query hung")
	}
	if in, blocks := e.BlocksInUse(), d.Blocks(); in != blocks {
		t.Fatalf("BlocksInUse = %d after cancellation, want %d", in, blocks)
	}
}

// TestDistributedMembership exercises the membership table end to end:
// registration, probing (promote and demote), and the deterministic
// ready ordering the shard assignment depends on.
func TestDistributedMembership(t *testing.T) {
	up := testWorker(t, 0)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	e := distTestEngine(t, 2, nil, nil)
	if e.RegisterWorker("", "") {
		t.Fatal("registered a worker with no URL")
	}
	if !e.RegisterWorker("up", up.URL) || !e.RegisterWorker("down", down.URL) {
		t.Fatal("registration failed")
	}
	e.ProbeWorkers(context.Background())
	byName := map[string]WorkerStatus{}
	for _, w := range e.Workers() {
		byName[w.Name] = w
	}
	if !byName["up"].Ready {
		t.Errorf("worker up: %+v, want ready after a 200 probe", byName["up"])
	}
	if byName["down"].Ready || byName["down"].Failures == 0 {
		t.Errorf("worker down: %+v, want demoted with counted failures", byName["down"])
	}
	if !e.RemoveWorker("down") || e.RemoveWorker("down") {
		t.Fatal("remove should succeed once and then report absence")
	}
	if n := len(e.Workers()); n != 1 {
		t.Fatalf("%d workers after removal, want 1", n)
	}
	// A query against the surviving worker still answers exactly.
	d := testDataset(t, e, 400)
	defer func() { _ = d.Release() }()
	want := inProcessMaxRS(t, e, testObjects(400))
	got, err := e.MaxRS(context.Background(), d, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, got, want)
}

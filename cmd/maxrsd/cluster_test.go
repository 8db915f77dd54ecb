package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxrs"
	"maxrs/internal/dist"
	"maxrs/internal/geom"
)

// newClusterServer builds a maxrsd with distributed execution enabled,
// fanning sharded queries out to workers.
func newClusterServer(t *testing.T, workers []maxrs.WorkerAddr) (*server, *httptest.Server) {
	t.Helper()
	eng, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize: 512,
		Memory:    8192,
		Dist: &maxrs.DistOptions{
			Workers: workers,
			Retry:   maxrs.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 4, 16)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postShard(t *testing.T, ts *httptest.Server, body []byte, checksum string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+dist.PathSolve, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if checksum != "" {
		req.Header.Set(dist.ChecksumHeader, checksum)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b := make([]byte, 0, 512)
	buf := make([]byte, 512)
	for {
		n, rerr := resp.Body.Read(buf)
		b = append(b, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp, b
}

// TestShardSolveEndpoint: a plain maxrsd answers /shard/solve — worker
// is a role per request, not a build — and the reply is checksummed.
func TestShardSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	objs := []geom.Object{
		{Point: geom.Point{X: 1, Y: 1}, W: 1},
		{Point: geom.Point{X: 1.5, Y: 1}, W: 2},
		{Point: geom.Point{X: 10, Y: 10}, W: 1},
	}
	// The shard answers for the centers of its slab alone: the slab
	// [5, +Inf) sees only the far object.
	for _, tc := range []struct {
		slab geom.Interval
		want float64
	}{
		{geom.Interval{Lo: math.Inf(-1), Hi: 5}, 3},
		{geom.Interval{Lo: 5, Hi: math.Inf(1)}, 1},
	} {
		body, sum, err := dist.EncodeRequest(dist.SolveRequest{W: 2, H: 2, Slab: dist.SlabOf(tc.slab), Objects: objs})
		if err != nil {
			t.Fatal(err)
		}
		resp, rbody := postShard(t, ts, body, sum)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, rbody)
		}
		if want := dist.Checksum(rbody); resp.Header.Get(dist.ChecksumHeader) != want {
			t.Fatalf("reply checksum header %q does not cover the body (%s)",
				resp.Header.Get(dist.ChecksumHeader), want)
		}
		var reply dist.SolveReply
		if err := json.Unmarshal(rbody, &reply); err != nil {
			t.Fatalf("bad reply %s: %v", rbody, err)
		}
		if reply.Sum != tc.want || reply.Slab != dist.SlabOf(tc.slab) {
			t.Fatalf("slab %v: optimum %g and echo %v, want %g and the slab", tc.slab, reply.Sum, reply.Slab.Interval(), tc.want)
		}
		if x := reply.Region.X; x.Lo < tc.slab.Lo || x.Hi > tc.slab.Hi {
			t.Fatalf("slab %v: region %v outside it", tc.slab, x)
		}
	}
}

// TestShardSolveChecksum pins the damage-vs-malformed distinction: a
// body that fails its checksum gets 503 (the coordinator's resend
// carries clean bytes), a genuinely malformed body gets 400 (no retry
// will fix it).
func TestShardSolveChecksum(t *testing.T) {
	_, ts := newTestServer(t)
	body, sum, err := dist.EncodeRequest(dist.SolveRequest{
		W: 1, H: 1, Objects: []geom.Object{{Point: geom.Point{X: 0, Y: 0}, W: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	damaged := append([]byte(nil), body...)
	damaged[0] ^= 0xA5
	if resp, b := postShard(t, ts, damaged, sum); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("damaged body: status %d (%s), want 503", resp.StatusCode, b)
	}
	if resp, b := postShard(t, ts, []byte("{not json"), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d (%s), want 400", resp.StatusCode, b)
	}
}

// TestClusterWorkersEndpoints: membership management over HTTP — 412 on
// a non-coordinator, register/list/remove round trip on a coordinator.
func TestClusterWorkersEndpoints(t *testing.T) {
	_, plain := newTestServer(t)
	resp, body := do(t, http.MethodPost, plain.URL+"/v1/cluster/workers", `{"name":"a","url":"http://x"}`)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("register on non-coordinator: status %d (%s), want 412", resp.StatusCode, body)
	}

	_, coord := newClusterServer(t, nil)
	resp, body = do(t, http.MethodPost, coord.URL+"/v1/cluster/workers", `{"name":"a"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register without url: status %d (%s), want 400", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodPost, coord.URL+"/v1/cluster/workers", `{"name":"a","url":"http://localhost:9"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d (%s), want 201", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, coord.URL+"/v1/cluster/workers", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d (%s)", resp.StatusCode, body)
	}
	var list workerListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("bad list %s: %v", body, err)
	}
	if len(list.Workers) != 1 || list.Workers[0].Name != "a" || !list.Workers[0].Ready {
		t.Fatalf("list %+v, want worker a registered ready", list.Workers)
	}
	if resp, body = do(t, http.MethodDelete, coord.URL+"/v1/cluster/workers/a", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d (%s), want 200", resp.StatusCode, body)
	}
	if resp, _ = do(t, http.MethodDelete, coord.URL+"/v1/cluster/workers/a", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove absent: status %d, want 404", resp.StatusCode)
	}
}

// TestQueryDistributedEndToEnd: a coordinator maxrsd fanning out to two
// worker maxrsd instances answers a sharded query bit-identically to a
// standalone server solving the same shards in process, and the
// response attributes each shard to the worker that solved it.
func TestQueryDistributedEndToEnd(t *testing.T) {
	_, w0 := newTestServer(t)
	_, w1 := newTestServer(t)
	_, coord := newClusterServer(t, []maxrs.WorkerAddr{
		{Name: "w0", URL: w0.URL},
		{Name: "w1", URL: w1.URL},
	})
	_, control := newTestServer(t)

	csv := bigCSV(300)
	for _, ts := range []*httptest.Server{coord, control} {
		resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/d?shards=2", csv)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put: status %d (%s)", resp.StatusCode, body)
		}
	}
	const q = `{"dataset":"d","op":"maxrs","w":400,"h":400}`
	codeD, got := query(t, coord, q)
	codeC, want := query(t, control, q)
	if codeD != http.StatusOK || codeC != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200", codeD, codeC)
	}
	g, w := got.Results[0], want.Results[0]
	if g.Score != w.Score || g.Location != w.Location {
		t.Fatalf("distributed answer (%+v, %g) differs from in-process (%+v, %g)",
			g.Location, g.Score, w.Location, w.Score)
	}
	if !g.Distributed {
		t.Fatal("coordinator response not marked distributed")
	}
	if len(g.Shards) != 2 {
		t.Fatalf("%d shard stats, want 2", len(g.Shards))
	}
	for i, sh := range g.Shards {
		if sh.Worker == "" || sh.Attempts < 1 {
			t.Fatalf("shard %d missing attribution: %+v", i, sh)
		}
		if sh.FellBack || sh.Error != "" {
			t.Fatalf("shard %d degraded with no faults injected: %+v", i, sh)
		}
	}

	// The coordinator's /stats reports the membership and the worker
	// calls the query made.
	resp, body := do(t, http.MethodGet, coord.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d (%s)", resp.StatusCode, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	if st.Workers != 2 || st.WorkersReady != 2 {
		t.Fatalf("stats workers %d/%d ready, want 2/2", st.WorkersReady, st.Workers)
	}
	if st.NetCalls < 2 {
		t.Fatalf("stats net_calls %d, want ≥ 2 (one per shard)", st.NetCalls)
	}
}

// TestRetryAfterDerived: the 429 Retry-After hint is derived from the
// backlog — floor 1s on a just-saturated pool, one extra second per
// poolful queued, capped at 30s — and the header on a shed response
// carries it.
func TestRetryAfterDerived(t *testing.T) {
	srv, ts := newTestServer(t) // pool = 4
	for in, want := range map[int64]int{0: 1, 4: 1, 12: 3, 1000: 30} {
		srv.inflight.Store(in)
		if got := srv.retryAfterSeconds(); got != want {
			t.Fatalf("retryAfterSeconds(inflight=%d) = %d, want %d", in, got, want)
		}
	}

	putDataset(t, ts, "d", "1,1,1\n2,2,1\n")
	srv.queue = 0
	srv.inflight.Store(4) // pool full, queue disabled: next admit sheds
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query", `{"dataset":"d","op":"maxrs","w":1,"h":1}`)
	srv.inflight.Store(0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want the derived \"1\"", ra)
	}
}

// TestOverloadBeatsTimeout pins the shed-vs-deadline precedence: a
// request that would both be shed and time out gets 429 — admission is
// checked before any deadline starts running — while a queued request
// whose deadline expires waiting for a worker gets 504.
func TestOverloadBeatsTimeout(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "d", "1,1,1\n2,2,1\n")

	srv.queue = 0
	srv.inflight.Store(4)
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query?timeout=1ns", `{"dataset":"d","op":"maxrs","w":1,"h":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated + instant deadline: status %d (%s), want 429", resp.StatusCode, body)
	}
	srv.inflight.Store(0)
	srv.queue = 16

	// All workers busy (slots held, queue open): the queued request's
	// deadline expires in acquire and maps to 504, not 429 or 503.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	}()
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/query?timeout=30ms", `{"dataset":"d","op":"maxrs","w":1,"h":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestDrainReleasesQueued: a query queued for a worker when the drain
// starts is rejected immediately with 503 — it has done no engine work,
// so it must hold no blocks — rather than parked until the drain
// deadline.
func TestDrainReleasesQueued(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "d", "1,1,1\n2,2,1\n3,3,1\n")

	var base statsResponse
	_, body := do(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}

	// Occupy every worker slot so the query queues in acquire.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	}()

	type reply struct {
		code int
		body string
	}
	done := make(chan reply, 1)
	go func() {
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/query", `{"dataset":"d","op":"maxrs","w":1,"h":1}`)
		done <- reply{resp.StatusCode, string(b)}
	}()
	// Once admitted (inflight = 1) the query is at or before acquire;
	// from the moment startDrain returns, acquire rejects
	// deterministically (the drain pre-check runs before the slot wait).
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached admission")
		}
		time.Sleep(time.Millisecond)
	}
	srv.startDrain()
	select {
	case r := <-done:
		if r.code != http.StatusServiceUnavailable || !strings.Contains(r.body, "draining") {
			t.Fatalf("queued query during drain: status %d (%s), want 503 draining", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued query not released by the drain")
	}
	if n := srv.inflight.Load(); n != 0 {
		t.Fatalf("inflight %d after release, want 0", n)
	}

	// The rejected query held no engine state: blocks in use are exactly
	// the dataset's, same as before the query.
	var after statsResponse
	_, body = do(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	if after.BlocksInUse != base.BlocksInUse {
		t.Fatalf("blocks in use %d after drained query, want the dataset's %d",
			after.BlocksInUse, base.BlocksInUse)
	}
}

// TestJoinCluster: a worker's -join announcement registers it with the
// coordinator, and a non-coordinator target fails fast with a clear
// error instead of retrying into the void.
func TestJoinCluster(t *testing.T) {
	_, coord := newClusterServer(t, nil)
	if err := joinCluster(coord.URL, "w9", "http://localhost:9"); err != nil {
		t.Fatalf("join: %v", err)
	}
	resp, body := do(t, http.MethodGet, coord.URL+"/v1/cluster/workers", "")
	var list workerListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("bad list %s (status %d): %v", body, resp.StatusCode, err)
	}
	if len(list.Workers) != 1 || list.Workers[0].Name != "w9" {
		t.Fatalf("membership after join: %+v, want w9", list.Workers)
	}

	_, plain := newTestServer(t)
	start := time.Now()
	err := joinCluster(plain.URL, "w9", "http://localhost:9")
	if err == nil || !strings.Contains(err.Error(), "412") {
		t.Fatalf("join non-coordinator: err %v, want a 412 report", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("join non-coordinator took %v; 412 must not be retried", elapsed)
	}
}

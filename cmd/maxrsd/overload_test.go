package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"maxrs"
)

// TestOverloadSheds429 is the overload acceptance check: with the worker
// pool and admission queue saturated at 2× pool capacity, surplus cache
// misses are shed with 429 + Retry-After instead of queueing, admitted
// queries still succeed, and the server recovers fully afterwards.
func TestOverloadSheds429(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 1, 0) // one worker, cache off: every query works
	srv.queue = 1               // pool capacity = workers + queue = 2
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	putDataset(t, ts, "big", bigCSV(4000))

	const clients = 4 // 2× pool capacity
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"dataset":"big","op":"topk","w":600,"h":600,"k":4}`))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			t.Errorf("client %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok == 0 {
		t.Fatal("no query succeeded under overload")
	}
	if shed == 0 {
		t.Fatalf("no query shed at 2x pool capacity (codes %v)", codes)
	}
	// Recovered: a fresh query is admitted and succeeds.
	if code, _ := query(t, ts, `{"dataset":"big","op":"maxrs","w":600,"h":600}`); code != http.StatusOK {
		t.Fatalf("query after overload: status %d", code)
	}
	if n := srv.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d after drain, want 0", n)
	}
}

// TestExplainAdmission: ?explain=1 may run the cost model's scale-model
// solves, so it takes an admission slot like a query. With the only slot
// held, explain is shed with 429 + Retry-After; once the slot is free it
// answers 200 and holds no slot afterwards.
func TestExplainAdmission(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 1, 0) // one worker, cache off
	srv.queue = 0               // pool capacity = one slot
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	putDataset(t, ts, "big", bigCSV(4000))

	const explain = `{"dataset":"big","op":"maxrs","w":600,"h":600}`
	if !srv.admit() {
		t.Fatal("could not take the only admission slot")
	}
	for _, path := range []string{"/v1/query?explain=1", "/v1/query"} {
		resp, body := do(t, http.MethodPost, ts.URL+path, explain)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s with the pool full: status %d, Retry-After %q, body %s; want 429 with Retry-After",
				path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	srv.done()
	if resp, body := do(t, http.MethodPost, ts.URL+"/v1/query?explain=1", explain); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain with a free slot: status %d body %s", resp.StatusCode, body)
	}
	if n := srv.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d after explain, want 0", n)
	}
}

// TestQueryTimeout checks the per-request deadline: ?timeout= expiry
// returns 504 (never a cached or partial result), a generous timeout
// changes nothing, and malformed values are rejected up front.
func TestQueryTimeout(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "big", bigCSV(4000))

	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query?timeout=1ns",
		`{"dataset":"big","op":"topk","w":600,"h":600,"k":4}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns timeout: status %d body %s, want 504", resp.StatusCode, body)
	}
	// The timed-out query must not have been cached: the same query with
	// room to finish computes fresh and succeeds.
	code, qr := query(t, ts, `{"dataset":"big","op":"topk","w":600,"h":600,"k":4}`)
	if code != http.StatusOK || qr.Cached {
		t.Fatalf("query after timeout: status %d cached %v, want fresh 200", code, qr.Cached)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/query?timeout=10s",
		`{"dataset":"big","op":"maxrs","w":600,"h":600}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("generous timeout: status %d, want 200", resp.StatusCode)
	}
	for _, bad := range []string{"nope", "-1s", "0"} {
		resp, _ := do(t, http.MethodPost, ts.URL+"/v1/query?timeout="+bad,
			`{"dataset":"big","op":"maxrs","w":600,"h":600}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// The server-side ceiling applies without any request parameter.
	srv.timeout = 1 // 1ns
	resp, _ = do(t, http.MethodPost, ts.URL+"/v1/query",
		`{"dataset":"big","op":"topk","w":500,"h":500,"k":4}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("server ceiling: status %d, want 504", resp.StatusCode)
	}
	srv.timeout = 0
}

// TestFailedQueryNotCached injects a storage fault, fails a query, and
// verifies the failure never enters the result cache: the next identical
// query recomputes (and succeeds once the fault is gone).
func TestFailedQueryNotCached(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "big", bigCSV(4000))

	srv.eng.InjectFaults(maxrs.FaultPlan{At: []maxrs.FaultAt{
		{Op: maxrs.OpRead, Transfer: 1, Kind: maxrs.FaultPermanent},
	}})
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query",
		`{"dataset":"big","op":"maxrs","w":600,"h":600}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted query: status %d body %s, want 500", resp.StatusCode, body)
	}
	var env struct {
		Error errorJSON `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" || env.Error.Code == "" {
		t.Fatalf("faulted query body %s: want an error envelope", body)
	}
	srv.eng.InjectFaults(maxrs.FaultPlan{}) // clear the fault (and bad-block marks)

	code, qr := query(t, ts, `{"dataset":"big","op":"maxrs","w":600,"h":600}`)
	if code != http.StatusOK {
		t.Fatalf("query after fault cleared: status %d", code)
	}
	if qr.Cached {
		t.Fatal("failed query poisoned the cache: recovery served from cache")
	}
	if len(qr.Results) != 1 || qr.Results[0].Score <= 0 {
		t.Fatalf("recovered results = %+v", qr.Results)
	}
	// Now the *successful* result is cached.
	if code, qr2 := query(t, ts, `{"dataset":"big","op":"maxrs","w":600,"h":600}`); code != http.StatusOK || !qr2.Cached {
		t.Fatalf("repeat after success: status %d cached %v, want cache hit", code, qr2.Cached)
	}
}

// TestLivezReadyzSplit checks the probe split: liveness is always 200,
// readiness flips 503→200 on markReady and back to 503 on startDrain
// (while liveness stays 200, so the process is not restarted mid-drain).
func TestLivezReadyzSplit(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 1, 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	get := func(path string) int {
		t.Helper()
		resp, _ := do(t, http.MethodGet, ts.URL+path, "")
		return resp.StatusCode
	}
	check := func(phase string, livez, readyz int) {
		t.Helper()
		for path, want := range map[string]int{"/v1/livez": livez, "/v1/readyz": readyz} {
			if got := get(path); got != want {
				t.Errorf("%s: GET %s = %d, want %d", phase, path, got, want)
			}
		}
	}
	check("before ready", http.StatusOK, http.StatusServiceUnavailable)
	srv.markReady()
	check("ready", http.StatusOK, http.StatusOK)
	srv.startDrain()
	check("draining", http.StatusOK, http.StatusServiceUnavailable)
}

// TestServerTransientFaultRecovery smoke-checks the hardened server
// configuration end to end: with retries and a 1% transient
// fault rate, queries keep succeeding and the recoveries are counted.
func TestServerTransientFaultRecovery(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize: 512,
		Memory:    8192,
		Retry:     maxrs.RetryPolicy{MaxRetries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 2, 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	putDataset(t, ts, "big", bigCSV(4000))
	srv.eng.InjectFaults(maxrs.FaultPlan{
		Seed:              7,
		TransientReadRate: 0.01,
	})
	for i := 0; i < 3; i++ {
		code, qr := query(t, ts, fmt.Sprintf(`{"dataset":"big","op":"maxrs","w":%d,"h":600}`, 500+i))
		if code != http.StatusOK || len(qr.Results) != 1 {
			t.Fatalf("query %d under faults: status %d results %+v", i, code, qr.Results)
		}
	}
	if fs := srv.eng.FaultStats(); fs.InjectedTransient == 0 || fs.ReadRetries == 0 {
		t.Fatalf("fault stats %+v: expected injected transients and counted retries", fs)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"maxrs"
	"maxrs/internal/dist"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 4, 16)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func do(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const testCSV = `# three close points and one outlier
1,1,1
2,2,5
3,1,1
90,90,2
`

func putDataset(t *testing.T, ts *httptest.Server, name, csv string) {
	t.Helper()
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/"+name, csv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put dataset: status %d, body %s", resp.StatusCode, body)
	}
}

func query(t *testing.T, ts *httptest.Server, req string) (int, queryResponse) {
	t.Helper()
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query", req)
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad query response %s: %v", body, err)
		}
	}
	return resp.StatusCode, qr
}

func TestServeMaxRSAndCache(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	code, qr := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(qr.Results) != 1 || qr.Results[0].Score != 7 {
		t.Fatalf("results = %+v, want one result with score 7", qr.Results)
	}
	if qr.Cached {
		t.Fatal("first query must not be cached")
	}
	if qr.Results[0].Stats.Total == 0 {
		t.Fatal("per-query stats must be non-zero")
	}

	code, qr2 := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || !qr2.Cached {
		t.Fatalf("second identical query: status %d cached %v, want cache hit", code, qr2.Cached)
	}
	if qr2.Results[0].Score != qr.Results[0].Score {
		t.Fatal("cached result differs")
	}

	// A different size must miss the cache.
	if _, qr3 := query(t, ts, `{"dataset":"demo","op":"maxrs","w":2,"h":2}`); qr3.Cached {
		t.Fatal("different parameters must not hit the cache")
	}
}

func TestServeTopKAndMaxCRS(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	code, qr := query(t, ts, `{"dataset":"demo","op":"topk","w":4,"h":4,"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	if len(qr.Results) != 2 { // cluster (7) then the outlier (2)
		t.Fatalf("topk results = %d, want 2", len(qr.Results))
	}
	if qr.Results[0].Score != 7 || qr.Results[1].Score != 2 {
		t.Fatalf("topk scores = %g, %g want 7, 2", qr.Results[0].Score, qr.Results[1].Score)
	}

	code, qr = query(t, ts, `{"dataset":"demo","op":"maxcrs","diameter":5}`)
	if code != http.StatusOK || len(qr.Results) != 1 {
		t.Fatalf("maxcrs status %d results %+v", code, qr.Results)
	}
	if qr.Results[0].Score < 7 {
		t.Fatalf("maxcrs score = %g, want ≥ 7 (circle of diameter 5 covers the cluster)", qr.Results[0].Score)
	}
}

func TestServeValidationAndErrors(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	if code, _ := query(t, ts, `{"dataset":"nope","op":"maxrs","w":4,"h":4}`); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", code)
	}
	if code, _ := query(t, ts, `{"dataset":"demo","op":"bogus"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", code)
	}
	if code, _ := query(t, ts, `{"dataset":"demo","op":"maxrs","w":-1,"h":4}`); code != http.StatusBadRequest {
		t.Fatalf("bad size: status %d, want 400", code)
	}
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/bad", "1,notanumber\n")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "line 1") {
		t.Fatalf("bad CSV: status %d body %s, want 400 with line number", resp.StatusCode, body)
	}
	resp, _ = do(t, http.MethodPut, ts.URL+"/v1/datasets/inf", "1,+Inf\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("Inf CSV: status %d, want 400", resp.StatusCode)
	}
}

func TestDeleteReleasesBlocks(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)
	if srv.eng.BlocksInUse() == 0 {
		t.Fatal("dataset should occupy blocks")
	}
	resp, body := do(t, http.MethodDelete, ts.URL+"/v1/datasets/demo", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d body %s", resp.StatusCode, body)
	}
	if n := srv.eng.BlocksInUse(); n != 0 {
		t.Fatalf("BlocksInUse = %d after delete, want 0", n)
	}
	if code, _ := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`); code != http.StatusNotFound {
		t.Fatalf("query after delete: status %d, want 404", code)
	}
	// Replacing a dataset under the same name must not leak the old copy.
	putDataset(t, ts, "demo", testCSV)
	before := srv.eng.BlocksInUse()
	putDataset(t, ts, "demo", testCSV)
	if n := srv.eng.BlocksInUse(); n != before {
		t.Fatalf("BlocksInUse = %d after replace, want %d", n, before)
	}
}

func TestServerLocalPathConfinement(t *testing.T) {
	srv, ts := newTestServer(t)
	// Disabled without -datadir.
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/x?path=whatever.csv", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("path load without datadir: status %d body %s, want 403", resp.StatusCode, body)
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/ok.csv", []byte("1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.dataDir = dir
	resp, body = do(t, http.MethodPut, ts.URL+"/v1/datasets/x?path=ok.csv", "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("path load: status %d body %s", resp.StatusCode, body)
	}
	// Escapes fail — both plain .. traversal and symlinks out of the root.
	resp, body = do(t, http.MethodPut, ts.URL+"/v1/datasets/x?path=../../etc/passwd", "")
	if resp.StatusCode == http.StatusCreated || strings.Contains(string(body), "root:") {
		t.Fatalf("escape attempt: status %d body %s", resp.StatusCode, body)
	}
	if err := os.Symlink("/etc", dir+"/link"); err == nil {
		resp, body = do(t, http.MethodPut, ts.URL+"/v1/datasets/x?path=link/passwd", "")
		if resp.StatusCode == http.StatusCreated || strings.Contains(string(body), "root:") {
			t.Fatalf("symlink escape: status %d body %s", resp.StatusCode, body)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, ts := newTestServer(t)
	// Disable the result cache: every request must actually traverse the
	// worker pool and the shared engine, or this tests nothing.
	srv.cache = newResultCache(0)
	putDataset(t, ts, "demo", testCSV)

	// A reference answer per query size, computed sequentially.
	want := make(map[int]dist.Float)
	for size := 1; size <= 4; size++ {
		code, qr := query(t, ts, fmt.Sprintf(`{"dataset":"demo","op":"maxrs","w":%d,"h":%d}`, size, size))
		if code != http.StatusOK {
			t.Fatalf("seed query %d: status %d", size, code)
		}
		want[size] = qr.Results[0].Score
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				size := 1 + (g+i)%4
				code, qr := query(t, ts, fmt.Sprintf(`{"dataset":"demo","op":"maxrs","w":%d,"h":%d}`, size, size))
				if code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d", g, code)
					return
				}
				if qr.Results[0].Score != want[size] {
					errs <- fmt.Errorf("goroutine %d: score %g, want %g", g, qr.Results[0].Score, want[size])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// Every query's blocks must have been returned.
	if n := srv.eng.BlocksInUse(); n != srv.datasets["demo"].ds.Blocks() {
		t.Fatalf("BlocksInUse = %d, want only the dataset's %d", n, srv.datasets["demo"].ds.Blocks())
	}
}

// TestShardedDataset: ?shards=K shards the dataset's queries, the
// response carries the per-shard breakdown, scores match the unsharded
// answer, and bad shard counts are rejected.
func TestShardedDataset(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "plain", testCSV)

	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/sharded?shards=2", testCSV)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put sharded dataset: status %d, body %s", resp.StatusCode, body)
	}
	var info datasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 {
		t.Fatalf("dataset info shards = %d, want 2", info.Shards)
	}

	code, want := query(t, ts, `{"dataset":"plain","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK {
		t.Fatalf("unsharded query status %d", code)
	}
	if len(want.Results[0].Shards) != 0 {
		t.Fatalf("unsharded query reported shards: %+v", want.Results[0].Shards)
	}
	code, got := query(t, ts, `{"dataset":"sharded","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK {
		t.Fatalf("sharded query status %d", code)
	}
	if got.Results[0].Score != want.Results[0].Score {
		t.Fatalf("sharded score %g != unsharded %g", got.Results[0].Score, want.Results[0].Score)
	}
	shards := got.Results[0].Shards
	if len(shards) == 0 || len(shards) > 2 {
		t.Fatalf("shard breakdown = %+v, want 1..2 entries", shards)
	}
	var sum uint64
	for _, s := range shards {
		sum += s.Stats.Total
	}
	if sum == 0 || sum > got.Results[0].Stats.Total {
		t.Fatalf("shard totals %d inconsistent with query total %d", sum, got.Results[0].Stats.Total)
	}

	// The shard count is part of the dataset listing.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/datasets", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list datasets: %d", resp.StatusCode)
	}
	var listing datasetListResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, i := range listing.Datasets {
		byName[i.Name] = i.Shards
		if i.Stats == nil || i.Stats.N == 0 {
			t.Fatalf("dataset %q listed without load-time stats: %+v", i.Name, i.Stats)
		}
	}
	if byName["sharded"] != 2 || byName["plain"] != 0 {
		t.Fatalf("listing shards = %v, want sharded:2 plain:0", byName)
	}

	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/datasets/bad?shards=-1", testCSV); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=-1 accepted: status %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/datasets/bad?shards=x", testCSV); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=x accepted: status %d", resp.StatusCode)
	}
}

// TestDegenerateResultNotSilentEmpty: a query whose optimal region is
// unbounded (here: best score 0, so the optimum extends to infinity)
// produces a location JSON cannot represent. The server must answer
// with an explicit error, never a silent empty 200.
func TestDegenerateResultNotSilentEmpty(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "neg", "1,1,-5\n2,2,-3\n")
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query",
		`{"dataset":"neg","op":"maxrs","w":4,"h":4}`)
	if len(body) == 0 {
		t.Fatalf("empty response body (status %d)", resp.StatusCode)
	}
	var env map[string]any
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-JSON response %q: %v", body, err)
	}
	if resp.StatusCode == http.StatusOK {
		// If the engine produced a representable answer this is fine —
		// but an OK must carry results, not an empty shell.
		if _, ok := env["results"]; !ok {
			t.Fatalf("200 without results: %s", body)
		}
	} else if _, ok := env["error"]; !ok {
		t.Fatalf("status %d without error field: %s", resp.StatusCode, body)
	}
}

// bigCSV returns a dataset large enough that a query takes many block
// transfers under the tiny test EM budget.
func bigCSV(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", (i*7919)%4000, (i*104729)%4000, 1+i%5)
	}
	return b.String()
}

// TestClientDisconnectCancelsQuery verifies the ctx wiring: a client that
// goes away mid-query stops the engine work (the handler returns, the
// worker slot frees, and no intermediate blocks stay allocated).
func TestClientDisconnectCancelsQuery(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "big", bigCSV(4000))
	base := srv.eng.BlocksInUse()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
			strings.NewReader(`{"dataset":"big","op":"topk","w":600,"h":600,"k":4}`))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		// Give the query a moment to start, then hang up.
		time.Sleep(5 * time.Millisecond)
		cancel()
		if err := <-done; err == nil {
			// The query may legitimately have finished before the cancel —
			// but usually the client sees its own context error.
			t.Log("query completed before disconnect")
		}
		// The handler may still be unwinding for a moment after the client
		// gives up; wait for the engine to drain.
		deadline := time.Now().Add(5 * time.Second)
		for srv.eng.BlocksInUse() != base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := srv.eng.BlocksInUse(); n != base {
			t.Fatalf("round %d: %d blocks in use after disconnect, want %d", i, n, base)
		}
	}
}

// TestShutdownCancelsStragglers verifies the graceful-shutdown path: when
// the drain deadline passes, cancelQueries aborts in-flight queries
// through the engine ctx path and the handlers return 503.
func TestShutdownCancelsStragglers(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "big", bigCSV(4000))
	base := srv.eng.BlocksInUse()

	started := make(chan struct{})
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			// No t.Fatal from this goroutine (FailNow must run on the
			// test goroutine); report transport errors as -1 instead.
			if i == 0 {
				close(started)
			}
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"dataset":"big","op":"topk","w":600,"h":600,"k":8}`))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}(i)
	}
	<-started
	time.Sleep(5 * time.Millisecond) // let the queries reach the engine
	srv.cancelQueries()              // the drain-deadline straggler cancel

	sawCancelled := false
	for i := 0; i < 2; i++ {
		switch code := <-results; code {
		case http.StatusServiceUnavailable:
			sawCancelled = true
		case http.StatusOK:
			// Finished before the cancel landed — legal.
		case -1:
			// Transport error during the shutdown race — legal too; the
			// engine-drain assertion below is the real invariant.
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !sawCancelled {
		t.Log("both queries finished before the straggler cancel (slow machine?)")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.eng.BlocksInUse() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.eng.BlocksInUse(); n != base {
		t.Fatalf("%d blocks in use after straggler cancel, want %d", n, base)
	}
}

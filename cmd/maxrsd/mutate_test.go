package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxrs"
)

// invCSV is a heavy cluster near the origin plus one light outlier: the
// optimum is pinned at the cluster, so far-away mutations are provably
// irrelevant to cached results.
const invCSV = `1,1,10
2,1,10
1,2,10
100,100,1
`

func insertObjects(t *testing.T, ts *httptest.Server, name, body string) insertResponse {
	t.Helper()
	resp, b := do(t, http.MethodPost, ts.URL+"/v1/datasets/"+name+"/insert", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d body %s", resp.StatusCode, b)
	}
	var ir insertResponse
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatalf("insert response %s: %v", b, err)
	}
	return ir
}

// TestMutationEndpoints drives the insert/delete HTTP surface end to
// end: an insert shows up in the next query's optimum, an unknown-id
// delete fails atomically with a not_found envelope, and deleting the
// inserted object restores the original answer.
func TestMutationEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "mut", invCSV)

	code, qr := query(t, ts, `{"dataset":"mut","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK {
		t.Fatalf("initial query: status %d", code)
	}
	origScore := qr.Results[0].Score

	// A new heavy cluster far away becomes the optimum.
	ir := insertObjects(t, ts, "mut", `{"objects":[
		{"x":50,"y":50,"w":20},{"x":51,"y":50,"w":20},{"x":50,"y":51,"w":20}]}`)
	if len(ir.IDs) != 3 || ir.Pending != 3 {
		t.Fatalf("insert response %+v, want 3 ids pending 3", ir)
	}
	code, qr = query(t, ts, `{"dataset":"mut","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || qr.Cached {
		t.Fatalf("post-insert query: status %d cached %v, want fresh 200", code, qr.Cached)
	}
	if got := qr.Results[0]; got.Score != 60 || got.Location.X < 49 || got.Location.X > 52 {
		t.Fatalf("post-insert optimum %+v, want the new cluster at score 60", got)
	}

	// Unknown id: 404 envelope, nothing deleted.
	resp, b := do(t, http.MethodPost, ts.URL+"/v1/datasets/mut/delete", `{"ids":[999]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown id: status %d body %s, want 404", resp.StatusCode, b)
	}
	var env struct {
		Error errorJSON `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != codeNotFound || env.Error.Retryable {
		t.Fatalf("delete unknown id body %s: want code %q, not retryable", b, codeNotFound)
	}

	// Deleting the inserted cluster restores the original optimum.
	resp, b = do(t, http.MethodPost, ts.URL+"/v1/datasets/mut/delete",
		`{"ids":[`+uintList(ir.IDs)+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d body %s", resp.StatusCode, b)
	}
	var dr deleteResponse
	if err := json.Unmarshal(b, &dr); err != nil || dr.Removed != 3 {
		t.Fatalf("delete response %s: want removed 3", b)
	}
	code, qr = query(t, ts, `{"dataset":"mut","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || qr.Results[0].Score != origScore {
		t.Fatalf("post-delete query: status %d score %v, want original %v",
			code, qr.Results[0].Score, origScore)
	}

	// Empty bodies are rejected up front.
	for _, c := range []struct{ path, body string }{
		{"insert", `{"objects":[]}`},
		{"delete", `{"ids":[]}`},
	} {
		resp, _ := do(t, http.MethodPost, ts.URL+"/v1/datasets/mut/"+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with empty body: status %d, want 400", c.path, resp.StatusCode)
		}
	}
	// Mutating a missing dataset is not_found.
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/datasets/nope/insert",
		`{"objects":[{"x":1,"y":1,"w":1}]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("insert into missing dataset: status %d, want 404", resp.StatusCode)
	}
}

func uintList(ids []uint64) string {
	b, _ := json.Marshal(ids)
	return string(b[1 : len(b)-1])
}

// TestCacheFenceAndPromotion pins the cache's mutation behavior: the
// sequence fence is the only freshness rule. After a mutation a cached
// entry is never served — the next query computes fresh and re-puts, the
// one after hits — and a donor solved at the new sequence takes over its
// family even when an older donor covers more, so containment reuse
// resumes right away.
func TestCacheFenceAndPromotion(t *testing.T) {
	srv, ts := newTestServer(t)
	putDataset(t, ts, "inv", invCSV)

	// Warm: a MaxRS and an exhausted TopK(3) donor (the data runs dry
	// after two rounds).
	for _, q := range []string{
		`{"dataset":"inv","op":"maxrs","w":4,"h":4}`,
		`{"dataset":"inv","op":"topk","w":6,"h":6,"k":3}`,
	} {
		if code, _ := query(t, ts, q); code != http.StatusOK {
			t.Fatalf("warm query: status %d", code)
		}
	}
	if _, _, _, size := srv.cache.stats(); size != 2 {
		t.Fatalf("cache size %d after warmup, want 2", size)
	}

	// A far light insert: nothing cached is served any more.
	insertObjects(t, ts, "inv", `{"objects":[{"x":500,"y":500,"w":1}]}`)
	code, qr := query(t, ts, `{"dataset":"inv","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || qr.Cached {
		t.Fatalf("post-mutation query: status %d cached %v, want fresh", code, qr.Cached)
	}
	if code, qr = query(t, ts, `{"dataset":"inv","op":"maxrs","w":4,"h":4}`); code != http.StatusOK || !qr.Cached {
		t.Fatalf("repeat query: status %d cached %v, want cache hit", code, qr.Cached)
	}

	// TopK(2) at the new sequence is fresh (the TopK(3) donor is stale)
	// and becomes the family's donor although it covers less ...
	code, qr = query(t, ts, `{"dataset":"inv","op":"topk","w":6,"h":6,"k":2}`)
	if code != http.StatusOK || qr.Cached || qr.Reused {
		t.Fatalf("post-mutation topk: status %d cached %v reused %v, want fresh", code, qr.Cached, qr.Reused)
	}
	// ... so MaxRS at the same size is answered from it.
	code, qr = query(t, ts, `{"dataset":"inv","op":"maxrs","w":6,"h":6}`)
	if code != http.StatusOK || !qr.Cached || !qr.Reused {
		t.Fatalf("maxrs after fresh donor: status %d cached %v reused %v, want a reuse hit", code, qr.Cached, qr.Reused)
	}

	// The post-mutation MaxRS was answered by the engine's combined
	// base+delta path; the counter is exported.
	resp, b := do(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st struct {
		DeltaHits uint64 `json:"delta_hits"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("stats body %s: %v", b, err)
	}
	if st.DeltaHits == 0 {
		t.Fatalf("delta_hits = 0 after combined-path queries, want > 0 (body %s)", b)
	}
	// Dataset listing exposes the delta counters.
	resp, b = do(t, http.MethodGet, ts.URL+"/v1/datasets", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list datasets: status %d", resp.StatusCode)
	}
	var dl struct {
		Datasets []struct {
			Name      string `json:"name"`
			Pending   int    `json:"pending"`
			Mutations uint64 `json:"mutations"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(b, &dl); err != nil || len(dl.Datasets) != 1 {
		t.Fatalf("datasets body %s: %v", b, err)
	}
	if d := dl.Datasets[0]; d.Pending != 1 || d.Mutations != 1 {
		t.Fatalf("dataset info %+v, want pending 1 mutations 1", d)
	}
}

// TestQueuedMutationCancelled: a mutation cancelled while it waits for a
// worker slot (shutdown's straggler cancel) answers like a cancelled
// queued query — 503 unavailable, retryable — not 500 internal.
func TestQueuedMutationCancelled(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 1, 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	putDataset(t, ts, "q", invCSV)

	srv.sem <- struct{}{} // hold the only worker slot
	defer srv.release()
	type reply struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/datasets/q/insert", "application/json",
			strings.NewReader(`{"objects":[{"x":9,"y":9,"w":1}]}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, b, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mutation never queued")
		}
		time.Sleep(time.Millisecond)
	}
	srv.cancelQueries()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	var env struct {
		Error errorJSON `json:"error"`
	}
	if err := json.Unmarshal(got.body, &env); err != nil {
		t.Fatalf("body %s: %v", got.body, err)
	}
	if got.status != http.StatusServiceUnavailable || env.Error.Code != codeUnavailable || !env.Error.Retryable {
		t.Fatalf("cancelled queued mutation: status %d body %s, want 503 %q retryable", got.status, got.body, codeUnavailable)
	}
	if entry, _ := srv.lookup("q"); entry.ds.Pending() != 0 {
		t.Fatalf("cancelled mutation applied: %d pending", entry.ds.Pending())
	}
}

// TestBackgroundCompaction checks the compactor goroutine: once a
// dataset's pending-mutation count reaches the threshold, a tick folds
// the delta into the base off the query path, and queries keep
// answering the post-mutation dataset.
func TestBackgroundCompaction(t *testing.T) {
	srv, ts := newTestServer(t)
	defer srv.stopBackground()
	putDataset(t, ts, "bg", invCSV)
	srv.startCompactor(3, 5*time.Millisecond)

	insertObjects(t, ts, "bg", `{"objects":[
		{"x":50,"y":50,"w":20},{"x":51,"y":50,"w":20},{"x":50,"y":51,"w":20}]}`)
	entry, ok := srv.lookup("bg")
	if !ok {
		t.Fatal("dataset bg not registered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for entry.ds.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending still %d, background compaction never ran", entry.ds.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := entry.ds.Compactions(); c == 0 {
		t.Fatal("Compactions() = 0 after background compaction")
	}
	code, qr := query(t, ts, `{"dataset":"bg","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || qr.Results[0].Score != 60 {
		t.Fatalf("query after compaction: status %d results %+v, want score 60", code, qr.Results)
	}
}

// TestV1Routing checks the path versioning: the /v1/ routes serve, and
// the pre-/v1/ paths and /healthz, removed after their one release as
// aliases, answer 404.
func TestV1Routing(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	query := `{"dataset":"demo","op":"maxrs","w":4,"h":4}`
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/livez", "", http.StatusOK},
		{http.MethodGet, "/v1/stats", "", http.StatusOK},
		{http.MethodGet, "/v1/datasets", "", http.StatusOK},
		{http.MethodPost, "/v1/query", query, http.StatusOK},
		{http.MethodGet, "/livez", "", http.StatusNotFound},
		{http.MethodGet, "/healthz", "", http.StatusNotFound},
		{http.MethodGet, "/stats", "", http.StatusNotFound},
		{http.MethodGet, "/datasets", "", http.StatusNotFound},
		{http.MethodPost, "/query", query, http.StatusNotFound},
		{http.MethodPut, "/datasets/demo", testCSV, http.StatusNotFound},
		{http.MethodPost, "/shard/solve", "{}", http.StatusNotFound},
	} {
		resp, b := do(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d (body %s)", c.method, c.path, resp.StatusCode, c.want, b)
		}
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestSemanticReuse: a cached TopK(k') answers MaxRS and TopK(k ≤ k') of
// the same (dataset, w, h) without touching the engine, and the reuse
// hits are counted apart from exact cache hits.
func TestSemanticReuse(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	// Seed with TopK(3). Only two disjoint placements have positive
	// score, so the donor ran the dataset dry — it covers every k.
	code, seed := query(t, ts, `{"dataset":"demo","op":"topk","w":4,"h":4,"k":3}`)
	if code != http.StatusOK || len(seed.Results) != 2 {
		t.Fatalf("seed topk: status %d results %d, want 200/2", code, len(seed.Results))
	}
	if seed.Cached || seed.Reused {
		t.Fatal("seed query must execute, not hit the cache")
	}

	// MaxRS of the same rectangle is the donor's first round.
	code, qr := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || !qr.Reused {
		t.Fatalf("maxrs after topk: status %d reused %v, want containment hit", code, qr.Reused)
	}
	if qr.Op != "maxrs" || qr.Dataset != "demo" {
		t.Fatalf("reused response not adapted: op %q dataset %q", qr.Op, qr.Dataset)
	}
	if len(qr.Results) != 1 || qr.Results[0].Score != 7 {
		t.Fatalf("reused maxrs results = %+v, want one result with score 7", qr.Results)
	}

	// A smaller TopK is a prefix of the donor.
	if _, qr := query(t, ts, `{"dataset":"demo","op":"topk","w":4,"h":4,"k":1}`); !qr.Reused || len(qr.Results) != 1 {
		t.Fatalf("topk k=1 after k=3: reused %v results %d, want prefix hit", qr.Reused, len(qr.Results))
	}

	// A larger k still hits: the donor is exhausted, its list is complete.
	if _, qr := query(t, ts, `{"dataset":"demo","op":"topk","w":4,"h":4,"k":5}`); !qr.Reused || len(qr.Results) != 2 {
		t.Fatalf("topk k=5 after exhausted k=3: reused %v results %d, want full hit", qr.Reused, len(qr.Results))
	}

	// A different rectangle is a different family — no reuse.
	if _, qr := query(t, ts, `{"dataset":"demo","op":"maxrs","w":2,"h":2}`); qr.Reused {
		t.Fatal("different (w,h) must not reuse")
	}

	// Reuse hits are observable apart from exact hits.
	resp, body := do(t, http.MethodGet, ts.URL+"/v1/datasets", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list datasets: %d", resp.StatusCode)
	}
	var listing datasetListResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Cache.ReuseHits != 3 {
		t.Fatalf("cache reuse hits = %d, want 3", listing.Cache.ReuseHits)
	}
	if listing.Cache.Hits != 0 {
		t.Fatalf("exact hits = %d, want 0 (all hits above were containment)", listing.Cache.Hits)
	}
}

// TestNoReuseAcrossGenerations: replacing a dataset under the same name
// bumps its generation; cached results of the old generation must serve
// neither exact nor containment hits.
func TestNoReuseAcrossGenerations(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)
	if code, qr := query(t, ts, `{"dataset":"demo","op":"topk","w":4,"h":4,"k":3}`); code != http.StatusOK || len(qr.Results) != 2 {
		t.Fatalf("seed topk failed: %d", code)
	}

	putDataset(t, ts, "demo", testCSV) // same bytes, new generation
	code, qr := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Cached || qr.Reused {
		t.Fatalf("cached %v reused %v: results must never cross a dataset reload", qr.Cached, qr.Reused)
	}
}

// TestExplainEndpoint: ?explain=1 returns the plan, predicted cost,
// dataset statistics and candidate table without executing the query.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)

	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query?explain=1",
		`{"dataset":"demo","op":"maxrs","w":4,"h":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, body)
	}
	var ex explainResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Algorithm == "" {
		t.Fatalf("explain plan has no algorithm: %+v", ex.Plan)
	}
	if ex.Stats.N != 4 {
		t.Fatalf("explain stats N = %d, want 4", ex.Stats.N)
	}
	if len(ex.Candidates) == 0 {
		t.Fatal("explain returned no candidates")
	}
	chosen := 0
	for _, c := range ex.Candidates {
		if c.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("candidate table marks %d rows chosen, want 1", chosen)
	}

	// Explain must not execute: the following real query is a cache miss.
	if _, qr := query(t, ts, `{"dataset":"demo","op":"maxrs","w":4,"h":4}`); qr.Cached || qr.Reused {
		t.Fatal("explain must not populate the result cache")
	}

	// Only the rectangle ops are explainable.
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/query?explain=1",
		`{"dataset":"demo","op":"maxcrs","diameter":4}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explain maxcrs: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/query?explain=1",
		`{"dataset":"gone","op":"maxrs","w":4,"h":4}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain unknown dataset: status %d, want 404", resp.StatusCode)
	}
}

// TestFallbackReasonReported: a sharded request on a negative-weight
// dataset shards, answers like the unsharded dataset and carries no
// fallback reason; a maxcrs query on the same sharded dataset runs
// unsharded, and the JSON says why instead of silently dropping the
// shards.
func TestFallbackReasonReported(t *testing.T) {
	_, ts := newTestServer(t)
	const csv = "1,1,2\n2,2,-1\n3,3,4\n"
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/neg?shards=2", csv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	putDataset(t, ts, "ref", csv)
	_, want := query(t, ts, `{"dataset":"ref","op":"maxrs","w":4,"h":4}`)
	code, qr := query(t, ts, `{"dataset":"neg","op":"maxrs","w":4,"h":4}`)
	if code != http.StatusOK || len(qr.Results) != 1 || len(want.Results) != 1 {
		t.Fatalf("status %d results %+v", code, qr.Results)
	}
	r := qr.Results[0]
	if r.FallbackReason != "" {
		t.Fatalf("sharded request on negative weights carries fallback reason %q", r.FallbackReason)
	}
	if len(r.Shards) != 2 || r.Plan == nil || r.Plan.Shards != 2 {
		t.Fatalf("shards %+v, plan %+v; want 2-way sharded", r.Shards, r.Plan)
	}
	if r.Score != want.Results[0].Score {
		t.Fatalf("sharded score %g, unsharded %g", r.Score, want.Results[0].Score)
	}

	code, qr = query(t, ts, `{"dataset":"neg","op":"maxcrs","diameter":4}`)
	if code != http.StatusOK || len(qr.Results) != 1 {
		t.Fatalf("maxcrs: status %d results %+v", code, qr.Results)
	}
	if r := qr.Results[0]; r.FallbackReason == "" || len(r.Shards) != 0 {
		t.Fatalf("maxcrs on a sharded dataset: reason %q, shards %+v; want a reason and none", r.FallbackReason, r.Shards)
	}
}

// TestPutReturnsStats: PUT /datasets/{name} answers with the load-time
// statistics the planner will use.
func TestPutReturnsStats(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/datasets/demo", testCSV)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	var info datasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Stats == nil {
		t.Fatal("PUT response has no stats")
	}
	st := info.Stats
	if st.N != 4 || st.MinX != 1 || st.MaxX != 90 || st.MinW != 1 || st.MaxW != 5 {
		t.Fatalf("stats = %+v, want N=4 extent [1,90] weights [1,5]", st)
	}
	if st.Blocks <= 0 || st.Bytes <= 0 {
		t.Fatalf("stats sizes = blocks %d bytes %d, want positive", st.Blocks, st.Bytes)
	}
}

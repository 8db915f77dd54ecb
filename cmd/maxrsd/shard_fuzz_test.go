package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"maxrs"
	"maxrs/internal/dist"
)

// FuzzShardSolve sends arbitrary bodies to POST /v1/shard/solve, with no
// checksum header, a valid one or a wrong one. The worker must answer
// 200 with a checksummed reply that decodes, 400 for a malformed shard,
// or 503 for in-flight damage — never 500 — and free every block the
// shard solve took.
func FuzzShardSolve(f *testing.F) {
	seeds := []string{
		`{"w":2,"h":2,"objects":[{"x":1,"y":1,"w":1},{"x":2,"y":2,"w":5},{"x":90,"y":90,"w":2}]}`,
		`{"w":1,"h":1,"objects":[]}`,
		`{"w":1,"h":1}`,
		`{"w":0,"h":1,"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":-3,"h":-1,"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":1e308,"h":1e308,"objects":[{"x":1.7e308,"y":-1.7e308,"w":1},{"x":-1.7e308,"y":1.7e308,"w":2}]}`,
		`{"w":1,"h":1,"objects":[{"x":0,"y":0,"w":-1},{"x":0,"y":0,"w":-1e308},{"x":0,"y":0,"w":-1e308}]}`,
		`{"w":1,"h":1,"objects":[{"x":1e400,"y":0,"w":1}]}`,
		`{"w":"1"}`,
		`[]`,
		``,
		`{`,
	}
	for _, s := range seeds {
		for mode := byte(0); mode < 3; mode++ {
			f.Add([]byte(s), mode)
		}
	}
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	h := newServer(eng, 1, 0).handler()
	f.Fuzz(func(t *testing.T, body []byte, mode byte) {
		req := httptest.NewRequest(http.MethodPost, dist.PathSolve, bytes.NewReader(body))
		switch mode % 3 {
		case 1:
			req.Header.Set(dist.ChecksumHeader, dist.Checksum(body))
		case 2:
			req.Header.Set(dist.ChecksumHeader, dist.Checksum(append(body, 'x')))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if got, want := rec.Header().Get(dist.ChecksumHeader), dist.Checksum(rec.Body.Bytes()); got != want {
				t.Fatalf("reply checksum %q, body's %q (body %q)", got, want, rec.Body.Bytes())
			}
			var reply dist.SolveReply
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 reply does not decode: %v (body %q)", err, rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q (mode %d): %s", rec.Code, body, mode%3, rec.Body.Bytes())
		}
		if n := eng.BlocksInUse(); n != 0 {
			t.Fatalf("%d blocks in use after %q", n, body)
		}
	})
}

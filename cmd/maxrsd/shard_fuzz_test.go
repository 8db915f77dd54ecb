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
// 200 with a checksummed reply that decodes and echoes the request's
// slab, 400 for a malformed shard — a missing, NaN, inverted or empty
// slab included — or 503 for a body that fails its checksum; never 500.
// It must free every block the shard solve took.
func FuzzShardSolve(f *testing.F) {
	seeds := []string{
		`{"w":2,"h":2,"slab":{"lo":"-Inf","hi":"+Inf"},"objects":[{"x":1,"y":1,"w":1},{"x":2,"y":2,"w":5},{"x":90,"y":90,"w":2}]}`,
		`{"w":2,"h":2,"slab":{"lo":1.5,"hi":3},"objects":[{"x":1,"y":1,"w":1},{"x":2,"y":2,"w":-5},{"x":90,"y":90,"w":2}]}`,
		`{"w":50,"h":50,"slab":{"lo":1,"hi":2},"objects":[{"x":1,"y":1,"w":-1},{"x":2,"y":2,"w":-5}]}`,
		`{"w":1,"h":1,"slab":{"lo":"-Inf","hi":0},"objects":[]}`,
		`{"w":2,"h":2,"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":"NaN","hi":5},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":0,"hi":"NaN"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":5,"hi":1},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":2,"hi":2},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":"+Inf","hi":"+Inf"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":"-Inf","hi":"-Inf"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":"+Inf","hi":"-Inf"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":{"lo":"Inf?"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":2,"h":2,"slab":[0,1],"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":1,"h":1,"slab":{"lo":"-Inf","hi":"+Inf"}}`,
		`{"w":0,"h":1,"slab":{"lo":"-Inf","hi":"+Inf"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":-3,"h":-1,"slab":{"lo":"-Inf","hi":"+Inf"},"objects":[{"x":1,"y":1,"w":1}]}`,
		`{"w":1e308,"h":1e308,"slab":{"lo":"-Inf","hi":"+Inf"},"objects":[{"x":1.7e308,"y":-1.7e308,"w":1},{"x":-1.7e308,"y":1.7e308,"w":2}]}`,
		`{"w":1,"h":1,"slab":{"lo":-1,"hi":1},"objects":[{"x":0,"y":0,"w":-1},{"x":0,"y":0,"w":-1e308},{"x":0,"y":0,"w":-1e308}]}`,
		`{"w":1,"h":1,"slab":{"lo":"-Inf","hi":"+Inf"},"objects":[{"x":1e400,"y":0,"w":1}]}`,
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
		switch {
		case rec.Code == http.StatusOK:
			if got, want := rec.Header().Get(dist.ChecksumHeader), dist.Checksum(rec.Body.Bytes()); got != want {
				t.Fatalf("reply checksum %q, body's %q (body %q)", got, want, rec.Body.Bytes())
			}
			var reply dist.SolveReply
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 reply does not decode: %v (body %q)", err, rec.Body.Bytes())
			}
			var sent dist.SolveRequest
			if err := json.Unmarshal(body, &sent); err != nil || reply.Slab != sent.Slab {
				t.Fatalf("reply slab %v does not echo the request's (body %q)", reply.Slab.Interval(), body)
			}
			if slab := sent.Slab.Interval(); !(slab.Lo < slab.Hi) {
				t.Fatalf("empty slab %v solved (body %q)", slab, body)
			}
		case rec.Code == http.StatusBadRequest:
		case rec.Code == http.StatusServiceUnavailable && mode%3 == 2:
		default:
			t.Fatalf("status %d for %q (mode %d): %s", rec.Code, body, mode%3, rec.Body.Bytes())
		}
		if n := eng.BlocksInUse(); n != 0 {
			t.Fatalf("%d blocks in use after %q", n, body)
		}
	})
}

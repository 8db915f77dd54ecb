package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"maxrs"
)

// TestQueryNonFiniteAnswer: a dataset of only negative weights has an
// unbounded optimal region of score 0. The query must answer 200, not
// 500: the region's infinite edges spelled as dist.Float strings, and
// the location, a finite point of the region, as plain numbers.
func TestQueryNonFiniteAnswer(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "neg", "1,1,-1\n2,2,-5\n")
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/query", `{"dataset":"neg","op":"maxrs","w":1,"h":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("answer does not decode: %v (body %s)", err, body)
	}
	r := qr.Results[0]
	if r.Score != 0 {
		t.Fatalf("score %g, want 0", r.Score)
	}
	x, y := float64(r.Location.X), float64(r.Location.Y)
	if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) ||
		!bytes.Contains(body, []byte(`"location":{"x":0.`)) {
		t.Fatalf("location (%g, %g) is not finite or not spelled as numbers: %s", x, y, body)
	}
	if r.Region == nil || !math.IsInf(float64(r.Region.MinX), -1) || !bytes.Contains(body, []byte(`"min_x":"-Inf"`)) {
		t.Fatalf("region min_x is not the string -Inf: %s", body)
	}
}

// TestWriteJSONErrorEnvelope: a value JSON cannot encode is answered 500
// in the uniform error envelope.
func TestWriteJSONErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	checkEnvelope(t, rec.Body.Bytes(), codeInternal)
}

// checkEnvelope fails unless body is the uniform error envelope, with
// code want if want is not empty.
func checkEnvelope(t *testing.T, body []byte, want string) {
	t.Helper()
	var env struct {
		Error *errorJSON `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("not the error envelope (%v): %s", err, body)
	}
	if want != "" && env.Error.Code != want {
		t.Fatalf("code %q, want %q: %s", env.Error.Code, want, body)
	}
}

// FuzzQuery sends arbitrary bodies to POST /v1/query against a small
// dataset of mixed-sign weights. No answer may be a 5xx, every non-2xx
// must be the uniform error envelope, and no query may leave a block
// behind.
func FuzzQuery(f *testing.F) {
	seeds := []string{
		`{"dataset":"mix","op":"maxrs","w":1,"h":1}`,
		`{"dataset":"mix","op":"maxrs","w":3,"h":2}`,
		`{"dataset":"mix","op":"topk","w":2,"h":2,"k":3}`,
		`{"dataset":"mix","op":"topk","w":2,"h":2,"k":0}`,
		`{"dataset":"mix","op":"maxcrs","diameter":4}`,
		`{"dataset":"mix","op":"maxcrs","diameter":-1}`,
		`{"dataset":"mix","op":"maxrs","w":1e308,"h":1e308}`,
		`{"dataset":"mix","op":"maxrs","w":5e-324,"h":1}`,
		`{"dataset":"mix","op":"maxrs","w":0,"h":1}`,
		`{"dataset":"mix","op":"nope","w":1,"h":1}`,
		`{"dataset":"gone","op":"maxrs","w":1,"h":1}`,
		`{"dataset":"mix","op":"maxrs","w":"1"}`,
		`[]`,
		``,
		`{`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	eng, err := maxrs.NewEngine(&maxrs.Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	h := newServer(eng, 1, 0).handler()
	put := httptest.NewRequest(http.MethodPut, "/v1/datasets/mix", strings.NewReader("1,1,-1\n2,2,-5\n3,3,4\n4,3,2\n10,10,-2\n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusCreated {
		f.Fatalf("put dataset: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	base := eng.BlocksInUse()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		case rec.Code >= 300:
			checkEnvelope(t, rec.Body.Bytes(), "")
		default:
			var qr queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				t.Fatalf("%d answer does not decode: %v (body %s)", rec.Code, err, rec.Body.Bytes())
			}
		}
		if n := eng.BlocksInUse(); n != base {
			t.Fatalf("%d blocks in use after %q, want the dataset's %d", n, body, base)
		}
	})
}

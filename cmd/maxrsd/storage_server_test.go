package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"maxrs"
)

// TestStatsExposesStorageAndFaults pins the /v1/stats surface added with
// the storage subsystem: the pipeline, fault/retry, and physical-storage
// counter blocks, on an engine running the delta codec.
func TestStatsExposesStorageAndFaults(t *testing.T) {
	eng, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize: 512, Memory: 8192,
		Codec: maxrs.CodecDelta,
		Retry: maxrs.RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := newServer(eng, 4, 16)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	putDataset(t, ts, "demo", testCSV)
	if code, _ := query(t, ts, `{"dataset":"demo","op":"maxrs","w":3,"h":3}`); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	if st.Storage.Codec != "delta" || st.Storage.Backend != "mem" {
		t.Fatalf("storage block = %+v, want delta on mem", st.Storage)
	}
	if !st.Storage.Measured {
		t.Fatal("delta engine must measure physical bytes")
	}
	if st.Storage.PhysWriteBytes == 0 || st.Storage.BlocksCompressed+st.Storage.BlocksRaw == 0 {
		t.Fatalf("no physical traffic recorded: %+v", st.Storage)
	}
	if st.Faults != (faultStatsJSON{}) {
		t.Fatalf("fault-free run reported faults: %+v", st.Faults)
	}

	// The datasets listing carries the same physical-storage block.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/datasets", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var dl datasetListResponse
	if err := json.Unmarshal(body, &dl); err != nil {
		t.Fatalf("bad datasets %s: %v", body, err)
	}
	if dl.Storage != st.Storage {
		t.Fatalf("datasets storage block %+v != stats %+v", dl.Storage, st.Storage)
	}
}

// TestStatsDefaultStorageDerived checks the default in-memory engine
// reports the fixed layout with derived (unmeasured) physical bytes.
func TestStatsDefaultStorageDerived(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts, "demo", testCSV)
	_, body := do(t, http.MethodGet, ts.URL+"/v1/stats", "")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Storage.Backend != "mem" || st.Storage.Codec != "none" || st.Storage.Measured {
		t.Fatalf("default storage block = %+v", st.Storage)
	}
	// Derived counters still track the fixed layout: transfers × B.
	if st.Storage.PhysWriteBytes != st.Writes*512 {
		t.Fatalf("derived phys write bytes %d != writes %d × 512", st.Storage.PhysWriteBytes, st.Writes)
	}
}

package dist

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
)

// echoServer answers PathSolve with a fixed, checksummed reply — enough
// surface for the transport and coordinator tests, with a call counter
// for attempt assertions.
func echoServer(t *testing.T, reply SolveReply) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if _, err := DecodeRequest(r); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = WriteReply(w, reply)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func solveBody(t *testing.T) ([]byte, string) {
	t.Helper()
	body, sum, err := EncodeRequest(SolveRequest{
		W: 2, H: 2,
		Objects: []geom.Object{{Point: geom.Point{X: 1, Y: 1}, W: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, sum
}

// TestTransportExactSchedule pins the exact-At injection semantics:
// scheduled calls fire their fault regardless of interleaving, and each
// class damages the call the way its storage twin damages a block.
func TestTransportExactSchedule(t *testing.T) {
	want := SolveReply{Sum: 7, Region: geom.Rect{X: geom.Interval{Lo: 0, Hi: 2}, Y: geom.Interval{Lo: 0, Hi: 2}}}
	ts, _ := echoServer(t, want)
	tr := NewTransport(nil, FaultPlan{At: []FaultAt{
		{Call: 1, Kind: FaultConn},
		{Call: 2, Kind: FaultCorrupt},
		{Call: 3, Kind: FaultDisconnect},
	}})
	client := &http.Client{Transport: tr}
	body, sum := solveBody(t)
	post := func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+PathSolve, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ChecksumHeader, sum)
		return client.Do(req)
	}

	// Call 1: connection fault — the request never reaches the worker,
	// and the error is typed transient (errors.As sees through the
	// client's url.Error wrapping).
	if _, err := post(); err == nil || !em.IsTransient(err) {
		t.Fatalf("call 1: err = %v, want a transient connection fault", err)
	}

	// Call 2: corrupt — the body arrives whole but damaged, and the
	// checksum (computed by the worker over clean bytes) exposes it.
	resp, err := post()
	if err != nil {
		t.Fatalf("call 2: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("call 2 read: %v", err)
	}
	if _, derr := decodeReply(resp.Header, b); derr == nil || !em.IsTransient(derr) {
		t.Fatalf("call 2: decodeReply err = %v, want a transient checksum failure", derr)
	}

	// Call 3: mid-stream disconnect — half the body, then a broken read.
	resp, err = post()
	if err != nil {
		t.Fatalf("call 3: %v", err)
	}
	_, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatal("call 3: full body read despite injected disconnect")
	}

	// Call 4: unscheduled — clean end to end.
	resp, err = post()
	if err != nil {
		t.Fatalf("call 4: %v", err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	got, derr := decodeReply(resp.Header, b)
	if derr != nil || got != want {
		t.Fatalf("call 4: reply %+v err %v, want the clean %+v", got, derr, want)
	}

	st := tr.Stats()
	if st.Calls != 4 || st.InjectedConn != 1 || st.InjectedCorrupt != 1 || st.InjectedDisconnect != 1 {
		t.Fatalf("stats %+v, want 4 calls with one fault of each scheduled kind", st)
	}
}

// TestTransportSeedDeterminism: two transports with the same plan fire
// the identical fault sequence over the same call count — the property
// that makes chaos runs reproducible.
func TestTransportSeedDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 99, ConnRate: 0.3, DisconnectRate: 0.2, CorruptRate: 0.1}
	run := func() FaultStats {
		tr := NewTransport(nil, plan)
		for i := 0; i < 200; i++ {
			tr.decide()
		}
		return tr.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.InjectedConn == 0 || a.InjectedDisconnect == 0 || a.InjectedCorrupt == 0 {
		t.Fatalf("stats %+v: 200 draws at these rates must fire every class", a)
	}
	if got := a.InjectedConn + a.InjectedDisconnect + a.InjectedCorrupt; got > 150 {
		t.Fatalf("%d faults fired out of 200 at a 0.6 cumulative rate — bands overlap?", got)
	}
}

// TestMembershipProbeAndOrder covers the membership table: registration
// defaults, deterministic name-sorted ready order (the shard-assignment
// contract), probe promotion/demotion, and re-registration resets.
func TestMembershipProbeAndOrder(t *testing.T) {
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathReady {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(ready.Close)

	m := NewMembership(nil)
	if m.Add("", "") {
		t.Fatal("added a worker with no URL")
	}
	if !m.Add("b", ready.URL+"/") || !m.Add("a", ready.URL) {
		t.Fatal("registration failed")
	}
	names := func(ws []WorkerInfo) []string {
		out := make([]string, len(ws))
		for i, w := range ws {
			out[i] = w.Name
		}
		return out
	}
	if got := names(m.Ready()); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("ready order %v, want name-sorted [a b]", got)
	}
	if w := m.List()[0]; strings.HasSuffix(w.URL, "/") {
		t.Fatalf("URL %q kept its trailing slash", w.URL)
	}

	// A failed call sequence demotes; a successful probe promotes again.
	m.MarkFailed("a")
	if got := names(m.Ready()); len(got) != 1 || got[0] != "b" {
		t.Fatalf("ready after MarkFailed = %v, want [b]", got)
	}
	m.ProbeAll(context.Background())
	if got := names(m.Ready()); len(got) != 2 {
		t.Fatalf("ready after probe = %v, want both promoted", got)
	}

	// A dead worker is demoted by probing, and re-registration resets it.
	if !m.Add("c", "http://127.0.0.1:1") {
		t.Fatal("registration failed")
	}
	m.ProbeAll(context.Background())
	for _, w := range m.List() {
		if w.Name == "c" && (w.Ready || w.Failures == 0) {
			t.Fatalf("dead worker after probe: %+v, want demoted with failures", w)
		}
	}
	if !m.Add("c", "http://127.0.0.1:1") {
		t.Fatal("re-registration failed")
	}
	for _, w := range m.List() {
		if w.Name == "c" && (!w.Ready || w.Failures != 0) {
			t.Fatalf("re-registered worker: %+v, want reset to ready", w)
		}
	}
	if !m.Remove("c") || m.Remove("c") {
		t.Fatal("remove should succeed once then report absence")
	}
}

// TestCoordinatorHonorsRetryAfter: a worker that sheds with 429 +
// Retry-After is retried no sooner than it asked, and the shard still
// lands. The coordinator must wait max(backoff, Retry-After) — a 429'd
// worker hammered on the backoff schedule anyway defeats shedding.
func TestCoordinatorHonorsRetryAfter(t *testing.T) {
	want := SolveReply{Sum: 5, Region: geom.Rect{X: geom.Interval{Lo: 0, Hi: 1}, Y: geom.Interval{Lo: 0, Hi: 1}}}
	var calls atomic.Int64
	var firstCall, secondCall atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstCall.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "saturated", http.StatusTooManyRequests)
		default:
			secondCall.Store(time.Now().UnixNano())
			if _, err := DecodeRequest(r); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_ = WriteReply(w, want)
		}
	}))
	t.Cleanup(ts.Close)

	m := NewMembership(nil)
	m.Add("w", ts.URL)
	c := NewCoordinator(m, Config{Retry: em.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}})
	results, reports, err := c.Solve(context.Background(), []ShardJob{{Index: 0, Req: SolveRequest{W: 1, H: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != want.Result() {
		t.Fatalf("result %+v, want %+v", results[0], want.Result())
	}
	if reports[0].Attempts != 2 {
		t.Fatalf("%d attempts, want 2 (shed once, then served)", reports[0].Attempts)
	}
	if gap := time.Duration(secondCall.Load() - firstCall.Load()); gap < time.Second {
		t.Fatalf("retried after %v, sooner than the worker's Retry-After of 1s", gap)
	}
}

// TestCoordinatorPermanentErrorNoRetry: a permanent worker error (a
// plain 4xx) must not burn the retry budget, and without a fallback it
// surfaces as a typed ErrShardUnavailable naming the worker.
func TestCoordinatorPermanentErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "bad shard", http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)
	m := NewMembership(nil)
	m.Add("w", ts.URL)
	c := NewCoordinator(m, Config{Retry: em.RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond}})
	_, reports, err := c.Solve(context.Background(), []ShardJob{{Index: 0, Req: SolveRequest{W: 1, H: 1}}})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d calls for a permanent error, want 1", n)
	}
	if reports[0].Worker != "w" || reports[0].Err == nil {
		t.Fatalf("report %+v, want worker attribution and a terminal error", reports[0])
	}
	// The exhausted worker is demoted until the next successful probe.
	if len(m.Ready()) != 0 {
		t.Fatal("failed worker still listed ready")
	}
}

// TestCoordinatorFallbackAfterExhaustion: when every network attempt
// fails transiently, the local halo-replica fallback answers and the
// report says so.
func TestCoordinatorFallbackAfterExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	m := NewMembership(nil)
	m.Add("w", ts.URL)
	c := NewCoordinator(m, Config{Retry: em.RetryPolicy{MaxRetries: 1, BaseDelay: time.Millisecond}})
	local := sweep.Result{Sum: 9, Region: geom.Rect{X: geom.Interval{Lo: 1, Hi: 2}, Y: geom.Interval{Lo: 1, Hi: 2}}}
	results, reports, err := c.Solve(context.Background(), []ShardJob{{
		Index:    0,
		Req:      SolveRequest{W: 1, H: 1},
		Fallback: func(context.Context) (sweep.Result, error) { return local, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != local {
		t.Fatalf("result %+v, want the fallback's %+v", results[0], local)
	}
	if !reports[0].FellBack || reports[0].Attempts != 2 {
		t.Fatalf("report %+v, want FellBack after 2 attempts", reports[0])
	}
}

// TestCoordinatorHedgeBudget: the hedge budget caps duplicates across a
// whole Solve — with budget 1 and two straggling shards, exactly one
// hedge launches.
func TestCoordinatorHedgeBudget(t *testing.T) {
	reply := SolveReply{Sum: 1, Region: geom.Rect{X: geom.Interval{Lo: 0, Hi: 1}, Y: geom.Interval{Lo: 0, Hi: 1}}}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := DecodeRequest(r); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-time.After(250 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		_ = WriteReply(w, reply)
	}))
	t.Cleanup(slow.Close)
	fast, fastCalls := echoServer(t, reply)

	m := NewMembership(nil)
	m.Add("slow", slow.URL)
	m.Add("fast", fast.URL)
	c := NewCoordinator(m, Config{
		Retry: em.RetryPolicy{MaxRetries: 0},
		Hedge: HedgePolicy{Delay: 10 * time.Millisecond, Max: 1},
	})
	// Both shards route to the slow primary (index parity picks
	// ready[(i)%2]: "fast" sorts first, "slow" second).
	jobs := []ShardJob{
		{Index: 1, Req: SolveRequest{W: 1, H: 1}}, // ready[1] = slow
		{Index: 3, Req: SolveRequest{W: 1, H: 1}}, // ready[1] = slow
	}
	_, reports, err := c.Solve(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	hedgedCount := 0
	for _, r := range reports {
		if r.Hedged {
			hedgedCount++
		}
	}
	if hedgedCount != 1 {
		t.Fatalf("%d shards hedged with a budget of 1, want exactly 1", hedgedCount)
	}
	if n := fastCalls.Load(); n != 1 {
		t.Fatalf("fast worker saw %d calls, want exactly the 1 hedge", n)
	}
}

// TestCoordinatorNoWorkers: an empty membership fails fast and typed.
func TestCoordinatorNoWorkers(t *testing.T) {
	c := NewCoordinator(NewMembership(nil), Config{})
	if _, _, err := c.Solve(context.Background(), []ShardJob{{Index: 0}}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestWireChecksumRoundTrip: encode → decode round-trips, and one
// flipped byte is caught on both directions of the protocol.
func TestWireChecksumRoundTrip(t *testing.T) {
	req := SolveRequest{W: 3, H: 4, Objects: []geom.Object{{Point: geom.Point{X: 5, Y: 6}, W: 7}}}
	body, sum, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost, PathSolve, strings.NewReader(string(body)))
	hreq.Header.Set(ChecksumHeader, sum)
	got, err := DecodeRequest(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != req.W || got.H != req.H || len(got.Objects) != 1 || got.Objects[0] != req.Objects[0] {
		t.Fatalf("round trip %+v, want %+v", got, req)
	}

	damaged := append([]byte(nil), body...)
	damaged[0] ^= 0xA5
	hreq, _ = http.NewRequest(http.MethodPost, PathSolve, strings.NewReader(string(damaged)))
	hreq.Header.Set(ChecksumHeader, sum)
	if _, err := DecodeRequest(hreq); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("damaged request: err = %v, want ErrBadChecksum", err)
	}

	reply := SolveReply{Sum: 8}
	rbody, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Header{}
	h.Set(ChecksumHeader, Checksum(rbody))
	if got, err := decodeReply(h, rbody); err != nil || got.Sum != reply.Sum {
		t.Fatalf("clean reply: %+v, %v", got, err)
	}
	rbody[0] ^= 0xA5
	if _, err := decodeReply(h, rbody); err == nil || !em.IsTransient(err) {
		t.Fatalf("damaged reply: err = %v, want transient", err)
	}
}

// TestReplyCarriesNonFiniteFloats: a shard whose optimum is unbounded, or
// whose sum overflowed, still has a reply. ±Inf and NaN cross the wire
// and come back bit for bit, and finite values keep their plain JSON
// number form.
func TestReplyCarriesNonFiniteFloats(t *testing.T) {
	inf := math.Inf(1)
	reply := SolveReply{
		Sum:    math.NaN(),
		Region: geom.Rect{X: geom.Interval{Lo: -inf, Hi: 2.5}, Y: geom.Interval{Lo: -0.5, Hi: inf}},
		Slab:   SlabOf(geom.Interval{Lo: -inf, Hi: 2.5}),
		Reads:  3,
		Writes: 4,
	}
	body, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"sum":"NaN","region":{"X":{"Lo":"-Inf","Hi":2.5},"Y":{"Lo":-0.5,"Hi":"+Inf"}},"slab":{"lo":"-Inf","hi":2.5},"reads":3,"writes":4}`
	if string(body) != want {
		t.Fatalf("wire form %s, want %s", body, want)
	}
	got, err := decodeReply(http.Header{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Sum) || got.Region != reply.Region || got.Slab != reply.Slab || got.Reads != 3 || got.Writes != 4 {
		t.Fatalf("round trip %+v, want %+v", got, reply)
	}
	if _, err := decodeReply(http.Header{}, []byte(`{"sum":"7"}`)); err == nil {
		t.Fatal(`"7" decoded as a sum; only +Inf, -Inf and NaN travel as strings`)
	}
}

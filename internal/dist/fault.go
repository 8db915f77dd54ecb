package dist

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"maxrs/internal/em"
)

// ErrNetFault marks a worker call that failed at the network layer —
// injected or real. Transient network faults additionally satisfy
// em.IsTransient, so one classifier spans storage and network.
var ErrNetFault = errors.New("dist: network fault")

// markTransient marks a network fault retryable under the shared
// storage/network classifier.
func markTransient(err error) error { return em.MarkTransient(err) }

// FaultKind is a class of injected network fault.
type FaultKind int

// Network fault classes, mirroring em.FaultKind at the network layer.
const (
	// FaultConn fails the call before the request reaches the worker
	// (connection refused/reset). Transient: a retry may connect.
	FaultConn FaultKind = iota
	// FaultDisconnect drops the connection mid-stream: the response
	// status and headers arrive, the body breaks off halfway. Transient.
	FaultDisconnect
	// FaultCorrupt flips one byte of the response body in flight. The
	// checksum header (computed by the worker over the clean bytes)
	// exposes the damage; without verification it would be a silent
	// wrong answer — the network twin of storage FaultCorrupt.
	FaultCorrupt
	// FaultLatency delays the call by FaultPlan.Latency, then performs
	// it normally — a straggler, not an error. The hedging layer's prey.
	FaultLatency
)

// FaultAt schedules one fault at an exact call index, counted from the
// moment the transport is installed: Call == 1 targets the first
// request attempt that reaches the transport (retries and hedges count
// as their own calls). Exact schedules are reproducible regardless of
// goroutine interleaving.
type FaultAt struct {
	Call uint64 // 1-based request-attempt index
	Kind FaultKind
}

// FaultPlan configures deterministic network-fault injection on a
// Transport, mirroring em.FaultPlan and run on the same em.FaultSchedule:
// exact per-call schedules (At) compose with seed-driven per-call rates,
// the n-th call not claimed by At taking the fault whose cumulative rate
// band the keyed draw (Seed, n) lands in. Whether the n-th call faults is
// a pure function of the plan; which shard's call is the n-th depends on
// interleaving. A zero plan injects nothing.
type FaultPlan struct {
	// Seed seeds the rate-driven draws (used only when a rate is > 0).
	Seed int64
	// ConnRate / DisconnectRate / CorruptRate are per-call fault
	// probabilities of the corresponding kind.
	ConnRate       float64
	DisconnectRate float64
	CorruptRate    float64
	// LatencyRate is the per-call probability of a latency spike of
	// Latency.
	LatencyRate float64
	Latency     time.Duration
	// At schedules faults at exact call indices, taking precedence over
	// the rates for those calls.
	At []FaultAt
}

// Injects reports whether the plan can ever fire a fault.
func (p FaultPlan) Injects() bool {
	return len(p.At) > 0 || p.ConnRate > 0 || p.DisconnectRate > 0 ||
		p.CorruptRate > 0 || p.LatencyRate > 0
}

// FaultStats counts the calls a Transport carried and the faults it
// fired, by kind.
type FaultStats struct {
	Calls              uint64
	InjectedConn       uint64
	InjectedDisconnect uint64
	InjectedCorrupt    uint64
	InjectedLatency    uint64
}

// Transport is an instrumented http.RoundTripper injecting network
// faults per a FaultPlan — the chaos hook under the coordinator's retry
// and hedging layers, so every failure path is exactly testable. A
// Transport with a zero plan forwards calls untouched (it still counts
// them).
type Transport struct {
	inner   http.RoundTripper
	latency time.Duration
	sched   *em.FaultSchedule[FaultKind] // one op: the call
}

// NewTransport wraps inner (nil = http.DefaultTransport) with fault
// injection per plan.
func NewTransport(inner http.RoundTripper, plan FaultPlan) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	sched := em.NewFaultSchedule(plan.Seed, []em.FaultBand[FaultKind]{
		{Kind: FaultConn, Rate: plan.ConnRate},
		{Kind: FaultDisconnect, Rate: plan.DisconnectRate},
		{Kind: FaultCorrupt, Rate: plan.CorruptRate},
		{Kind: FaultLatency, Rate: plan.LatencyRate},
	})
	for _, at := range plan.At {
		sched.Pin(0, at.Call, at.Kind)
	}
	return &Transport{inner: inner, latency: plan.Latency, sched: sched}
}

// decide counts one call and returns the fault to inject for it (-1 =
// none).
func (t *Transport) decide() FaultKind { return t.sched.Fire(0, t.sched.Attempt(0)) }

// Stats snapshots the transport's call and fired-fault counters.
func (t *Transport) Stats() FaultStats {
	s := t.sched
	return FaultStats{
		Calls:              s.Attempts(0),
		InjectedConn:       s.Fired(FaultConn),
		InjectedDisconnect: s.Fired(FaultDisconnect),
		InjectedCorrupt:    s.Fired(FaultCorrupt),
		InjectedLatency:    s.Fired(FaultLatency),
	}
}

// corruptByte is XORed into the first body byte of a corrupted reply —
// the same deterministic damage the storage injector applies to blocks.
const corruptByte = 0xA5

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.decide() {
	case FaultConn:
		return nil, markTransient(fmt.Errorf("%w: injected connection fault (%s %s)",
			ErrNetFault, req.Method, req.URL.Path))
	case FaultLatency:
		timer := time.NewTimer(t.latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	case FaultDisconnect:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		damageBody(resp, func(body []byte) []byte {
			// Deliver the first half, then break the stream.
			return body[:len(body)/2]
		}, markTransient(fmt.Errorf("%w: injected mid-stream disconnect", ErrNetFault)))
		return resp, nil
	case FaultCorrupt:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		damageBody(resp, func(body []byte) []byte {
			if len(body) > 0 {
				body[0] ^= corruptByte
			}
			return body
		}, nil)
		return resp, nil
	}
	return t.inner.RoundTrip(req)
}

// damageBody replaces resp.Body with a reader delivering damage(body),
// then failing with tail (nil = clean EOF). The original body is fully
// read and closed; headers — including the checksum computed over the
// clean bytes — are left untouched, which is exactly what makes the
// corruption detectable.
func damageBody(resp *http.Response, damage func([]byte) []byte, tail error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// The real stream already broke; keep that failure.
		resp.Body = &faultyBody{data: nil, err: err}
		return
	}
	resp.Body = &faultyBody{data: damage(body), err: tail}
}

// faultyBody serves data, then returns err (io.EOF when nil).
type faultyBody struct {
	data []byte
	err  error
}

func (b *faultyBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		if b.err != nil {
			return 0, b.err
		}
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *faultyBody) Close() error { return nil }

package dist

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
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
// Transport, mirroring em.FaultPlan: exact per-call schedules (At)
// compose with seed-driven per-call rates, each undecided call drawing
// once from a rand.Rand seeded with Seed and subdivided into cumulative
// bands. A zero plan injects nothing.
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
	inner http.RoundTripper
	plan  FaultPlan

	mu    sync.Mutex
	rng   *rand.Rand
	calls uint64
	at    map[uint64]FaultKind

	injConn       uint64
	injDisconnect uint64
	injCorrupt    uint64
	injLatency    uint64
}

// NewTransport wraps inner (nil = http.DefaultTransport) with fault
// injection per plan.
func NewTransport(inner http.RoundTripper, plan FaultPlan) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	t := &Transport{inner: inner, plan: plan, at: make(map[uint64]FaultKind)}
	if plan.ConnRate > 0 || plan.DisconnectRate > 0 || plan.CorruptRate > 0 || plan.LatencyRate > 0 {
		t.rng = rand.New(rand.NewSource(plan.Seed))
	}
	for _, at := range plan.At {
		t.at[at.Call] = at.Kind
	}
	return t
}

// noFault is the sentinel "inject nothing" decision.
const noFault FaultKind = -1

// decide advances the call counter and returns the fault to inject for
// this attempt, mirroring the em injector's decide: exact schedule first,
// then a single uniform draw subdivided into cumulative rate bands.
func (t *Transport) decide() FaultKind {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	k, ok := t.at[t.calls]
	if !ok {
		k = t.draw()
	}
	switch k {
	case FaultConn:
		t.injConn++
	case FaultDisconnect:
		t.injDisconnect++
	case FaultCorrupt:
		t.injCorrupt++
	case FaultLatency:
		t.injLatency++
	}
	return k
}

func (t *Transport) draw() FaultKind {
	if t.rng == nil {
		return noFault
	}
	r := t.rng.Float64()
	p := t.plan
	switch {
	case r < p.ConnRate:
		return FaultConn
	case r < p.ConnRate+p.DisconnectRate:
		return FaultDisconnect
	case r < p.ConnRate+p.DisconnectRate+p.CorruptRate:
		return FaultCorrupt
	case r < p.ConnRate+p.DisconnectRate+p.CorruptRate+p.LatencyRate:
		return FaultLatency
	}
	return noFault
}

// Stats snapshots the transport's call and fired-fault counters.
func (t *Transport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FaultStats{
		Calls:              t.calls,
		InjectedConn:       t.injConn,
		InjectedDisconnect: t.injDisconnect,
		InjectedCorrupt:    t.injCorrupt,
		InjectedLatency:    t.injLatency,
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
		timer := time.NewTimer(t.plan.Latency)
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

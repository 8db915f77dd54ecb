package maxrs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"maxrs/internal/core"
	"maxrs/internal/dist"
	"maxrs/internal/em"
	"maxrs/internal/shard"
	"maxrs/internal/sweep"
)

// Typed distributed-execution errors (internal/dist's sentinels
// re-exported, so errors.Is classifies across the API boundary).
var (
	// ErrShardUnavailable marks a distributed query that lost a shard
	// for good: retries, hedging, and (when enabled) the local
	// halo-replica fallback were all exhausted. The query's Result still
	// carries per-worker attribution in ShardStats — the coordinator
	// fails typed, never with a silently partial answer.
	ErrShardUnavailable = dist.ErrShardUnavailable
	// ErrNoWorkers means a distributed query found no ready workers. By
	// default the engine degrades to the in-process sharded path instead
	// of surfacing it; it appears when local fallback is disabled.
	ErrNoWorkers = dist.ErrNoWorkers
)

// WorkerAddr names one worker maxrsd instance for DistOptions.Workers.
type WorkerAddr struct {
	// Name identifies the worker in attribution and stats; defaults to
	// URL when empty.
	Name string
	// URL is the worker's base URL, e.g. "http://10.0.0.7:8080".
	URL string
}

// WorkerStatus is one entry of the engine's membership table.
type WorkerStatus struct {
	Name  string
	URL   string
	Ready bool
	// Failures counts consecutive failed probes or exhausted call
	// sequences since the last success.
	Failures int
}

// HedgePolicy budgets duplicate requests for straggler shards
// (DESIGN.md §13): a shard call unanswered after Delay is duplicated to
// the next ready worker, first success wins, and the loser is cancelled
// through the standard query-cancellation contract.
type HedgePolicy struct {
	// Delay is how long a shard call may remain unanswered before it is
	// hedged. 0 disables hedging.
	Delay time.Duration
	// Max bounds the hedged duplicates per query (0 = 1), so a query
	// over many straggling shards cannot double the cluster's load.
	Max int
}

// DistOptions configures the engine's distributed execution mode
// (Options.Dist): sharded queries are fanned out over worker maxrsd
// instances instead of solving every shard in process. Planning,
// routing, and the exact K-way merge are the same code the in-process
// path runs, so a no-fault distributed solve is bit-identical to
// Options.Shards; the options below configure what happens when the
// network is not fault-free.
type DistOptions struct {
	// Workers statically registers the initial membership. More can be
	// added at runtime with Engine.RegisterWorker (or maxrsd's
	// /cluster/workers endpoint).
	Workers []WorkerAddr
	// Retry caps per-shard worker-call retries with the same jittered
	// capped-exponential backoff the storage layer uses; Retry-After
	// from shed workers is honored when it exceeds the backoff. The
	// zero value never retries.
	Retry RetryPolicy
	// Hedge budgets straggler duplicates. The zero value never hedges.
	Hedge HedgePolicy
	// ProbeInterval starts a background prober hitting every worker's
	// /readyz at this interval. 0 disables it; readiness then changes
	// only through registration, call failures, and Engine.ProbeWorkers.
	ProbeInterval time.Duration
	// DisableLocalFallback turns off graceful degradation: by default a
	// shard whose every network path is exhausted is solved locally from
	// its halo-replicated partition file (bit-identical — the replica is
	// the exact byte stream the worker was sent), and a query that finds
	// no ready workers at all runs the plain in-process sharded path
	// with Result.FallbackReason set. With the fallback disabled those
	// queries fail typed instead: ErrShardUnavailable / ErrNoWorkers.
	DisableLocalFallback bool
	// Transport is the base HTTP transport for worker calls (nil =
	// http.DefaultTransport). The NetFaults injector wraps it.
	Transport http.RoundTripper
	// NetFaults arms deterministic network-fault injection on every
	// worker call — the chaos hook for tests and drills, mirroring
	// Engine.InjectFaults at the network layer. The zero plan injects
	// nothing.
	NetFaults NetFaultPlan
}

// NetFaultKind is a class of injected network fault (DESIGN.md §13).
type NetFaultKind int

// Network fault classes.
const (
	// NetFaultConn fails the call before it reaches the worker
	// (connection refused/reset); transient, the retry layer recovers.
	NetFaultConn NetFaultKind = iota
	// NetFaultDisconnect breaks the connection mid-response: status and
	// headers arrive, the body truncates halfway. Transient.
	NetFaultDisconnect
	// NetFaultCorrupt flips one byte of the response body in flight;
	// the reply checksum exposes it and the call is retried.
	NetFaultCorrupt
	// NetFaultLatency delays the call by NetFaultPlan.Latency, then
	// performs it normally — a straggler, the hedging layer's target.
	NetFaultLatency
)

// NetFaultAt schedules one fault at an exact call index, counted from
// engine creation: Call == 1 targets the first worker call (retries and
// hedges count as their own calls).
type NetFaultAt struct {
	Call uint64 // 1-based worker-call index
	Kind NetFaultKind
}

// NetFaultPlan configures deterministic network-fault injection on the
// engine's worker calls, mirroring FaultPlan one layer up and decided
// the same way: exact per-call schedules (At) compose with seed-driven
// per-call rates, whether the n-th call faults being a keyed draw on
// (Seed, n). Fault counts thus reproduce at any parallelism; which
// shard's call is the n-th does not. A zero plan injects nothing, and
// an armed plan that fires nothing leaves distributed results
// bit-identical.
type NetFaultPlan struct {
	// Seed seeds the rate-driven draws (used only when a rate is > 0).
	Seed int64
	// ConnRate / DisconnectRate / CorruptRate are per-call fault
	// probabilities by kind.
	ConnRate       float64
	DisconnectRate float64
	CorruptRate    float64
	// LatencyRate is the per-call probability of a latency spike of
	// Latency.
	LatencyRate float64
	Latency     time.Duration
	// At schedules faults at exact call indices, taking precedence over
	// the rates for those calls.
	At []NetFaultAt
}

func (p NetFaultPlan) dist() dist.FaultPlan {
	out := dist.FaultPlan{
		Seed:           p.Seed,
		ConnRate:       p.ConnRate,
		DisconnectRate: p.DisconnectRate,
		CorruptRate:    p.CorruptRate,
		LatencyRate:    p.LatencyRate,
		Latency:        p.Latency,
	}
	for _, at := range p.At {
		out.At = append(out.At, dist.FaultAt{Call: at.Call, Kind: dist.FaultKind(at.Kind)})
	}
	return out
}

// NetFaultStats counts the engine's worker calls and the network faults
// its injector fired, by kind. Zero when the engine is not distributed.
type NetFaultStats struct {
	Calls              uint64
	InjectedConn       uint64
	InjectedDisconnect uint64
	InjectedCorrupt    uint64
	InjectedLatency    uint64
}

// RegisterWorker adds (or re-registers) a worker in the engine's
// membership table; it starts ready and is demoted by failed probes or
// exhausted call sequences. Returns false when the engine is not
// distributed (Options.Dist unset) or url is empty.
func (e *Engine) RegisterWorker(name, url string) bool {
	if e.coord == nil {
		return false
	}
	return e.coord.Members().Add(name, url)
}

// RemoveWorker drops a worker from the membership table, reporting
// whether it was present.
func (e *Engine) RemoveWorker(name string) bool {
	if e.coord == nil {
		return false
	}
	return e.coord.Members().Remove(name)
}

// Workers snapshots the membership table in registration order (empty
// when the engine is not distributed).
func (e *Engine) Workers() []WorkerStatus {
	if e.coord == nil {
		return nil
	}
	list := e.coord.Members().List()
	out := make([]WorkerStatus, len(list))
	for i, w := range list {
		out[i] = WorkerStatus{Name: w.Name, URL: w.URL, Ready: w.Ready, Failures: w.Failures}
	}
	return out
}

// ProbeWorkers probes every registered worker's /readyz once, updating
// the membership table — the synchronous form of the background prober,
// for tests and admin endpoints. No-op when the engine is not
// distributed.
func (e *Engine) ProbeWorkers(ctx context.Context) {
	if e.coord == nil {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.coord.Members().ProbeAll(ctx)
}

// noWorkers handles a distributed query that found no ready worker:
// graceful degradation to the in-process solve (noted in the
// FallbackReason), or ErrNoWorkers when the local fallback is disabled.
func (q *query) noWorkers() error {
	if q.e.opts.Dist.DisableLocalFallback {
		return ErrNoWorkers
	}
	q.noteFallback("no ready workers; distributed query solved in process")
	return nil
}

// fanOut ships each routed partition to the engine's workers over POST
// /shard/solve and returns the coordinator's per-shard answers and
// attribution reports. The partition files stay alive until the query
// ends: they are the halo replicas that make resends, hedges, and the
// per-shard local fallback (Partition.Solve) possible.
func (q *query) fanOut(parts []*shard.Partition, w, h float64, cfg core.Config) ([]sweep.Result, []dist.ShardReport, error) {
	jobs := make([]dist.ShardJob, len(parts))
	for i, p := range parts {
		objs, err := p.ReadObjects(q.ctx)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = dist.ShardJob{
			Index: i,
			Req:   dist.SolveRequest{W: w, H: h, Slab: dist.SlabOf(p.Slab()), Objects: objs},
		}
		if !q.e.opts.Dist.DisableLocalFallback {
			jobs[i].Fallback = func(ctx context.Context) (sweep.Result, error) {
				return p.Solve(ctx, w, h, cfg)
			}
		}
	}
	return q.e.coord.Solve(q.ctx, jobs)
}

// SolveShard answers one shard shipped by a coordinator — the worker half
// of POST /v1/shard/solve (DESIGN.md §13). It loads req's objects onto
// the engine's disk as a transient dataset and solves ExactMaxRS over the
// centers of req's slab through the same core entry point as the
// coordinator's local halo-replica fallback, so the reply is
// bit-identical to the coordinator solving the same partition itself.
// The reply echoes the slab and reports the solve's transfers. A request
// with an invalid query size or an empty slab (a missing, NaN or
// inverted one) fails with ErrInvalidQuery. The dataset is released on
// every path.
func (e *Engine) SolveShard(ctx context.Context, req dist.SolveRequest) (_ dist.SolveReply, err error) {
	if err := checkQuery(req.W, req.H); err != nil {
		return dist.SolveReply{}, err
	}
	slab := req.Slab.Interval()
	if !(slab.Lo < slab.Hi) {
		return dist.SolveReply{}, fmt.Errorf("%w: shard slab [%g, %g) is empty", ErrInvalidQuery, slab.Lo, slab.Hi)
	}
	objs := make([]Object, len(req.Objects))
	for i, o := range req.Objects {
		objs[i] = Object{X: o.X, Y: o.Y, Weight: o.W}
	}
	d, err := e.Load(ctx, objs)
	if err != nil {
		return dist.SolveReply{}, err
	}
	defer func() { err = errors.Join(err, d.Release()) }()
	sc := new(em.ScopeStats)
	res, err := e.solver.SolveObjectsInSlab(ctx, d.base.f, req.W, req.H, slab, sc)
	if err != nil {
		return dist.SolveReply{}, wrapCancel(err)
	}
	st := sc.Stats()
	return dist.SolveReply{Sum: res.Sum, Region: res.Region, Slab: req.Slab, Reads: st.Reads, Writes: st.Writes}, nil
}

// NetFaultStats returns the worker-call and injected-network-fault
// counters (zero when the engine is not distributed).
func (e *Engine) NetFaultStats() NetFaultStats {
	if e.netTransport == nil {
		return NetFaultStats{}
	}
	s := e.netTransport.Stats()
	return NetFaultStats{
		Calls:              s.Calls,
		InjectedConn:       s.InjectedConn,
		InjectedDisconnect: s.InjectedDisconnect,
		InjectedCorrupt:    s.InjectedCorrupt,
		InjectedLatency:    s.InjectedLatency,
	}
}

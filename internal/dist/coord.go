package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"maxrs/internal/conc"
	"maxrs/internal/em"
	"maxrs/internal/sweep"
)

// Typed terminal errors of the distributed path.
var (
	// ErrShardUnavailable marks a shard whose every recovery path —
	// retries, hedging, local halo-replica fallback — was exhausted.
	// The error message carries per-worker attribution; the coordinator
	// never substitutes a silently partial answer for it.
	ErrShardUnavailable = errors.New("dist: shard unavailable")
	// ErrNoWorkers means the membership table has no ready workers to
	// fan out to.
	ErrNoWorkers = errors.New("dist: no ready workers")
)

// HedgePolicy budgets duplicate calls for straggler shards. With a
// positive Delay, a shard call that has not answered within Delay is
// hedged: a duplicate request goes to the next ready worker, the first
// success wins, and the loser's context is cancelled.
type HedgePolicy struct {
	// Delay is how long a call may remain unanswered before it is
	// hedged. 0 disables hedging.
	Delay time.Duration
	// Max bounds the hedged duplicates per Solve (0 = 1): a budget, so
	// a query over many straggling shards cannot double the cluster's
	// load.
	Max int
}

// Config parameterizes a Coordinator.
type Config struct {
	// Client performs the solve calls. Wrap its transport in a fault
	// Transport to run chaos drills. nil uses http.DefaultClient.
	Client *http.Client
	// Retry caps per-shard worker-call retries, with the same jittered
	// capped-exponential backoff the storage layer uses (JitterSeed
	// decorrelates parallel shard loops: the draws are keyed by shard
	// index).
	Retry em.RetryPolicy
	// Hedge budgets straggler duplicates.
	Hedge HedgePolicy
}

// ShardJob is one shard of a fan-out: the self-contained request and an
// optional local fallback that solves the shard from its halo-replicated
// partition file when every network path is exhausted.
type ShardJob struct {
	// Index is the shard's position in slab order (attribution).
	Index int
	// Req carries the query and the shard's objects.
	Req SolveRequest
	// Fallback, when non-nil, solves the shard locally. Exactness: the
	// fallback reads the same halo-extended partition the worker was
	// sent, so its answer is bit-identical to the worker's.
	Fallback func(ctx context.Context) (sweep.Result, error)
}

// ShardReport attributes one shard's outcome to the workers involved.
type ShardReport struct {
	// Index is the shard's position in slab order.
	Index int
	// Worker names the worker that answered (or the last one tried).
	Worker string
	// Attempts counts the network calls made for the shard, hedges
	// included.
	Attempts int
	// Hedged reports whether a straggler duplicate was launched.
	Hedged bool
	// FellBack reports whether the shard was solved locally from its
	// halo replica after the network paths were exhausted.
	FellBack bool
	// Reads / Writes are the worker-reported I/O of the remote solve
	// (zero for fallback-solved and failed shards).
	Reads, Writes uint64
	// Err is the shard's terminal error (wrapping ErrShardUnavailable),
	// nil on every recovered path.
	Err error
}

// Coordinator fans shard solves out to the membership's ready workers
// with retries, hedging, and graceful degradation. One Coordinator is
// safe for concurrent Solves.
type Coordinator struct {
	cfg     Config
	members *Membership
}

// NewCoordinator builds a coordinator over a membership table.
func NewCoordinator(members *Membership, cfg Config) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	return &Coordinator{cfg: cfg, members: members}
}

// Members exposes the coordinator's membership table.
func (c *Coordinator) Members() *Membership { return c.members }

// Solve fans jobs out over the ready workers and returns the per-shard
// results in job order plus an attribution report per shard. Shard i's
// primary worker is ready[i mod len(ready)]; retries rotate to the next
// ready worker. Every job runs to completion (success, fallback, or
// typed failure) — the returned error joins the terminal failures, and
// the reports say exactly which worker failed how, so a caller never
// has to guess whether an answer is partial: if err != nil, the results
// slice is incomplete at exactly the reported shards.
func (c *Coordinator) Solve(ctx context.Context, jobs []ShardJob) ([]sweep.Result, []ShardReport, error) {
	ready := c.members.Ready()
	if len(ready) == 0 {
		return nil, nil, ErrNoWorkers
	}
	results := make([]sweep.Result, len(jobs))
	reports := make([]ShardReport, len(jobs))
	var hedges atomic.Int64
	max := int64(c.cfg.Hedge.Max)
	if max <= 0 {
		max = 1
	}
	hedges.Store(max)
	_ = conc.ForEachIndexed(len(jobs), len(jobs), func(i int) error {
		c.solveJob(ctx, jobs[i], ready, &hedges, &results[i], &reports[i])
		return nil
	})
	var errs []error
	for i := range reports {
		if reports[i].Err != nil {
			errs = append(errs, reports[i].Err)
		}
	}
	return results, reports, errors.Join(errs...)
}

// solveJob runs one shard to its terminal outcome: answered, hedged,
// failed over, or typed-unavailable. It never leaves the result slot
// ambiguous — rep.Err is nil exactly when res holds the shard's answer.
func (c *Coordinator) solveJob(ctx context.Context, job ShardJob, ready []WorkerInfo,
	hedges *atomic.Int64, res *sweep.Result, rep *ShardReport) {
	rep.Index = job.Index
	body, sum, err := EncodeRequest(job.Req)
	if err != nil {
		rep.Err = fmt.Errorf("shard %d: %w: %v", job.Index, ErrShardUnavailable, err)
		return
	}
	bo := c.cfg.Retry.Backoff(uint64(job.Index))
	var lastErr error
	// stale holds the workers that answered for another slab; the shard
	// is never sent to them again.
	stale := map[string]bool{}
	next := job.Index
	for try := 0; try <= c.cfg.Retry.MaxRetries; {
		for skipped := 0; skipped < len(ready) && stale[ready[next%len(ready)].Name]; skipped++ {
			next++
		}
		w := ready[next%len(ready)]
		if stale[w.Name] {
			break // every ready worker is stale
		}
		rep.Worker = w.Name
		reply, retryAfter, err := c.callWithHedge(ctx, w, ready, next, body, sum, hedges, rep)
		next++
		if err == nil && reply.Slab != job.Req.Slab {
			// The worker solved another slab — one from before slab-restricted
			// shards echoes none. Its answer is not this shard's, and it
			// would answer no retry differently; another worker may be
			// current.
			lastErr = fmt.Errorf("dist: worker %s answered for slab %v, not %v",
				rep.Worker, reply.Slab.Interval(), job.Req.Slab.Interval())
			stale[rep.Worker] = true
			c.members.MarkFailed(rep.Worker)
			continue
		}
		if err == nil {
			rep.Reads, rep.Writes = reply.Reads, reply.Writes
			*res = reply.Result()
			return
		}
		lastErr = err
		if ctx.Err() != nil || !em.IsTransient(err) {
			break
		}
		try++
		// Back off before the next worker, honoring the larger of the
		// worker's Retry-After and our own jittered schedule.
		delay := bo.Next()
		if retryAfter > delay {
			delay = retryAfter
		}
		if serr := em.SleepCtx(ctx, delay); serr != nil {
			lastErr = serr
			break
		}
	}
	c.members.MarkFailed(rep.Worker)
	if job.Fallback != nil && ctx.Err() == nil {
		if fres, ferr := job.Fallback(ctx); ferr == nil {
			rep.FellBack = true
			*res = fres
			return
		} else {
			lastErr = fmt.Errorf("%v; local fallback: %v", lastErr, ferr)
		}
	}
	rep.Err = fmt.Errorf("shard %d on worker %s after %d attempts: %w: %v",
		job.Index, rep.Worker, rep.Attempts, ErrShardUnavailable, lastErr)
}

// callWithHedge performs one logical call attempt with straggler
// hedging: if the primary has not answered within the hedge delay and
// the budget allows, a duplicate goes to the next ready worker; the
// first success cancels the other's context. Both calls failing fails
// the attempt with the primary's error.
func (c *Coordinator) callWithHedge(ctx context.Context, primary WorkerInfo, ready []WorkerInfo,
	idx int, body []byte, sum string, hedges *atomic.Int64, rep *ShardReport) (SolveReply, time.Duration, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		reply      SolveReply
		retryAfter time.Duration
		err        error
		worker     string
	}
	ch := make(chan outcome, 2)
	launched := 0
	launch := func(w WorkerInfo) {
		launched++
		rep.Attempts++
		go func() {
			reply, ra, err := c.call(cctx, w, body, sum)
			ch <- outcome{reply, ra, err, w.Name}
		}()
	}
	launch(primary)
	var hedgeC <-chan time.Time
	if c.cfg.Hedge.Delay > 0 && len(ready) > 1 {
		timer := time.NewTimer(c.cfg.Hedge.Delay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var firstErr *outcome
	failed := 0
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				rep.Worker = out.worker
				return out.reply, 0, nil
			}
			failed++
			if firstErr == nil {
				o := out
				firstErr = &o
			}
			if failed == launched {
				// Every launched call has failed (the goroutines send
				// exactly once into a buffered channel, so none leaks).
				return SolveReply{}, firstErr.retryAfter, firstErr.err
			}
		case <-hedgeC:
			hedgeC = nil
			if hedges.Add(-1) >= 0 {
				rep.Hedged = true
				launch(ready[(idx+1)%len(ready)])
			} else {
				hedges.Add(1) // budget spent; put the reservation back
			}
		}
	}
}

// call performs one POST /shard/solve against one worker, classifying
// the outcome: transport errors, shed/overload statuses (429/503), 5xx,
// mid-read disconnects, and checksum mismatches are transient (wrapped
// for em.IsTransient); other 4xx statuses are permanent. Retry-After is
// parsed from shed responses so the coordinator backs off as the worker
// asked.
func (c *Coordinator) call(ctx context.Context, w WorkerInfo, body []byte, sum string) (SolveReply, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+PathSolve, bytes.NewReader(body))
	if err != nil {
		return SolveReply{}, 0, fmt.Errorf("dist: build request for %s: %w", w.Name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ChecksumHeader, sum)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return SolveReply{}, 0, ctx.Err()
		}
		if !em.IsTransient(err) {
			err = markTransient(fmt.Errorf("%w: %s: %v", ErrNetFault, w.Name, err))
		}
		return SolveReply{}, 0, err
	}
	defer resp.Body.Close()
	rbody, rerr := readBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		herr := fmt.Errorf("%w: worker %s returned HTTP %d: %s",
			ErrNetFault, w.Name, resp.StatusCode, firstLine(rbody))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return SolveReply{}, retryAfterOf(resp.Header), markTransient(herr)
		}
		return SolveReply{}, 0, herr
	}
	if rerr != nil {
		if ctx.Err() != nil {
			return SolveReply{}, 0, ctx.Err()
		}
		if !em.IsTransient(rerr) {
			rerr = markTransient(fmt.Errorf("%w: %s: read reply: %v", ErrNetFault, w.Name, rerr))
		}
		return SolveReply{}, 0, rerr
	}
	return replyOrErr(decodeReply(resp.Header, rbody))
}

func replyOrErr(reply SolveReply, err error) (SolveReply, time.Duration, error) {
	return reply, 0, err
}

// retryAfterOf parses an integer-seconds Retry-After header (the only
// form maxrsd emits); absent or unparsable yields 0.
func retryAfterOf(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// firstLine truncates an error body for attribution messages.
func firstLine(body []byte) string {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[:i]
	}
	const max = 120
	if len(body) > max {
		body = body[:max]
	}
	return string(body)
}

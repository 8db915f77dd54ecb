package em

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Storage fault errors. Every error surfaced by a fault — injected or
// real — wraps one of these, so consumers at any layer can classify with
// errors.Is instead of matching message text.
var (
	// ErrIOFault marks a read or write transfer that failed at the
	// storage layer (a transient fault that exhausted its retries, or a
	// permanent one).
	ErrIOFault = errors.New("em: storage I/O fault")
	// ErrBlockCorrupt marks a block whose content failed checksum
	// verification (a torn write, bit rot, or injected corruption) and
	// could not be recovered by rereading.
	ErrBlockCorrupt = errors.New("em: block corrupt")
)

// transientErr marks a fault as transient: retrying the same transfer may
// succeed. Only injected transient faults and checksum mismatches are
// retried; everything else (permanent faults, real backend errors,
// programming errors) fails fast.
type transientErr struct{ err error }

func (t *transientErr) Error() string { return t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// IsTransient reports whether err is a retryable storage fault.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}

// MarkTransient wraps err so IsTransient reports it retryable, keeping
// errors.Is/As visibility into err. Other layers (the distributed
// coordinator's network faults) use it so one classifier spans storage
// and network faults. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err}
}

// retryable reports whether the retry loop should attempt the transfer
// again: transient faults (the fault may clear) and checksum mismatches
// (the corruption may have happened in flight, a reread sees clean data).
func retryable(err error) bool {
	return IsTransient(err) || errors.Is(err, ErrBlockCorrupt)
}

// RetryPolicy caps how transient faults and checksum mismatches are
// retried by a Disk's block transfers. The zero value never retries.
// Backoff is exponential from BaseDelay, doubling per attempt and capped
// at MaxDelay (0 = uncapped); a zero BaseDelay retries immediately. With
// JitterSeed set the backoff is decorrelated-jittered instead (see the
// field), so parallel workers tripping over the same fault do not retry
// in lockstep. The policy changes no transfer when no fault fires: the
// counted schedule of a fault-free run is bit-identical with any policy,
// so enabling retries in production costs nothing on the I/O metric.
type RetryPolicy struct {
	// MaxRetries is the number of additional attempts after the first
	// failed transfer (0 = fail on the first fault).
	MaxRetries int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = no cap).
	MaxDelay time.Duration
	// JitterSeed, when non-zero, switches the backoff to seeded
	// decorrelated jitter: each retry sleeps a duration drawn uniformly
	// from [BaseDelay, min(3·previous, MaxDelay)], with the draws coming
	// from one rand.Rand seeded with JitterSeed per policy installation.
	// Deterministic under a fixed seed for a serial retry sequence (the
	// fault-matrix tests stay exact); under concurrency the interleaving
	// shuffles which loop draws which number, but every delay stays within
	// the same bounds — and concurrent loops no longer back off in
	// lockstep, which is the point. 0 keeps the plain doubling backoff.
	JitterSeed int64
}

// delay returns the non-jittered backoff before retry number attempt
// (0-based): BaseDelay doubling per attempt, capped at MaxDelay.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// JitterSource is the seeded random stream behind a policy's decorrelated
// jitter, shared by every retry loop on one Disk so that concurrent loops
// draw different numbers (sharing is what decorrelates them) while a
// serial sequence of retries stays a pure function of the seed.
type JitterSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func NewJitterSource(seed int64) *JitterSource {
	return &JitterSource{rng: rand.New(rand.NewSource(seed))}
}

func (j *JitterSource) float64() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}

// Backoff tracks one retry loop's delay state. Next returns the sleep
// before the loop's next retry: plain capped doubling without a jitter
// source, decorrelated jitter with one. Shared by the storage retry
// loops (Disk) and the distributed coordinator's worker-call retries.
type Backoff struct {
	p       RetryPolicy
	src     *JitterSource
	attempt int
	prev    time.Duration
}

// Backoff returns the delay state for one retry loop. src supplies the
// jitter draws and may be nil (or the policy's JitterSeed zero), in which
// case the loop keeps the deterministic doubling schedule.
func (p RetryPolicy) Backoff(src *JitterSource) Backoff {
	if p.JitterSeed == 0 {
		src = nil
	}
	return Backoff{p: p, src: src, prev: p.BaseDelay}
}

func (b *Backoff) Next() time.Duration {
	if b.p.BaseDelay <= 0 {
		return 0
	}
	if b.src == nil {
		d := b.p.delay(b.attempt)
		b.attempt++
		return d
	}
	// Decorrelated jitter: draw from [base, 3·prev], capped at MaxDelay.
	// Every delay is ≥ BaseDelay and ≤ max(BaseDelay, MaxDelay) — the
	// bounds the unit tests pin.
	hi := 3 * b.prev
	if b.p.MaxDelay > 0 && hi > b.p.MaxDelay {
		hi = b.p.MaxDelay
	}
	if hi < b.p.BaseDelay {
		hi = b.p.BaseDelay
	}
	d := b.p.BaseDelay + time.Duration(b.src.float64()*float64(hi-b.p.BaseDelay))
	b.prev = d
	return d
}

// sleepCtx sleeps for d, aborting early with the context's error once ctx
// is cancelled. A nil ctx never cancels.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FaultOp selects which transfer direction a scheduled fault targets.
type FaultOp int

// Fault operations.
const (
	// OpRead targets read transfers (disk → memory).
	OpRead FaultOp = iota
	// OpWrite targets write transfers (memory → disk).
	OpWrite
)

// FaultKind is a class of injected storage fault.
type FaultKind int

// Fault classes.
const (
	// FaultTransient fails the targeted transfer once with a retryable
	// error wrapping ErrIOFault; the next attempt succeeds.
	FaultTransient FaultKind = iota
	// FaultPermanent fails the targeted transfer with a non-retryable
	// error wrapping ErrIOFault and marks the block bad: every further
	// read or write of it fails too, until the block is freed (a realloc
	// models a remapped sector).
	FaultPermanent
	// FaultCorrupt delivers the targeted read with deterministically
	// flipped bits, once. With checksums enabled the mismatch is detected
	// and a retry rereads the clean stored data; without checksums the
	// corruption is silent — exactly the failure mode checksums exist for.
	FaultCorrupt
	// FaultTorn persists the targeted write with flipped bits (a torn
	// write). Every later read of the block fails checksum verification
	// until it is overwritten; with retries exhausted the reader surfaces
	// ErrBlockCorrupt.
	FaultTorn
	// FaultLatency delays the targeted transfer by FaultPlan.Latency and
	// then performs it normally — a latency spike, not an error.
	FaultLatency
)

// FaultAt schedules one fault at an exact transfer index, counted per
// direction from the moment the injector is installed: Transfer == 1
// targets the first read (OpRead) or first write (OpWrite) attempt that
// reaches the backend. Exact schedules are fully reproducible regardless
// of goroutine interleaving — "the k-th transfer" is well defined even
// when the k-th transfer's block depends on scheduling.
type FaultAt struct {
	Op       FaultOp
	Transfer uint64 // 1-based transfer-attempt index within Op
	Kind     FaultKind
}

// FaultPlan configures deterministic storage-fault injection on a Disk
// (Disk.InjectFaults). Faults come from two sources that compose:
//
//   - At: exact per-transfer schedules (FaultAt), reproducible bit-for-bit.
//   - Seed-driven rates: each transfer not claimed by At draws once from a
//     rand.Rand seeded with Seed; the cumulative rate bands decide the
//     fault. For a fixed serial transfer sequence the outcome is a pure
//     function of Seed; under concurrency the interleaving shuffles which
//     transfer draws which number, but the fault *rate* and the total
//     fault count distribution are reproducible.
//
// A zero plan injects nothing, and an installed injector that injects
// nothing leaves the counted transfer schedule bit-identical to an
// uninstrumented disk.
type FaultPlan struct {
	// Seed seeds the rate-driven draws. Used only when a rate is > 0.
	Seed int64
	// TransientReadRate / TransientWriteRate are per-transfer
	// probabilities of a retryable fault (FaultTransient).
	TransientReadRate  float64
	TransientWriteRate float64
	// CorruptReadRate is the per-read probability of one-shot corruption
	// (FaultCorrupt).
	CorruptReadRate float64
	// LatencyRate is the per-transfer probability of a latency spike of
	// Latency (FaultLatency).
	LatencyRate float64
	Latency     time.Duration
	// At schedules faults at exact transfer indices, taking precedence
	// over the rates for those transfers.
	At []FaultAt
}

// injects reports whether the plan can ever fire a fault.
func (p FaultPlan) injects() bool {
	return len(p.At) > 0 || p.TransientReadRate > 0 || p.TransientWriteRate > 0 ||
		p.CorruptReadRate > 0 || p.LatencyRate > 0
}

// FaultStats counts fault-handling activity on a Disk since the injector
// (and the disk's own retry/checksum counters) last reset. Retries and
// checksum failures are counted by the Disk itself and appear whether or
// not an injector is installed — a real backend error is retried exactly
// like an injected one.
type FaultStats struct {
	// ReadRetries / WriteRetries count retry attempts performed by the
	// retry policy (not the initial attempts).
	ReadRetries  uint64
	WriteRetries uint64
	// ChecksumFailures counts reads whose content failed CRC32C
	// verification (each failed attempt counts once).
	ChecksumFailures uint64
	// Injected* count faults the injector actually fired, by kind.
	InjectedTransient uint64
	InjectedPermanent uint64
	InjectedCorrupt   uint64
	InjectedTorn      uint64
	InjectedLatency   uint64
}

// faultBackend wraps a backend and injects faults per a FaultPlan. The
// scheduling state (transfer counters, rng, bad-block set) is mutex-
// guarded; the wrapped transfer itself runs outside the lock, so injection
// adds no serialization to concurrent clean transfers beyond the counter
// bump.
type faultBackend struct {
	inner backend
	plan  FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	reads   uint64
	writes  uint64
	readAt  map[uint64]FaultKind
	writeAt map[uint64]FaultKind
	bad     map[BlockID]struct{}

	injTransient uint64
	injPermanent uint64
	injCorrupt   uint64
	injTorn      uint64
	injLatency   uint64
}

func newFaultBackend(inner backend, plan FaultPlan) *faultBackend {
	fb := &faultBackend{
		inner:   inner,
		plan:    plan,
		readAt:  make(map[uint64]FaultKind),
		writeAt: make(map[uint64]FaultKind),
		bad:     make(map[BlockID]struct{}),
	}
	if plan.TransientReadRate > 0 || plan.TransientWriteRate > 0 ||
		plan.CorruptReadRate > 0 || plan.LatencyRate > 0 {
		fb.rng = rand.New(rand.NewSource(plan.Seed))
	}
	for _, at := range plan.At {
		if at.Op == OpRead {
			fb.readAt[at.Transfer] = at.Kind
		} else {
			fb.writeAt[at.Transfer] = at.Kind
		}
	}
	return fb
}

// noFault is the sentinel "inject nothing" decision.
const noFault FaultKind = -1

// decide advances the op's transfer counter and returns the fault to
// inject for this attempt (noFault = none) plus whether the block is
// already marked permanently bad.
func (fb *faultBackend) decide(op FaultOp, id BlockID) (kind FaultKind, bad bool) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var n uint64
	exact := fb.readAt
	if op == OpRead {
		fb.reads++
		n = fb.reads
	} else {
		fb.writes++
		n = fb.writes
		exact = fb.writeAt
	}
	if _, isBad := fb.bad[id]; isBad {
		return noFault, true
	}
	k, ok := exact[n]
	if !ok {
		k = fb.draw(op)
	}
	switch k {
	case FaultTransient:
		fb.injTransient++
	case FaultPermanent:
		fb.injPermanent++
		fb.bad[id] = struct{}{}
	case FaultCorrupt:
		fb.injCorrupt++
	case FaultTorn:
		fb.injTorn++
	case FaultLatency:
		fb.injLatency++
	}
	return k, false
}

// draw makes the rate-driven decision for one transfer: a single uniform
// draw, subdivided into cumulative bands so each transfer consumes exactly
// one random number (keeping serial schedules a pure function of the seed).
func (fb *faultBackend) draw(op FaultOp) FaultKind {
	if fb.rng == nil {
		return noFault
	}
	r := fb.rng.Float64()
	transient := fb.plan.TransientWriteRate
	corrupt := 0.0
	if op == OpRead {
		transient = fb.plan.TransientReadRate
		corrupt = fb.plan.CorruptReadRate
	}
	switch {
	case r < transient:
		return FaultTransient
	case r < transient+corrupt:
		return FaultCorrupt
	case r < transient+corrupt+fb.plan.LatencyRate:
		return FaultLatency
	}
	return noFault
}

// corruptByte is XORed into the first byte of a corrupted or torn block —
// deterministic, so tests can even assert the exact damage.
const corruptByte = 0xA5

func (fb *faultBackend) read(id BlockID, dst []byte) error {
	kind, bad := fb.decide(OpRead, id)
	if bad {
		return fmt.Errorf("%w: block %d unreadable (permanent fault)", ErrIOFault, id)
	}
	switch kind {
	case FaultTransient:
		return &transientErr{fmt.Errorf("%w: injected transient read fault (block %d)", ErrIOFault, id)}
	case FaultPermanent:
		return fmt.Errorf("%w: block %d unreadable (permanent fault)", ErrIOFault, id)
	case FaultCorrupt:
		if err := fb.inner.read(id, dst); err != nil {
			return err
		}
		if len(dst) > 0 {
			dst[0] ^= corruptByte
		}
		return nil
	case FaultLatency:
		time.Sleep(fb.plan.Latency)
	}
	return fb.inner.read(id, dst)
}

func (fb *faultBackend) write(id BlockID, src []byte) error {
	kind, bad := fb.decide(OpWrite, id)
	if bad {
		return fmt.Errorf("%w: block %d unwritable (permanent fault)", ErrIOFault, id)
	}
	switch kind {
	case FaultTransient:
		return &transientErr{fmt.Errorf("%w: injected transient write fault (block %d)", ErrIOFault, id)}
	case FaultPermanent:
		return fmt.Errorf("%w: block %d unwritable (permanent fault)", ErrIOFault, id)
	case FaultTorn:
		// Persist damaged bytes: the write "succeeds" but the stored
		// content disagrees with what the caller (and the checksum layer)
		// believes was written.
		torn := make([]byte, len(src))
		copy(torn, src)
		if len(torn) > 0 {
			torn[0] ^= corruptByte
		} else {
			// A zero-length write still zeroes the block; tear it by
			// writing one damaged byte instead.
			torn = []byte{corruptByte}
		}
		return fb.inner.write(id, torn)
	case FaultLatency:
		time.Sleep(fb.plan.Latency)
	}
	return fb.inner.write(id, src)
}

// grow passes through: allocation is metadata, not a transfer, and the
// Disk would panic on a grow error — injecting there would test nothing
// about the transfer paths.
func (fb *faultBackend) grow(id BlockID) error { return fb.inner.grow(id) }

// free forwards block release to the wrapped backend and clears the
// block's permanent-fault mark: a reallocated block models a fresh
// (remapped) sector.
func (fb *faultBackend) free(id BlockID) {
	fb.mu.Lock()
	delete(fb.bad, id)
	fb.mu.Unlock()
	fb.inner.free(id)
}

func (fb *faultBackend) Close() error { return fb.inner.Close() }

// stats snapshots the injector's fired-fault counters.
func (fb *faultBackend) stats() (transient, permanent, corrupt, torn, latency uint64) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.injTransient, fb.injPermanent, fb.injCorrupt, fb.injTorn, fb.injLatency
}

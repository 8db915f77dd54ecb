package em

import (
	"context"
	"errors"
	"fmt"
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
	// ErrBlockCorrupt marks a block whose slot failed verification — a
	// CRC32C mismatch, an inconsistent header or an undecodable payload
	// (a torn write, bit rot, or injected corruption) — and could not be
	// recovered by rereading.
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
	// from [BaseDelay, min(3·previous, MaxDelay)]. The draw is keyed by
	// (JitterSeed, the retried block's id or shard's index, the retry
	// number), so every delay is a pure function of where and how often
	// the loop retried — reproducible at any parallelism — while loops
	// retrying different blocks or shards no longer back off in lockstep,
	// which is the point. 0 keeps the plain doubling backoff.
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

// Backoff tracks one retry loop's delay state. Next returns the sleep
// before the loop's next retry: plain capped doubling with a zero
// JitterSeed, decorrelated jitter otherwise. Shared by the storage retry
// loop (Disk) and the distributed coordinator's worker-call retries.
type Backoff struct {
	p       RetryPolicy
	key     uint64
	attempt int
	prev    time.Duration
}

// Backoff returns the delay state for one retry loop. key names what the
// loop retries — a block id, a shard index — and keys its jitter draws;
// without a JitterSeed it is unused.
func (p RetryPolicy) Backoff(key uint64) Backoff {
	return Backoff{p: p, key: key, prev: p.BaseDelay}
}

func (b *Backoff) Next() time.Duration {
	if b.p.BaseDelay <= 0 {
		return 0
	}
	n := b.attempt
	b.attempt++
	if b.p.JitterSeed == 0 {
		return b.p.delay(n)
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
	r := draw(b.p.JitterSeed, jitterSite, b.key, uint64(n))
	d := b.p.BaseDelay + time.Duration(r*float64(hi-b.p.BaseDelay))
	b.prev = d
	return d
}

// SleepCtx sleeps for d, aborting early with the context's error once ctx
// is cancelled. A nil ctx never cancels.
func SleepCtx(ctx context.Context, d time.Duration) error {
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
	// FaultCorrupt delivers the targeted read's slot with
	// deterministically flipped bits, once. The damage lands below the
	// slot header check, on a copy — the stored slot stays intact — so
	// verification always catches it: a retry rereads the clean slot, and
	// without retries the read surfaces ErrBlockCorrupt.
	FaultCorrupt
	// FaultTorn persists the targeted write's slot with flipped bits (a
	// torn write). Every later read of the block fails verification until
	// it is overwritten; with retries exhausted the reader surfaces
	// ErrBlockCorrupt.
	FaultTorn
	// FaultLatency delays the targeted transfer by FaultPlan.Latency and
	// then performs it normally — a latency spike, not an error.
	FaultLatency
)

// FaultAt schedules one fault at an exact transfer index, counted per
// direction from the moment the injector is installed: Transfer == 1
// targets the first read (OpRead) or first write (OpWrite) attempt that
// reaches the slot store (a read of a never-written block is served as
// zeros without reaching it, so it counts for nothing). Exact schedules are fully reproducible regardless
// of goroutine interleaving — "the k-th transfer" is well defined even
// when the k-th transfer's block depends on scheduling.
type FaultAt struct {
	Op       FaultOp
	Transfer uint64 // 1-based transfer-attempt index within Op
	Kind     FaultKind
}

// FaultPlan configures deterministic storage-fault injection on a Disk
// (Disk.InjectFaults). Faults come from two sources that compose, both
// evaluated by one FaultSchedule:
//
//   - At: exact per-transfer schedules (FaultAt), reproducible bit-for-bit.
//   - Seed-driven rates: the n-th attempt of a direction not claimed by At
//     takes the fault whose cumulative rate band the keyed draw
//     (Seed, direction, n) lands in. Whether the n-th read or write
//     faults is a pure function of the plan, so the fault and retry
//     counts of a run reproduce at any parallelism; only which block
//     takes a faulting index depends on goroutine interleaving.
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
	// ChecksumFailures counts read attempts whose slot failed
	// verification, surfacing ErrBlockCorrupt (each failed attempt counts
	// once).
	ChecksumFailures uint64
	// Injected* count faults the injector actually fired, by kind.
	InjectedTransient uint64
	InjectedPermanent uint64
	InjectedCorrupt   uint64
	InjectedTorn      uint64
	InjectedLatency   uint64
}

// faultSlots is the fault injector: a slotStore decorator that
// Disk.InjectFaults installs under the storeBackend, so every fault lands
// on slot bytes below the header check, where real media damage would.
// The plan runs on a FaultSchedule over ops OpRead and OpWrite, whose
// counters are atomic; only the bad-block set of permanent faults is
// mutex-guarded, and the wrapped transfer runs outside that lock.
type faultSlots struct {
	inner   slotStore
	latency time.Duration
	sched   *FaultSchedule[FaultKind]

	mu  sync.Mutex
	bad map[BlockID]struct{}
}

func newFaultSlots(inner slotStore, plan FaultPlan) *faultSlots {
	latency := FaultBand[FaultKind]{FaultLatency, plan.LatencyRate}
	sched := NewFaultSchedule(plan.Seed,
		[]FaultBand[FaultKind]{ // OpRead
			{FaultTransient, plan.TransientReadRate}, {FaultCorrupt, plan.CorruptReadRate}, latency},
		[]FaultBand[FaultKind]{ // OpWrite
			{FaultTransient, plan.TransientWriteRate}, latency})
	for _, at := range plan.At {
		sched.Pin(int(at.Op), at.Transfer, at.Kind)
	}
	return &faultSlots{inner: inner, latency: plan.Latency, sched: sched, bad: make(map[BlockID]struct{})}
}

// decide counts one attempt of op and returns the fault to inject for it
// (-1 = none). A block already marked bad fails as FaultPermanent again
// without counting a new fault.
func (fs *faultSlots) decide(op FaultOp, id BlockID) FaultKind {
	n := fs.sched.Attempt(int(op))
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, isBad := fs.bad[id]; isBad {
		return FaultPermanent
	}
	k := fs.sched.Fire(int(op), n)
	if k == FaultPermanent {
		fs.bad[id] = struct{}{}
	}
	return k
}

// corruptByte is XORed into the first payload byte of a corrupted or torn
// slot, or into its header's CRC field when the payload is empty —
// deterministic, so tests can even assert the exact damage.
const corruptByte = 0xA5

// damage flips bits of the slot laid out in slot: header, then payload.
func damage(slot []byte) {
	if len(slot) > slotHeaderSize {
		slot[slotHeaderSize] ^= corruptByte
	} else {
		slot[12] ^= corruptByte // the CRC32C field
	}
}

func (fs *faultSlots) readSlot(id BlockID, n int, buf []byte) (hdr, payload []byte, err error) {
	switch fs.decide(OpRead, id) {
	case FaultTransient:
		return nil, nil, &transientErr{fmt.Errorf("%w: injected transient read fault (block %d)", ErrIOFault, id)}
	case FaultPermanent:
		return nil, nil, fmt.Errorf("%w: block %d unreadable (permanent fault)", ErrIOFault, id)
	case FaultCorrupt:
		hdr, payload, err := fs.inner.readSlot(id, n, buf)
		if err != nil {
			return nil, nil, err
		}
		// mem and mmap hand out views of their storage: damage a copy in
		// the caller's scratch, or the one-shot fault would persist.
		slot := buf[:slotHeaderSize+n]
		copy(slot, hdr)
		copy(slot[slotHeaderSize:], payload)
		damage(slot)
		return slot[:slotHeaderSize], slot[slotHeaderSize:], nil
	case FaultLatency:
		time.Sleep(fs.latency)
	}
	return fs.inner.readSlot(id, n, buf)
}

func (fs *faultSlots) writeSlot(id BlockID, buf, payload []byte) error {
	switch fs.decide(OpWrite, id) {
	case FaultTransient:
		return &transientErr{fmt.Errorf("%w: injected transient write fault (block %d)", ErrIOFault, id)}
	case FaultPermanent:
		return fmt.Errorf("%w: block %d unwritable (permanent fault)", ErrIOFault, id)
	case FaultTorn:
		// Persist damaged bytes: the write "succeeds" but the stored slot
		// disagrees with the CRC32C its header records. payload may alias
		// the caller's block, so the damage goes to a copy in buf.
		slot := buf[:slotHeaderSize+len(payload)]
		copy(slot[slotHeaderSize:], payload)
		damage(slot)
		return fs.inner.writeSlot(id, slot, slot[slotHeaderSize:])
	case FaultLatency:
		time.Sleep(fs.latency)
	}
	return fs.inner.writeSlot(id, buf, payload)
}

// grow passes through: allocation is metadata, not a transfer, and the
// Disk would panic on a grow error — injecting there would test nothing
// about the transfer paths.
func (fs *faultSlots) grow(id BlockID) error { return fs.inner.grow(id) }

// free forwards slot release to the wrapped store and clears the block's
// permanent-fault mark: a reallocated block models a fresh (remapped)
// sector.
func (fs *faultSlots) free(id BlockID) {
	fs.mu.Lock()
	delete(fs.bad, id)
	fs.mu.Unlock()
	fs.inner.free(id)
}

func (fs *faultSlots) Close() error { return fs.inner.Close() }

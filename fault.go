package maxrs

import (
	"time"

	"maxrs/internal/em"
)

// Typed storage-fault errors, surfaced by queries when the EM layer hits
// a fault it cannot recover (DESIGN.md §11). They are the em package's
// sentinel values re-exported, so errors.Is classifies faults across the
// API boundary without message matching.
var (
	// ErrIOFault wraps every read or write transfer that failed at the
	// storage layer: a transient fault that exhausted its retries, or a
	// permanent one (a bad block).
	ErrIOFault = em.ErrIOFault
	// ErrBlockCorrupt wraps every block whose content failed CRC32C
	// verification (torn write, bit rot, injected corruption) and could
	// not be recovered by rereading.
	ErrBlockCorrupt = em.ErrBlockCorrupt
)

// IsTransientFault reports whether err is a retryable storage fault —
// one that a retry (or a retried query) may clear, as opposed to a
// permanent fault or a corrupt block that keeps failing.
func IsTransientFault(err error) bool { return em.IsTransient(err) }

// RetryPolicy caps how transient storage faults and checksum mismatches
// are retried on the engine's block transfers (Options.Retry), and how
// the distributed coordinator retries worker calls (DistOptions.Retry).
// The zero value never retries. Backoff doubles from BaseDelay per
// attempt, capped at MaxDelay (0 = uncapped), and respects the query
// context: a cancelled query aborts its backoff sleep immediately.
// Retries never change the counted transfer schedule of a fault-free run
// — the I/O metric stays bit-identical with any policy.
type RetryPolicy struct {
	// MaxRetries is the number of additional attempts after the first
	// failed transfer (0 = fail on the first fault).
	MaxRetries int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = no cap).
	MaxDelay time.Duration
	// JitterSeed, when non-zero, replaces the deterministic doubling with
	// seeded decorrelated jitter: each retry sleeps a duration drawn
	// uniformly from [BaseDelay, min(3·previous, MaxDelay)], the draw
	// keyed by (JitterSeed, the retried block or shard, the retry
	// number). Without it, parallel workers tripping over the same
	// transient fault retry in lockstep and collide again; with it their
	// backoffs spread out, while every delay stays a pure function of the
	// seed and what is being retried — reproducible at any parallelism.
	JitterSeed int64
}

func (p RetryPolicy) em() em.RetryPolicy {
	return em.RetryPolicy{
		MaxRetries: p.MaxRetries, BaseDelay: p.BaseDelay,
		MaxDelay: p.MaxDelay, JitterSeed: p.JitterSeed,
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

// FaultKind is a class of injected storage fault (DESIGN.md §11).
type FaultKind int

// Fault classes.
const (
	// FaultTransient fails the targeted transfer once, retryably; the
	// next attempt succeeds.
	FaultTransient FaultKind = iota
	// FaultPermanent fails the targeted transfer and marks the block bad
	// until it is freed (a realloc models a remapped sector).
	FaultPermanent
	// FaultCorrupt delivers the targeted read with flipped bits, once,
	// below the block's slot checksum: verification always detects it, a
	// retry rereads the intact block, and without retries the query fails
	// with ErrBlockCorrupt.
	FaultCorrupt
	// FaultTorn persists the targeted write with flipped bits; every
	// later read fails verification until the block is overwritten.
	FaultTorn
	// FaultLatency delays the targeted transfer by FaultPlan.Latency,
	// then performs it normally.
	FaultLatency
)

// FaultAt schedules one fault at an exact transfer index, counted per
// direction from the moment the plan is installed: Transfer == 1 targets
// the first read (OpRead) or write (OpWrite) attempt on the disk.
type FaultAt struct {
	Op       FaultOp
	Transfer uint64 // 1-based transfer-attempt index within Op
	Kind     FaultKind
}

// FaultPlan configures deterministic storage-fault injection
// (Engine.InjectFaults): exact per-transfer schedules (At) compose with
// seed-driven per-transfer fault rates, whether the n-th read or write
// attempt faults being a keyed draw on (Seed, direction, n). The fault
// and retry counts of a run are thus a pure function of the plan at any
// parallelism; which block takes each fault still depends on goroutine
// interleaving. A zero plan injects nothing, and
// an installed plan that fires nothing leaves the counted transfer
// schedule bit-identical to an uninstrumented engine. The chaos hook for
// tests and benchmarks — not meant for production configuration.
type FaultPlan struct {
	// Seed seeds the rate-driven draws (used only when a rate is > 0).
	Seed int64
	// TransientReadRate / TransientWriteRate are per-transfer
	// probabilities of a retryable fault.
	TransientReadRate  float64
	TransientWriteRate float64
	// CorruptReadRate is the per-read probability of one-shot corruption.
	CorruptReadRate float64
	// LatencyRate is the per-transfer probability of a latency spike of
	// Latency.
	LatencyRate float64
	Latency     time.Duration
	// At schedules faults at exact transfer indices, taking precedence
	// over the rates for those transfers.
	At []FaultAt
}

func (p FaultPlan) em() em.FaultPlan {
	out := em.FaultPlan{
		Seed:               p.Seed,
		TransientReadRate:  p.TransientReadRate,
		TransientWriteRate: p.TransientWriteRate,
		CorruptReadRate:    p.CorruptReadRate,
		LatencyRate:        p.LatencyRate,
		Latency:            p.Latency,
	}
	for _, at := range p.At {
		out.At = append(out.At, em.FaultAt{
			Op:       em.FaultOp(at.Op),
			Transfer: at.Transfer,
			Kind:     em.FaultKind(at.Kind),
		})
	}
	return out
}

// FaultStats counts fault-handling activity on the engine's primary disk
// since the last InjectFaults (injected counts) / engine creation (retry
// and checksum counts). Shard disks inherit the engine's retry policy
// and fault plan, so faults there are recovered identically,
// but their counters are ephemeral (per query) and not folded in.
type FaultStats struct {
	// ReadRetries / WriteRetries count retry attempts performed under the
	// retry policy (not the initial attempts, which count in IOStats only
	// when they succeed).
	ReadRetries  uint64
	WriteRetries uint64
	// ChecksumFailures counts read attempts whose block failed its slot
	// checksum (CRC32C) or header check.
	ChecksumFailures uint64
	// Injected* count faults the injected plan actually fired, by kind.
	InjectedTransient uint64
	InjectedPermanent uint64
	InjectedCorrupt   uint64
	InjectedTorn      uint64
	InjectedLatency   uint64
}

// InjectFaults arms deterministic storage-fault injection on the engine's
// primary disk per plan, and on every shard disk created afterwards
// (each shard disk's transfer indices count from zero). Calling it again
// replaces the previous plan and restarts the transfer indices; a zero
// plan disarms injection. An armed plan that fires nothing leaves results
// and counted transfers bit-identical.
func (e *Engine) InjectFaults(plan FaultPlan) {
	ep := plan.em()
	e.faultPlan.Store(&ep)
	e.env.Disk.InjectFaults(ep)
}

// FaultStats returns the engine's fault-handling counters (see the
// FaultStats type for scope).
func (e *Engine) FaultStats() FaultStats {
	fs := e.env.Disk.FaultStats()
	return FaultStats{
		ReadRetries:       fs.ReadRetries,
		WriteRetries:      fs.WriteRetries,
		ChecksumFailures:  fs.ChecksumFailures,
		InjectedTransient: fs.InjectedTransient,
		InjectedPermanent: fs.InjectedPermanent,
		InjectedCorrupt:   fs.InjectedCorrupt,
		InjectedTorn:      fs.InjectedTorn,
		InjectedLatency:   fs.InjectedLatency,
	}
}

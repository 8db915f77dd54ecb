package em

import "sync/atomic"

// draw is the keyed uniform draw behind every seeded fault and jitter
// decision: the splitmix64 finalizer chained over (seed, site, key, n),
// mapped to [0,1) from its top 53 bits. It is stateless, so a decision is
// a pure function of its coordinates — never of which goroutine asked
// first — and a seeded run reproduces at any parallelism.
func draw(seed int64, site, key, n uint64) float64 {
	h := mix64(uint64(seed) + golden)
	h = mix64(h ^ (site + golden))
	h = mix64(h ^ (key + golden))
	h = mix64(h ^ (n + golden))
	return float64(h>>11) / (1 << 53)
}

// golden is splitmix64's increment (2⁶⁴/φ); adding it keeps a zero
// coordinate from feeding the finalizer its fixed point 0.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitterSite is the draw site of retry jitter. Fault schedules use their
// op index (a small integer) as the site, so a schedule and a backoff
// sharing one seed never read the same number.
const jitterSite = 1 << 32

// FaultBand is one rate band of a FaultSchedule: Kind fires on an attempt
// with probability Rate.
type FaultBand[K ~int] struct {
	Kind K
	Rate float64
}

// FaultSchedule answers which fault, if any, hits the n-th attempt of an
// op: the exact entry pinned at (op, n) if there is one, else the rate
// band that draw(seed, op, 0, n) lands in, the op's bands laid end to end
// from 0 so they never overlap. The storage injector (ops OpRead and
// OpWrite) and the distributed layer's network Transport (one op, the
// worker call) both run on it. Attempt counters and per-kind fired
// counters are atomic, so concurrent transfers take no lock; which
// transfer receives the n-th attempt still depends on interleaving, but
// the set of faulting indices — and so every count — does not.
type FaultSchedule[K ~int] struct {
	seed     int64
	bands    [][]FaultBand[K] // per op; zero-rate bands dropped
	at       map[[2]uint64]K  // pinned (op, n) entries
	attempts []atomic.Uint64  // per op
	fired    [8]atomic.Uint64 // per kind; kinds are small enums
}

// NewFaultSchedule returns a schedule over len(bands) ops, with bands[op]
// the op's rate bands in cumulative order.
func NewFaultSchedule[K ~int](seed int64, bands ...[]FaultBand[K]) *FaultSchedule[K] {
	s := &FaultSchedule[K]{seed: seed, bands: make([][]FaultBand[K], len(bands)),
		at: make(map[[2]uint64]K), attempts: make([]atomic.Uint64, len(bands))}
	for op, bs := range bands {
		for _, b := range bs {
			if b.Rate > 0 {
				s.bands[op] = append(s.bands[op], b)
			}
		}
	}
	return s
}

// Pin schedules kind at the n-th attempt of op, overriding the draw
// there. Call it before the schedule is shared.
func (s *FaultSchedule[K]) Pin(op int, n uint64, kind K) { s.at[[2]uint64{uint64(op), n}] = kind }

// Decide returns the fault for the n-th attempt of op (-1 = none) without
// counting anything: a pure function of the schedule.
func (s *FaultSchedule[K]) Decide(op int, n uint64) K {
	if k, ok := s.at[[2]uint64{uint64(op), n}]; ok {
		return k
	}
	bs := s.bands[op]
	if len(bs) == 0 {
		return -1
	}
	r, acc := draw(s.seed, uint64(op), 0, n), 0.0
	for _, b := range bs {
		if acc += b.Rate; r < acc {
			return b.Kind
		}
	}
	return -1
}

// Attempt counts one more attempt of op and returns its 1-based index.
func (s *FaultSchedule[K]) Attempt(op int) uint64 { return s.attempts[op].Add(1) }

// Fire is Decide that also counts the fired kind.
func (s *FaultSchedule[K]) Fire(op int, n uint64) K {
	k := s.Decide(op, n)
	if k >= 0 {
		s.fired[k].Add(1)
	}
	return k
}

// Attempts returns how many attempts of op have been counted.
func (s *FaultSchedule[K]) Attempts(op int) uint64 { return s.attempts[op].Load() }

// Fired returns how many times kind has fired.
func (s *FaultSchedule[K]) Fired(kind K) uint64 { return s.fired[kind].Load() }

package em

import (
	"math"
	"testing"
)

// refKind evaluates a schedule by hand: the pinned kind if any, else the
// band of the keyed draw, bands laid end to end from 0 (-1 = none).
func refKind(seed int64, op int, n uint64, pins map[[2]uint64]FaultKind, bands []FaultBand[FaultKind]) FaultKind {
	if k, ok := pins[[2]uint64{uint64(op), n}]; ok {
		return k
	}
	r, lo := draw(seed, uint64(op), 0, n), 0.0
	for _, b := range bands {
		if r >= lo && r < lo+b.Rate {
			return b.Kind
		}
		lo += b.Rate
	}
	return -1
}

// TestFaultSlotsFollowSchedule checks the storage injector against a
// direct evaluation of its plan: for every op and every attempt index
// n = 1..10⁵, the fault it fires is the pinned kind or the band of
// draw(seed, op, 0, n), and its fired counters add up to those decisions.
func TestFaultSlotsFollowSchedule(t *testing.T) {
	plan := FaultPlan{
		Seed:               7,
		TransientReadRate:  0.02,
		TransientWriteRate: 0.03,
		CorruptReadRate:    0.01,
		LatencyRate:        0.005,
		At: []FaultAt{
			{Op: OpRead, Transfer: 10, Kind: FaultPermanent},
			{Op: OpWrite, Transfer: 3, Kind: FaultTorn},
			{Op: OpWrite, Transfer: 99_999, Kind: FaultCorrupt},
		},
	}
	pins := map[[2]uint64]FaultKind{}
	for _, at := range plan.At {
		pins[[2]uint64{uint64(at.Op), at.Transfer}] = at.Kind
	}
	bands := [][]FaultBand[FaultKind]{
		{{FaultTransient, plan.TransientReadRate}, {FaultCorrupt, plan.CorruptReadRate}, {FaultLatency, plan.LatencyRate}},
		{{FaultTransient, plan.TransientWriteRate}, {FaultLatency, plan.LatencyRate}},
	}
	fs := newFaultSlots(nil, plan)
	var want [5]uint64
	const n = 100_000
	for _, op := range []FaultOp{OpRead, OpWrite} {
		for i := uint64(1); i <= n; i++ {
			// A fresh block per attempt, so the permanent pin's bad
			// block never shadows a later decision.
			got := fs.decide(op, BlockID(i)+BlockID(op)*n)
			ref := refKind(plan.Seed, int(op), i, pins, bands[op])
			if got != ref {
				t.Fatalf("op %d attempt %d: injector fired %d, schedule says %d", op, i, got, ref)
			}
			if ref >= 0 {
				want[ref]++
			}
		}
	}
	var got [5]uint64
	for k := range got {
		got[k] = fs.sched.Fired(FaultKind(k))
	}
	if got != want {
		t.Fatalf("fired counters %v, decisions %v", got, want)
	}
}

// TestFaultSchedulePinOverridesOwnIndex checks that a pinned entry
// replaces the draw at its own (op, n) only: its neighbours and the same
// index of the other op keep their drawn decisions.
func TestFaultSchedulePinOverridesOwnIndex(t *testing.T) {
	bands := []FaultBand[FaultKind]{{FaultTransient, 0.3}, {FaultLatency, 0.3}}
	plain := NewFaultSchedule(5, bands, bands)
	pinned := NewFaultSchedule(5, bands, bands)
	pinned.Pin(int(OpRead), 50, FaultTorn)
	for op := 0; op < 2; op++ {
		for i := uint64(1); i <= 100; i++ {
			got, base := pinned.Decide(op, i), plain.Decide(op, i)
			if op == int(OpRead) && i == 50 {
				if got != FaultTorn {
					t.Fatalf("pinned index decided %d, want FaultTorn", got)
				}
				continue
			}
			if got != base {
				t.Fatalf("op %d attempt %d: pin moved the decision %d → %d", op, i, base, got)
			}
		}
	}
}

// TestFaultScheduleBandRates checks each rate band fires within 5σ of its
// binomial expectation over 10⁵ attempts, and that the bands never
// overlap: every decision's draw lies inside its own kind's band only.
func TestFaultScheduleBandRates(t *testing.T) {
	bands := []FaultBand[FaultKind]{{FaultTransient, 0.01}, {FaultCorrupt, 0.05}, {FaultLatency, 0.2}}
	s := NewFaultSchedule(11, bands)
	const n = 100_000
	for i := uint64(1); i <= n; i++ {
		k := s.Fire(0, s.Attempt(0))
		r, lo := draw(11, 0, 0, i), 0.0
		for _, b := range bands {
			if in := r >= lo && r < lo+b.Rate; in != (k == b.Kind) {
				t.Fatalf("attempt %d: draw %v decided %d, band of %d is [%v, %v)", i, r, k, b.Kind, lo, lo+b.Rate)
			}
			lo += b.Rate
		}
	}
	for _, b := range bands {
		mean := n * b.Rate
		sigma := math.Sqrt(n * b.Rate * (1 - b.Rate))
		if got := float64(s.Fired(b.Kind)); math.Abs(got-mean) > 5*sigma {
			t.Errorf("kind %d fired %v times, want %v ± %v (5σ)", b.Kind, got, mean, 5*sigma)
		}
	}
	if got := s.Attempts(0); got != n {
		t.Fatalf("Attempts = %d, want %d", got, n)
	}
}

// TestCleanTransferZeroAllocs pins the cost of hardening on the first
// attempt: with a jittered retry policy set, a clean ReadBlock and
// WriteBlock allocate nothing — the retry state is built only after a
// failed attempt.
func TestCleanTransferZeroAllocs(t *testing.T) {
	d := MustNewDisk(64)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 3, BaseDelay: 1, JitterSeed: 9})
	id := d.Alloc()
	src, dst := make([]byte, 64), make([]byte, 64)
	if err := d.WriteBlock(id, src); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := d.WriteBlock(id, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("clean WriteBlock: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := d.ReadBlock(id, dst); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("clean ReadBlock: %v allocs, want 0", a)
	}
}

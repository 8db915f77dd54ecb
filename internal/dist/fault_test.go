package dist

import (
	"math"
	"testing"

	"maxrs/internal/em"
)

// planSchedule evaluates a network plan directly on an em.FaultSchedule:
// one op (the call), the plan's rate bands in kind order, its At entries
// pinned.
func planSchedule(p FaultPlan) *em.FaultSchedule[FaultKind] {
	s := em.NewFaultSchedule(p.Seed, []em.FaultBand[FaultKind]{
		{Kind: FaultConn, Rate: p.ConnRate},
		{Kind: FaultDisconnect, Rate: p.DisconnectRate},
		{Kind: FaultCorrupt, Rate: p.CorruptRate},
		{Kind: FaultLatency, Rate: p.LatencyRate},
	})
	for _, at := range p.At {
		s.Pin(0, at.Call, at.Kind)
	}
	return s
}

// TestTransportFollowsSchedule checks the network injector against a
// direct evaluation of its plan: for every call n = 1..10⁵ the fault it
// fires is the schedule's decision, and its Stats add up to those
// decisions.
func TestTransportFollowsSchedule(t *testing.T) {
	plan := FaultPlan{Seed: 13, ConnRate: 0.02, DisconnectRate: 0.01, CorruptRate: 0.03, LatencyRate: 0.04,
		At: []FaultAt{{Call: 4, Kind: FaultCorrupt}, {Call: 77_777, Kind: FaultDisconnect}}}
	tr, ref := NewTransport(nil, plan), planSchedule(plan)
	var want FaultStats
	const n = 100_000
	for i := uint64(1); i <= n; i++ {
		got, k := tr.decide(), ref.Decide(0, i)
		if got != k {
			t.Fatalf("call %d: transport fired %d, schedule says %d", i, got, k)
		}
		switch k {
		case FaultConn:
			want.InjectedConn++
		case FaultDisconnect:
			want.InjectedDisconnect++
		case FaultCorrupt:
			want.InjectedCorrupt++
		case FaultLatency:
			want.InjectedLatency++
		}
	}
	want.Calls = n
	if st := tr.Stats(); st != want {
		t.Fatalf("stats %+v, decisions %+v", st, want)
	}
}

// TestTransportPinOverridesOwnIndex checks that an At entry replaces the
// drawn decision at its own call index only.
func TestTransportPinOverridesOwnIndex(t *testing.T) {
	rates := FaultPlan{Seed: 21, ConnRate: 0.3, LatencyRate: 0.3}
	pinned := rates
	pinned.At = []FaultAt{{Call: 40, Kind: FaultCorrupt}}
	a, b := NewTransport(nil, rates), NewTransport(nil, pinned)
	for i := uint64(1); i <= 100; i++ {
		base, got := a.decide(), b.decide()
		if i == 40 {
			if got != FaultCorrupt {
				t.Fatalf("pinned call decided %d, want FaultCorrupt", got)
			}
			continue
		}
		if got != base {
			t.Fatalf("call %d: pin moved the decision %d → %d", i, base, got)
		}
	}
}

// TestTransportBandRates checks each network fault class fires within 5σ
// of its binomial expectation over 10⁵ calls.
func TestTransportBandRates(t *testing.T) {
	plan := FaultPlan{Seed: 5, ConnRate: 0.05, DisconnectRate: 0.01, CorruptRate: 0.1, LatencyRate: 0.2}
	tr := NewTransport(nil, plan)
	const n = 100_000
	for i := 0; i < n; i++ {
		tr.decide()
	}
	st := tr.Stats()
	for _, c := range []struct {
		name  string
		rate  float64
		fired uint64
	}{
		{"conn", plan.ConnRate, st.InjectedConn},
		{"disconnect", plan.DisconnectRate, st.InjectedDisconnect},
		{"corrupt", plan.CorruptRate, st.InjectedCorrupt},
		{"latency", plan.LatencyRate, st.InjectedLatency},
	} {
		mean, sigma := n*c.rate, math.Sqrt(n*c.rate*(1-c.rate))
		if math.Abs(float64(c.fired)-mean) > 5*sigma {
			t.Errorf("%s fired %d times, want %v ± %v (5σ)", c.name, c.fired, mean, 5*sigma)
		}
	}
}

package em

import (
	"testing"
	"time"
)

// TestBackoffJitterBounds pins the decorrelated-jitter contract: every
// delay lies in [BaseDelay, MaxDelay], the sequence is a pure function of
// the seed and the loop's key, and different seeds decorrelate.
func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, JitterSeed: 42}
	draw := func(seed int64, n int) []time.Duration {
		pp := p
		pp.JitterSeed = seed
		bo := pp.Backoff(3)
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = bo.Next()
		}
		return out
	}
	a := draw(42, 100)
	for i, d := range a {
		if d < p.BaseDelay || d > p.MaxDelay {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, p.BaseDelay, p.MaxDelay)
		}
	}
	b := draw(42, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
	c := draw(7, 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical delay sequences")
	}
}

// TestBackoffJitterSharedSourceDecorrelates models two parallel retry
// loops under one disk's policy, retrying different blocks: their keyed
// draws must not give identical delay sequences (the lockstep problem
// jitter exists to fix).
func TestBackoffJitterSharedSourceDecorrelates(t *testing.T) {
	p := RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, JitterSeed: 99}
	b1, b2 := p.Backoff(1), p.Backoff(2)
	same := 0
	const n = 32
	for i := 0; i < n; i++ {
		d1, d2 := b1.Next(), b2.Next()
		if d1 < p.BaseDelay || d1 > p.MaxDelay || d2 < p.BaseDelay || d2 > p.MaxDelay {
			t.Fatalf("iteration %d: delays %v/%v outside bounds", i, d1, d2)
		}
		if d1 == d2 {
			same++
		}
	}
	if same == n {
		t.Fatal("interleaved loops retried in lockstep despite jitter")
	}
}

// TestBackoffNoJitterKeepsDoubling pins backward compatibility: with
// JitterSeed zero, the per-loop backoff reproduces the original capped
// doubling schedule exactly, whatever the loop's key.
func TestBackoffNoJitterKeepsDoubling(t *testing.T) {
	p := RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	bo := p.Backoff(1) // ignored: JitterSeed == 0
	for attempt := 0; attempt < 10; attempt++ {
		if got, want := bo.Next(), p.delay(attempt); got != want {
			t.Fatalf("attempt %d: next() = %v, delay() = %v", attempt, got, want)
		}
	}
	zero := RetryPolicy{MaxRetries: 2}
	bz := zero.Backoff(0)
	if d := bz.Next(); d != 0 {
		t.Fatalf("zero BaseDelay: delay %v, want 0", d)
	}
}

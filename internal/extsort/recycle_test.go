package extsort

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"maxrs/internal/em"
)

// TestRecycledRunBuffersKeepRuns checks that refilling recycled run
// buffers changes no run: at p = 1, 2 and 4, builders fed record by
// record (Add) and batch by batch (formRuns' fill) spill runs
// record-identical to the stable sort of each perRun-record chunk of the
// input, ties in input order. A stale record left in a recycled buffer, or a buffer refilled
// while a worker still sorts it, would show.
func TestRecycledRunBuffersKeepRuns(t *testing.T) {
	vals := keyedInput(rand.New(rand.NewSource(20)), 20_000, false)
	const perRun = 1024 / 16 // em.MustNewEnv(128, 1024): 64 records a run
	var want [][]keyed
	for lo := 0; lo < len(vals); lo += perRun {
		run := slices.Clone(vals[lo:min(lo+perRun, len(vals))])
		slices.SortStableFunc(run, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		want = append(want, run)
	}
	for _, p := range []int{1, 2, 4} {
		for _, feed := range []string{"Add", "fill"} {
			env := em.MustNewEnv(128, 1024)
			var runs []*em.File
			var err error
			if feed == "Add" {
				var rb *RunBuilder[keyed]
				if rb, err = NewRunBuilder(env, keyedCodec{}, lessKey, p); err != nil {
					t.Fatal(err)
				}
				for _, v := range vals {
					if err := rb.Add(v); err != nil {
						t.Fatal(err)
					}
				}
				runs, err = rb.Finish()
			} else {
				in, werr := em.WriteAll[keyed](env.Disk, keyedCodec{}, vals)
				if werr != nil {
					t.Fatal(werr)
				}
				runs, err = formRuns(env, in, keyedCodec{}, lessKey, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("p=%d %s", p, feed)
			if len(runs) != len(want) {
				t.Fatalf("%s: %d runs, want %d", what, len(runs), len(want))
			}
			for i, r := range runs {
				got, err := em.ReadAll[keyed](r, keyedCodec{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want[i]) {
					t.Fatalf("%s: run %d differs from the stable sort of its chunk", what, i)
				}
			}
		}
	}
}

// TestRunBuilderRecyclesItsBuffer pins the recycling itself: at p = 1 the
// inline spill hands its buffer straight back, so however many runs the
// builder spills, it keeps filling the buffer it started with.
func TestRunBuilderRecyclesItsBuffer(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	rb := addAll(t, env, []int64{1}, 1)
	first := &rb.buf[0]
	for v := range int64(10 * rb.perRun) {
		if err := rb.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if rb.idx != 10 {
		t.Fatalf("%d runs spilled, want 10", rb.idx)
	}
	if &rb.buf[0] != first {
		t.Fatal("the builder allocated a new run buffer instead of refilling the spilled one")
	}
	rb.Discard()
}

// TestConsumedBuilderKeepsNoBuffers pins the spiller's memory lifetime: a
// builder's recycled run buffers and sort scratch die with Finish, also
// when nothing spilled before it, and with Discard. Callers keep consumed
// builders reachable for the rest of a query (core's external root holds
// both root builders through the whole recursion), so a buffer the
// spiller kept would count toward the query's peak memory.
func TestConsumedBuilderKeepsNoBuffers(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, end := range []string{"Finish", "Finish unspilled", "Discard"} {
			env := em.MustNewEnv(128, 1024)
			n := 10_000
			if end == "Finish unspilled" {
				n = 100 // fits one run buffer: nothing spills before Finish
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(n - i)
			}
			rb := addAll(t, env, vals, p)
			switch end {
			case "Finish", "Finish unspilled":
				runs, err := rb.Finish()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range runs {
					_ = r.Release()
				}
			case "Discard":
				rb.Discard()
			}
			if rb.sp.free != nil || rb.sp.scratch != nil || rb.buf != nil {
				t.Errorf("p=%d after %s: builder keeps %d recycled buffers, scratch of %d, buffer of %d",
					p, end, len(rb.sp.free), len(rb.sp.scratch), len(rb.buf))
			}
			if live := env.Disk.InUse(); live != 0 {
				t.Errorf("p=%d after %s: %d blocks still allocated", p, end, live)
			}
		}
	}
}

package extsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"maxrs/internal/em"
)

// addAll feeds vals into a fresh RunBuilder.
func addAll(t *testing.T, env em.Env, vals []int64, par int) *RunBuilder[int64] {
	t.Helper()
	rb, err := NewRunBuilder(env, int64Codec{}, lessInt64, par)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := rb.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return rb
}

// mergeAll drains the builder through Reduce+MergeInto and returns the
// sorted sequence.
func mergeAll(t *testing.T, env em.Env, rb *RunBuilder[int64], par int) ([]int64, *Merger[int64]) {
	t.Helper()
	runs, err := rb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(env, runs, int64Codec{}, lessInt64, par)
	if err := m.Reduce(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	if err := m.MergeInto(func(v int64) error { got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	return got, m
}

// TestRunBuilderMergerMatchesSort is the fusion-primitive contract: for
// every parallelism, Add → Finish → Reduce → MergeInto yields exactly the
// record sequence SortP writes, and costs exactly the SortP transfer total
// minus one full read pass of the input and one full write pass of the
// output — the two passes fusion eliminates per stream.
func TestRunBuilderMergerMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 15, 16, 17, 5000, 20_000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000) // duplicates: stability must match too
		}

		// Reference: SortP over a materialized file, counted without the
		// input write.
		refEnv := em.MustNewEnv(128, 1024) // 16 records per run, fan-in 7
		in, err := em.WriteAll[int64](refEnv.Disk, int64Codec{}, vals)
		if err != nil {
			t.Fatal(err)
		}
		refEnv.Disk.ResetStats()
		out, err := SortP(refEnv, in, int64Codec{}, lessInt64, 1)
		if err != nil {
			t.Fatal(err)
		}
		sortStats := refEnv.Disk.Stats() // before the verification ReadAll
		want, err := em.ReadAllScoped(out, int64Codec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		inBlocks, outBlocks := uint64(in.Blocks()), uint64(out.Blocks())

		for _, par := range []int{1, 2, 4} {
			env2 := em.MustNewEnv(128, 1024)
			rb2 := addAll(t, env2, vals, par)
			got, m := mergeAll(t, env2, rb2, par)
			fusedTotal := env2.Disk.Stats().Total()

			if len(got) != len(want) {
				t.Fatalf("n=%d p=%d: %d records, want %d", n, par, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: record %d = %d, want %d", n, par, i, got[i], want[i])
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("n=%d p=%d: output not sorted", n, par)
			}
			// Golden delta. Multi-run: SortP reads the input and writes the
			// final merge's file; the fused primitives do neither, so they
			// cost exactly inBlocks + outBlocks less. Single-run (n ≤ one
			// run of 128): SortP's output *is* the run — no final merge —
			// while MergeInto still pays one read pass over it to deliver
			// the records (the pass the consumer of the sorted file would
			// otherwise pay), so the saving is the input read alone.
			wantTotal := sortStats.Total() - inBlocks - outBlocks
			if n <= 128 {
				wantTotal = sortStats.Total() - inBlocks + outBlocks
			}
			if fusedTotal != wantTotal {
				t.Fatalf("n=%d p=%d: fused primitives cost %d transfers, want %d (SortP %d, input %d, output %d blocks)",
					n, par, fusedTotal, wantTotal, sortStats.Total(), inBlocks, outBlocks)
			}
			// A second MergeInto replays the same sequence for one more read
			// pass over the remaining runs.
			before := env2.Disk.Stats().Total()
			var again []int64
			if err := m.MergeInto(func(v int64) error { again = append(again, v); return nil }); err != nil {
				t.Fatal(err)
			}
			replay := env2.Disk.Stats().Total() - before
			if len(again) != len(want) {
				t.Fatalf("n=%d p=%d: replay lost records: %d vs %d", n, par, len(again), len(want))
			}
			for i := range want {
				if again[i] != want[i] {
					t.Fatalf("n=%d p=%d: replay record %d = %d, want %d", n, par, i, again[i], want[i])
				}
			}
			if replay == 0 && n > 0 {
				t.Fatalf("n=%d p=%d: replay pass counted no transfers", n, par)
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
			if env2.Disk.InUse() != 0 {
				t.Fatalf("n=%d p=%d: %d blocks leaked", n, par, env2.Disk.InUse())
			}
		}
	}
}

// TestRunBuilderLazySpill pins the lazy spill through Finish: up to one
// run buffer of records (here 128) touches no disk until Finish, which
// writes them as the one sorted run; the Add that overflows a full
// buffer spills it as run 0, and Finish writes the rest as run 1.
func TestRunBuilderLazySpill(t *testing.T) {
	for _, n := range []int{4, 128, 129} {
		env := em.MustNewEnv(128, 1024) // 128 records per run
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(n - i)
		}
		rb := addAll(t, env, vals, 1)
		if spilled := env.Disk.Stats().Total() != 0; spilled != (n > 128) {
			t.Fatalf("n=%d: %v before Finish, want a spill: %v", n, env.Disk.Stats(), n > 128)
		}
		runs, err := rb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if want := (n + 127) / 128; len(runs) != want {
			t.Fatalf("n=%d: %d runs, want %d", n, len(runs), want)
		}
		for i, r := range runs {
			got, err := em.ReadAll[int64](r, int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(vals[i*128 : min(n, (i+1)*128)])
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: run %d = %v, want %v", n, i, got, want)
			}
			if err := r.Release(); err != nil {
				t.Fatal(err)
			}
		}
		if env.Disk.InUse() != 0 {
			t.Fatalf("n=%d: %d blocks leaked", n, env.Disk.InUse())
		}
	}
}

// TestRunBuilderEmptyFinish matches SortP's empty-input convention: one
// empty run.
func TestRunBuilderEmptyFinish(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	rb := addAll(t, env, nil, 1)
	runs, err := rb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Size() != 0 {
		t.Fatalf("empty Finish: %d runs", len(runs))
	}
	m := NewMerger(env, runs, int64Codec{}, lessInt64, 1)
	if err := m.Reduce(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := m.MergeInto(func(int64) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty merge emitted %d records", calls)
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}

package extsort

import (
	"fmt"
	"math/rand"
	"testing"

	"maxrs/internal/em"
)

// reduceLevelsRef is the Reduce that merged whole levels down to at most
// fanIn runs, kept as the reference of TestReducePartialLevel.
func reduceLevelsRef[T any](m *Merger[T]) error {
	for len(m.runs) > fanInOf(m.env) {
		next, err := mergeLevel(m.env, m.runs, m.codec, m.less, m.par)
		if err != nil {
			return err
		}
		m.runs = next
	}
	return nil
}

// TestReducePartialLevel pins Reduce's last level. Runs of keyed records
// (few distinct keys, so most records tie) are reduced at fan-in 3 from
// every run count up to 31. However many runs it starts with, Reduce
// must leave min(runs, fanIn), and the final merge must emit the stable
// sort of the input, as after whole levels. With at most fanIn² runs,
// it must read exactly the trailing e + ⌈e/(fanIn−1)⌉ runs, where
// e = runs − fanIn, and write exactly the blocks of their groups of at
// most fanIn. Above fanIn², its first level is a whole one, and in every
// case it moves no more blocks than whole levels do. Transfers must not
// depend on the parallelism.
func TestReducePartialLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for runs := 1; runs <= 31; runs++ {
		var in []keyed
		parts := make([][]keyed, runs)
		for i := range parts {
			parts[i] = keyedInput(rng, 1+rng.Intn(9), false)
			for j := range parts[i] {
				parts[i][j].seq = int64(len(in) + j)
			}
			in = append(in, parts[i]...)
			SortStable(parts[i], lessKey)
		}
		var first uint64
		for _, par := range []int{1, 2, 4} {
			name := fmt.Sprintf("runs=%d/p=%d", runs, par)
			env := em.MustNewEnv(64, 256) // fan-in 3; four 16-byte records a block
			fanIn := fanInOf(env)
			files := writeRuns(t, env, keyedCodec{}, parts)
			var blocks []uint64
			for _, f := range files {
				blocks = append(blocks, uint64(f.Blocks()))
			}

			env.Disk.ResetStats()
			m := NewMerger(env, files, keyedCodec{}, lessKey, par)
			if err := m.Reduce(); err != nil {
				t.Fatal(err)
			}
			st := env.Disk.Stats()
			if want := min(runs, fanIn); m.Runs() != want {
				t.Fatalf("%s: %d runs left, want %d", name, m.Runs(), want)
			}
			var got []keyed
			if err := m.MergeInto(func(v keyed) error { got = append(got, v); return nil }); err != nil {
				t.Fatal(err)
			}
			checkStable(t, name, in, got)
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}

			ref := NewMerger(env, writeRuns(t, env, keyedCodec{}, parts), keyedCodec{}, lessKey, par)
			before := env.Disk.Stats()
			if err := reduceLevelsRef(ref); err != nil {
				t.Fatal(err)
			}
			refSt := env.Disk.Stats().Sub(before)
			if err := ref.Release(); err != nil {
				t.Fatal(err)
			}
			if st.Total() > refSt.Total() {
				t.Fatalf("%s: %v transfers, whole levels %v", name, st, refSt)
			}
			if n := env.Disk.InUse(); n != 0 {
				t.Fatalf("%s: %d blocks still in use", name, n)
			}

			if runs > fanIn && runs <= fanIn*fanIn {
				e := runs - fanIn
				k := e + (e+fanIn-2)/(fanIn-1)
				var want em.Stats
				records := 0
				for i := runs - k; i < runs; i++ {
					want.Reads += blocks[i]
					records += len(parts[i])
					if (i-(runs-k))%fanIn == fanIn-1 || i == runs-1 {
						want.Writes += uint64((records*keyedCodec{}.Size() + env.B() - 1) / env.B())
						records = 0
					}
				}
				if st != want {
					t.Fatalf("%s: %v transfers, want the trailing %d runs merged: %v", name, st, k, want)
				}
			}
			if runs > fanIn*fanIn && st.Reads <= blocksSum(blocks) {
				t.Fatalf("%s: %d reads, want a whole level (%d) and more", name, st.Reads, blocksSum(blocks))
			}
			if par == 1 {
				first = st.Total()
			} else if st.Total() != first {
				t.Fatalf("%s: %d transfers, %d at p=1", name, st.Total(), first)
			}
		}
	}
}

func blocksSum(bs []uint64) uint64 {
	var s uint64
	for _, b := range bs {
		s += b
	}
	return s
}

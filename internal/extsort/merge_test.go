package extsort

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/rec"
)

// writeRuns writes each record slice to its own file on env's disk.
func writeRuns[T any](t testing.TB, env em.Env, codec em.Codec[T], runs [][]T) []*em.File {
	t.Helper()
	files := make([]*em.File, len(runs))
	for i, r := range runs {
		f, err := em.WriteAll(env.Disk, codec, r)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// encodedMerge runs merge and returns every record it emits encoded by
// codec, back to back, with the merge's read transfers.
func encodedMerge[T any](t *testing.T, env em.Env, codec em.Codec[T], merge func(sink func(T) error) error) ([]byte, uint64) {
	t.Helper()
	var out []byte
	buf := make([]byte, codec.Size())
	before := env.Disk.Stats()
	err := merge(func(v T) error {
		codec.Encode(buf, v)
		out = append(out, buf...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, env.Disk.Stats().Sub(before).Reads
}

// checkMergeMatchesRef merges runs with mergeInto and with the heap
// reference, and fails unless both emit the same records in the same
// order — compared as encoded bytes, so float keys compare by their bits
// — at the same read-transfer count.
func checkMergeMatchesRef[T any](t *testing.T, what string, env em.Env, codec em.Codec[T], less func(a, b T) bool, runs [][]T) {
	t.Helper()
	files := writeRuns(t, env, codec, runs)
	defer func() {
		for _, f := range files {
			_ = f.Release()
		}
	}()
	want, wantReads := encodedMerge(t, env, codec, func(sink func(T) error) error {
		return mergeIntoRef(files, codec, less, sink)
	})
	got, gotReads := encodedMerge(t, env, codec, func(sink func(T) error) error {
		return mergeInto(files, codec, less, sink)
	})
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	size := codec.Size()
	if len(want) != total*size || len(got) != len(want) {
		t.Fatalf("%s: merged %d records, reference %d, input %d", what, len(got)/size, len(want)/size, total)
	}
	for i := 0; i < len(want); i += size {
		if !bytes.Equal(got[i:i+size], want[i:i+size]) {
			t.Fatalf("%s: record %d = %v, reference %v", what, i/size, codec.Decode(got[i:i+size]), codec.Decode(want[i:i+size]))
		}
	}
	if gotReads != wantReads {
		t.Fatalf("%s: %d read transfers, reference %d", what, gotReads, wantReads)
	}
}

// runSizes returns k run lengths drawn from [1, max], with the runs at the
// positions in empty set to length 0.
func runSizes(rng *rand.Rand, k, max int, empty ...int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(max)
	}
	for _, e := range empty {
		sizes[e] = 0
	}
	return sizes
}

// emptyPatterns returns the empty-run placements tried for k runs: none,
// first, last, middle, and all.
func emptyPatterns(k int) [][]int {
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	return [][]int{nil, {0}, {k - 1}, {k / 2}, all}
}

// keyedRuns returns one sorted run per size. Keys come from three values
// (or ±0 with signedZero), so records tie heavily within and across runs;
// seq is unique, so a tie broken the wrong way shows.
func keyedRuns(rng *rand.Rand, sizes []int, signedZero bool) [][]keyed {
	runs := make([][]keyed, len(sizes))
	seq := int64(0)
	for i, n := range sizes {
		r := make([]keyed, n)
		for j := range r {
			k := float64(rng.Intn(3))
			if signedZero {
				k = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
			r[j] = keyed{key: k, seq: seq}
			seq++
		}
		SortStable(r, lessKey)
		runs[i] = r
	}
	return runs
}

func lessEventY(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }

// eventRuns returns one sorted run of piece events per size, with y on a
// coarse grid so events tie across runs, and the weight set to a unique
// sequence number.
func eventRuns(rng *rand.Rand, sizes []int) [][]rec.PieceEvent {
	runs := make([][]rec.PieceEvent, len(sizes))
	seq := 0.0
	for i, n := range sizes {
		r := make([]rec.PieceEvent, n)
		for j := range r {
			o := rec.Object{X: float64(rng.Intn(50)), Y: float64(rng.Intn(20)), W: seq}
			bottom, top := rec.PieceEventsOf(rec.FromObject(o, 4, 4))
			r[j] = bottom
			if rng.Intn(2) == 1 {
				r[j] = top
			}
			seq++
		}
		SortStable(r, lessEventY)
		runs[i] = r
	}
	return runs
}

// TestMergeMatchesReference compares the loser-tree merge against the
// heap merge it replaced: k = 1, 2, 3 and the full fan-in, empty runs at
// every position, heavily tied and ±0 keys, and 41-byte piece events that
// straddle block boundaries at B = 4096 and at a tiny B.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, env := range []em.Env{em.MustNewEnv(64, 64*8), em.MustNewEnv(4096, 4096*25)} {
		fanIn := fanInOf(env)
		for _, k := range []int{1, 2, 3, fanIn} {
			for _, empty := range emptyPatterns(k) {
				for _, signedZero := range []bool{false, true} {
					runs := keyedRuns(rng, runSizes(rng, k, 300, empty...), signedZero)
					checkMergeMatchesRef(t, "keyed", env, keyedCodec{}, lessKey, runs)
				}
				runs := eventRuns(rng, runSizes(rng, k, 500, empty...))
				checkMergeMatchesRef(t, "events", env, rec.PieceEventCodec{}, lessEventY, runs)
			}
		}
		if n := env.Disk.InUse(); n != 0 {
			t.Fatalf("B=%d: %d blocks still in use", env.B(), n)
		}
	}
}

// TestMergeIntoReplayAfterAbort stops a MergeInto with a sink error at the
// first, a middle and the last record. The error comes back unchanged,
// the next MergeInto on the same Merger replays the full sequence, and
// Release returns every block.
func TestMergeIntoReplayAfterAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	env := em.MustNewEnv(64, 64*8)
	start := env.Disk.InUse()
	runs := keyedRuns(rng, runSizes(rng, 5, 200, 2), false)
	files := writeRuns(t, env, keyedCodec{}, runs)
	want, _ := encodedMerge(t, env, keyedCodec{}, func(sink func(keyed) error) error {
		return mergeIntoRef(files, keyedCodec{}, lessKey, sink)
	})
	total := len(want) / keyedCodec{}.Size()

	m := NewMerger(env, files, keyedCodec{}, lessKey, 1)
	errStop := errors.New("stop")
	for _, stopAt := range []int{0, total / 2, total - 1} {
		n := 0
		err := m.MergeInto(func(keyed) error {
			if n == stopAt {
				return errStop
			}
			n++
			return nil
		})
		if err != errStop {
			t.Fatalf("stop at %d: MergeInto returned %v, want the sink's error", stopAt, err)
		}
		got, _ := encodedMerge(t, env, keyedCodec{}, m.MergeInto)
		if !bytes.Equal(got, want) {
			t.Fatalf("stop at %d: replay differs from the reference merge", stopAt)
		}
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if got := env.Disk.InUse(); got != start {
		t.Fatalf("InUse %d after Release, want %d", got, start)
	}
}

// BenchmarkMergeInto replays the final merge of an exact-mem-sized root
// sort: 24 runs of 2557 piece events (one M-byte run each) and 24 runs of
// 13107 float64 edge values, at B = 4096 and fan-in 24.
func BenchmarkMergeInto(b *testing.B) {
	env := em.MustNewEnv(4096, 104857)
	rng := rand.New(rand.NewSource(7))
	b.Run("events", func(b *testing.B) {
		runs := make([][]rec.PieceEvent, 24)
		for i := range runs {
			r := make([]rec.PieceEvent, 2557)
			for j := range r {
				o := rec.Object{X: rng.Float64() * 1e6, Y: rng.Float64() * 1e6, W: 1}
				bottom, top := rec.PieceEventsOf(rec.FromObject(o, 1e4, 1e4))
				r[j] = bottom
				if j%2 == 1 {
					r[j] = top
				}
			}
			SortStable(r, lessEventY)
			runs[i] = r
		}
		benchMerge(b, env, rec.PieceEventCodec{}, lessEventY, runs)
	})
	b.Run("float64", func(b *testing.B) {
		runs := make([][]float64, 24)
		for i := range runs {
			r := make([]float64, 13107)
			for j := range r {
				r[j] = rng.Float64() * 1e6
			}
			SortStable(r, func(a, b float64) bool { return a < b })
			runs[i] = r
		}
		benchMerge(b, env, rec.Float64Codec{}, func(a, b float64) bool { return a < b }, runs)
	})
}

func benchMerge[T any](b *testing.B, env em.Env, codec em.Codec[T], less func(a, b T) bool, runs [][]T) {
	m := NewMerger(env, writeRuns(b, env, codec, runs), codec, less, 1)
	defer func() { _ = m.Release() }()
	sink := func(T) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MergeInto(sink); err != nil {
			b.Fatal(err)
		}
	}
}

package extsort

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/rec"
)

// keyed is a record whose ties are distinguishable: records sort by key
// only, and seq is the input position, so a stable sort leaves seq
// ascending within every key.
type keyed struct {
	key float64
	seq int64
}

type keyedCodec struct{}

func (keyedCodec) Size() int { return 16 }
func (keyedCodec) Encode(d []byte, v keyed) {
	binary.LittleEndian.PutUint64(d, math.Float64bits(v.key))
	binary.LittleEndian.PutUint64(d[8:], uint64(v.seq))
}
func (keyedCodec) Decode(s []byte) keyed {
	return keyed{
		key: math.Float64frombits(binary.LittleEndian.Uint64(s)),
		seq: int64(binary.LittleEndian.Uint64(s[8:])),
	}
}

func lessKey(a, b keyed) bool { return a.key < b.key }

// keyedInput returns n records with few distinct keys, so most records
// tie with many others. With signedZero, the keys are ±0 only: equal
// under <, distinguishable by their bits.
func keyedInput(rng *rand.Rand, n int, signedZero bool) []keyed {
	vals := make([]keyed, n)
	for i := range vals {
		k := float64(rng.Intn(7))
		if signedZero {
			k = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		vals[i] = keyed{key: k, seq: int64(i)}
	}
	return vals
}

// checkStable asserts got is the stable sort of in: every input record
// exactly once, in key order, with seq ascending within each key. For ±0
// keys, which all tie, that is the input order itself.
func checkStable(t *testing.T, what string, in, got []keyed) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(in))
	}
	seen := make([]bool, len(in))
	for i, r := range got {
		if r.seq < 0 || r.seq >= int64(len(in)) || seen[r.seq] ||
			math.Float64bits(r.key) != math.Float64bits(in[r.seq].key) {
			t.Fatalf("%s: record %d = %+v is not an unused input record", what, i, r)
		}
		seen[r.seq] = true
		if i == 0 {
			continue
		}
		if prev := got[i-1]; lessKey(r, prev) || (!lessKey(prev, r) && prev.seq > r.seq) {
			t.Fatalf("%s: %+v before %+v at %d", what, prev, r, i)
		}
	}
}

// TestSortStableKeepsTies sorts records whose ties are distinguishable
// through every stable path of the package: SortStable itself, SortP at
// several parallelism values, and RunBuilder + Merger.MergeInto.
// SortStable runs at the merge sort's block edges — one insertion block,
// two, and powers of two, each ±1 — and must match sort.SliceStable bit
// for bit.
func TestSortStableKeepsTies(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, 2, 1000}
	for _, edge := range []int{insertionRun, 2 * insertionRun, 64, 1024, 4096} {
		sizes = append(sizes, edge-1, edge, edge+1)
	}
	for _, signedZero := range []bool{false, true} {
		for _, n := range sizes {
			in := keyedInput(rng, n, signedZero)
			got := append([]keyed(nil), in...)
			SortStable(got, lessKey)
			checkStable(t, "SortStable", in, got)
			want := append([]keyed(nil), in...)
			sort.SliceStable(want, func(i, j int) bool { return lessKey(want[i], want[j]) })
			for i := range want {
				if math.Float64bits(got[i].key) != math.Float64bits(want[i].key) || got[i].seq != want[i].seq {
					t.Fatalf("SortStable n=%d: record %d = %+v, sort.SliceStable %+v", n, i, got[i], want[i])
				}
			}
		}
	}

	in := keyedInput(rng, 3000, false)
	for _, par := range []int{1, 2, 4} {
		env := em.MustNewEnv(128, 1024) // 64 records per run, fan-in 7
		f, err := em.WriteAll(env.Disk, keyedCodec{}, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SortP(env, f, keyedCodec{}, lessKey, par)
		if err != nil {
			t.Fatal(err)
		}
		got, err := em.ReadAll(out, keyedCodec{})
		if err != nil {
			t.Fatal(err)
		}
		checkStable(t, "SortP", in, got)

		rb, err := NewRunBuilder(env, keyedCodec{}, lessKey, par)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range in {
			if err := rb.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := rb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMerger(env, runs, keyedCodec{}, lessKey, par)
		if err := m.Reduce(); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		if err := m.MergeInto(func(v keyed) error { got = append(got, v); return nil }); err != nil {
			t.Fatal(err)
		}
		checkStable(t, "RunBuilder+Merger", in, got)
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkSortStable stable-sorts 10k transformed rectangles by Y1 on a
// coarse grid, the resident base case's sort.
func BenchmarkSortStable(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := make([]rec.WRect, 10_000)
	for i := range in {
		o := rec.Object{X: float64(rng.Intn(4000)), Y: float64(rng.Intn(4000)), W: 1}
		in[i] = rec.FromObject(o, 100, 100)
	}
	buf := make([]rec.WRect, len(in))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		SortStable(buf, func(a, b rec.WRect) bool { return a.Y1 < b.Y1 })
	}
}

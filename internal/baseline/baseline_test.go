package baseline

import (
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

func writeObjs(t *testing.T, env em.Env, objs []geom.Object) *em.File {
	t.Helper()
	recs := make([]rec.Object, len(objs))
	for i, o := range objs {
		recs[i] = rec.FromGeom(o)
	}
	f, err := em.WriteAll(env.Disk, rec.ObjectCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randObjs(rng *rand.Rand, n int, coord float64) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.Object{
			Point: geom.Point{
				X: math.Floor(rng.Float64() * coord),
				Y: math.Floor(rng.Float64() * coord),
			},
			W: float64(rng.Intn(5) + 1),
		}
	}
	return objs
}

func TestRewriteStatusSingleInterval(t *testing.T) {
	env := em.MustNewEnv(64, 512)
	status := em.NewFile(env.Disk)
	status, max, iv, err := rewriteStatus(env, status, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if max != 3 {
		t.Fatalf("max = %g, want 3", max)
	}
	if iv.Lo != 2 || iv.Hi != 5 {
		t.Fatalf("interval = %+v, want [2,5)", iv)
	}
	// Add an overlapping interval.
	status, max, iv, err = rewriteStatus(env, status, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if max != 5 {
		t.Fatalf("max = %g, want 5", max)
	}
	if iv.Lo != 4 || iv.Hi != 5 {
		t.Fatalf("interval = %+v, want [4,5)", iv)
	}
	// Remove the first: [4,8) at 2 remains.
	status, max, iv, err = rewriteStatus(env, status, 2, 5, -3)
	if err != nil {
		t.Fatal(err)
	}
	if max != 2 {
		t.Fatalf("max = %g, want 2", max)
	}
	if iv.Lo != 4 || iv.Hi != 8 {
		t.Fatalf("interval = %+v, want [4,8)", iv)
	}
	if err := status.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteStatusCompacts(t *testing.T) {
	env := em.MustNewEnv(64, 512)
	status := em.NewFile(env.Disk)
	var err error
	// Insert then fully remove: status must shrink back to the trivial
	// zero breakpoint, not accumulate dead records.
	for i := 0; i < 20; i++ {
		status, _, _, err = rewriteStatus(env, status, float64(i), float64(i+10), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		status, _, _, err = rewriteStatus(env, status, float64(i), float64(i+10), -1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := em.RecordCount(status, 16); n != 1 {
		t.Fatalf("status has %d breakpoints after full removal, want 1", n)
	}
}

func TestNaiveSweepSmallInMemoryPath(t *testing.T) {
	env := em.MustNewEnv(4096, 1<<20) // dataset fits: in-memory shortcut
	objs := []geom.Object{
		{Point: geom.Point{X: 1, Y: 1}, W: 1},
		{Point: geom.Point{X: 2, Y: 2}, W: 1},
		{Point: geom.Point{X: 9, Y: 9}, W: 1},
	}
	f := writeObjs(t, env, objs)
	res, err := NaiveSweep(env, f, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 2 {
		t.Fatalf("sum = %g, want 2", res.Sum)
	}
}

func TestNaiveSweepExternalPath(t *testing.T) {
	env := em.MustNewEnv(128, 1024) // 1 KB memory, dataset larger
	rng := rand.New(rand.NewSource(5))
	objs := randObjs(rng, 150, 80)
	f := writeObjs(t, env, objs)
	if f.Size() <= int64(env.M) {
		t.Fatal("test setup: dataset must exceed memory for the external path")
	}
	res, err := NaiveSweep(env, f, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 8, 8)
	if res.Sum != want.Sum {
		t.Fatalf("naive = %g, in-memory = %g", res.Sum, want.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 8, 8); got != res.Sum {
		t.Fatalf("returned point covers %g, claimed %g", got, res.Sum)
	}
}

func TestASBTreeSweepMatchesInMemory(t *testing.T) {
	env := em.MustNewEnv(128, 1024)
	rng := rand.New(rand.NewSource(21))
	objs := randObjs(rng, 200, 100)
	f := writeObjs(t, env, objs)
	res, err := ASBTreeSweep(env, f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.MaxRS(objs, 10, 10)
	if res.Sum != want.Sum {
		t.Fatalf("asb = %g, in-memory = %g", res.Sum, want.Sum)
	}
	if got := geom.WeightIn(objs, res.Best(), 10, 10); got != res.Sum {
		t.Fatalf("returned point covers %g, claimed %g", got, res.Sum)
	}
}

func TestASBTreeEmptyInput(t *testing.T) {
	env := em.MustNewEnv(256, 2048)
	f := writeObjs(t, env, nil)
	res, err := ASBTreeSweep(env, f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 0 {
		t.Fatalf("sum = %g", res.Sum)
	}
}

// All three algorithms (the two baselines and the reference in-memory
// sweep) must agree on random inputs across EM geometries.
func TestBaselinesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		blockSize := 128 * (rng.Intn(3) + 1) // ≥ 128: aSB-tree nodes need ≥ 2 internal entries
		memBlocks := rng.Intn(8) + 6
		env := em.MustNewEnv(blockSize, blockSize*memBlocks)
		n := rng.Intn(150) + 20
		objs := randObjs(rng, n, float64(rng.Intn(150)+30))
		w := math.Floor(rng.Float64()*20) + 2
		h := math.Floor(rng.Float64()*20) + 2
		want := sweep.MaxRS(objs, w, h)

		f := writeObjs(t, env, objs)
		naive, err := NaiveSweep(env, f, w, h)
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		if naive.Sum != want.Sum {
			t.Fatalf("trial %d: naive %g, want %g", trial, naive.Sum, want.Sum)
		}
		asb, err := ASBTreeSweep(env, f, w, h)
		if err != nil {
			t.Fatalf("trial %d asb: %v", trial, err)
		}
		if asb.Sum != want.Sum {
			t.Fatalf("trial %d: asb %g, want %g", trial, asb.Sum, want.Sum)
		}
	}
}

// The I/O ordering that justifies the paper's headline claim: on inputs
// that exceed memory, NaiveSweep ≫ ASBTree ≫ (and both beaten by) the
// linear cost of scanning — checked here as Naive > ASB.
func TestBaselineCostOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := randObjs(rng, 600, 2400)
	cost := func(run func(env em.Env, f *em.File) error) uint64 {
		env := em.MustNewEnv(256, 2048)
		f := writeObjs(t, env, objs)
		env.Disk.ResetStats()
		if err := run(env, f); err != nil {
			t.Fatal(err)
		}
		return env.Disk.Stats().Total()
	}
	naive := cost(func(env em.Env, f *em.File) error {
		_, err := NaiveSweep(env, f, 100, 100)
		return err
	})
	asb := cost(func(env em.Env, f *em.File) error {
		_, err := ASBTreeSweep(env, f, 100, 100)
		return err
	})
	if naive <= asb {
		t.Fatalf("expected naive (%d) > aSB-tree (%d) I/O", naive, asb)
	}
}

func TestASBTreeBufferSensitivity(t *testing.T) {
	// More buffer ⇒ more cached levels ⇒ strictly less I/O.
	rng := rand.New(rand.NewSource(12))
	objs := randObjs(rng, 800, 3200)
	cost := func(mem int) uint64 {
		env := em.MustNewEnv(256, mem)
		f := writeObjs(t, env, objs)
		env.Disk.ResetStats()
		if _, err := ASBTreeSweep(env, f, 120, 120); err != nil {
			t.Fatal(err)
		}
		return env.Disk.Stats().Total()
	}
	small := cost(4 * 256)
	large := cost(64 * 256)
	if large >= small {
		t.Fatalf("buffer growth did not reduce aSB-tree I/O: %d → %d", small, large)
	}
}

// TestTruncatedInputLeaksNothing feeds each baseline an object file that
// ends mid-record, so its scan fails partway through, after intermediate
// files have been created and partly written, and requires Disk.InUse to
// come back to the input file's own blocks.
func TestTruncatedInputLeaksNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep func(em.Env, *em.File, float64, float64) (sweep.Result, error)
	}{
		{"NaiveSweep", NaiveSweep},
		{"aSB-Tree", ASBTreeSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := em.MustNewEnv(512, 4096)
			f := env.NewFile()
			w := f.NewWriter()
			// Many whole records (several blocks), then a ragged tail.
			if _, err := w.Write(make([]byte, 24*200+7)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			base := env.Disk.InUse()
			if _, err := tc.sweep(env, f, 10, 10); err == nil {
				t.Fatal("sweep over a truncated object file must fail")
			}
			if n := env.Disk.InUse(); n != base {
				t.Fatalf("InUse = %d after the failed sweep, want the input's %d", n, base)
			}
			if err := f.Release(); err != nil {
				t.Fatal(err)
			}
			if n := env.Disk.InUse(); n != 0 {
				t.Fatalf("InUse = %d after releasing the input, want 0", n)
			}
		})
	}
}

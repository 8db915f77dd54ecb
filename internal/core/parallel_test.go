package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
)

// gaussObjects produces integer-coordinate objects from a clamped Gaussian
// so that, as with randObjects, float arithmetic is exact and comparable.
func gaussObjects(rng *rand.Rand, n int, coord float64) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		clamp := func(v float64) float64 {
			return math.Min(coord-1, math.Max(0, math.Floor(v)))
		}
		objs[i] = geom.Object{
			Point: geom.Point{
				X: clamp(coord/2 + rng.NormFloat64()*coord/8),
				Y: clamp(coord/2 + rng.NormFloat64()*coord/8),
			},
			W: float64(rng.Intn(9) + 1),
		}
	}
	return objs
}

// sameXObjects puts every object on one vertical line: after the §5.1
// transform every rectangle shares its x-extent, so every slab boundary
// lands on tied edge values and all pieces divert to spanning files — the
// degenerate extreme of the division phase.
func sameXObjects(rng *rand.Rand, n int) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.Object{
			Point: geom.Point{X: 500, Y: math.Floor(rng.Float64() * 10_000)},
			W:     float64(rng.Intn(9) + 1),
		}
	}
	return objs
}

// TestParallelEquivalence is the contract of DESIGN.md §6: for every
// workload shape and every Parallelism value, ExactMaxRS must return the
// same result and count exactly the same number of block transfers as the
// sequential schedule. Run under -race in CI, this doubles as the data-race
// test of the concurrent solver.
func TestParallelEquivalence(t *testing.T) {
	const n = 3000
	workloads := map[string][]geom.Object{
		"uniform":    randObjects(rand.New(rand.NewSource(42)), n, 40_000),
		"gaussian":   gaussObjects(rand.New(rand.NewSource(43)), n, 40_000),
		"all-same-x": sameXObjects(rand.New(rand.NewSource(44)), n),
	}
	parallelisms := []int{1, 2, runtime.GOMAXPROCS(0)}
	const w, h = 600, 600

	for name, objs := range workloads {
		var (
			baseRes   geom.Rect
			baseSum   float64
			baseTotal uint64
			haveBase  bool
		)
		for _, p := range parallelisms {
			// Small memory forces several recursion levels (capacity ≈ 49
			// events against 2n of them) so the worker pool really fans out.
			env := em.MustNewEnv(256, 2048)
			f := writeObjects(t, env, objs)
			s := mustSolver(t, env, Config{Parallelism: p})
			env.Disk.ResetStats()
			res, err := s.SolveObjects(f, w, h)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			total := env.Disk.Stats().Total()
			if !haveBase {
				baseRes, baseSum, baseTotal, haveBase = res.Region, res.Sum, total, true
				continue
			}
			if res.Region != baseRes || res.Sum != baseSum {
				t.Errorf("%s p=%d: result %+v sum %g differs from p=1 result %+v sum %g",
					name, p, res.Region, res.Sum, baseRes, baseSum)
			}
			if total != baseTotal {
				t.Errorf("%s p=%d: %d block transfers, want %d (same as p=1)",
					name, p, total, baseTotal)
			}
		}
	}
}

// TestParallelismValidation checks the Config contract.
func TestParallelismValidation(t *testing.T) {
	env := em.MustNewEnv(256, 2048)
	if _, err := NewSolver(env, Config{Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism must be rejected")
	}
	for _, p := range []int{0, 1, 7} {
		if _, err := NewSolver(env, Config{Parallelism: p}); err != nil {
			t.Fatalf("parallelism %d rejected: %v", p, err)
		}
	}
}

// TestParallelOnFileBackedDisk runs the parallel solver against the
// file store, exercising its pooled bounce buffers and the pipelined
// streams under concurrency.
func TestParallelOnFileBackedDisk(t *testing.T) {
	d, err := em.NewFileBackedDisk(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	env := em.Env{Disk: d, M: 2048}
	objs := randObjects(rand.New(rand.NewSource(7)), 1500, 20_000)
	f := writeObjects(t, env, objs)
	s := mustSolver(t, env, Config{Parallelism: 4})
	res, err := s.SolveObjects(f, 500, 500)
	if err != nil {
		t.Fatal(err)
	}

	memEnv := em.MustNewEnv(256, 2048)
	memF := writeObjects(t, memEnv, objs)
	memS := mustSolver(t, memEnv, Config{Parallelism: 1})
	want, err := memS.SolveObjects(memF, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Region != want.Region || res.Sum != want.Sum {
		t.Fatalf("file-backed parallel result %+v/%g != sequential in-memory %+v/%g",
			res.Region, res.Sum, want.Region, want.Sum)
	}
}

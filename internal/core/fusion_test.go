package core

import (
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// fusionEnv is the EM geometry of the equivalence tests: small enough
// memory that 4000 objects (8000 events) divide at the root with
// multi-run sorts on both streams — the precondition for the golden
// transfer-saving formula below.
func fusionEnv() em.Env { return em.MustNewEnv(4096, 52*1024) }

// TestFusionEquivalence is the golden contract of the fused pipeline
// (DESIGN.md §8), checked across workload shapes and parallelism values:
//
//  1. The fused result is bit-identical to Config.Unfused.
//  2. The fused transfer total is identical at every Parallelism.
//  3. The fusion saves at least four full passes over the event stream
//     plus two over the edge stream at the root: the unsorted write and
//     run-formation read of both streams (input→run fusion) and the final
//     merge write and root re-read of the event stream (merge→divide
//     fusion). The edges' two root reads trade for two final-merge
//     replays, so they contribute the input→run half only — the floor
//     asserted here; run-padding slack is why the events' merge half is
//     asserted as a floor too. 4·⌈N_events/B⌉ alone exceeds 4 full passes
//     over the 24-byte input objects, the ISSUE's per-stream-pair bound.
//
// Run under -race in CI, it doubles as the data-race test of the fused
// concurrent root.
func TestFusionEquivalence(t *testing.T) {
	const n = 4000
	extent := 4.0 * n
	workloads := map[string][]geom.Object{
		"uniform":     workload.Uniform(2012, n, extent),
		"gaussian":    workload.Gaussian(2013, n, extent),
		"syntheticNE": workload.Sample(7, workload.SyntheticNE(2012), n),
	}
	const w, h = 900, 900

	for name, objs := range workloads {
		// Reference: the unfused pipeline.
		refEnv := fusionEnv()
		refFile := writeObjects(t, refEnv, objs)
		refSolver := mustSolver(t, refEnv, Config{Unfused: true, Parallelism: 1})
		refEnv.Disk.ResetStats()
		want, err := refSolver.SolveObjects(refFile, w, h)
		if err != nil {
			t.Fatalf("%s unfused: %v", name, err)
		}
		unfusedTotal := refEnv.Disk.Stats().Total()
		if got, wantBlocks := refEnv.Disk.InUse(), refFile.Blocks(); got != wantBlocks {
			t.Fatalf("%s unfused: %d blocks in use, want %d", name, got, wantBlocks)
		}

		// The asserted saving floor, from the record counts: every object
		// produces two 41-byte events and four 8-byte edge values.
		blockOf := func(bytes int) uint64 { return uint64((bytes + 4095) / 4096) }
		evBlocks := blockOf(2 * n * rec.PieceEventCodec{}.Size())
		edBlocks := blockOf(4 * n * rec.Float64Codec{}.Size())
		minSaving := 4*evBlocks + 2*edBlocks

		var fusedTotal uint64
		for _, p := range []int{1, 2, 4, 8} {
			env := fusionEnv()
			f := writeObjects(t, env, objs)
			s := mustSolver(t, env, Config{Parallelism: p})
			env.Disk.ResetStats()
			got, err := s.SolveObjects(f, w, h)
			if err != nil {
				t.Fatalf("%s fused p=%d: %v", name, p, err)
			}
			total := env.Disk.Stats().Total()
			if got.Region != want.Region || got.Sum != want.Sum {
				t.Errorf("%s fused p=%d: result %+v sum %g differs from unfused %+v sum %g",
					name, p, got.Region, got.Sum, want.Region, want.Sum)
			}
			if p == 1 {
				fusedTotal = total
				if saving := unfusedTotal - total; total >= unfusedTotal || saving < minSaving {
					t.Errorf("%s: fused %d vs unfused %d transfers: saving %d < asserted floor %d (events %d, edges %d blocks)",
						name, total, unfusedTotal, saving, minSaving, evBlocks, edBlocks)
				}
			} else if total != fusedTotal {
				t.Errorf("%s fused p=%d: %d transfers, want %d (same as p=1)", name, p, total, fusedTotal)
			}
			if got, wantBlocks := env.Disk.InUse(), f.Blocks(); got != wantBlocks {
				t.Errorf("%s fused p=%d: %d blocks in use, want %d (intermediates leaked)",
					name, p, got, wantBlocks)
			}
		}
	}
}

// TestFusionEquivalenceSmall covers the resident base case and near-
// capacity boundaries, where the fused path skips the disk entirely:
// results must still match the unfused pipeline exactly. The float variant
// is mostly resident (n ≤ 40) and uses non-integer weights of mixed
// magnitude and crowded x and coarse-grid y coordinates, so many events
// share a y and their sort order decides the order of the float additions
// in the sweep: the resident sort must reproduce the unfused pipeline's
// event order for Region and Sum to match bit for bit.
func TestFusionEquivalenceSmall(t *testing.T) {
	variants := []struct {
		name    string
		seed    int64
		maxN    int
		objects func(rng *rand.Rand, n int, coord float64) []geom.Object
	}{
		{"integer", 19, 250, randObjects},
		{"float", 23, 40, randFloatObjects},
	}
	for _, v := range variants {
		rng := rand.New(rand.NewSource(v.seed))
		for trial := 0; trial < 30; trial++ {
			blockSize := 64 * (rng.Intn(4) + 1)
			memBlocks := rng.Intn(12) + 6
			n := rng.Intn(v.maxN) + 1
			coord := float64(rng.Intn(300) + 40)
			objs := v.objects(rng, n, coord)
			w := float64(rng.Intn(30) + 2)
			h := float64(rng.Intn(30) + 2)

			run := func(unfused bool) (geom.Rect, float64) {
				env := em.MustNewEnv(blockSize, blockSize*memBlocks)
				f := writeObjects(t, env, objs)
				s := mustSolver(t, env, Config{Unfused: unfused})
				res, err := s.SolveObjects(f, w, h)
				if err != nil {
					t.Fatalf("%s trial %d (unfused=%v): %v", v.name, trial, unfused, err)
				}
				if got, want := env.Disk.InUse(), f.Blocks(); got != want {
					t.Fatalf("%s trial %d (unfused=%v): %d blocks in use, want %d", v.name, trial, unfused, got, want)
				}
				return res.Region, res.Sum
			}
			fr, fs := run(false)
			ur, us := run(true)
			if fr != ur || math.Float64bits(fs) != math.Float64bits(us) {
				t.Fatalf("%s trial %d (B=%d M/B=%d n=%d): fused %+v/%g != unfused %+v/%g",
					v.name, trial, blockSize, memBlocks, n, fr, fs, ur, us)
			}
		}
	}
}

// randFloatObjects draws non-integer weights of either sign spanning six
// decades, x from [0, coord/8) so rectangles overlap heavily, and y on a
// grid of step 5, so the transformed rectangles' edges tie.
func randFloatObjects(rng *rand.Rand, n int, coord float64) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.Object{
			Point: geom.Point{
				X: math.Floor(rng.Float64() * coord / 8),
				Y: 5 * math.Floor(rng.Float64()*coord/40),
			},
			W: (rng.Float64()*9 - 2) * math.Pow(10, float64(rng.Intn(7)-3)),
		}
	}
	return objs
}

// TestFusedEmptyAndDegenerate pins the fused edge cases: empty input and
// all-degenerate rectangles resolve in memory with zero transfers beyond
// the input read.
func TestFusedEmptyAndDegenerate(t *testing.T) {
	env := em.MustNewEnv(256, 2048)
	s := mustSolver(t, env, Config{})
	f := writeObjects(t, env, nil)
	res, err := s.SolveObjects(f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 0 {
		t.Fatalf("empty input sum = %g", res.Sum)
	}
	// Degenerate rectangles (zero area after transform) are skipped by
	// both pipelines.
	rects := []rec.WRect{{X1: 5, X2: 5, Y1: 0, Y2: 4, W: 1}}
	rf, err := em.WriteAll(env.Disk, rec.WRectCodec{}, rects)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.SolveRects(rf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != 0 {
		t.Fatalf("degenerate rect sum = %g", res.Sum)
	}
}

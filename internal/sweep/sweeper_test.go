package sweep

import (
	"fmt"
	"math/rand"
	"testing"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// TestSweeperReuseMatchesSlab runs one Sweeper over a seeded sequence of
// inputs that grow and shrink between 1 and 10k rectangles — tie-heavy
// grids, non-integer weights, clipping slabs — and requires every sweep
// to match a fresh Slab and the reference kernel bit for bit. A stale
// event, cell or tree node left over from a larger sweep would show here.
func TestSweeperReuseMatchesSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{1, 10_000, 3, 2_000, 1, 120, 10_000, 7, 9_999, 40, 500, 1}
	for i := 0; i < 24; i++ {
		sizes = append(sizes, rng.Intn(3_000)+1)
	}
	var sw Sweeper
	for trial, n := range sizes {
		rects, slab := tieCase(rng, n, trial)
		what := fmt.Sprintf("trial %d (n=%d)", trial, n)
		got := sw.Slab(rects, slab)
		sameTuples(t, what+" vs Slab", got, Slab(rects, slab))
		sameTuples(t, what+" vs reference", got, slabReference(rects, slab))
	}
}

// TestSweeperReuseAllocatesNothing pins the point of a Sweeper: once it
// has swept an input, sweeping one of the same or a smaller size makes no
// allocation at all.
func TestSweeperReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randRects(rng, 2_000, 8_000, 100)
	small := randRects(rng, 300, 1_200, 50)
	clip := geom.Interval{Lo: 1_000, Hi: 5_000}
	var sw Sweeper
	sw.Slab(big, fullSlab())
	for _, c := range []struct {
		name  string
		rects []rec.WRect
		slab  geom.Interval
	}{
		{"same size", big, fullSlab()},
		{"smaller", small, fullSlab()},
		{"clipped", big, clip},
	} {
		if allocs := testing.AllocsPerRun(20, func() { sw.Slab(c.rects, c.slab) }); allocs != 0 {
			t.Errorf("%s: %v allocations per reused sweep, want 0", c.name, allocs)
		}
	}
}

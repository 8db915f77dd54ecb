package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// sameResult fails t unless got and want agree in every field, compared
// by math.Float64bits.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	g := []float64{got.Region.X.Lo, got.Region.X.Hi, got.Region.Y.Lo, got.Region.Y.Hi, got.Sum}
	w := []float64{want.Region.X.Lo, want.Region.X.Hi, want.Region.Y.Lo, want.Region.Y.Hi, want.Sum}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: got %+v, want %+v", what, got, want)
		}
	}
}

// checkSlabBest requires the best-only sweep to return the max-region of
// both Slab's tuples and the reference kernel's, bit for bit.
func checkSlabBest(t *testing.T, what string, rects []rec.WRect, slab geom.Interval) {
	t.Helper()
	got := SlabBest(rects, slab)
	sameResult(t, what+" vs BestRegion(Slab)", got, BestRegion(Slab(rects, slab)))
	sameResult(t, what+" vs BestRegion(slabReference)", got, BestRegion(slabReference(rects, slab)))
}

// TestSlabBestMatchesSlab runs the best-only sweep over the tie-heavy
// cases of TestSlabMatchesReference: non-integer, negative and zero
// weights, coarse grids, finite and infinite slabs, rectangles outside
// the slab.
func TestSlabBestMatchesSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 3000; trial++ {
		n := 1
		if trial%10 != 0 {
			n = rng.Intn(120) + 1
		}
		rects, slab := tieCase(rng, n, trial)
		checkSlabBest(t, fmt.Sprintf("trial %d", trial), rects, slab)
	}
	checkSlabBest(t, "no rectangles", nil, fullSlab())
	checkSlabBest(t, "empty slab", []rec.WRect{{X1: 0, X2: 1, Y1: 0, Y2: 1, W: 1}}, geom.Interval{Lo: 1, Hi: 1})
}

// FuzzSweepBest decodes arbitrary bytes into a slab and rectangles — small
// coordinates on a coarse grid, so ys and xs tie, with ±0 among them;
// integer, decimal, negative, −0 and large weights; the whole plane, a
// clipping slab, a half-infinite slab or an empty one — and requires the
// best-only sweep to match BestRegion of both Slab and the reference
// kernel in every bit.
func FuzzSweepBest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 3, 2, 2, 9, 4, 4, 2, 2, 9})
	f.Add([]byte{1, 2, 12, 0x83, 0x80, 1, 1, 0x41, 0x85, 0x81, 3, 1, 0x27})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 8, 0x88, 4, 4, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 600)]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		flags := next()
		grid := []float64{1, 0.5, 0.1, 1e6}[flags>>2&3]
		coord := func(b int) float64 {
			v := float64(b&15-8) * grid
			if v == 0 && b&0x80 != 0 {
				v = math.Copysign(0, -1)
			}
			return v
		}
		weight := func(b int) float64 {
			switch b >> 6 {
			case 0:
				return float64(b&15 - 5)
			case 1:
				return float64(b&31-12) / 10
			case 2:
				if b&1 == 0 {
					return math.Copysign(0, -1)
				}
				return float64(b&63-31) * 1e9
			}
			return -float64(b&63) / 3
		}
		inf := math.Inf(1)
		slab := geom.Interval{Lo: -inf, Hi: inf}
		switch lo, hi := coord(next()), coord(next()); flags & 3 {
		case 1:
			slab = geom.Interval{Lo: lo, Hi: hi} // empty unless lo < hi
		case 2:
			slab.Lo = lo
		case 3:
			slab.Hi = hi
		}
		var rects []rec.WRect
		for len(data) > 0 {
			x, y := coord(next()), coord(next())
			rects = append(rects, rec.WRect{
				X1: x, X2: x + float64(next()&7)*grid,
				Y1: y, Y2: y + float64(next()&7)*grid,
				W: weight(next()),
			})
		}
		checkSlabBest(t, fmt.Sprintf("slab %v, %d rectangles", slab, len(rects)), rects, slab)
	})
}

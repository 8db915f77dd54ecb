package core

import (
	"fmt"
	"math"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
	"maxrs/internal/workload"
)

// residentEnv holds 4096/41 = 99 piece events in memory: an odd capacity,
// so a resident root holds at most ⌊99/2⌋ = 49 rectangles.
func residentEnv() em.Env { return em.MustNewEnv(256, 4096) }

// TestResidencyBoundary pins where a root stops being resident. At
// ⌊capacity/2⌋ non-degenerate rectangles it sorts and sweeps in memory:
// no transfer beyond the scan of its input file. One rectangle more and
// it divides, with the transfer counts of the schedule that fed every
// rectangle straight into the run builders, which stores one value per
// piece edge and gives certified base cases rectangle files. Degenerate
// rectangles count for nothing: a file that holds more records than a
// resident root may, but no more non-degenerate ones, stays resident,
// and an all-degenerate file is answered with the whole plane at sum +0.
// TestResidencyBoundaryPredicted holds the planner to both counts.
func TestResidencyBoundary(t *testing.T) {
	const w, h = 150, 150
	half := int(mustSolver(t, residentEnv(), Config{}).capacity() / 2)
	if half != 49 {
		t.Fatalf("half capacity %d, want 49", half)
	}
	objs := workload.Uniform(28, half+1, 1000)
	for _, p := range []int{1, 2} {
		for _, n := range []int{half, half + 1} {
			name := fmt.Sprintf("p=%d/n=%d", p, n)
			env := residentEnv()
			f := writeObjects(t, env, objs[:n])
			env.Disk.ResetStats()
			got, err := mustSolver(t, env, Config{Parallelism: p}).SolveObjects(f, w, h)
			if err != nil {
				t.Fatal(err)
			}
			st := env.Disk.Stats()
			if live := env.Disk.InUse(); live != f.Blocks() {
				t.Fatalf("%s: %d blocks in use, want the object file's %d", name, live, f.Blocks())
			}
			if want := sweep.MaxRS(objs[:n], w, h); got.Sum != want.Sum {
				t.Fatalf("%s: sum %g, in-memory sweep %g", name, got.Sum, want.Sum)
			}
			if n == half {
				scan := em.Stats{Reads: uint64(f.Blocks())}
				if st != scan {
					t.Fatalf("%s: resident root cost %v, want the object scan alone, %v", name, st, scan)
				}
				continue
			}
			// The counts of the schedule that fed every rectangle
			// straight into the root's run builders: 102 reads and 97
			// writes with two values per piece edge and event files for
			// the 15 certified children, less 3 of each for the edge
			// runs' second copies and 14 for the top events (the
			// reference of unreadref_test.go reproduces both counts).
			if want := (em.Stats{Reads: 85, Writes: 80}); st != want {
				t.Fatalf("%s: dividing root cost %v, want %v", name, st, want)
			}
		}
	}

	// Rectangles of the objects above, each followed by a degenerate one:
	// a zero-width, a zero-height and an inverted rectangle in turn.
	var mixed, kept []rec.WRect
	for i, o := range objs[:half] {
		r := rec.FromObject(rec.FromGeom(o), w, h)
		kept = append(kept, r)
		d := r
		switch i % 3 {
		case 0:
			d.X2 = d.X1
		case 1:
			d.Y2 = d.Y1
		default:
			d.Y1, d.Y2 = d.Y2, d.Y1
		}
		mixed = append(mixed, r, d)
	}
	degenerate := make([]rec.WRect, 0, len(mixed)/2)
	for i := 1; i < len(mixed); i += 2 {
		degenerate = append(degenerate, mixed[i])
	}
	whole := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	for _, c := range []struct {
		name  string
		rects []rec.WRect
		want  sweep.Result
	}{
		{"degenerate under capacity", mixed, sweep.MaxRSRects(kept)},
		{"all degenerate", degenerate, sweep.Result{Region: geom.Rect{X: whole, Y: whole}}},
	} {
		env := residentEnv()
		f, err := em.WriteAll(env.Disk, rec.WRectCodec{}, c.rects)
		if err != nil {
			t.Fatal(err)
		}
		env.Disk.ResetStats()
		got, err := mustSolver(t, env, Config{}).SolveRects(f)
		if err != nil {
			t.Fatal(err)
		}
		if st, scan := env.Disk.Stats(), (em.Stats{Reads: uint64(f.Blocks())}); st != scan {
			t.Fatalf("%s: cost %v, want the rectangle scan alone, %v", c.name, st, scan)
		}
		if !sameResult(got, c.want) {
			t.Fatalf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}

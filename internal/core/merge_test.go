package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// handPartition splits rects at the given bounds within slab exactly like
// the division phase, but independently (no file machinery): it returns
// the non-spanning fragments per child and the spanning pieces.
func handPartition(rects []rec.WRect, slab geom.Interval, bounds []float64) (children [][]rec.WRect, spanning []rec.WRect) {
	children = make([][]rec.WRect, len(bounds)+1)
	for _, r := range rects {
		i := childOfPoint(bounds, r.X1)
		j := childOfSup(bounds, r.X2)
		leftSpan := r.X1 == slabLo(slab, bounds, i)
		rightSpan := r.X2 == slabHi(slab, bounds, j)
		if i == j {
			if leftSpan && rightSpan {
				spanning = append(spanning, r)
			} else {
				children[i] = append(children[i], r)
			}
			continue
		}
		spanStart, spanEnd := i, j
		if !leftSpan {
			lf := r
			lf.X2 = slabHi(slab, bounds, i)
			children[i] = append(children[i], lf)
			spanStart = i + 1
		}
		if !rightSpan {
			rf := r
			rf.X1 = slabLo(slab, bounds, j)
			children[j] = append(children[j], rf)
			spanEnd = j - 1
		}
		if spanStart <= spanEnd {
			sp := r
			sp.X1 = slabLo(slab, bounds, spanStart)
			sp.X2 = slabHi(slab, bounds, spanEnd)
			spanning = append(spanning, sp)
		}
	}
	return children, spanning
}

// mergeSweepFile runs mergeSweep into a new slab file, as solve does.
func (s *task) mergeSweepFile(slabFiles []*em.File, spanning *em.File, bounds []float64, slab geom.Interval) (_ *em.File, err error) {
	out := s.env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	w, err := em.NewRecordWriter(out, rec.TupleCodec{})
	if err != nil {
		return nil, err
	}
	if err := s.mergeSweep(slabFiles, spanning, bounds, slab, w.Write); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// runMergeSweep drives s.mergeSweep over hand-built child slab files and a
// spanning event file, returning the merged tuples.
func runMergeSweep(t *testing.T, s *Solver, slab geom.Interval, bounds []float64,
	children [][]rec.WRect, spanning []rec.WRect) []rec.Tuple {
	t.Helper()
	slabFiles := make([]*em.File, len(children))
	for i, frags := range children {
		childSlab := geom.Interval{Lo: slabLo(slab, bounds, i), Hi: slabHi(slab, bounds, i)}
		tuples := sweep.Slab(frags, childSlab)
		f, err := em.WriteAll(s.env.Disk, rec.TupleCodec{}, tuples)
		if err != nil {
			t.Fatal(err)
		}
		slabFiles[i] = f
	}
	var spanEvents []rec.PieceEvent
	for _, r := range spanning {
		b, top := rec.PieceEventsOf(r)
		spanEvents = append(spanEvents, b, top)
	}
	sort.SliceStable(spanEvents, func(a, b int) bool { return spanEvents[a].Y() < spanEvents[b].Y() })
	spanFile, err := em.WriteAll(s.env.Disk, rec.PieceEventCodec{}, spanEvents)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.task(nil, nil).mergeSweepFile(slabFiles, spanFile, bounds, slab)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := em.ReadAll(out, rec.TupleCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// locationWeightAt computes the brute-force location-weight at (x, y).
func locationWeightAt(rects []rec.WRect, x, y float64) float64 {
	var s float64
	for _, r := range rects {
		if x >= r.X1 && x < r.X2 && y >= r.Y1 && y < r.Y2 {
			s += r.W
		}
	}
	return s
}

// TestMergeSweepMatchesWholeSweep is the direct Algorithm 1 correctness
// test: hand-partition random rectangles into children + spanning pieces,
// build the child slab files with the independent in-memory sweep, merge,
// and verify every merged tuple against the whole-space sweep.
func TestMergeSweepMatchesWholeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		env := em.MustNewEnv(256, 4096)
		s := mustSolver(t, env, Config{})
		slab := geom.Interval{Lo: 0, Hi: 100}
		nb := rng.Intn(3) + 1
		boundSet := map[float64]bool{}
		for len(boundSet) < nb {
			boundSet[math.Floor(rng.Float64()*80)+10] = true
		}
		var bounds []float64
		for b := range boundSet {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)

		n := rng.Intn(60) + 5
		rects := make([]rec.WRect, n)
		for i := range rects {
			x := math.Floor(rng.Float64() * 90)
			y := math.Floor(rng.Float64() * 90)
			w := math.Floor(rng.Float64()*40) + 1
			h := math.Floor(rng.Float64()*20) + 1
			x2 := math.Min(x+w, 100)
			rects[i] = rec.WRect{X1: x, X2: x2, Y1: y, Y2: y + h, W: float64(rng.Intn(4) + 1)}
		}

		children, spanning := handPartition(rects, slab, bounds)
		merged := runMergeSweep(t, s, slab, bounds, children, spanning)
		want := sweep.Slab(rects, slab)

		// Every whole-space tuple must have a merged counterpart at the
		// same y with the same max sum.
		mergedAt := map[float64]rec.Tuple{}
		for _, m := range merged {
			mergedAt[m.Y] = m // last tuple at y wins; ys are distinct anyway
		}
		for _, wt := range want {
			m, ok := mergedAt[wt.Y]
			if !ok {
				t.Fatalf("trial %d: no merged tuple at y=%g", trial, wt.Y)
			}
			if m.Sum != wt.Sum {
				t.Fatalf("trial %d: at y=%g merged sum %g, want %g (bounds %v)",
					trial, wt.Y, m.Sum, wt.Sum, bounds)
			}
			// The merged interval must attain the sum just above the h-line.
			if m.X2 > m.X1 {
				px := m.X1 + (m.X2-m.X1)/2
				if math.IsInf(m.X1, -1) {
					px = m.X2 - 1e-3
				}
				if math.IsInf(m.X2, 1) {
					px = m.X1
				}
				if got := locationWeightAt(rects, px, wt.Y); got != m.Sum {
					t.Fatalf("trial %d: merged interval [%g,%g) at y=%g attains %g, claimed %g",
						trial, m.X1, m.X2, wt.Y, got, m.Sum)
				}
			}
		}
	}
}

// TestMergeSweepSpanningOnly exercises the degenerate division where every
// piece spans a child (all-identical rectangles): children are empty and
// the whole answer comes from upSum bookkeeping.
func TestMergeSweepSpanningOnly(t *testing.T) {
	env := em.MustNewEnv(256, 4096)
	s := mustSolver(t, env, Config{})
	slab := geom.Interval{Lo: 0, Hi: 100}
	bounds := []float64{20, 80}
	// Pieces exactly covering child 1 = [20, 80) at varying y.
	var spanning []rec.WRect
	for i := 0; i < 5; i++ {
		spanning = append(spanning, rec.WRect{
			X1: 20, X2: 80, Y1: float64(10 * i), Y2: float64(10*i + 25), W: 2,
		})
	}
	children := make([][]rec.WRect, 3)
	merged := runMergeSweep(t, s, slab, bounds, children, spanning)
	if len(merged) == 0 {
		t.Fatal("no merged tuples")
	}
	var best rec.Tuple
	for _, m := range merged {
		if m.Sum > best.Sum {
			best = m
		}
	}
	// At y in [20,25) three pieces overlap: sum 6.
	if best.Sum != 6 {
		t.Fatalf("best sum = %g, want 6", best.Sum)
	}
	if best.X1 != 20 || best.X2 != 80 {
		t.Fatalf("best interval [%g,%g), want [20,80)", best.X1, best.X2)
	}
}

// runTreeBest answers GetMaxInterval for one line through a fresh run
// tree holding the given child tuples and spanning weights.
func runTreeBest(y float64, tslab []rec.Tuple, upSum []float64, slab geom.Interval, bounds []float64) rec.Tuple {
	rt := newRunTree(slab, bounds)
	for i := range tslab {
		rt.setTuple(i, tslab[i])
		rt.addSpan(i, upSum[i])
	}
	return rt.best(y)
}

// TestBestTupleMergesAdjacent checks GetMaxInterval's merge step: two
// adjacent children at the same effective sum with touching intervals
// produce one extended interval.
func TestBestTupleMergesAdjacent(t *testing.T) {
	slab := geom.Interval{Lo: 0, Hi: 100}
	bounds := []float64{50}
	tslab := []rec.Tuple{
		{Y: 1, X1: 30, X2: 50, Sum: 4}, // reaches its slab's right edge
		{Y: 1, X1: 50, X2: 70, Sum: 4}, // starts at its slab's left edge
	}
	upSum := []float64{0, 0}
	got := runTreeBest(5, tslab, upSum, slab, bounds)
	if got.Sum != 4 || got.X1 != 30 || got.X2 != 70 {
		t.Fatalf("runTreeBest = %+v, want [30,70) sum 4", got)
	}
	// Non-touching intervals with equal sums must NOT merge; the longer
	// run wins ([50,70) is 20 long vs [30,45) at 15).
	tslab[0].X2 = 45
	got = runTreeBest(5, tslab, upSum, slab, bounds)
	if got.X1 != 50 || got.X2 != 70 {
		t.Fatalf("runTreeBest = %+v, want longest [50,70)", got)
	}
	// Equal lengths: leftmost wins.
	tslab[1].X2 = 65
	got = runTreeBest(5, tslab, upSum, slab, bounds)
	if got.X1 != 30 || got.X2 != 45 {
		t.Fatalf("runTreeBest = %+v, want leftmost [30,45) on tie", got)
	}
	tslab[1].X2 = 70
	// upSum shifts the effective sums: child 1 wins outright.
	upSum[1] = 3
	got = runTreeBest(5, tslab, upSum, slab, bounds)
	if got.Sum != 7 || got.X1 != 50 || got.X2 != 70 {
		t.Fatalf("runTreeBest = %+v, want [50,70) sum 7", got)
	}
}

// checkMergeSweepMatchesRef writes the children's tuples and the spanning
// events to fresh files, merges them with mergeSweep and with the linear
// reference, and requires every output tuple to match bit for bit, the
// read and write transfer counts to match, and every block to be freed.
func checkMergeSweepMatchesRef(tb testing.TB, name string, slab geom.Interval, bounds []float64,
	children [][]rec.Tuple, spans []rec.PieceEvent) {
	tb.Helper()
	env := em.MustNewEnv(256, 4096)
	s, err := NewSolver(env, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	slabFiles := make([]*em.File, len(children))
	for i, tuples := range children {
		if slabFiles[i], err = em.WriteAll(env.Disk, rec.TupleCodec{}, tuples); err != nil {
			tb.Fatal(err)
		}
	}
	spanFile, err := em.WriteAll(env.Disk, rec.PieceEventCodec{}, spans)
	if err != nil {
		tb.Fatal(err)
	}
	compareMergeSweeps(tb, name, s.task(nil, nil), slabFiles, spanFile, bounds, slab)
	for _, f := range append(slabFiles, spanFile) {
		if err := f.Release(); err != nil {
			tb.Fatal(err)
		}
	}
	if n := env.Disk.InUse(); n != 0 {
		tb.Fatalf("%s: %d blocks still in use", name, n)
	}
}

// compareMergeSweeps runs the reference and then mergeSweep over the same
// input files and compares their outputs and transfer counts.
func compareMergeSweeps(tb testing.TB, name string, s *task, slabFiles []*em.File, spanning *em.File,
	bounds []float64, slab geom.Interval) {
	tb.Helper()
	run := func(merge func([]*em.File, *em.File, []float64, geom.Interval) (*em.File, error)) ([]rec.Tuple, em.Stats) {
		before := s.env.Disk.Stats()
		out, err := merge(slabFiles, spanning, bounds, slab)
		if err != nil {
			tb.Fatal(err)
		}
		st := s.env.Disk.Stats().Sub(before)
		tuples, err := em.ReadAll(out, rec.TupleCodec{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := out.Release(); err != nil {
			tb.Fatal(err)
		}
		return tuples, st
	}
	want, wantSt := run(s.mergeSweepRef)
	got, gotSt := run(s.mergeSweepFile)
	if len(got) != len(want) {
		tb.Fatalf("%s: %d tuples, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			tb.Fatalf("%s: tuple %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
	if gotSt != wantSt {
		tb.Fatalf("%s: transfers %v, reference %v", name, gotSt, wantSt)
	}
}

// sameBits reports whether two tuples agree in every field's bits.
func sameBits(a, b rec.Tuple) bool {
	return math.Float64bits(a.Y) == math.Float64bits(b.Y) && math.Float64bits(a.X1) == math.Float64bits(b.X1) &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) && math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
}

// coarseMergeInput draws one MergeSweep input over m children on an
// integer grid: slab [0, 4m) (or the whole line), m−1 distinct integer
// bounds, and rectangles with integer corners, y in [0, 24) (0 of either
// sign) and widths up to m/2, so intervals touch the bounds, spanning pieces are common and
// effective sums tie. The children's tuples come from the in-memory sweep
// over a hand partition. weight draws each rectangle's weight.
func coarseMergeInput(rng *rand.Rand, m int, infinite bool, weight func() float64) (geom.Interval, []float64, [][]rec.Tuple, []rec.PieceEvent) {
	width := float64(4 * m)
	bounds := make([]float64, 0, m-1)
	for _, b := range rng.Perm(4*m - 1)[:m-1] {
		bounds = append(bounds, float64(b+1))
	}
	sort.Float64s(bounds)
	rects := make([]rec.WRect, 2*m+10)
	for i := range rects {
		x := math.Floor(rng.Float64() * (width - 1))
		y := math.Floor(rng.Float64() * 24)
		if y == 0 && rng.Intn(2) == 0 {
			y = math.Copysign(0, -1) // ±0 ys are one line, whose y comes from the first source at it
		}
		rects[i] = rec.WRect{
			X1: x, X2: math.Min(x+float64(1+rng.Intn(max(2, m/2))), width),
			Y1: y, Y2: y + float64(1+rng.Intn(6)),
			W: weight(),
		}
	}
	partition := geom.Interval{Lo: 0, Hi: width}
	slab := partition
	if infinite {
		slab = geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	frags, spanning := handPartition(rects, partition, bounds)
	children := make([][]rec.Tuple, m)
	for i := range children {
		children[i] = sweep.Slab(frags[i], geom.Interval{Lo: slabLo(slab, bounds, i), Hi: slabHi(slab, bounds, i)})
	}
	var spans []rec.PieceEvent
	for _, r := range spanning {
		if infinite {
			// Pieces spanning an outer child cover its infinite edge too.
			a, b := childOfPoint(bounds, r.X1), childOfSup(bounds, r.X2)
			r.X1, r.X2 = slabLo(slab, bounds, a), slabHi(slab, bounds, b)
		}
		bottom, top := rec.PieceEventsOf(r)
		spans = append(spans, bottom, top)
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Y() < spans[b].Y() })
	return slab, bounds, children, spans
}

// solveRef is solve run sequentially with every merge done by
// mergeSweepRef: the oracle recursion for whole-space slab files.
func (s *task) solveRef(tb testing.TB, n node, scratch *scratchList) *em.File {
	tb.Helper()
	if n.count <= s.capacity() {
		out, err := s.baseCase(n, scratch)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	bounds, children, spanning := divideNode(tb, s, n)
	slabFiles := make([]*em.File, len(children))
	sub := new(scratchList)
	for i, c := range children {
		slabFiles[i] = s.solveRef(tb, c, sub)
	}
	out, err := s.mergeSweepRef(slabFiles, spanning, bounds, n.slab)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range append(slabFiles, spanning) {
		if err := f.Release(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestMergeSweepMatchesReference pins the loser tree and the run tree to
// the linear MergeSweep they replaced: m = 1, 2, 3 and the disk-codec,
// exact-mem and serve-mixed fan-outs (10, 23, 254) and beyond; unit,
// integer and non-integer weights on coarse grids; finite and infinite
// slabs; and, in a mutated variant of each, empty children and a child
// file that repeats its first y (as the other zero, when it is a zero).
// Then whole two-level solves at p = 1, 2 and 4 must produce the
// reference recursion's whole-space slab file bit for bit, at the same
// transfer counts.
func TestMergeSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	weights := map[string]func() float64{
		"unit": func() float64 { return 1 },
		"int":  func() float64 { return float64(rng.Intn(7) - 2) },
		"frac": func() float64 { return float64(rng.Intn(40)-8) / 10 },
	}
	for _, m := range []int{1, 2, 3, 10, 23, 254, 300} {
		for _, wname := range []string{"unit", "int", "frac"} {
			for _, infinite := range []bool{false, true} {
				for _, mutate := range []bool{false, true} {
					slab, bounds, children, spans := coarseMergeInput(rng, m, infinite, weights[wname])
					if mutate {
						for i := 3 % m; i < m; i += 7 {
							children[i] = nil
						}
						// Repeat the first y of one child, with the other
						// sign if it is a zero.
						c := children[m/2]
						if len(c) > 0 {
							again := c[0]
							if again.Y == 0 {
								again.Y = -again.Y
							}
							again.X1, again.Sum = slabLo(slab, bounds, m/2), again.Sum+1
							children[m/2] = slices.Insert(c, 1, again)
						}
					}
					name := fmt.Sprintf("m=%d/%s/infinite=%v/mutate=%v", m, wname, infinite, mutate)
					checkMergeSweepMatchesRef(t, name, slab, bounds, children, spans)
				}
			}
		}
	}

	objs := randFloatObjects(rng, 600, 4000)
	rects := make([]rec.WRect, len(objs))
	for i, o := range objs {
		rects[i] = rec.FromObject(rec.Object{X: o.X, Y: o.Y, W: o.W}, 60, 40)
	}
	for _, p := range []int{1, 2, 4} {
		env := em.MustNewEnv(256, 2048) // m = 6, 49 events per base case: two levels
		s := mustSolver(t, env, Config{Parallelism: p}).task(nil, nil)
		before := env.Disk.Stats()
		ref := s.solveRef(t, sortedRoot(t, s, rects), new(scratchList))
		refSt := env.Disk.Stats().Sub(before)
		before = env.Disk.Stats()
		got, err := s.solve(sortedRoot(t, s, rects), 0, new(scratchList))
		if err != nil {
			t.Fatal(err)
		}
		gotSt := env.Disk.Stats().Sub(before)
		if gotSt != refSt {
			t.Fatalf("p=%d: solve transfers %v, reference recursion %v", p, gotSt, refSt)
		}
		want, err := em.ReadAll(ref, rec.TupleCodec{})
		if err != nil {
			t.Fatal(err)
		}
		have, err := em.ReadAll(got, rec.TupleCodec{})
		if err != nil {
			t.Fatal(err)
		}
		if len(have) != len(want) {
			t.Fatalf("p=%d: %d tuples, reference recursion %d", p, len(have), len(want))
		}
		for i := range have {
			if !sameBits(have[i], want[i]) {
				t.Fatalf("p=%d: tuple %d = %+v, reference recursion %+v", p, i, have[i], want[i])
			}
		}
		_ = ref.Release()
		_ = got.Release()
		if n := env.Disk.InUse(); n != 0 {
			t.Fatalf("p=%d: %d blocks still in use", p, n)
		}
	}
}

// FuzzMergeSweep decodes arbitrary bytes into one MergeSweep input — the
// fan-out m ≤ 300, a finite or infinite slab, child tuples whose
// intervals sit on or near their slab edges with repeated ys and ±0, and
// spanning pieces over runs of children — and requires mergeSweep to
// match the linear reference bit for bit and transfer for transfer.
func FuzzMergeSweep(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 1, 1, 0x21, 0, 1, 0, 2})
	f.Add([]byte{0, 9, 3, 0x0a, 0, 0, 2, 0x2c, 0, 1, 5, 0x13, 0, 2, 1, 0x09, 0, 7, 0x60, 0, 4, 0x22, 0, 3, 3, 9})
	f.Add([]byte{1, 0, 2, 0x40, 0, 200, 0x80, 0x41, 1, 10, 0x0b, 0, 1, 9, 0xff, 0, 0, 0x5c})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A hundred records reach every path; longer inputs only slow
		// the minimizer down.
		data = data[:min(len(data), 512)]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := 1 + (next()<<8|next())%300
		flags := next()
		weight := func(b int) float64 {
			if flags&2 != 0 {
				return float64(b%32-8) / 10
			}
			return float64(b%8 - 2)
		}
		bounds := make([]float64, m-1)
		for i := range bounds {
			bounds[i] = float64(2 * (i + 1))
		}
		slab := geom.Interval{Lo: 0, Hi: float64(2 * m)}
		if flags&1 != 0 {
			slab = geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
		children := make([][]rec.Tuple, m)
		lastY := make([]float64, m)
		var spans []rec.PieceEvent
		for len(data) > 0 {
			k := next()
			c := (next()<<8 | next()) % m
			lo, hi := slabLo(slab, bounds, c), slabHi(slab, bounds, c)
			if k&1 == 0 {
				lastY[c] += float64(k >> 1 & 3) // 0 repeats the child's last y
				if lastY[c] == 0 && k&0x80 != 0 {
					lastY[c] = math.Copysign(0, -1)
				}
				x1 := [4]float64{lo, lo + 0.5, lo + 1, hi - 1}[k>>3&3]
				x2 := [4]float64{hi, hi - 0.5, hi - 1, lo + 1}[k>>5&3]
				children[c] = append(children[c], rec.Tuple{Y: lastY[c], X1: x1, X2: x2, Sum: weight(next())})
				continue
			}
			last := min(m-1, c+next()%4)
			y := float64(next() % 16)
			r := rec.WRect{X1: lo, X2: slabHi(slab, bounds, last), Y1: y, Y2: y + float64(1+k>>1&7), W: weight(next())}
			bottom, top := rec.PieceEventsOf(r)
			spans = append(spans, bottom, top)
		}
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Y() < spans[b].Y() })
		checkMergeSweepMatchesRef(t, "fuzz", slab, bounds, children, spans)
	})
}

// BenchmarkMergeSweep times the root merge of a real one-level division
// at B = 4 KB with M = (m+2)·B, so the merge fans in m children: m = 10,
// 23 and 254 are the disk-codec, exact-mem and serve-mixed fan-outs. The
// objects are uniform in a 10⁶ square with 10⁴ × 10⁴ query rectangles,
// about 1.5·M of events, so every child is one base case.
func BenchmarkMergeSweep(b *testing.B) {
	for _, m := range []int{10, 23, 254} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			env := em.MustNewEnv(4096, (m+2)*4096)
			s := mustSolver(b, env, Config{Parallelism: 1}).task(nil, nil)
			rng := rand.New(rand.NewSource(int64(m)))
			rects := make([]rec.WRect, 3*s.capacity()/4)
			for i := range rects {
				o := rec.Object{X: rng.Float64() * 1e6, Y: rng.Float64() * 1e6, W: 1}
				rects[i] = rec.FromObject(o, 1e4, 1e4)
			}
			root := sortedRoot(b, s, rects)
			bounds, children, spanning := divideNode(b, s, root)
			slabFiles, errs := s.solveChildren(children, 1)
			if err := errors.Join(errs...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				out, err := s.mergeSweepFile(slabFiles, spanning, bounds, root.slab)
				if err != nil {
					b.Fatal(err)
				}
				_ = out.Release()
			}
		})
	}
}

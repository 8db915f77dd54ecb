package plan

import (
	"math"
	"sort"

	"maxrs/internal/rec"
)

// Record sizes come straight from the codecs so the model can never
// drift from the on-disk layout.
var (
	objSize   = rec.ObjectCodec{}.Size()
	eventSize = rec.PieceEventCodec{}.Size()
	rectSize  = rec.WRectCodec{}.Size()
	edgeSize  = rec.Float64Codec{}.Size()
	tupleSize = rec.TupleCodec{}.Size()
)

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Estimate predicts the block transfers of one strategy for one query
// over the dataset. The prediction replays the engine's real schedules
// — run formation, merge reduction, the division recursion, shard
// planning/partitioning — over the load-time sample, so everything
// structural (sort passes, fused root merges, reduce-level elimination
// under sharding, halo inflation) is modeled mechanically; only the
// populations are estimated. See DESIGN.md §12 for the derivation and
// the measured calibration error.
func Estimate(st Stats, set Settings, strat Strategy) Cost {
	c := estimate(st, set, strat)
	c.Reads += set.ExtraReads
	c.Writes += set.ExtraWrites
	return c
}

func estimate(st Stats, set Settings, strat Strategy) Cost {
	if st.N == 0 || set.B <= 0 || set.M <= 0 {
		return Cost{Exact: true}
	}
	if strat.Algorithm == InMemory {
		// ReadAll of the object file; the sweep itself is CPU-only.
		return Cost{Reads: st.Blocks, Exact: true}
	}
	s := newSim(st, set)
	s.sharded(st, strat.Shards)
	return s.c
}

// span is one sample rectangle's x-extent carrying the number of real
// piece events it stands for. The division recursion is replayed over
// spans exactly as the router replays it over events. frag marks spans
// produced as boundary clips of the enclosing division (vs anchored
// wholly inside their child).
type span struct {
	x1, x2 float64
	w      float64
	frag   bool
}

// sim accumulates the predicted cost of one ExactMaxRS execution.
type sim struct {
	set   Settings
	b, m  int
	xs    []float64 // sorted x sample
	scale float64   // real objects per sample point
	c     Cost
}

func newSim(st Stats, set Settings) *sim {
	s := &sim{set: set, b: set.B, m: set.M, xs: st.SampleX}
	if len(s.xs) > 0 {
		s.scale = float64(st.N) / float64(len(s.xs))
	}
	return s
}

func (s *sim) blocks(records float64, recSize int) int64 {
	if records <= 0 {
		return 0
	}
	return int64(math.Ceil(records * float64(recSize) / float64(s.b)))
}

func (s *sim) memBlocks() int { return s.m / s.b }

func (s *sim) fanIn() int {
	f := s.memBlocks() - 1
	if f < 2 {
		f = 2
	}
	return f
}

func (s *sim) capacity() float64 { return float64(s.m / eventSize) }

func (s *sim) divisionFanout() int {
	m := s.memBlocks() - 2
	if m < 4 {
		m = 4
	}
	return m
}

// runBytes splits a record population into sorted-run byte sizes
// exactly as the RunBuilder spills them (full runs of M/recSize records,
// one trailing partial).
func (s *sim) runBytes(records float64, recSize int) []int64 {
	perRun := int64(s.m / recSize)
	if perRun < 1 {
		perRun = 1
	}
	r := int64(math.Round(records))
	if r <= 0 {
		return nil
	}
	var runs []int64
	for full := r / perRun; full > 0; full-- {
		runs = append(runs, perRun*int64(recSize))
	}
	if rem := r % perRun; rem > 0 {
		runs = append(runs, rem*int64(recSize))
	}
	return runs
}

// reduce replays Merger.Reduce: whole merge levels in groups of fanIn
// while more than fanIn² runs remain, then one partial level that merges
// only the trailing e + ⌈e/(fanIn−1)⌉ runs (e = runs − fanIn) in groups
// of fanIn, leaving exactly fanIn. Every merge reads and rewrites its
// runs, with per-file block rounding.
func (s *sim) reduce(runs []int64) []int64 {
	fanIn := s.fanIn()
	for len(runs) > fanIn {
		lo := 0
		if len(runs) <= fanIn*fanIn {
			e := len(runs) - fanIn
			lo = len(runs) - (e + (e+fanIn-2)/(fanIn-1))
		}
		next := append([]int64(nil), runs[:lo]...)
		for g := lo; g < len(runs); g += fanIn {
			hi := min(g+fanIn, len(runs))
			var tot int64
			for _, b := range runs[g:hi] {
				s.c.Reads += ceilDiv(b, int64(s.b))
				tot += b
			}
			s.c.Writes += ceilDiv(tot, int64(s.b))
			next = append(next, tot)
		}
		runs = next
	}
	return runs
}

// sortFused models the fused sort half: spill runs (writes only — the
// producer feeds records directly) and reduce them. It returns the
// blocks one MergeInto replay over the surviving runs reads; the root
// division (node) charges its replays.
func (s *sim) sortFused(records float64, recSize int) int64 {
	runs := s.runBytes(records, recSize)
	for _, b := range runs {
		s.c.Writes += ceilDiv(b, int64(s.b))
	}
	var blocks int64
	for _, b := range s.reduce(runs) {
		blocks += ceilDiv(b, int64(s.b))
	}
	return blocks
}

// sharded models the full query: the shard planner's scan, the
// partition pass with halo-duplicated routing, then one complete solve
// per shard on its private disk — or the plain unsharded solve when
// k ≤ 0. Mirrors the engine's sharded executor over the internal/shard
// primitives (PlanBounds, PartitionObjects, SolveAll).
func (s *sim) sharded(st Stats, k int) {
	if k <= 0 || len(s.xs) == 0 {
		s.solve(s.xs, float64(st.N), st.Blocks)
		return
	}
	if k >= 2 {
		s.c.Reads += st.Blocks // planBounds scan
	}
	s.c.Reads += st.Blocks // partition scan
	bounds := s.shardBounds(k)
	half := s.set.W / 2
	shardPts := make([][]float64, len(bounds)+1)
	for _, x := range s.xs {
		lo := sort.SearchFloat64s(bounds, x-half)
		hi := sort.Search(len(bounds), func(j int) bool { return bounds[j] > x+half })
		for i := lo; i <= hi; i++ {
			shardPts[i] = append(shardPts[i], x)
		}
	}
	for _, pts := range shardPts {
		n := float64(len(pts)) * s.scale
		d := s.blocks(n, objSize)
		s.c.Writes += d // partition output
		s.solve(pts, n, d)
	}
}

// shardBounds mirrors shard.PlanBounds' quantile selection over the
// sorted sample: up to k−1 strictly increasing boundaries, each
// strictly above the minimum x.
func (s *sim) shardBounds(k int) []float64 {
	if k < 2 || len(s.xs) == 0 {
		return nil
	}
	var bounds []float64
	for i := 1; i < k; i++ {
		q := s.xs[i*len(s.xs)/k]
		if q > s.xs[0] && (len(bounds) == 0 || q > bounds[len(bounds)-1]) {
			bounds = append(bounds, q)
		}
	}
	return bounds
}

// solve models one core.Solver.SolveObjectsScoped call over nReal
// objects whose sample is pts, on an object file of objBlocks.
func (s *sim) solve(pts []float64, nReal float64, objBlocks int64) {
	s.c.Reads += objBlocks // the producer's object scan
	e := 2 * nReal
	if e <= 0 {
		return
	}
	if e <= s.capacity() {
		// Resident base case: sort and sweep in memory, keeping only
		// the best region. No file ever touches disk.
		return
	}
	spans := make([]span, len(pts))
	w := e / float64(len(pts))
	for i, x := range pts {
		spans[i] = span{x1: x - s.set.W/2, x2: x + s.set.W/2, w: w}
	}
	// One edge value per vertical edge: as many values as events.
	evB := s.sortFused(e, eventSize)
	edB := s.sortFused(e, edgeSize)
	s.node(spans, e, math.Inf(-1), math.Inf(1), evB, edB, true, false, 0)
}

// maxSimDepth caps the simulated recursion: past this the sample is too
// thin to resolve further division and the node is costed as a base
// case (the real recursion has its own no-progress tripwire).
const maxSimDepth = 32

// child models one recursion child whose population estimate carries
// sampling noise sigma (from the fragment spans — the anchored share is
// denoised against the quantile ranks). Only a child that divides gets
// an edge file, of edB blocks, which is charged here. Near the base-case
// capacity the divide-or-not decision is genuinely uncertain, so the two
// branch costs are blended by the probability that the true count
// exceeds capacity; away from the boundary it falls through to the hard
// decision in node. It returns the child's tuple-file blocks and the
// probability that it divides.
func (s *sim) child(spans []span, count, sigma float64, lo, hi float64, evB, edB int64, depth int) (int64, float64) {
	capacity := s.capacity()
	if sigma > 0 && math.Abs(count-capacity) < 4*sigma && depth < maxSimDepth {
		p := 0.5 * (1 + math.Erf((count-capacity)/(sigma*math.Sqrt2)))
		t := s.blocks(count, tupleSize)
		scratch := &sim{set: s.set, b: s.b, m: s.m, xs: s.xs, scale: s.scale}
		scratch.node(spans, count, lo, hi, evB, edB, false, true, depth)
		// Both branches write the same tuple file (one tuple per
		// distinct event y); only the work before it differs.
		s.c.Reads += int64(math.Round((1-p)*float64(evB) + p*float64(scratch.c.Reads)))
		s.c.Writes += int64(math.Round((1-p)*float64(t) + p*float64(scratch.c.Writes+edB)))
		return t, p
	}
	p := 0.0
	if count > capacity && depth < maxSimDepth { // node divides
		p = 1
		s.c.Writes += edB
	}
	return s.node(spans, count, lo, hi, evB, edB, false, false, depth), p
}

// node replays one recursion node and returns its tuple-file block
// count. evB and edB are the blocks one pass over the node's events and
// edge values reads. rootFused marks the fused root, whose inputs are
// the root sorts' final merge levels and whose tuples stream into the
// best-region scan instead of a file; forceDivide skips the base-case
// check (the divide branch of child's probability blend).
func (s *sim) node(spans []span, count float64, lo, hi float64, evB, edB int64, rootFused, forceDivide bool, depth int) int64 {
	base := func() int64 {
		s.c.Reads += evB
		t := s.blocks(count, tupleSize)
		s.c.Writes += t
		return t
	}
	if !rootFused && !forceDivide && (count <= s.capacity() || depth >= maxSimDepth) {
		return base()
	}
	if forceDivide && depth >= maxSimDepth {
		return base()
	}
	bounds, ranks, total, values := s.pickBounds(spans, count, lo, hi)
	if len(bounds) == 0 {
		if rootFused {
			// Degenerate sample: charge the root's three division
			// passes, with no recursion below, to keep the estimate
			// finite.
			s.c.Reads += 2*edB + evB
			return 0
		}
		return base()
	}
	// divide over the node's merges: the edges into the bounds picker,
	// the events into the router. The edges' replay into the splitter
	// is charged below, once the children's fates are known.
	s.c.Reads += edB + evB
	nc := len(bounds) + 1
	children := make([][]span, nc)
	childCount := make([]float64, nc)
	anchored := make([]float64, nc) // wholly-inside population per child
	fragVar := make([]float64, nc)  // sampling variance of the fragment share
	var spanCount float64
	slabLo := func(i int) float64 {
		if i == 0 {
			return lo
		}
		return bounds[i-1]
	}
	slabHi := func(i int) float64 {
		if i == nc-1 {
			return hi
		}
		return bounds[i]
	}
	for _, sp := range spans {
		i := childOfPoint(bounds, sp.x1)
		j := childOfSup(bounds, sp.x2)
		leftSpan := sp.x1 == slabLo(i)
		rightSpan := sp.x2 == slabHi(j)
		if i == j {
			if leftSpan && rightSpan {
				spanCount += sp.w
			} else {
				children[i] = append(children[i], span{x1: sp.x1, x2: sp.x2, w: sp.w})
				childCount[i] += sp.w
				anchored[i] += sp.w
			}
			continue
		}
		if !leftSpan {
			children[i] = append(children[i], span{x1: sp.x1, x2: slabHi(i), w: sp.w, frag: true})
			childCount[i] += sp.w
			fragVar[i] += sp.w * sp.w
		}
		if !rightSpan {
			children[j] = append(children[j], span{x1: slabLo(j), x2: sp.x2, w: sp.w, frag: true})
			childCount[j] += sp.w
			fragVar[j] += sp.w * sp.w
		}
		spanStart, spanEnd := i, j
		if !leftSpan {
			spanStart = i + 1
		}
		if !rightSpan {
			spanEnd = j - 1
		}
		if spanStart <= spanEnd {
			spanCount += sp.w
		}
	}
	// Denoise the anchored populations: the real boundsPicker splits the
	// edge-value multiset at exact quantile ranks, so each child's
	// anchored share is the deterministic rank span between its
	// boundaries — far more accurate than the reservoir sample's count,
	// which matters when children sit near the base-case capacity. The
	// fragment and spanning populations keep their sampled values (they
	// are the genuinely data-dependent part).
	var anchoredTotal float64
	for _, a := range anchored {
		anchoredTotal += a
	}
	if anchoredTotal > 0 && total > 0 {
		prev := int64(0)
		for i := range children {
			end := total
			if i < len(ranks) {
				end = ranks[i]
			}
			expect := anchoredTotal * float64(end-prev) / float64(total)
			prev = end
			if anchored[i] > 0 {
				factor := expect / anchored[i]
				for k := range children[i] {
					if !children[i][k].frag {
						children[i][k].w *= factor
					}
				}
				childCount[i] += expect - anchored[i]
			}
		}
	}
	spanB := s.blocks(spanCount, eventSize)
	s.c.Writes += spanB
	var childTuples int64
	noneDivides := 1.0
	for i := range children {
		if values != nil && values[i] <= s.capacity() {
			// A certified base case: the router writes it one rectangle
			// per piece, which the base case reads back before writing
			// its tuple file.
			rB := s.blocks(childCount[i]/2, rectSize)
			t := s.blocks(childCount[i], tupleSize)
			s.c.Writes += rB + t
			s.c.Reads += rB
			childTuples += t
			continue
		}
		cEvB := s.blocks(childCount[i], eventSize)
		s.c.Writes += cEvB
		if childCount[i] <= 0 {
			continue
		}
		t, p := s.child(children[i], childCount[i], math.Sqrt(fragVar[i]), slabLo(i), slabHi(i), cEvB, s.blocks(childCount[i], edgeSize), depth+1)
		childTuples += t
		noneDivides *= 1 - p
	}
	// The edges' replay into the splitter runs only if some child
	// divides.
	s.c.Reads += int64(math.Round((1 - noneDivides) * float64(edB)))
	// mergeSweep: stream every child tuple file and the spanning file,
	// emitting one tuple per distinct event y — the node's event count.
	// The root's tuples go to the best-region scan, not to a file.
	s.c.Reads += childTuples + spanB
	if rootFused {
		return 0
	}
	t := s.blocks(count, tupleSize)
	s.c.Writes += t
	return t
}

// pickBounds replays boundsPicker's quantile selection over the node's
// weighted edge-value multiset (each span contributes its two clipped
// x-values, one per edge pair). It returns the boundary values, the
// edge rank each one was picked at, the total edge rank count — the
// ranks drive the anchored-population denoising in node — and each
// child's edge-value count V_c, the rank span between its bounds, which
// certifies the child as a base case when it fits. Like the picker, the
// midpoint fallback certifies nothing: its values are nil.
func (s *sim) pickBounds(spans []span, count float64, lo, hi float64) (bounds []float64, ranks []int64, total int64, values []float64) {
	type edge struct {
		v, w float64
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, sp := range spans {
		edges = append(edges, edge{sp.x1, sp.w}, edge{sp.x2, sp.w})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].v < edges[j].v })
	m := s.divisionFanout()
	total = int64(math.Round(2 * count))
	step := total / int64(m)
	if step < 1 {
		step = 1
	}
	interior := func(v float64) bool { return v > lo && v < hi && !math.IsInf(v, 0) }
	var minInt, maxInt float64
	haveInt := false
	nextRank := step
	cum := 0.0
	for _, e := range edges {
		cum += e.w
		if interior(e.v) {
			if !haveInt {
				minInt, maxInt, haveInt = e.v, e.v, true
			} else {
				maxInt = e.v
			}
		}
		// The picker triggers at every integer multiple of step it
		// reaches, the final rank included (at the root's infinite
		// slab that adds a boundary at the maximum edge value, whose
		// rightmost child is then empty — the real recursion does
		// exactly this).
		for nextRank <= total && float64(nextRank) <= cum+1e-9 {
			if interior(e.v) && (len(bounds) == 0 || e.v > bounds[len(bounds)-1]) {
				bounds = append(bounds, e.v)
				ranks = append(ranks, nextRank)
			}
			nextRank += step
		}
	}
	if len(bounds) == 0 && haveInt {
		mid := minInt
		if minInt < maxInt {
			mid = minInt + (maxInt-minInt)/2
		}
		return []float64{mid}, []int64{total / 2}, total, nil
	}
	prev := int64(0)
	for _, r := range append(ranks, total) {
		values = append(values, float64(r-prev))
		prev = r
	}
	return bounds, ranks, total, values
}

// childOfPoint mirrors core's: the number of bounds ≤ x.
func childOfPoint(bounds []float64, x float64) int {
	i := sort.SearchFloat64s(bounds, x)
	for i < len(bounds) && bounds[i] == x {
		i++
	}
	return i
}

// childOfSup mirrors core's: the number of bounds strictly below x.
func childOfSup(bounds []float64, x float64) int {
	return sort.SearchFloat64s(bounds, x)
}

package core

import (
	"errors"
	"io"
	"math"

	"maxrs/internal/em"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// tupleSource streams one child slab file with one-record lookahead.
type tupleSource struct {
	rr   *em.RecordReader[rec.Tuple]
	cur  rec.Tuple
	done bool
}

func newTupleSource(f *em.File) (*tupleSource, error) {
	rr, err := em.NewRecordReader(f, rec.TupleCodec{})
	if err != nil {
		return nil, err
	}
	ts := &tupleSource{rr: rr}
	return ts, ts.advance()
}

func (ts *tupleSource) advance() error {
	t, err := ts.rr.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			ts.done = true
			return nil
		}
		return err
	}
	ts.cur = t
	return nil
}

// spanSource streams the spanning event file with one-record lookahead.
type spanSource struct {
	rr   *em.RecordReader[rec.PieceEvent]
	cur  rec.PieceEvent
	done bool
}

func newSpanSource(f *em.File) (*spanSource, error) {
	rr, err := em.NewRecordReader(f, rec.PieceEventCodec{})
	if err != nil {
		return nil, err
	}
	ss := &spanSource{rr: rr}
	return ss, ss.advance()
}

func (ss *spanSource) advance() error {
	e, err := ss.rr.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			ss.done = true
			return nil
		}
		return err
	}
	ss.cur = e
	return nil
}

// mergeSweep is Algorithm 1: it sweeps a horizontal line bottom-to-top
// across the m child slab files and the spanning file, maintaining the
// current max-interval tuple per child (tslab) and the weight of spanning
// rectangles currently covering each child (upSum), and passes the
// parent's slab-file tuples to emit: at every event y, the best (possibly
// merged across adjacent children) max-interval. An inner node's emit
// writes its slab file; the root's keeps only the best region.
//
// A loser tree over the child heads finds each next event line and a run
// tree over the children answers GetMaxInterval, so a line that advances
// k children and spans r of them costs O((k + r)·log m), not Θ(m).
func (s *task) mergeSweep(slabFiles []*em.File, spanning *em.File, bounds []float64, slab geom.Interval, emit func(rec.Tuple) error) error {
	nc := len(slabFiles)
	sources := make([]*tupleSource, nc)
	for i, f := range slabFiles {
		ts, err := newTupleSource(f)
		if err != nil {
			return err
		}
		sources[i] = ts
	}
	spans, err := newSpanSource(spanning)
	if err != nil {
		return err
	}
	heads := newHeadTree(sources)
	runs := newRunTree(slab, bounds)

	var again []int // children whose next head repeats this line's y
	for {
		// Next event line: the smallest unconsumed y over all sources.
		// An exhausted child's head is +Inf.
		y := heads.key[heads.node[0]]
		if !spans.done && spans.cur.Y() <= y {
			y = spans.cur.Y()
		} else if math.IsInf(y, 1) {
			break
		}
		// Apply every record at this h-line before emitting (tops and
		// bottoms at equal y cancel within the line, matching the
		// half-open semantics of the children's own sweeps).
		for !spans.done && spans.cur.Y() == y {
			e := spans.cur
			a := childOfPoint(bounds, e.R.X1)
			b := childOfSup(bounds, e.R.X2)
			d := e.R.W
			if e.Top {
				d = -d
			}
			for j := a; j <= b && j < nc; j++ {
				runs.addSpan(j, d)
			}
			if err := spans.advance(); err != nil {
				return err
			}
		}
		// Each child advances at most once per line: a child whose next
		// head is y again is parked behind every other child at y.
		for c := heads.node[0]; heads.key[c] == y && heads.rank[c] == live; c = heads.node[0] {
			ts := sources[c]
			runs.setTuple(c, ts.cur)
			if err := ts.advance(); err != nil {
				return err
			}
			switch {
			case ts.done:
				heads.replay(c, math.Inf(1), exhausted)
			case ts.cur.Y == y:
				again = append(again, c)
				heads.replay(c, ts.cur.Y, parked)
			default:
				heads.replay(c, ts.cur.Y, live)
			}
		}
		heads.unpark(again)
		again = again[:0]
		if err := emit(runs.best(y)); err != nil {
			return err
		}
	}
	return nil
}

// headTree is a loser tree over the m child heads, shaped like extsort's:
// leaf i sits at position m+i of an implicit complete binary tree,
// node[n] for 1 ≤ n < m holds the loser of the match at position n, and
// node[0] holds the overall winner. Children are ordered by head, then
// rank, then index, so the winner has the smallest head and the lowest
// index among the live children at that head; an exhausted child's head
// is +Inf.
type headTree struct {
	key  []float64
	rank []uint8
	node []int
}

// Head ranks, which order children at equal heads.
const (
	live      uint8 = iota
	parked          // consumed on the current line, next head at its y
	exhausted       // no records left
)

func newHeadTree(sources []*tupleSource) *headTree {
	m := len(sources)
	t := &headTree{key: make([]float64, m), rank: make([]uint8, m), node: make([]int, m)}
	for i, ts := range sources {
		t.key[i] = ts.cur.Y
		if ts.done {
			t.key[i], t.rank[i] = math.Inf(1), exhausted
		}
	}
	win := make([]int, 2*m) // win[n]: the winner of the subtree at position n
	for i := range m {
		win[m+i] = i
	}
	for n := m - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if !t.beats(a, b) {
			a, b = b, a
		}
		win[n], t.node[n] = a, b
	}
	t.node[0] = win[1] // for m == 1, position 1 is the lone leaf
	return t
}

// beats reports whether child a wins its match against child b.
func (t *headTree) beats(a, b int) bool {
	if ka, kb := t.key[a], t.key[b]; ka != kb {
		return ka < kb
	}
	if ra, rb := t.rank[a], t.rank[b]; ra != rb {
		return ra < rb
	}
	return a < b
}

// replay sets child c's head and rank and replays the matches on its path
// to the root, leaving the new overall winner in node[0]. Only the
// winner's head ever changes, so its path holds every match it took part
// in.
func (t *headTree) replay(c int, key float64, rank uint8) {
	t.key[c], t.rank[c] = key, rank
	for n := (len(t.node) + c) / 2; n > 0; n /= 2 {
		if l := t.node[n]; t.beats(l, c) {
			t.node[n], c = c, l
		}
	}
	t.node[0] = c
}

// unpark makes the parked children live again once their line is
// emitted. No match changes: child files are sorted by y, so every other
// live child's head is above the parked children's common head, and
// parked and live order the same among themselves.
func (t *headTree) unpark(cs []int) {
	for _, c := range cs {
		t.rank[c] = live
	}
}

// runTree answers GetMaxInterval over the m children in O(log m) per
// changed child. Leaf i holds child i's effective sum tslab[i].Sum +
// upSum[i], its max-interval, and whether that interval reaches the
// child's left and right slab edges. A maximal run is a maximal sequence
// of adjacent children at the overall maximum whose intervals join at
// the shared slab edges; the answer is the longest run, leftmost on ties.
// An internal node keeps, over the children at its own maximum, the run
// at its left end, the run at its right end, whether one run covers it,
// and its longest run touching neither end — the runs a neighbour can
// still extend, and the best of those none can.
type runTree struct {
	slab   geom.Interval
	bounds []float64
	tslab  []rec.Tuple
	upSum  []float64
	size   int       // leaves, m rounded up to a power of two
	node   []runNode // node[1] is the root, leaf i is node[size+i]
	marked []bool    // nodes queued for recomputation this line
	level  []int     // the queued nodes of one level
	next   []int
}

// runNode is one run-tree node; its runs are over the children at max.
type runNode struct {
	max           float64
	pre, suf, mid geom.Interval // runs at the left end, at the right end, inside
	flags         uint8
}

// runNode flags.
const (
	hasPre  uint8 = 1 << iota // the node's first child is at max
	hasSuf                    // the node's last child is at max
	hasMid                    // some run touches neither end
	covered                   // one run covers the node: pre == suf
	linkLo                    // the first child's interval starts at its slab edge
	linkHi                    // the last child's interval ends at its slab edge
	padding                   // no children: leaves m..size-1
)

func newRunTree(slab geom.Interval, bounds []float64) *runTree {
	m := len(bounds) + 1
	size := 1
	for size < m {
		size *= 2
	}
	t := &runTree{
		slab:   slab,
		bounds: bounds,
		tslab:  make([]rec.Tuple, m),
		upSum:  make([]float64, m),
		size:   size,
		node:   make([]runNode, 2*size),
		marked: make([]bool, 2*size),
	}
	for i := range t.tslab {
		t.tslab[i] = rec.Tuple{
			Y:  math.Inf(-1),
			X1: slabLo(slab, bounds, i),
			X2: slabHi(slab, bounds, i),
		}
		t.leaf(i)
	}
	for i := m; i < size; i++ {
		t.node[size+i].flags = padding
	}
	for n := size - 1; n >= 1; n-- {
		t.pull(n)
	}
	return t
}

// setTuple makes tup child i's current max-interval tuple.
func (t *runTree) setTuple(i int, tup rec.Tuple) {
	t.tslab[i] = tup
	t.mark(i)
}

// addSpan adds a spanning rectangle's weight d to child i. upSum is a
// plain per-child sum in event order, never regrouped in tree nodes, so
// every effective sum is the float expression of the linear scan.
func (t *runTree) addSpan(i int, d float64) {
	t.upSum[i] += d
	t.mark(i)
}

func (t *runTree) mark(i int) {
	if n := t.size + i; !t.marked[n] {
		t.marked[n] = true
		t.level = append(t.level, n)
	}
}

// leaf recomputes child i's leaf from tslab and upSum.
func (t *runTree) leaf(i int) {
	tup := &t.tslab[i]
	iv := geom.Interval{Lo: tup.X1, Hi: tup.X2}
	f := hasPre | hasSuf | covered
	if tup.X1 == slabLo(t.slab, t.bounds, i) {
		f |= linkLo
	}
	if tup.X2 == slabHi(t.slab, t.bounds, i) {
		f |= linkHi
	}
	d := &t.node[t.size+i]
	d.max, d.pre, d.suf, d.flags = tup.Sum+t.upSum[i], iv, iv, f
}

// best recomputes the nodes above the children changed since the last
// call, once each, level by level, and returns the line's tuple: the
// longest run at the overall maximum, leftmost on ties.
func (t *runTree) best(y float64) rec.Tuple {
	level, next := t.level, t.next
	for _, n := range level {
		t.marked[n] = false
		t.leaf(n - t.size)
	}
	for len(level) > 0 && level[0] > 1 { // queued nodes share one depth
		next = next[:0]
		for _, n := range level {
			if p := n / 2; !t.marked[p] {
				t.marked[p] = true
				next = append(next, p)
			}
		}
		for _, p := range next {
			t.marked[p] = false
			t.pull(p)
		}
		level, next = next, level
	}
	t.level, t.next = level[:0], next

	r := &t.node[1]
	var out runNode // out.mid collects the root's runs in position order
	if r.flags&hasPre != 0 {
		out.offer(r.pre)
	}
	if r.flags&hasMid != 0 {
		out.offer(r.mid)
	}
	if r.flags&(hasSuf|covered) == hasSuf {
		out.offer(r.suf)
	}
	return rec.Tuple{Y: y, X1: out.mid.Lo, X2: out.mid.Hi, Sum: r.max}
}

// pull recomputes node n from its two children in place. The left
// child's runs all lie left of the right child's, so offering candidate
// middle runs in position order and keeping a strictly longer one keeps
// the leftmost of the longest.
func (t *runTree) pull(n int) {
	l, r, d := &t.node[2*n], &t.node[2*n+1], &t.node[n]
	if r.flags&padding != 0 {
		*d = *l
		return
	}
	lf, rf := l.flags, r.flags
	d.flags = lf&linkLo | rf&linkHi
	switch {
	case l.max > r.max:
		d.max, d.pre = l.max, l.pre
		d.flags |= lf & hasPre
		d.mid = l.mid
		d.flags |= lf & hasMid
		if lf&(hasSuf|covered) == hasSuf {
			d.offer(l.suf)
		}
	case r.max > l.max:
		d.max, d.suf = r.max, r.suf
		d.flags |= rf & hasSuf
		if rf&(hasPre|covered) == hasPre {
			d.offer(r.pre)
		}
		if rf&hasMid != 0 {
			d.offer(r.mid)
		}
	default:
		// Equal maxima (the left value, as the scan keeps the first):
		// L's right-end run and R's left-end run join when both reach
		// the shared slab edge.
		d.max = l.max
		joined := lf&(hasSuf|linkHi) == hasSuf|linkHi && rf&(hasPre|linkLo) == hasPre|linkLo
		lCov, rCov := lf&covered != 0, rf&covered != 0
		d.pre, d.suf = l.pre, r.suf
		d.flags |= lf&hasPre | rf&hasSuf
		if joined {
			if lCov {
				d.pre.Hi = r.pre.Hi
			}
			if rCov {
				d.suf.Lo = l.suf.Lo
			}
			if lCov && rCov {
				d.flags |= covered
			}
		}
		d.mid = l.mid
		d.flags |= lf & hasMid
		if !lCov && lf&hasSuf != 0 {
			switch {
			case !joined:
				d.offer(l.suf)
			case !rCov:
				d.offer(geom.Interval{Lo: l.suf.Lo, Hi: r.pre.Hi})
			}
		}
		if !rCov && !joined && rf&hasPre != 0 {
			d.offer(r.pre)
		}
		if rf&hasMid != 0 {
			d.offer(r.mid)
		}
	}
}

// offer makes run iv the node's middle run if it is strictly longer than
// the one it has; iv lies right of every run offered before it.
func (d *runNode) offer(iv geom.Interval) {
	if d.flags&hasMid == 0 || iv.Len() > d.mid.Len() {
		d.mid = iv
		d.flags |= hasMid
	}
}

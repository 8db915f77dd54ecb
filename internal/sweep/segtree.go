package sweep

import "math/bits"

// segTree is a segment tree over n cells (contiguous half-open x-ranges)
// supporting range-add of weights and O(log n) extraction of a maximal run
// of cells attaining the global maximum. It is the sweep-line status
// structure of the in-memory algorithm (Imai–Asano [11]): the cells are the
// elementary x-intervals between consecutive rectangle edges, and each
// active rectangle contributes its weight to the cells its x-range covers.
//
// Lazy adds are kept per node; node aggregates (min/max) include the node's
// own pending add, so queries accumulate ancestor adds on the way down and
// never need to materialize them.
//
// Nodes are one array of structs, heap-indexed from 1 over the recursive
// midpoint split, so 2·2^⌈log₂ n⌉ slots hold every node. Aggregates use
// plain comparisons, not math.Min/math.Max: the weights are never NaN,
// and no node value is ever −0 (every value starts at +0, and a sum is −0
// only when both operands are), so the two agree bit for bit.
type segTree struct {
	n     int
	nodes []segNode
}

type segNode struct {
	min, max, add float64
}

func newSegTree(n int) *segTree {
	if n < 1 {
		n = 1
	}
	return &segTree{n: n, nodes: make([]segNode, 2<<bits.Len(uint(n-1)))}
}

// Update adds delta to every cell in [l, r). Out-of-range bounds are clamped.
func (t *segTree) Update(l, r int, delta float64) {
	if l < 0 {
		l = 0
	}
	if r > t.n {
		r = t.n
	}
	if l >= r {
		return
	}
	t.update(1, 0, t.n, l, r, delta)
}

func (t *segTree) update(node, lo, hi, l, r int, delta float64) {
	nd := &t.nodes[node]
	if l <= lo && hi <= r {
		nd.add += delta
		nd.min += delta
		nd.max += delta
		return
	}
	mid := (lo + hi) / 2
	if l < mid {
		t.update(2*node, lo, mid, l, r, delta)
	}
	if r > mid {
		t.update(2*node+1, mid, hi, l, r, delta)
	}
	a, b := &t.nodes[2*node], &t.nodes[2*node+1]
	mn, mx := a.min, a.max
	if b.min < mn {
		mn = b.min
	}
	if b.max > mx {
		mx = b.max
	}
	nd.min = mn + nd.add
	nd.max = mx + nd.add
}

// Max returns the maximum cell value.
func (t *segTree) Max() float64 { return t.nodes[1].max }

// MaxRun returns a maximal run [l, r) of cells whose value equals Max():
// the leftmost cell attaining the maximum, extended right as far as the
// value stays at the maximum. Cost O(log n).
func (t *segTree) MaxRun() (l, r int) {
	m := t.nodes[1].max
	l = t.leftmostAt(m)
	r = t.nextBelow(1, 0, t.n, l+1, 0, m)
	return l, r
}

// leftmostAt returns the index of the leftmost leaf whose value equals v,
// the root max: each step descends into the left child if its max, plus
// the adds accumulated above it, still reaches v.
func (t *segTree) leftmostAt(v float64) int {
	node, lo, hi := 1, 0, t.n
	var acc float64
	for hi-lo > 1 {
		acc += t.nodes[node].add
		mid := (lo + hi) / 2
		if t.nodes[2*node].max+acc == v {
			node, hi = 2*node, mid
		} else {
			node, lo = 2*node+1, mid
		}
	}
	return lo
}

// nextBelow returns the index of the first leaf ≥ from whose value is < v,
// or n if every leaf from `from` on has value ≥ v.
func (t *segTree) nextBelow(node, lo, hi, from int, acc, v float64) int {
	if hi <= from || t.nodes[node].min+acc >= v {
		return t.n
	}
	if hi-lo == 1 {
		return lo // min < v and this is a single leaf ≥ from
	}
	acc += t.nodes[node].add
	mid := (lo + hi) / 2
	if got := t.nextBelow(2*node, lo, mid, from, acc, v); got < t.n {
		return got
	}
	return t.nextBelow(2*node+1, mid, hi, from, acc, v)
}

// CellValue returns the value of one cell (test/debug helper, O(log n)).
func (t *segTree) CellValue(i int) float64 {
	node, lo, hi := 1, 0, t.n
	var acc float64
	for hi-lo > 1 {
		acc += t.nodes[node].add
		mid := (lo + hi) / 2
		if i < mid {
			node, hi = 2*node, mid
		} else {
			node, lo = 2*node+1, mid
		}
	}
	return t.nodes[node].max + acc
}

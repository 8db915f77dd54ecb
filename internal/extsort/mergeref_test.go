package extsort

import (
	"container/heap"
	"io"

	"maxrs/internal/em"
)

// mergeIntoRef is the heap merge that mergeInto replaced, kept verbatim as
// the reference the loser tree must match record for record and transfer
// for transfer.
func mergeIntoRef[T any](runs []*em.File, codec em.Codec[T], less func(a, b T) bool, sink func(T) error) error {
	h := &mergeHeap[T]{less: less}
	for i, r := range runs {
		rr, err := em.NewRecordReader(r, codec)
		if err != nil {
			return err
		}
		v, err := rr.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, mergeItem[T]{v: v, src: rr, idx: i})
	}
	heap.Init(h)
	for h.Len() > 0 {
		top := h.items[0]
		if err := sink(top.v); err != nil {
			return err
		}
		v, err := top.src.Read()
		if err == io.EOF {
			heap.Pop(h)
			continue
		}
		if err != nil {
			return err
		}
		h.items[0].v = v
		heap.Fix(h, 0)
	}
	return nil
}

type mergeItem[T any] struct {
	v   T
	src *em.RecordReader[T]
	idx int // run index, tiebreak for stability
}

type mergeHeap[T any] struct {
	items []mergeItem[T]
	less  func(a, b T) bool
}

func (h *mergeHeap[T]) Len() int { return len(h.items) }

func (h *mergeHeap[T]) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.less(a.v, b.v) {
		return true
	}
	if h.less(b.v, a.v) {
		return false
	}
	return a.idx < b.idx // stable across runs
}

func (h *mergeHeap[T]) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *mergeHeap[T]) Push(x any) { h.items = append(h.items, x.(mergeItem[T])) }

func (h *mergeHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

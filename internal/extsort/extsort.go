// Package extsort implements the textbook external merge sort in the EM
// model: run formation fills the M-byte memory with records, sorts them, and
// spills sorted runs; then repeated (M/B − 1)-way merges reduce the runs to
// one. Total cost O((N/B) log_{M/B}(N/B)) block transfers — the same bound
// as, and a prerequisite of, ExactMaxRS (§5, Theorem 2).
//
// SortP additionally exploits CPU parallelism in the PEM style (DESIGN.md
// §6): run buffers are sorted and spilled by worker goroutines pipelined
// behind the single reader, and independent merge groups of one level run
// concurrently. Run boundaries and the merge tree are byte-identical to the
// sequential schedule, so the counted transfer total never depends on the
// worker count.
//
// The two halves of the sort are also exposed separately for pass fusion
// (DESIGN.md §8): a RunBuilder accepts records from a producer and spills
// sorted runs directly — no unsorted input file is ever written or re-read
// — and a Merger reduces runs to one final merge level and replays that
// final merge into a caller sink via MergeInto, so the sorted output need
// never be materialized either. SortP itself is the two halves with a
// file reader on one end and a file writer on the other: run formation,
// then Merger.Reduce, then one merge into the output file. The run
// boundaries and the merge tree are identical however the halves are
// driven. A Merger over one run is a sorted file read through the same
// interface: Reduce does nothing, and each MergeInto reads the file once.
package extsort

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"maxrs/internal/conc"
	"maxrs/internal/em"
)

// Sort sorts the records of in according to less and returns a new sorted
// file. The input file is not modified and not released. The memory budget
// env.M bounds both the run-formation buffer and the merge fan-in.
func Sort[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool) (*em.File, error) {
	return SortP(env, in, codec, less, 1)
}

// SortP is Sort with up to parallelism worker goroutines (≤ 0 selects
// GOMAXPROCS). It is formRuns followed by a Merger: Reduce merges the
// runs down to at most fanIn, and one more merge writes them into
// the output file (a single run is the output itself). The output file and
// the block-transfer counts are identical for every parallelism value;
// only wall-clock time changes.
func SortP[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) (*em.File, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	runs, err := formRuns(env, in, codec, less, parallelism)
	if err != nil {
		return nil, err
	}
	m := NewMerger(env, runs, codec, less, parallelism)
	if err := m.Reduce(); err != nil {
		return nil, err
	}
	if len(m.runs) == 1 {
		return m.runs[0], nil
	}
	out, err := mergeOnce(env, m.runs, codec, less)
	if err != nil {
		_ = m.Release()
		return nil, err
	}
	if err := m.Release(); err != nil {
		_ = out.Release()
		return nil, err
	}
	return out, nil
}

// fanInOf returns the merge fan-in: all memory blocks minus one reserved
// for the output buffer, floored at 2 so the merge always makes progress.
func fanInOf(env em.Env) int {
	fanIn := env.MemBlocks() - 1
	if fanIn < 2 {
		fanIn = 2
	}
	return fanIn
}

// insertionRun is the length of the blocks SortStableScratch
// insertion-sorts before its first merge pass.
const insertionRun = 16

// SortStable sorts buf by less, keeping equal records in input order: the
// unique stable order, the same as sort.SliceStable's. It is
// SortStableScratch with a fresh scratch slice of len(buf) records (none
// when buf is at most one insertion block).
func SortStable[T any](buf []T, less func(a, b T) bool) {
	var scratch []T
	if len(buf) > insertionRun {
		scratch = make([]T, len(buf))
	}
	SortStableScratch(buf, scratch, less)
}

// SortStableScratch stable-sorts buf by less with a bottom-up merge sort:
// it insertion-sorts blocks of insertionRun records, then merges runs of
// doubling width back and forth between buf and scratch. A merge takes
// from the right run only when its head is strictly less, so ties keep
// input order and every comparison is one less call. scratch must hold
// len(buf) records when len(buf) > insertionRun; its contents are
// overwritten, and callers that sort many buffers keep one scratch.
func SortStableScratch[T any](buf, scratch []T, less func(a, b T) bool) {
	n := len(buf)
	for lo := 0; lo < n; lo += insertionRun {
		insertionSort(buf[lo:min(lo+insertionRun, n)], less)
	}
	if n <= insertionRun {
		return
	}
	src, dst := buf, scratch[:n]
	for width := insertionRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			mergeTwo(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &buf[0] {
		copy(buf, src)
	}
}

// insertionSort stable-sorts a: a record moves left only past strictly
// greater ones.
func insertionSort[T any](a []T, less func(a, b T) bool) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && less(v, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// mergeTwo merges the sorted, non-empty a and the sorted b into dst, which
// holds exactly len(a)+len(b) records. Ties take a's record first. Runs
// already in order cost one comparison.
func mergeTwo[T any](dst, a, b []T, less func(a, b T) bool) {
	if len(b) == 0 || !less(b[0], a[len(a)-1]) {
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sortAndSpill sorts one run buffer with SortStableScratch and writes it
// out as a run file. *scratch is the caller's sort scratch, grown here
// when a buffer outgrows it. The cancellation check runs before the
// in-memory sort — the one long CPU-only stretch of run formation — and
// the spill writes themselves abort at block granularity through the
// env-carried context.
func sortAndSpill[T any](env em.Env, codec em.Codec[T], less func(a, b T) bool, buf []T, scratch *[]T) (*em.File, error) {
	if err := env.Err(); err != nil {
		return nil, err
	}
	if len(*scratch) < len(buf) {
		*scratch = make([]T, len(buf))
	}
	SortStableScratch(buf, *scratch, less)
	return em.WriteAllEnv(env, codec, buf)
}

// spiller owns the sort-and-spill worker pool shared by formRuns and
// RunBuilder: full run buffers are handed to dispatch in input order, and
// run i lands in slot i of the result regardless of which worker spilled
// it — the PEM invariant that keeps run boundaries worker-count-free. A
// buffer whose run is on disk goes on the free list, and the builder
// refills it instead of allocating the next one.
type spiller[T any] struct {
	env     em.Env
	codec   em.Codec[T]
	less    func(a, b T) bool
	workers int

	jobs    chan spillJob[T]
	started bool
	wg      sync.WaitGroup

	mu       sync.Mutex
	runs     []*em.File
	firstErr error
	free     [][]T // spilled run buffers, at most workers+1, guarded by mu

	scratch []T // the inline path's sort scratch, kept across its runs
}

type spillJob[T any] struct {
	idx int
	buf []T
}

func newSpiller[T any](env em.Env, codec em.Codec[T], less func(a, b T) bool, parallelism int) *spiller[T] {
	return &spiller[T]{env: env, codec: codec, less: less, workers: parallelism}
}

// recycle puts a buffer whose run has been written on the free list. At
// most workers+1 run buffers exist at once (see dispatch), so the cap is
// never reached; it only keeps the bound explicit.
func (sp *spiller[T]) recycle(buf []T) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.free) <= sp.workers {
		sp.free = append(sp.free, buf[:0])
	}
}

// buffer returns an empty run buffer of capacity n: a recycled one when
// the free list has one, else a fresh one.
func (sp *spiller[T]) buffer(n int) []T {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if k := len(sp.free); k > 0 {
		buf := sp.free[k-1]
		sp.free = sp.free[:k-1]
		return buf
	}
	return make([]T, 0, n)
}

func (sp *spiller[T]) place(idx int, f *em.File, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err != nil {
		if sp.firstErr == nil {
			sp.firstErr = err
		}
		return
	}
	for len(sp.runs) <= idx {
		sp.runs = append(sp.runs, nil)
	}
	sp.runs[idx] = f
}

// dispatch hands one full run buffer over for sorting and spilling. With a
// single worker it runs inline and reports the error directly; otherwise
// the error surfaces at finish. Workers are started lazily so builders
// that never spill cost no goroutines. An unbuffered channel with p
// workers bounds in-flight run buffers to p+1 (p sorting/spilling + 1
// filling): the PEM budget of DESIGN.md §6. A buffer is recycled once
// its run is written, and a new one is made only when none is free, so
// the builder never holds more than those p+1. Each worker, like the
// inline path, keeps one sort scratch across the runs it sorts.
func (sp *spiller[T]) dispatch(idx int, buf []T) error {
	if sp.workers <= 1 {
		f, err := sortAndSpill(sp.env, sp.codec, sp.less, buf, &sp.scratch)
		sp.place(idx, f, err)
		sp.recycle(buf)
		return err
	}
	if !sp.started {
		sp.started = true
		sp.jobs = make(chan spillJob[T])
		for w := 0; w < sp.workers; w++ {
			sp.wg.Add(1)
			go func() {
				defer sp.wg.Done()
				var scratch []T
				for j := range sp.jobs {
					f, err := sortAndSpill(sp.env, sp.codec, sp.less, j.buf, &scratch)
					sp.place(j.idx, f, err)
					sp.recycle(j.buf)
				}
			}()
		}
	}
	sp.jobs <- spillJob[T]{idx: idx, buf: buf}
	sp.mu.Lock()
	err := sp.firstErr
	sp.mu.Unlock()
	return err
}

// finish drains the workers and returns the spilled runs in input order,
// releasing everything on error. It drops the sort scratch and the free
// list: a finished builder can stay reachable for the rest of its query
// (core's external root holds its two builders while the recursion
// below it runs), and buffers it kept would count toward the query's
// peak memory.
func (sp *spiller[T]) finish() ([]*em.File, error) {
	if sp.started {
		close(sp.jobs)
		sp.wg.Wait()
		sp.started = false
		sp.jobs = nil
	}
	sp.scratch = nil
	sp.free = nil
	if sp.firstErr != nil {
		sp.releaseAll()
		return nil, sp.firstErr
	}
	return sp.runs, nil
}

func (sp *spiller[T]) releaseAll() {
	for _, r := range sp.runs {
		if r != nil {
			_ = r.Release()
		}
	}
	sp.runs = nil
}

// RunBuilder accepts records one at a time and spills them as sorted runs
// of ≤ M bytes each — the input half of the external sort, exposed so
// producers (core's fused root) can stream records straight into run
// formation instead of materializing an unsorted file first (input→run
// fusion, DESIGN.md §8). Run i always holds records [i·R, (i+1)·R) of the
// Add sequence, exactly as if the sequence had been written to a file and
// sorted with SortP, so downstream merge trees — and transfer counts — are
// identical to SortP's minus the eliminated passes.
type RunBuilder[T any] struct {
	env    em.Env
	codec  em.Codec[T]
	perRun int
	buf    []T
	idx    int
	count  int64
	sp     *spiller[T]
	done   bool
}

// NewRunBuilder validates the environment and returns an empty builder.
// parallelism bounds the sort/spill worker goroutines exactly as in SortP
// (≤ 0 selects GOMAXPROCS); run boundaries never depend on it.
func NewRunBuilder[T any](env em.Env, codec em.Codec[T], less func(a, b T) bool, parallelism int) (*RunBuilder[T], error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	perRun := env.M / codec.Size()
	if perRun < 1 {
		return nil, fmt.Errorf("extsort: memory %dB cannot hold one %dB record", env.M, codec.Size())
	}
	return &RunBuilder[T]{
		env:    env,
		codec:  codec,
		perRun: perRun,
		buf:    make([]T, 0, perRun),
		sp:     newSpiller(env, codec, less, parallelism),
	}, nil
}

// spillIfFull spills the buffer as the next run when — and only when — it
// holds exactly perRun records. Every spill goes through here, which is
// what keeps run boundaries identical between Add- and fill-driven
// builders and keeps the spill lazy: a full buffer is written by the Add
// that overflows it, or by Finish. The next buffer is one the spiller
// has recycled when one is free, so a builder allocates at most p+1 run
// buffers however many runs it spills.
func (rb *RunBuilder[T]) spillIfFull() error {
	if len(rb.buf) < rb.perRun {
		return nil
	}
	if err := rb.sp.dispatch(rb.idx, rb.buf); err != nil {
		return err
	}
	rb.idx++
	rb.buf = rb.sp.buffer(rb.perRun)
	return nil
}

// Add appends one record. The full buffer is spilled lazily — on the Add
// that overflows it — so a sequence of exactly perRun records touches no
// disk until Finish writes it as the one run.
func (rb *RunBuilder[T]) Add(v T) error {
	if err := rb.spillIfFull(); err != nil {
		return err
	}
	rb.buf = append(rb.buf, v)
	rb.count++
	return nil
}

// fill drains read — a ReadBatch-shaped source decoding records straight
// into the buffer's free space, so batch producers skip the per-record
// Add call — until it returns io.EOF, spilling full buffers as runs.
func (rb *RunBuilder[T]) fill(read func(dst []T) (int, error)) error {
	for {
		if err := rb.spillIfFull(); err != nil {
			return err
		}
		n, err := read(rb.buf[len(rb.buf):rb.perRun])
		rb.buf = rb.buf[:len(rb.buf)+n]
		rb.count += int64(n)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Count returns the number of records added so far.
func (rb *RunBuilder[T]) Count() int64 { return rb.count }

// Finish spills the final partial buffer and returns the sorted runs in
// input order. An empty input yields one empty run, matching SortP. On
// error every spilled run is released. The builder is consumed.
func (rb *RunBuilder[T]) Finish() ([]*em.File, error) {
	rb.done = true
	if len(rb.buf) > 0 {
		err := rb.sp.dispatch(rb.idx, rb.buf)
		rb.idx++
		rb.buf = nil
		if err != nil {
			_, _ = rb.sp.finish() // drain workers; releases runs on error
			rb.sp.releaseAll()
			return nil, err
		}
	}
	runs, err := rb.sp.finish()
	if err != nil {
		return nil, err
	}
	if rb.idx == 0 { // empty input → empty sorted run
		runs = append(runs, rb.env.NewFile())
	}
	return runs, nil
}

// Discard drains the workers and releases every spilled run — the error
// path counterpart of Finish. Safe to call after it (a no-op).
func (rb *RunBuilder[T]) Discard() {
	if rb.done {
		return
	}
	rb.done = true
	rb.buf = nil
	_, _ = rb.sp.finish()
	rb.sp.releaseAll()
}

// formRuns produces sorted runs of ≤ M bytes each. Run i always holds
// records [i·perRun, (i+1)·perRun) of the input regardless of parallelism:
// workers only take over the sort + spill of a buffer the reader has
// already filled. On error every already-spilled run is released.
func formRuns[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) ([]*em.File, error) {
	rb, err := NewRunBuilder(env, codec, less, parallelism)
	if err != nil {
		return nil, err
	}
	rr, err := em.OpenRecordReader(env, in, codec)
	if err != nil {
		return nil, err
	}
	if err := rb.fill(rr.ReadBatch); err != nil {
		rb.Discard()
		return nil, err
	}
	return rb.Finish()
}

// Merger owns a set of sorted runs and merges them down. Reduce merges
// just enough of them that at most fanIn runs remain; MergeInto then
// replays the final merge into a caller sink without writing the sorted
// output (merge→sink fusion, DESIGN.md §8). MergeInto may be called
// repeatedly: each call costs one read pass over the remaining runs, which
// lets a consumer that needs two passes over the sorted stream (boundary
// selection, then distribution) trade the eliminated write+read of the
// sorted file for a second run read.
type Merger[T any] struct {
	env   em.Env
	codec em.Codec[T]
	less  func(a, b T) bool
	par   int
	runs  []*em.File
}

// NewMerger wraps sorted runs for merging. The Merger owns the runs:
// Reduce releases merged-away levels and Release frees the remainder.
func NewMerger[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) *Merger[T] {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Merger[T]{env: env, codec: codec, less: less, par: parallelism, runs: runs}
}

// Runs returns the current number of runs.
func (m *Merger[T]) Runs() int { return len(m.runs) }

// Reduce merges runs until one final merge pass remains: at most fanIn
// runs. While more than fanIn² runs remain it merges whole levels in
// groups of fanIn. Once at most fanIn² remain, one partial level merges
// only the trailing k = e + ⌈e/(fanIn−1)⌉ runs, where e = runs − fanIn
// is the excess, in contiguous groups of at most fanIn. Those groups
// number ⌈e/(fanIn−1)⌉, so exactly fanIn runs remain, still in input
// order, and the final merge emits equal records in the same order as
// after whole levels. SortP reduces through it too, so every transfer up
// to — but excluding — the final merge matches SortP exactly. On error
// every run is released.
func (m *Merger[T]) Reduce() error {
	fanIn := fanInOf(m.env)
	for len(m.runs) > fanIn {
		if err := m.env.Err(); err != nil {
			_ = m.Release()
			return err
		}
		lo := 0
		if len(m.runs) <= fanIn*fanIn {
			e := len(m.runs) - fanIn
			lo = len(m.runs) - (e + (e+fanIn-2)/(fanIn-1))
		}
		next, err := mergeLevel(m.env, m.runs[lo:], m.codec, m.less, m.par)
		if err != nil {
			_ = m.Release() // mergeLevel released m.runs[lo:] already
			return err
		}
		m.runs = append(m.runs[:lo:lo], next...)
	}
	return nil
}

// MergeInto streams the merge of the remaining runs into sink in sorted
// order. The runs are read, not consumed; call Release when done.
func (m *Merger[T]) MergeInto(sink func(T) error) error {
	return mergeInto(m.runs, m.codec, m.less, sink)
}

// Release frees the remaining runs. Idempotent.
func (m *Merger[T]) Release() error {
	var first error
	for _, r := range m.runs {
		if err := r.Release(); err != nil && first == nil {
			first = err
		}
	}
	m.runs = nil
	return first
}

// mergeLevel merges one level of runs in groups of fanIn and releases the
// merged-away inputs. Groups are independent and run on up to parallelism
// goroutines. On error every input and the partial next level are
// released; File.Release is idempotent, so runs a group already freed
// are skipped for free.
func mergeLevel[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) ([]*em.File, error) {
	fanIn := fanInOf(env)
	groups := (len(runs) + fanIn - 1) / fanIn
	next := make([]*em.File, groups)
	err := conc.ForEachIndexed(groups, parallelism, func(g int) error {
		lo := g * fanIn
		hi := min(lo+fanIn, len(runs))
		merged, err := mergeOnce(env, runs[lo:hi], codec, less)
		if err != nil {
			return err
		}
		for _, r := range runs[lo:hi] {
			if err := r.Release(); err != nil {
				return err
			}
		}
		next[g] = merged
		return nil
	})
	if err != nil {
		for _, f := range next {
			if f != nil {
				_ = f.Release()
			}
		}
		for _, r := range runs {
			_ = r.Release()
		}
		return nil, err
	}
	return next, nil
}

// mergeOnce k-way merges the given sorted runs into a fresh file,
// releasing the partial output on error.
func mergeOnce[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool) (_ *em.File, err error) {
	out := env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	w, err := em.NewRecordWriter(out, codec)
	if err != nil {
		return nil, err
	}
	if err := mergeInto(runs, codec, less, w.Write); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeInto k-way merges the given sorted runs, emitting every record to
// sink in sorted order; equal records leave in run-index order, so the
// merge is stable across runs. Each run is read front to back exactly
// once, through a cursor that decodes up to one block's worth of records
// per ReadBatch, and a loser tree over the cursors picks every output
// record with one less call per tree level.
func mergeInto[T any](runs []*em.File, codec em.Codec[T], less func(a, b T) bool, sink func(T) error) error {
	k := len(runs)
	if k == 0 {
		return nil
	}
	per := max(1, runs[0].Disk().BlockSize()/codec.Size())
	backing := make([]T, k*per)
	cur := make([]cursor[T], k)
	for i, r := range runs {
		rr, err := em.NewRecordReader(r, codec)
		if err != nil {
			return err
		}
		cur[i] = cursor[T]{rr: rr, buf: backing[i*per : (i+1)*per]}
		if err := cur[i].refill(); err != nil {
			return err
		}
	}
	t := newLoserTree(cur, less)
	for {
		w := t.node[0]
		c := &cur[w]
		if len(c.vals) == 0 {
			return nil // the winner is exhausted, so every run is
		}
		if err := sink(c.vals[0]); err != nil {
			return err
		}
		if c.vals = c.vals[1:]; len(c.vals) == 0 {
			if err := c.refill(); err != nil {
				return err
			}
		}
		t.replay(w)
	}
}

// cursor is one run's read position in a merge: the decoded records of
// its current batch not yet emitted. vals is empty once the run is
// exhausted.
type cursor[T any] struct {
	rr   *em.RecordReader[T]
	buf  []T
	vals []T
}

// refill decodes the run's next batch into buf.
func (c *cursor[T]) refill() error {
	n, err := c.rr.ReadBatch(c.buf)
	c.vals = c.buf[:n]
	if err == io.EOF {
		return nil
	}
	return err
}

// loserTree is a tournament over the merge cursors. Leaf i sits at
// position k+i of an implicit complete binary tree; node[n], for
// 1 ≤ n < k, holds the loser of the match played at internal position n,
// and node[0] holds the overall winner.
type loserTree[T any] struct {
	cur  []cursor[T]
	less func(a, b T) bool
	node []int
}

func newLoserTree[T any](cur []cursor[T], less func(a, b T) bool) *loserTree[T] {
	k := len(cur)
	t := &loserTree[T]{cur: cur, less: less, node: make([]int, k)}
	win := make([]int, 2*k) // win[n]: the winner of the subtree at position n
	for i := range k {
		win[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if !t.beats(a, b) {
			a, b = b, a
		}
		win[n], t.node[n] = a, b
	}
	t.node[0] = win[1] // for k == 1, position 1 is the lone leaf
	return t
}

// beats reports whether leaf a wins its match against leaf b. The smaller
// head wins, ties go to the lower run index, and an exhausted leaf loses
// to every live one — one less call per match between live leaves.
func (t *loserTree[T]) beats(a, b int) bool {
	va, vb := t.cur[a].vals, t.cur[b].vals
	switch {
	case len(vb) == 0:
		return true
	case len(va) == 0:
		return false
	case a < b:
		return !t.less(vb[0], va[0])
	}
	return t.less(va[0], vb[0])
}

// replay replays the matches on leaf w's path to the root after its head
// changed, leaving the new overall winner in node[0].
func (t *loserTree[T]) replay(w int) {
	for n := (len(t.node) + w) / 2; n > 0; n /= 2 {
		if l := t.node[n]; t.beats(l, w) {
			t.node[n], w = w, l
		}
	}
	t.node[0] = w
}

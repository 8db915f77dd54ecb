package em

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// File is a sequence of fixed-size blocks on a Disk holding a byte stream.
// Files are written once through a Writer and then read any number of times
// through Readers; this write-once discipline matches every use in the
// distribution-sweep algorithm (runs, slab files, spanning files).
type File struct {
	disk   *Disk
	scope  *ScopeStats     // default per-query attribution for streams on this file
	ctx    context.Context // default cancellation for streams on this file (nil = never)
	blocks []BlockID
	size   int64 // logical length in bytes
}

// ctxErr reports a context's cancellation; a nil context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// NewFile returns an empty file on d.
func NewFile(d *Disk) *File { return &File{disk: d} }

// NewFileScoped returns an empty file on d whose readers and writers
// charge sc in addition to the disk-global counters. A nil sc is the same
// as NewFile.
func NewFileScoped(d *Disk, sc *ScopeStats) *File { return &File{disk: d, scope: sc} }

// Size returns the logical length in bytes.
func (f *File) Size() int64 { return f.size }

// Blocks returns the number of disk blocks the file occupies.
func (f *File) Blocks() int { return len(f.blocks) }

// Disk returns the device the file lives on.
func (f *File) Disk() *Disk { return f.disk }

// Release frees every block of the file. The file becomes empty and may be
// rewritten. Intermediate files (sort runs, per-level slab files) must be
// released promptly or large experiments exhaust process memory. A failed
// free never stops the sweep — every remaining block is still released and
// all failures come back joined, so one bad block cannot leak the rest.
func (f *File) Release() error {
	var errs []error
	for _, id := range f.blocks {
		if err := f.disk.Free(id); err != nil {
			errs = append(errs, err)
		}
	}
	f.blocks = nil
	f.size = 0
	return errors.Join(errs...)
}

// Writer appends bytes to a File through an in-memory block buffer. Every
// filled block costs one write transfer; Close flushes the final partial
// block.
//
// On a pipelined Disk (a file or mmap store, DESIGN.md §8) the Writer runs
// write-behind: a filled block is handed to a short-lived background
// goroutine while the caller keeps filling a second buffer, overlapping
// the backend's write latency with record encoding. The transfer schedule
// — which blocks, how many, in what file order — is identical to the
// synchronous path; only wall-clock changes. A background write error
// surfaces on the next flush or at Close. The double buffer costs one
// extra block of the writer's memory budget.
type Writer struct {
	file    *File
	scope   *ScopeStats
	ctx     context.Context // abort before the next block write once cancelled
	recSize int             // record size of the stream, picks the block codec (0 = none)
	buf     []byte
	n       int // bytes buffered
	closed  bool
	wb      *writeBehind
}

// writeBehind is the write-behind state: the spare buffer the caller fills
// while the previous block is written in the background, and the in-flight
// write's completion channel (buffered, so an abandoned writer can never
// leak its goroutine).
type writeBehind struct {
	spare    []byte
	ch       chan error
	inflight bool
}

// NewWriter returns a Writer appending to f. f must be empty or previously
// written and not yet sealed; appending after readers exist is a logic error
// the caller must avoid (write-once discipline). Transfers are charged to
// the file's scope (if any) on top of the disk-global counters.
func (f *File) NewWriter() *Writer {
	w := &Writer{file: f, scope: f.scope, ctx: f.ctx, buf: make([]byte, f.disk.blockSize)}
	if f.disk.pipelined {
		w.wb = &writeBehind{spare: make([]byte, f.disk.blockSize), ch: make(chan error, 1)}
	}
	return w
}

// Write buffers p, flushing full blocks to disk. It never fails short.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	total := len(p)
	for len(p) > 0 {
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (w *Writer) flush() error {
	if w.n == 0 {
		return nil
	}
	// The cancellation check sits at block granularity: a full buffer is
	// the unit of work, so a cancelled query stops before its next
	// transfer. The in-flight write-behind block (if any) still drains —
	// abandoning it mid-air is the leak the generation guard exists for,
	// not a latency win.
	if err := ctxErr(w.ctx); err != nil {
		return err
	}
	if err := w.awaitWrite(); err != nil {
		return err
	}
	if w.wb == nil {
		id := w.file.disk.Alloc()
		if err := w.file.disk.writeBlockCtx(w.ctx, id, w.buf[:w.n], w.recSize); err != nil {
			// The block is not yet part of the file — freeing it here is
			// the only chance to reclaim it (Release won't see it).
			return errors.Join(err, w.file.disk.Free(id))
		}
		w.scope.addWrite()
		w.file.blocks = append(w.file.blocks, id)
		w.file.size += int64(w.n)
		w.n = 0
		return nil
	}
	id, gen := w.file.disk.allocGen()
	full := w.buf[:w.n]
	w.buf, w.wb.spare = w.wb.spare, w.buf
	w.wb.inflight = true
	go writeBehindBlock(w.ctx, w.file, id, gen, full, w.recSize, w.scope, w.wb.ch)
	w.file.blocks = append(w.file.blocks, id)
	w.file.size += int64(w.n)
	w.n = 0
	return nil
}

// awaitWrite drains the in-flight background write, if any.
func (w *Writer) awaitWrite() error {
	if w.wb == nil || !w.wb.inflight {
		return nil
	}
	w.wb.inflight = false
	return <-w.wb.ch
}

// writeBehindBlock is the one-shot write-behind goroutine body: it always
// terminates after a single transfer and a buffered send, so a Writer
// abandoned on an error path cannot leak it. The write is gated on the
// block generation captured at allocation (writeBlockGen), so if the
// abandoned writer's file was already released — and the block handed to
// a new owner — the stale write is rejected instead of corrupting it.
func writeBehindBlock(ctx context.Context, f *File, id BlockID, gen uint32, src []byte, recSize int, sc *ScopeStats, ch chan<- error) {
	err := f.disk.writeBlockGen(ctx, id, gen, src, recSize)
	if err == nil {
		sc.addWrite()
		f.disk.pipeWrites.Add(1)
	}
	ch <- err
}

// Close flushes the final partial block and drains any in-flight
// background write. Further writes fail with ErrClosed.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flush(); err != nil {
		return err
	}
	return w.awaitWrite()
}

// Reader streams a File sequentially through an in-memory block buffer.
// Every block fetched costs one read transfer.
//
// On a pipelined Disk (a file or mmap store, DESIGN.md §8) the Reader runs
// double-buffered read-ahead: while the caller consumes block k, a
// short-lived background goroutine fetches block k+1 into a spare buffer,
// overlapping the backend's read latency with record decoding. Read-ahead
// never fetches past the file's last block, and a fully consumed stream
// performs exactly the transfers of the synchronous path; only wall-clock
// changes. The double buffer costs one extra block of the reader's memory
// budget.
type Reader struct {
	file  *File
	scope *ScopeStats
	ctx   context.Context // abort before the next block fetch once cancelled
	buf   []byte
	next  int // next block index to fetch
	avail []byte
	off   int64 // bytes consumed so far
	pre   *prefetcher
}

// prefetcher is the read-ahead state: the spare buffer the background
// fetch fills and the in-flight fetch's completion channel (buffered, so
// an abandoned reader can never leak its goroutine).
type prefetcher struct {
	spare    []byte
	ch       chan error
	idx      int // block index the in-flight fetch targets
	inflight bool
}

// NewReader returns a Reader positioned at the start of f, charging
// transfers to the file's scope (if any).
func (f *File) NewReader() *Reader {
	r := &Reader{file: f, scope: f.scope, ctx: f.ctx, buf: make([]byte, f.disk.blockSize)}
	if f.disk.pipelined {
		r.pre = &prefetcher{spare: make([]byte, f.disk.blockSize), ch: make(chan error, 1)}
	}
	return r
}

// NewReaderScoped is NewReader with the transfer attribution overridden to
// sc — used to read a shared input file (e.g. a loaded dataset) on behalf
// of one query.
func (f *File) NewReaderScoped(sc *ScopeStats) *Reader {
	r := f.NewReader()
	r.scope = sc
	return r
}

// Read fills p from the stream, returning io.EOF at end of file.
func (r *Reader) Read(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if len(r.avail) == 0 {
			if err := r.fill(); err != nil {
				if total > 0 && err == io.EOF {
					return total, nil
				}
				return total, err
			}
		}
		c := copy(p, r.avail)
		r.avail = r.avail[c:]
		p = p[c:]
		total += c
		r.off += int64(c)
	}
	return total, nil
}

func (r *Reader) fill() error {
	if r.next >= len(r.file.blocks) {
		return io.EOF
	}
	// Block-granularity cancellation: stop before fetching (or consuming a
	// prefetch of) the next block. An in-flight prefetch goroutine is
	// one-shot with a buffered channel, so abandoning it here cannot leak
	// it; its block lands in a private buffer that is never consumed.
	if err := ctxErr(r.ctx); err != nil {
		return err
	}
	if r.pre != nil && r.pre.inflight && r.pre.idx == r.next {
		err := <-r.pre.ch
		r.pre.inflight = false
		if err != nil {
			return err
		}
		r.buf, r.pre.spare = r.pre.spare, r.buf
	} else {
		if err := r.file.disk.readBlockCtx(r.ctx, r.file.blocks[r.next], r.buf); err != nil {
			return err
		}
		r.scope.addRead()
	}
	// The final block may be partial.
	n := int64(r.file.disk.blockSize)
	if rem := r.file.size - int64(r.next)*n; rem < n {
		r.avail = r.buf[:rem]
	} else {
		r.avail = r.buf[:n]
	}
	r.next++
	if r.pre != nil && r.next < len(r.file.blocks) {
		r.pre.idx = r.next
		r.pre.inflight = true
		go prefetchBlock(r.ctx, r.file, r.file.blocks[r.next], r.pre.spare, r.scope, r.pre.ch)
	}
	return nil
}

// prefetchBlock is the one-shot read-ahead goroutine body: it always
// terminates after a single transfer and a buffered send, so a Reader
// abandoned mid-stream cannot leak it.
func prefetchBlock(ctx context.Context, f *File, id BlockID, dst []byte, sc *ScopeStats, ch chan<- error) {
	err := f.disk.readBlockCtx(ctx, id, dst)
	if err == nil {
		sc.addRead()
		f.disk.pipeReads.Add(1)
	}
	ch <- err
}

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int64 { return r.off }

// Codec serializes records of type T at a fixed byte size. Implementations
// must be stateless.
type Codec[T any] interface {
	Size() int
	Encode(dst []byte, v T)
	Decode(src []byte) T
}

// RecordWriter writes fixed-size records of type T to a File.
type RecordWriter[T any] struct {
	w     *Writer
	codec Codec[T]
	buf   []byte
	count int64
}

// NewRecordWriter returns a RecordWriter appending to f with codec c. Its
// blocks are stored under the disk's block codec for c's record size.
func NewRecordWriter[T any](f *File, c Codec[T]) (*RecordWriter[T], error) {
	if c.Size() <= 0 || c.Size() > f.disk.blockSize {
		return nil, fmt.Errorf("%w: record %dB, block %dB", ErrRecordSize, c.Size(), f.disk.blockSize)
	}
	w := f.NewWriter()
	w.recSize = c.Size()
	return &RecordWriter[T]{w: w, codec: c, buf: make([]byte, c.Size())}, nil
}

// OpenRecordWriter returns a writer appending to f charging transfers to
// env's scope and aborting at block-transfer granularity once env's
// context is cancelled. It is the way to write a long-lived shared file (a
// dataset being loaded or compacted) under a caller-bounded context
// without stamping that context onto the file itself — readers opened on
// the file later are unaffected. Files created through Env.NewFile carry
// the scope and context already.
func OpenRecordWriter[T any](env Env, f *File, c Codec[T]) (*RecordWriter[T], error) {
	rw, err := NewRecordWriter(f, c)
	if err != nil {
		return nil, err
	}
	rw.w.scope = env.Scope
	if env.Ctx != nil {
		rw.w.ctx = env.Ctx
	}
	return rw, nil
}

// Write appends one record.
func (rw *RecordWriter[T]) Write(v T) error {
	rw.codec.Encode(rw.buf, v)
	if _, err := rw.w.Write(rw.buf); err != nil {
		return err
	}
	rw.count++
	return nil
}

// WriteBatch appends every record of vs. Unlike repeated Write calls, each
// record is encoded directly into the writer's block buffer, paying the
// staging-buffer copy only for the rare record that straddles a block
// boundary. Transfer counts are identical to the equivalent Write sequence.
func (rw *RecordWriter[T]) WriteBatch(vs []T) error {
	w := rw.w
	if w.closed {
		return ErrClosed
	}
	size := rw.codec.Size()
	for _, v := range vs {
		if rem := len(w.buf) - w.n; rem >= size {
			rw.codec.Encode(w.buf[w.n:w.n+size], v)
			w.n += size
			if w.n == len(w.buf) {
				if err := w.flush(); err != nil {
					return err
				}
			}
		} else {
			rw.codec.Encode(rw.buf, v)
			if _, err := w.Write(rw.buf); err != nil {
				return err
			}
		}
		rw.count++
	}
	return nil
}

// Count returns the number of records written so far.
func (rw *RecordWriter[T]) Count() int64 { return rw.count }

// Close flushes the final partial block.
func (rw *RecordWriter[T]) Close() error { return rw.w.Close() }

// RecordReader streams fixed-size records of type T from a File.
type RecordReader[T any] struct {
	r     *Reader
	codec Codec[T]
	buf   []byte
}

// NewRecordReader returns a reader positioned at the first record of f.
func NewRecordReader[T any](f *File, c Codec[T]) (*RecordReader[T], error) {
	if c.Size() <= 0 || c.Size() > f.disk.blockSize {
		return nil, fmt.Errorf("%w: record %dB, block %dB", ErrRecordSize, c.Size(), f.disk.blockSize)
	}
	return &RecordReader[T]{r: f.NewReader(), codec: c, buf: make([]byte, c.Size())}, nil
}

// NewRecordReaderScoped is NewRecordReader with the transfer attribution
// overridden to sc (see File.NewReaderScoped).
func NewRecordReaderScoped[T any](f *File, c Codec[T], sc *ScopeStats) (*RecordReader[T], error) {
	rr, err := NewRecordReader(f, c)
	if err != nil {
		return nil, err
	}
	rr.r.scope = sc
	return rr, nil
}

// OpenRecordReader returns a reader on f charging transfers to env's scope
// and aborting at block-transfer granularity once env's context is
// cancelled. It is the way to read a pre-existing shared file (a loaded
// dataset) on behalf of one query; files created through Env.NewFile carry
// the scope and context already.
func OpenRecordReader[T any](env Env, f *File, c Codec[T]) (*RecordReader[T], error) {
	rr, err := NewRecordReader(f, c)
	if err != nil {
		return nil, err
	}
	rr.r.scope = env.Scope
	if env.Ctx != nil {
		rr.r.ctx = env.Ctx
	}
	return rr, nil
}

// Read returns the next record, or io.EOF after the last one.
func (rr *RecordReader[T]) Read() (T, error) {
	var zero T
	n, err := rr.r.Read(rr.buf)
	if err != nil {
		return zero, err
	}
	if n != len(rr.buf) {
		return zero, fmt.Errorf("em: truncated record: got %d of %d bytes", n, len(rr.buf))
	}
	return rr.codec.Decode(rr.buf), nil
}

// ReadBatch fills dst with up to len(dst) records and returns how many it
// read. At end of file it returns the records remaining (possibly 0) and
// io.EOF. Records are decoded directly from the reader's block buffer; the
// staging-buffer copy is paid only by records straddling a block boundary.
// Transfer counts are identical to the equivalent Read sequence.
func (rr *RecordReader[T]) ReadBatch(dst []T) (int, error) {
	size := rr.codec.Size()
	r := rr.r
	n := 0
	for n < len(dst) {
		if len(r.avail) >= size {
			dst[n] = rr.codec.Decode(r.avail[:size])
			r.avail = r.avail[size:]
			r.off += int64(size)
			n++
			continue
		}
		if len(r.avail) == 0 {
			if err := r.fill(); err != nil {
				return n, err // io.EOF at a record boundary
			}
			continue
		}
		// The next record straddles a block boundary; reassemble it in the
		// staging buffer.
		m, err := r.Read(rr.buf)
		if err != nil {
			return n, err
		}
		if m != size {
			return n, fmt.Errorf("em: truncated record: got %d of %d bytes", m, size)
		}
		dst[n] = rr.codec.Decode(rr.buf)
		n++
	}
	return n, nil
}

// RecordCount returns how many records of size recSize fit in f.
func RecordCount(f *File, recSize int) int64 {
	if recSize <= 0 {
		return 0
	}
	return f.Size() / int64(recSize)
}

// WriteAll writes every record of vs to a fresh file on d and returns it.
// Convenience for tests and data loading.
func WriteAll[T any](d *Disk, c Codec[T], vs []T) (*File, error) {
	return writeAll(&File{disk: d}, c, vs)
}

// WriteAllScoped is WriteAll with the transfers (and those of future
// streams on the returned file) charged to sc.
func WriteAllScoped[T any](d *Disk, sc *ScopeStats, c Codec[T], vs []T) (*File, error) {
	return writeAll(NewFileScoped(d, sc), c, vs)
}

// WriteAllEnv is WriteAll on a file created through env, so the transfers
// charge env's scope and the writes abort once env's context is cancelled.
func WriteAllEnv[T any](env Env, c Codec[T], vs []T) (*File, error) {
	return writeAll(env.NewFile(), c, vs)
}

// writeAll fills f with vs, releasing the partial output on every error —
// without this, an error mid-write (a cancelled context, a full backing
// file) would strand the blocks already flushed.
func writeAll[T any](f *File, c Codec[T], vs []T) (_ *File, err error) {
	defer func() {
		if err != nil {
			_ = f.Release()
		}
	}()
	w, err := NewRecordWriter(f, c)
	if err != nil {
		return nil, err
	}
	if err := w.WriteBatch(vs); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadAll materializes every record of f. Only for tests and small files —
// production code streams.
func ReadAll[T any](f *File, c Codec[T]) ([]T, error) {
	return ReadAllScoped(f, c, f.scope)
}

// ReadAllEnv is ReadAll with the reads charged to env's scope and aborted
// once env's context is cancelled.
func ReadAllEnv[T any](env Env, f *File, c Codec[T]) ([]T, error) {
	rr, err := OpenRecordReader(env, f, c)
	if err != nil {
		return nil, err
	}
	return readAll(rr, f, c)
}

// ReadAllScoped is ReadAll with the read transfers charged to sc.
func ReadAllScoped[T any](f *File, c Codec[T], sc *ScopeStats) ([]T, error) {
	rr, err := NewRecordReaderScoped(f, c, sc)
	if err != nil {
		return nil, err
	}
	return readAll(rr, f, c)
}

func readAll[T any](rr *RecordReader[T], f *File, c Codec[T]) ([]T, error) {
	out := make([]T, 0, RecordCount(f, c.Size()))
	batch := make([]T, 256)
	for {
		n, err := rr.ReadBatch(batch)
		out = append(out, batch[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

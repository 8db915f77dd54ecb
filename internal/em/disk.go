// Package em simulates the standard external-memory (EM) model of
// Aggarwal–Vitter as used by the paper (§2): a disk organized in blocks of B
// bytes, a main memory of M bytes (M ≥ 2B), and a cost measure equal to the
// number of blocks transferred between disk and memory.
//
// The paper evaluates every algorithm by this transfer count ("We do not
// consider CPU time, since it is dominated by I/O cost", §7.1), so the
// simulator *is* the measurement instrument: every block read or written
// through a Disk is tallied in its Stats. Blocks live in a slot store over
// process memory by default (hermetic, fast tests), or over a real OS file
// via NewFileBackedDisk or NewStoreDisk; either way algorithms may only
// touch data in whole blocks through the APIs here and must bound their
// private state by Env.M.
package em

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Common configuration errors.
var (
	ErrBlockSize   = errors.New("em: block size must be positive")
	ErrMemorySize  = errors.New("em: memory must hold at least two blocks (M ≥ 2B)")
	ErrBadBlock    = errors.New("em: block id out of range")
	ErrFreedBlock  = errors.New("em: access to freed block")
	ErrClosed      = errors.New("em: stream is closed")
	ErrRecordSize  = errors.New("em: record size must be positive and ≤ block size")
	ErrWriteSealed = errors.New("em: file already sealed for reading")
)

// Stats counts block transfers. Reads + Writes is the paper's "I/O cost".
type Stats struct {
	Reads  uint64 // blocks transferred disk → memory
	Writes uint64 // blocks transferred memory → disk
}

// Total returns Reads + Writes.
func (s Stats) Total() uint64 { return s.Reads + s.Writes }

// Sub returns the per-phase delta s − earlier.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{Reads: s.Reads - earlier.Reads, Writes: s.Writes - earlier.Writes}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d total=%d", s.Reads, s.Writes, s.Total())
}

// BlockID identifies an allocated disk block.
type BlockID int64

// Disk is a simulated block device. The zero value is unusable; construct
// with NewDisk, NewFileBackedDisk or NewStoreDisk.
//
// Disk is safe for concurrent use: the transfer counters are atomic and
// allocation state is mutex-guarded, so the parallel solver (DESIGN.md §6)
// can run goroutines against one device. The tally is order-independent —
// Stats().Total() is identical however the same set of transfers is
// interleaved. Individual blocks still have single-owner semantics:
// concurrent writers to the *same* block are a caller bug, exactly as two
// writers to one file would be.
type Disk struct {
	blockSize int
	store     *storeBackend // the slot store; any fault injector sits under it

	// mu guards live, gen and freeList. ReadBlock/WriteBlock take it in
	// read mode only to validate ids against the (append-only) live table.
	mu       sync.RWMutex
	live     []bool
	freeList []BlockID
	// gen counts how many times each block has been freed. A write-behind
	// goroutine presents the generation captured at allocation; if its
	// block was freed (an abandoned pipelined writer on an error path) —
	// and possibly handed to a new owner — in the meantime, the stale
	// write is rejected instead of corrupting the new owner's data. Reads
	// need no guard: a stale prefetch lands in a private buffer that is
	// never consumed.
	gen       []uint32
	liveCount atomic.Int64 // O(1) InUse, maintained by Alloc/Free

	reads  atomic.Uint64
	writes atomic.Uint64

	// pipelined enables stream prefetch / write-behind (DESIGN.md §8) on
	// file and mmap stores; pipeReads/pipeWrites count the transfers that
	// rode the background path (a subset of reads/writes — never extra
	// transfers).
	pipelined  bool
	pipeReads  atomic.Uint64
	pipeWrites atomic.Uint64

	// retry is the policy for transient faults and checksum mismatches
	// (DESIGN.md §11); nil means never retry. Retries count in the fault
	// counters below, never in reads/writes — those tally successful
	// transfers only, so the I/O metric of a fault-free run is
	// bit-identical with any policy. checksumFails counts read attempts
	// whose slot failed verification (ErrBlockCorrupt).
	retry         atomic.Pointer[RetryPolicy]
	readRetries   atomic.Uint64
	writeRetries  atomic.Uint64
	checksumFails atomic.Uint64
}

// MustNewDisk is NewDisk for static configurations; it panics on error.
func MustNewDisk(blockSize int) *Disk {
	d, err := NewDisk(blockSize)
	if err != nil {
		panic(err)
	}
	return d
}

// BlockSize returns B in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// Stats returns the transfer counters accumulated so far.
func (d *Disk) Stats() Stats {
	return Stats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats zeroes the transfer counters (e.g. to exclude data generation
// from a measured phase), along with the physical-byte counters so PhysIO
// stays phase-aligned with Stats.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.pipeReads.Store(0)
	d.pipeWrites.Store(0)
	d.store.resetPhys()
}

// PipelineStats returns how many read and write transfers were performed
// by the background prefetch / write-behind path since the last
// ResetStats. Divide by Stats() for the pipeline coverage ratio.
func (d *Disk) PipelineStats() (reads, writes uint64) {
	return d.pipeReads.Load(), d.pipeWrites.Load()
}

// Close releases store resources (removes the backing file of a
// file-backed disk). The disk must not be used afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	d.live = nil
	d.gen = nil
	d.freeList = nil
	d.liveCount.Store(0)
	d.mu.Unlock()
	return d.store.Close()
}

// Alloc reserves a zeroed block and returns its id. Allocation itself is
// free; the transfer is charged when the block is read or written.
func (d *Disk) Alloc() BlockID {
	id, _ := d.allocGen()
	return id
}

// allocGen is Alloc plus the block's current free generation — the token
// every block write presents to writeBlockGen.
func (d *Disk) allocGen() (BlockID, uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var id BlockID
	if n := len(d.freeList); n > 0 {
		id = d.freeList[n-1]
		d.freeList = d.freeList[:n-1]
	} else {
		id = BlockID(len(d.live))
		d.live = append(d.live, false)
		d.gen = append(d.gen, 0)
	}
	if err := d.store.grow(id); err != nil {
		// Growth failures (disk full) surface on the next access; a full
		// alloc-with-error API would complicate every caller for a case
		// the in-memory store cannot hit.
		panic(fmt.Sprintf("em: store grow: %v", err))
	}
	d.live[id] = true
	d.liveCount.Add(1)
	return id, d.gen[id]
}

// Free releases a block. Freeing is free of transfer cost.
func (d *Disk) Free(id BlockID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(id); err != nil {
		return err
	}
	d.live[id] = false
	d.gen[id]++
	d.liveCount.Add(-1)
	d.freeList = append(d.freeList, id)
	d.store.free(id) // let large intermediates be collected
	return nil
}

// ReadBlock copies block id into dst (len(dst) must be ≥ BlockSize) and
// charges one read transfer. Transient faults and checksum mismatches are
// retried per the disk's RetryPolicy; a permanent fault (or exhausted
// retries) surfaces as an error wrapping ErrIOFault or ErrBlockCorrupt.
func (d *Disk) ReadBlock(id BlockID, dst []byte) error {
	return d.readBlockCtx(nil, id, dst)
}

// readBlockCtx is ReadBlock with the retry backoff bound to ctx: once ctx
// is cancelled, the retry loop aborts with the context error instead of
// sleeping out its backoff. A nil ctx never cancels.
func (d *Disk) readBlockCtx(ctx context.Context, id BlockID, dst []byte) error {
	err := d.readBlockOnce(id, dst)
	if err == nil {
		return nil
	}
	return d.retrySlow(ctx, id, &d.readRetries, err, func() error { return d.readBlockOnce(id, dst) })
}

// retrySlow is the one retry loop behind every block transfer, entered
// only after the first attempt failed with err: while the failure is
// retryable and the disk's policy allows, it counts a retry in retries,
// backs off (jitter keyed by the block id) and runs once again. A clean
// transfer never gets here, so it builds no policy snapshot or Backoff.
func (d *Disk) retrySlow(ctx context.Context, id BlockID, retries *atomic.Uint64, err error, once func() error) error {
	p := d.retryPolicy()
	bo := p.Backoff(uint64(id))
	for attempt := 0; ; attempt++ {
		if attempt >= p.MaxRetries || !retryable(err) {
			return err
		}
		retries.Add(1)
		if serr := SleepCtx(ctx, bo.Next()); serr != nil {
			return serr
		}
		if err = once(); err == nil {
			return nil
		}
	}
}

// readBlockOnce performs one read attempt; the slot store verifies the
// block against its header CRC32C.
//
// The read lock is held across the store access: it excludes Alloc/Free
// (which may move the store's block tables) while still letting any
// number of block transfers proceed concurrently. It is NOT held across
// retry backoffs — a sleeping retry must never stall allocation.
func (d *Disk) readBlockOnce(id BlockID, dst []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(id); err != nil {
		return err
	}
	if len(dst) < d.blockSize {
		return fmt.Errorf("em: read buffer %d < block size %d", len(dst), d.blockSize)
	}
	if err := d.store.read(id, dst); err != nil {
		if errors.Is(err, ErrBlockCorrupt) {
			d.checksumFails.Add(1)
		}
		return err
	}
	d.reads.Add(1)
	return nil
}

// WriteBlock copies src (at most BlockSize bytes) into block id and charges
// one write transfer. Transient faults are retried per the disk's
// RetryPolicy; permanent faults surface wrapping ErrIOFault. The page has
// no record layout, so it is stored uncompressed under any codec family.
func (d *Disk) WriteBlock(id BlockID, src []byte) error {
	g, err := d.genOf(id)
	if err != nil {
		return err
	}
	return d.writeBlockGen(nil, id, g, src, 0)
}

// genOf returns live block id's current free generation.
func (d *Disk) genOf(id BlockID) (uint32, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(id); err != nil {
		return 0, err
	}
	return d.gen[id], nil
}

// retryPolicy snapshots the current policy (zero value = never retry).
func (d *Disk) retryPolicy() RetryPolicy {
	if p := d.retry.Load(); p != nil {
		return *p
	}
	return RetryPolicy{}
}

// SetRetryPolicy installs the retry policy for transient faults and
// checksum mismatches on this disk's transfers. Safe to call at any time;
// in-flight retries keep the policy they started with.
func (d *Disk) SetRetryPolicy(p RetryPolicy) {
	d.retry.Store(&p)
}

// InjectFaults installs a deterministic fault injector driven by plan
// (DESIGN.md §11) — the chaos hook for tests and benchmarks. The injector
// wraps the slot store's medium, below the slot header check, so injected
// corruption is caught exactly like real media damage. Calling it again
// replaces the previous injector (transfer indices restart at zero);
// injecting a zero plan effectively disarms it. An armed injector that
// fires nothing leaves the counted transfer schedule bit-identical to an
// uninstrumented disk.
func (d *Disk) InjectFaults(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	medium := d.store.store
	if fs, ok := medium.(*faultSlots); ok {
		medium = fs.inner
	}
	d.store.store = newFaultSlots(medium, plan)
}

// FaultStats returns the disk's fault-handling counters: retries and
// checksum failures (counted by the disk itself), plus the per-kind fired
// counts of the installed injector, if any.
func (d *Disk) FaultStats() FaultStats {
	fs := FaultStats{
		ReadRetries:      d.readRetries.Load(),
		WriteRetries:     d.writeRetries.Load(),
		ChecksumFailures: d.checksumFails.Load(),
	}
	d.mu.RLock()
	inj, ok := d.store.store.(*faultSlots)
	d.mu.RUnlock()
	if ok {
		s := inj.sched
		fs.InjectedTransient, fs.InjectedPermanent = s.Fired(FaultTransient), s.Fired(FaultPermanent)
		fs.InjectedCorrupt, fs.InjectedTorn, fs.InjectedLatency = s.Fired(FaultCorrupt), s.Fired(FaultTorn), s.Fired(FaultLatency)
	}
	return fs
}

// writeBlockGen is the one block-write path: one write transfer of src
// into block id, gated on the free generation g the caller captured (at
// allocation, or under the lock in WriteBlock). A stale background write —
// its block freed, and possibly reallocated to a new owner, after the
// write was launched — is rejected under the same read lock that excludes
// Free, so it can never land on another file's data. recSize is the
// record size of the stream writing src, which picks the block's codec (0
// = no record layout). Retries follow the disk's policy, backing off under
// ctx (a nil ctx never cancels), with the generation revalidated on every
// attempt.
func (d *Disk) writeBlockGen(ctx context.Context, id BlockID, g uint32, src []byte, recSize int) error {
	err := d.writeBlockGenOnce(id, g, src, recSize)
	if err == nil {
		return nil
	}
	return d.retrySlow(ctx, id, &d.writeRetries, err, func() error { return d.writeBlockGenOnce(id, g, src, recSize) })
}

// writeBlockGenOnce performs one write attempt. The slot header records
// the CRC32C of the content the caller intended — a torn write that
// persists damaged bytes is caught by the next read's verification, which
// is the point. The read lock is held across the store access, as in
// readBlockOnce.
func (d *Disk) writeBlockGenOnce(id BlockID, g uint32, src []byte, recSize int) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(id); err != nil {
		return err
	}
	if d.gen[id] != g {
		return fmt.Errorf("%w: %d (stale background write)", ErrFreedBlock, id)
	}
	if len(src) > d.blockSize {
		return fmt.Errorf("em: write of %d bytes exceeds block size %d", len(src), d.blockSize)
	}
	if err := d.store.write(id, src, recSize); err != nil {
		return err
	}
	d.writes.Add(1)
	return nil
}

// InUse returns the number of live (allocated, unfreed) blocks — useful for
// leak checks in tests. O(1): maintained incrementally by Alloc/Free.
func (d *Disk) InUse() int { return int(d.liveCount.Load()) }

func (d *Disk) checkLocked(id BlockID) error {
	if id < 0 || int(id) >= len(d.live) {
		return fmt.Errorf("%w: %d", ErrBadBlock, id)
	}
	if !d.live[id] {
		return fmt.Errorf("%w: %d", ErrFreedBlock, id)
	}
	return nil
}

// Env bundles the EM model parameters an algorithm runs under.
type Env struct {
	Disk *Disk
	M    int // main-memory budget in bytes

	// Scope, when non-nil, additionally receives every transfer charged by
	// streams created through this Env (Env.NewFile and the scoped reader
	// constructors). It lets one query's I/O be accounted separately while
	// the Disk's global counters keep the grand total.
	Scope *ScopeStats

	// Ctx, when non-nil, is the cancellation context of the work running
	// under this Env. Streams created through the Env (Env.NewFile,
	// OpenRecordReader) check it at block-transfer granularity: once the
	// context is cancelled, the next block read or write fails with
	// ctx.Err() instead of transferring, so a cancelled query stops within
	// one block-transfer's work on every layer built on these streams
	// (DESIGN.md §10). A nil Ctx never cancels.
	Ctx context.Context
}

// WithScope returns a copy of e whose streams charge sc on top of the
// disk-global counters.
func (e Env) WithScope(sc *ScopeStats) Env {
	e.Scope = sc
	return e
}

// WithContext returns a copy of e whose streams abort with ctx's error at
// block-transfer granularity once ctx is cancelled.
func (e Env) WithContext(ctx context.Context) Env {
	e.Ctx = ctx
	return e
}

// Err returns the env's context error: non-nil once the context is
// cancelled, always nil for an env without a context. Layers with long
// CPU-only stretches (sort, merge bookkeeping) call it between block
// transfers to honor cancellation promptly.
func (e Env) Err() error {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Err()
}

// NewFile returns an empty file on the env's disk whose streams charge the
// env's scope (if any) and honor the env's context (if any).
func (e Env) NewFile() *File { return &File{disk: e.Disk, scope: e.Scope, ctx: e.Ctx} }

// NewEnv validates and returns an Env with block size B and memory M, both
// in bytes.
func NewEnv(blockSize, memory int) (Env, error) {
	d, err := NewDisk(blockSize)
	if err != nil {
		return Env{}, err
	}
	if memory < 2*blockSize {
		return Env{}, ErrMemorySize
	}
	return Env{Disk: d, M: memory}, nil
}

// MustNewEnv is NewEnv for static configurations; it panics on error.
func MustNewEnv(blockSize, memory int) Env {
	e, err := NewEnv(blockSize, memory)
	if err != nil {
		panic(err)
	}
	return e
}

// B returns the block size in bytes.
func (e Env) B() int { return e.Disk.BlockSize() }

// MemBlocks returns M/B, the number of blocks that fit in memory.
func (e Env) MemBlocks() int { return e.M / e.B() }

// Validate reports configuration errors (nil Disk, M < 2B).
func (e Env) Validate() error {
	if e.Disk == nil {
		return errors.New("em: Env.Disk is nil")
	}
	if e.M < 2*e.B() {
		return ErrMemorySize
	}
	return nil
}

//go:build linux

package em

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// mmapSlots is the performance-first slot store: slots live in a
// MAP_SHARED mapping of a temp file, so reads are page-cache memcpys
// with no syscall per block and writes are submitted in batches —
// copies land in the mapping immediately (the kernel's write-behind
// owns persistence) and an MS_ASYNC msync over the accumulated dirty
// extent is issued once per flushEvery bytes, not per block.
//
// Lifecycle (DESIGN.md §15): the mapping grows geometrically; growing
// remaps (munmap → ftruncate → mmap), which is safe against concurrent
// readSlot/writeSlot — and the views readSlot hands out — because grow
// runs with the Disk's write lock held, exclusively of every reader and
// writer, per the slotStore contract.
// Close drops the mapping and removes the file; the store is scratch
// space, so durability is never required and MS_SYNC is never issued.
type mmapSlots struct {
	f        *os.File
	slotSize int64
	data     []byte // current mapping

	// Dirty-extent accounting for batched write submission. A mutex, not
	// atomics: writeSlot already pays a memcpy, and the critical section is
	// two compares.
	mu       sync.Mutex
	dirtyLo  int64
	dirtyHi  int64
	dirtyLen int64
}

// flushEvery is the batched-submission threshold: one MS_ASYNC msync
// per this many dirty bytes.
const flushEvery = 1 << 20

// pageSize for mapping and msync alignment.
var pageSize = int64(os.Getpagesize())

// newMmapSlots returns an mmap slot store in dir, or an error when the
// platform or filesystem cannot map (the caller falls back to
// fileSlots). The initial mapping is created eagerly so inability to
// map surfaces here, not on the first block write.
func newMmapSlots(dir string, slotSize int64) (*mmapSlots, error) {
	f, err := os.CreateTemp(dir, "maxrs-mmap-*.dat")
	if err != nil {
		return nil, fmt.Errorf("em: mmap store file: %w", err)
	}
	s := &mmapSlots{f: f, slotSize: slotSize}
	if err := s.remap(flushEvery); err != nil {
		return nil, errors.Join(err, f.Close(), os.Remove(f.Name()))
	}
	return s, nil
}

// remap grows the file and mapping to at least size bytes. Caller must
// hold the store exclusively (the Disk write lock, per the grow
// contract) — remapping moves s.data.
func (s *mmapSlots) remap(size int64) error {
	newCap := int64(len(s.data))
	if newCap == 0 {
		newCap = pageSize
	}
	for newCap < size {
		newCap *= 2
	}
	newCap = (newCap + pageSize - 1) / pageSize * pageSize
	if s.data != nil {
		if err := syscall.Munmap(s.data); err != nil {
			return fmt.Errorf("em: munmap: %w", err)
		}
		s.data = nil
	}
	if err := s.f.Truncate(newCap); err != nil {
		return fmt.Errorf("em: mmap store truncate: %w", err)
	}
	m, err := syscall.Mmap(int(s.f.Fd()), 0, int(newCap),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("em: mmap: %w", err)
	}
	s.data = m
	return nil
}

func (s *mmapSlots) grow(id BlockID) error {
	size := (int64(id) + 1) * s.slotSize
	if size <= int64(len(s.data)) {
		return nil
	}
	// The mapping moves: reset dirty accounting to the new region
	// wholesale rather than msync-ing a dead mapping later.
	s.mu.Lock()
	s.dirtyLo, s.dirtyHi, s.dirtyLen = 0, 0, 0
	s.mu.Unlock()
	return s.remap(size)
}

func (s *mmapSlots) free(BlockID) {}

func (s *mmapSlots) readSlot(id BlockID, n int, _ []byte) (hdr, payload []byte, err error) {
	off := int64(id) * s.slotSize
	return s.data[off : off+slotHeaderSize], s.data[off+slotHeaderSize : off+slotHeaderSize+int64(n)], nil
}

func (s *mmapSlots) writeSlot(id BlockID, buf, payload []byte) error {
	off := int64(id) * s.slotSize
	copy(s.data[off:], buf[:slotHeaderSize])
	copy(s.data[off+slotHeaderSize:], payload)
	end := off + slotHeaderSize + int64(len(payload))
	s.mu.Lock()
	if s.dirtyLen == 0 || off < s.dirtyLo {
		s.dirtyLo = off
	}
	if s.dirtyLen == 0 || end > s.dirtyHi {
		s.dirtyHi = end
	}
	s.dirtyLen += end - off
	var lo, hi int64
	flush := s.dirtyLen >= flushEvery
	if flush {
		lo, hi = s.dirtyLo, s.dirtyHi
		s.dirtyLen = 0
	}
	s.mu.Unlock()
	if flush {
		s.msyncAsync(lo, hi)
	}
	return nil
}

// msyncAsync submits the page-aligned extent [lo, hi) to the kernel's
// writeback (MS_ASYNC: schedule, don't wait). Submission failures are
// deliberately ignored — the data is already visible through the
// MAP_SHARED mapping and the file is scratch; msync here only paces
// dirty-page accumulation.
func (s *mmapSlots) msyncAsync(lo, hi int64) {
	lo = lo / pageSize * pageSize
	if hi > int64(len(s.data)) {
		hi = int64(len(s.data))
	}
	if lo >= hi {
		return
	}
	seg := s.data[lo:hi]
	// The syscall package wraps mmap/munmap but not msync; the raw call
	// is the only stdlib route (no new dependencies).
	_, _, _ = syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&seg[0])), uintptr(len(seg)), uintptr(syscall.MS_ASYNC))
}

func (s *mmapSlots) Close() error {
	var errs []error
	if s.data != nil {
		if err := syscall.Munmap(s.data); err != nil {
			errs = append(errs, fmt.Errorf("em: munmap: %w", err))
		}
		s.data = nil
	}
	name := s.f.Name()
	errs = append(errs, s.f.Close(), os.Remove(name))
	return errors.Join(errs...)
}

package em

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"maxrs/internal/codec"
)

// This file implements the slot store (DESIGN.md §15), the one physical
// backend under every Disk. Each logical block persists as a *slot*: a
// self-describing header followed by the block's physical payload, which
// a per-block codec may have shrunk below the fixed layout. Without a
// codec every payload is the block's written bytes — the fixed layout.
// The raw codec (id 0) always fits, so compression can only save bytes,
// never spill.
//
// The store sits strictly below the Disk's transfer counters: one
// logical ReadBlock/WriteBlock is one counted transfer whatever the
// payload size or the medium, so the counted schedule is bit-identical
// across stores and codecs by construction. What a codec changes is the
// physical bytes each transfer moves, tallied in PhysIO.

// slotHeaderSize is the fixed per-slot header:
//
//	[0]     codec id (codec.RawID = uncompressed payload)
//	[1:4]   reserved (zero)
//	[4:8]   payload length, uint32 LE
//	[8:12]  uncompressed (logical) length, uint32 LE — the written
//	        prefix; the block's remainder is implied zeros
//	[12:16] CRC32C of the uncompressed prefix, uint32 LE
const slotHeaderSize = 16

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64) behind the slot header checksum — the one block checksum,
// verified on every read.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotStore is the medium under a storeBackend: the bare store, or the
// fault injector wrapping it (DESIGN.md §11). Slots are addressed by
// block id; each implementation only moves bytes.
//
// Concurrency contract: grow and free are only called with the Disk's
// write lock held; readSlot and writeSlot are called with its read lock
// held and so may run concurrently with each other (on distinct blocks)
// but never with grow or free.
type slotStore interface {
	// readSlot returns slot id's header and its n-byte payload. buf
	// (slotHeaderSize+n bytes or more) is scratch for a store that must
	// copy the slot out; the others return views of their storage, valid
	// while the Disk's read lock is held.
	readSlot(id BlockID, n int, buf []byte) (hdr, payload []byte, err error)
	// writeSlot stores slot id: the header in buf[:slotHeaderSize], then
	// payload. buf has room for the payload after the header, for a store
	// that writes the slot in one contiguous piece.
	writeSlot(id BlockID, buf, payload []byte) error
	// grow makes room for slot id.
	grow(id BlockID) error
	// free drops slot id's storage where the medium can.
	free(id BlockID)
	Close() error
}

// fileSlots stores slot id at offset id·slotSize of an OS file via
// positioned I/O — the portable store, and the fallback when mmap is
// unavailable.
type fileSlots struct {
	f        *os.File
	slotSize int64
}

func newFileSlots(dir string, slotSize int64) (*fileSlots, error) {
	f, err := os.CreateTemp(dir, "maxrs-store-*.dat")
	if err != nil {
		return nil, fmt.Errorf("em: store file: %w", err)
	}
	return &fileSlots{f: f, slotSize: slotSize}, nil
}

func (s *fileSlots) readSlot(id BlockID, n int, buf []byte) (hdr, payload []byte, err error) {
	buf = buf[:slotHeaderSize+n]
	_, err = s.f.ReadAt(buf, int64(id)*s.slotSize)
	return buf[:slotHeaderSize], buf[slotHeaderSize:], err
}

func (s *fileSlots) writeSlot(id BlockID, buf, payload []byte) error {
	buf = buf[:slotHeaderSize+len(payload)]
	copy(buf[slotHeaderSize:], payload)
	_, err := s.f.WriteAt(buf, int64(id)*s.slotSize)
	return err
}

// grow is a no-op: WriteAt extends the file on demand and only written
// slots are ever read back.
func (s *fileSlots) grow(BlockID) error { return nil }

func (s *fileSlots) free(BlockID) {}

// Close closes and removes the backing file. The remove runs even when
// the close fails — leaking a temp file because close errored would turn
// one fault into two — and both errors surface, joined.
func (s *fileSlots) Close() error {
	name := s.f.Name()
	return errors.Join(s.f.Close(), os.Remove(name))
}

// memSlots keeps slots in process memory. Each slot's payload is its own
// slice of exactly the written length, with the header kept apart: a
// full raw 4 KiB block stays one 4096-byte allocation, a partial block
// holds only its prefix, an allocated block costs nothing until written,
// and a freed block's payload is dropped at once so large intermediates
// are collected.
type memSlots struct {
	hdrs     [][slotHeaderSize]byte
	payloads [][]byte
}

func (s *memSlots) readSlot(id BlockID, n int, _ []byte) (hdr, payload []byte, err error) {
	return s.hdrs[id][:], s.payloads[id][:n], nil
}

func (s *memSlots) writeSlot(id BlockID, buf, payload []byte) error {
	s.hdrs[id] = [slotHeaderSize]byte(buf)
	s.payloads[id] = append(s.payloads[id][:0], payload...)
	return nil
}

func (s *memSlots) grow(id BlockID) error {
	for int(id) >= len(s.payloads) {
		s.payloads = append(s.payloads, nil)
		s.hdrs = append(s.hdrs, [slotHeaderSize]byte{})
	}
	return nil
}

func (s *memSlots) free(id BlockID) { s.payloads[id] = nil }

func (s *memSlots) Close() error {
	s.hdrs, s.payloads = nil, nil
	return nil
}

// StoreKind selects the medium under a Disk's slot store.
type StoreKind int

const (
	// StoreFile keeps slots in a temp file via positioned I/O.
	StoreFile StoreKind = iota
	// StoreMmap keeps slots in a memory-mapped temp file: page-cache
	// reads, batched write-behind submission. Falls back to StoreFile
	// when the platform or filesystem cannot map.
	StoreMmap
	// StoreMem keeps slots in process memory.
	StoreMem
)

// storeBackend is a Disk's block layer: it frames each block as a slot
// (header with CRC32C, then the payload a codec candidate family shrank)
// over a slotStore, and verifies the slot on every read. An empty family
// stores every block raw — the fixed layout.
type storeBackend struct {
	blockSize int
	store     slotStore // swapped by Disk.InjectFaults under the Disk's write lock
	name      string    // actual store in use: "file", "mmap", "mem"
	cands     []codec.BlockCodec

	// sizes caches each block's slot payload length + 1; 0 means the
	// block was never written since its last grow, so reads zero-fill
	// without touching the store. Grown under the Disk's write lock,
	// element-wise accessed under its read lock with single-owner block
	// semantics.
	sizes []uint32

	encoders sync.Pool // of *codec.Encoder
	bufs     sync.Pool // of *[]byte, slot-sized bounce buffers

	// Physical-byte counters, kept only when a codec is armed (without
	// one every transfer moves exactly one fixed-layout block).
	physReads  atomic.Uint64 // physical bytes moved store → memory
	physWrites atomic.Uint64 // physical bytes moved memory → store
	compressed atomic.Uint64 // block writes that beat the raw layout
	rawBlocks  atomic.Uint64 // block writes stored in the fixed layout
}

func newStoreBackend(store slotStore, name string, blockSize int, cands []codec.BlockCodec) *storeBackend {
	sb := &storeBackend{blockSize: blockSize, store: store, name: name, cands: cands}
	sb.encoders.New = func() any { return codec.NewEncoder(sb.cands) }
	sb.bufs.New = func() any {
		b := make([]byte, slotHeaderSize+blockSize)
		return &b
	}
	return sb
}

func (sb *storeBackend) grow(id BlockID) error {
	for int(id) >= len(sb.sizes) {
		sb.sizes = append(sb.sizes, 0)
	}
	sb.sizes[id] = 0 // fresh or recycled: reads zero-fill, no I/O
	return sb.store.grow(id)
}

// free forgets a released block's payload so a stale slot can never be
// read after reallocation, and lets the medium drop its storage.
func (sb *storeBackend) free(id BlockID) {
	sb.sizes[id] = 0
	sb.store.free(id)
}

func (sb *storeBackend) hasCodec() bool { return len(sb.cands) > 0 }

func (sb *storeBackend) write(id BlockID, src []byte) error {
	cid, payload := codec.RawID, src
	if sb.hasCodec() {
		enc := sb.encoders.Get().(*codec.Encoder)
		defer sb.encoders.Put(enc) // payload may alias the encoder's buffer
		cid, payload = enc.Encode(src)
	}
	bp := sb.bufs.Get().(*[]byte)
	defer sb.bufs.Put(bp)
	hdr := (*bp)[:slotHeaderSize]
	hdr[0] = cid
	hdr[1], hdr[2], hdr[3] = 0, 0, 0
	putU32(hdr[4:], uint32(len(payload)))
	putU32(hdr[8:], uint32(len(src)))
	putU32(hdr[12:], crc32.Checksum(src, castagnoli))
	if err := sb.store.writeSlot(id, *bp, payload); err != nil {
		return err
	}
	sb.sizes[id] = uint32(len(payload)) + 1
	if sb.hasCodec() {
		sb.physWrites.Add(uint64(slotHeaderSize + len(payload)))
		if cid == codec.RawID {
			sb.rawBlocks.Add(1)
		} else {
			sb.compressed.Add(1)
		}
	}
	return nil
}

func (sb *storeBackend) read(id BlockID, dst []byte) error {
	dst = dst[:sb.blockSize]
	sz := sb.sizes[id]
	if sz == 0 {
		clear(dst)
		return nil
	}
	n := int(sz - 1)
	bp := sb.bufs.Get().(*[]byte)
	defer sb.bufs.Put(bp)
	hdr, payload, err := sb.store.readSlot(id, n, *bp)
	if err != nil {
		return err
	}
	if sb.hasCodec() {
		sb.physReads.Add(uint64(slotHeaderSize + n))
	}
	cid := hdr[0]
	payloadLen := int(getU32(hdr[4:]))
	uncomp := int(getU32(hdr[8:]))
	sum := getU32(hdr[12:])
	if payloadLen != n || uncomp > sb.blockSize {
		return fmt.Errorf("%w: block %d slot header inconsistent (payload %d/%d, logical %d/%d)",
			ErrBlockCorrupt, id, payloadLen, n, uncomp, sb.blockSize)
	}
	if cid == codec.RawID {
		if uncomp != payloadLen {
			return fmt.Errorf("%w: block %d raw payload %d bytes, logical %d",
				ErrBlockCorrupt, id, payloadLen, uncomp)
		}
		copy(dst, payload)
	} else {
		c := codec.Lookup(cid)
		if c == nil {
			return fmt.Errorf("%w: block %d references unknown codec %d", ErrBlockCorrupt, id, cid)
		}
		if err := c.Decode(dst[:uncomp], payload); err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBlockCorrupt, id, err)
		}
	}
	clear(dst[uncomp:])
	if got := crc32.Checksum(dst[:uncomp], castagnoli); got != sum {
		return fmt.Errorf("%w: block %d store checksum mismatch (stored %08x, decoded %08x)",
			ErrBlockCorrupt, id, sum, got)
	}
	return nil
}

func (sb *storeBackend) Close() error { return sb.store.Close() }

func (sb *storeBackend) resetPhys() {
	sb.physReads.Store(0)
	sb.physWrites.Store(0)
	sb.compressed.Store(0)
	sb.rawBlocks.Store(0)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// PhysIO counts the physical bytes moved below the transfer counters
// (DESIGN.md §15). With a codec armed the counters are measured: header
// + payload per transfer, with per-block compression outcomes. Without
// one every transfer moves one fixed-layout block, so they are derived
// as transfers × block size and Measured is false.
type PhysIO struct {
	ReadBytes        uint64 // physical bytes moved storage → memory
	WriteBytes       uint64 // physical bytes moved memory → storage
	BlocksCompressed uint64 // block writes that beat the raw layout
	BlocksRaw        uint64 // block writes stored in the fixed layout
	Measured         bool   // true when a codec's store counted; false = transfers × B
}

// Bytes returns ReadBytes + WriteBytes.
func (p PhysIO) Bytes() uint64 { return p.ReadBytes + p.WriteBytes }

// StorageInfo describes the physical storage under a Disk's transfer
// counters — which store actually serves blocks (after any mmap
// fallback) and whether a codec family is armed.
type StorageInfo struct {
	Backend string // "mem", "file" or "mmap"
	Codec   string // "none" or "delta"
}

// NewStoreDisk returns a Disk whose blocks live in a slot store
// (DESIGN.md §15): kind selects the medium — StoreMmap falls back to a
// plain temp file when mapping is unavailable — and cands is the codec
// candidate family tried per block (nil stores every block in the fixed
// layout). dir is the directory for the backing file ("" = the OS temp
// directory; ignored by StoreMem).
//
// Transfer counts are bit-identical across kinds and codecs by
// construction: the store sits below the counters, so codecs and the
// medium change only the physical bytes per transfer (PhysIO), never the
// counted schedule. Streams on a file or mmap store pipeline (prefetch
// and write-behind, DESIGN.md §8) to overlap storage latency with CPU;
// in memory there is no latency to hide, so they run synchronously.
// Call Close when done to remove the backing file.
func NewStoreDisk(dir string, blockSize int, kind StoreKind, cands []codec.BlockCodec) (*Disk, error) {
	if blockSize <= 0 {
		return nil, ErrBlockSize
	}
	slotSize := int64(slotHeaderSize + blockSize)
	var (
		store slotStore
		name  string
		err   error
	)
	switch kind {
	case StoreMem:
		store, name = &memSlots{}, "mem"
	case StoreMmap:
		store, err = newMmapSlots(dir, slotSize)
		name = "mmap"
		if err != nil {
			// Graceful fallback: mapping can fail per-platform or
			// per-filesystem; the portable store is always available.
			store, err = newFileSlots(dir, slotSize)
			name = "file"
		}
	default:
		store, err = newFileSlots(dir, slotSize)
		name = "file"
	}
	if err != nil {
		return nil, err
	}
	sb := newStoreBackend(store, name, blockSize, cands)
	return &Disk{blockSize: blockSize, store: sb, pipelined: kind != StoreMem}, nil
}

// NewDisk returns an in-memory Disk with the given block size in bytes.
func NewDisk(blockSize int) (*Disk, error) {
	return NewStoreDisk("", blockSize, StoreMem, nil)
}

// NewFileBackedDisk returns a Disk whose blocks live in a temporary file
// under dir ("" = the OS temp directory), in the fixed layout. The
// transfer counters behave identically to the in-memory disk; only the
// storage medium differs. Call Close when done to remove the backing
// file.
func NewFileBackedDisk(dir string, blockSize int) (*Disk, error) {
	return NewStoreDisk(dir, blockSize, StoreFile, nil)
}

// PhysIO returns the physical-byte counters accumulated since the last
// ResetStats. With a codec armed they are measured exactly (fault
// injection composes: injected faults sit in the medium, so only attempts
// that move a slot count, as real store traffic would); otherwise they are
// derived as transfers × block size with Measured false.
func (d *Disk) PhysIO() PhysIO {
	sb := d.store
	if sb.hasCodec() {
		return PhysIO{
			ReadBytes:        sb.physReads.Load(),
			WriteBytes:       sb.physWrites.Load(),
			BlocksCompressed: sb.compressed.Load(),
			BlocksRaw:        sb.rawBlocks.Load(),
			Measured:         true,
		}
	}
	s := d.Stats()
	b := uint64(d.blockSize)
	return PhysIO{ReadBytes: s.Reads * b, WriteBytes: s.Writes * b}
}

// StorageInfo reports which store serves this disk's blocks (after any
// mmap fallback) and whether a codec family is armed.
func (d *Disk) StorageInfo() StorageInfo {
	info := StorageInfo{Backend: d.store.name, Codec: "none"}
	if d.store.hasCodec() {
		info.Codec = "delta"
	}
	return info
}

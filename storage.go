package maxrs

import (
	"fmt"

	"maxrs/internal/codec"
	"maxrs/internal/em"
)

// BackendKind selects the store under an OnDisk engine (see
// Options.Backend). Every kind counts the bit-identical transfer
// schedule; kinds differ only in how each counted transfer touches the
// hardware.
type BackendKind int

const (
	// BackendAuto lets the engine pick: the portable file store.
	BackendAuto BackendKind = iota
	// BackendFile forces the portable positioned-I/O temp-file store.
	BackendFile
	// BackendMmap memory-maps the backing file: reads are page-cache
	// memcpys with no per-block syscall, writes land in the mapping and
	// are submitted to kernel writeback in batches (DESIGN.md §15). When
	// the platform or filesystem cannot map, the engine falls back to
	// BackendFile transparently — Engine.StorageInfo reports the store
	// actually in use.
	BackendMmap
)

// String implements fmt.Stringer.
func (b BackendKind) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendFile:
		return "file"
	case BackendMmap:
		return "mmap"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(b))
	}
}

// CodecKind selects the physical block codec family (see Options.Codec).
type CodecKind int

const (
	// CodecNone stores every block in its fixed layout.
	CodecNone CodecKind = iota
	// CodecDelta stores each block under the smallest of the
	// column-split delta/varint codecs (word-stride deltas with zigzag
	// varints for the aligned record layouts, byte-stride delta + zero
	// RLE for the unaligned event records), falling back to the fixed
	// layout per block when nothing compresses (DESIGN.md §15).
	CodecDelta
)

// String implements fmt.Stringer.
func (c CodecKind) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecDelta:
		return "delta"
	default:
		return fmt.Sprintf("CodecKind(%d)", int(c))
	}
}

// newDisk builds one disk per the options' storage selection — a store
// kind and a codec family. Both the engine's primary disk and every
// shard disk come through here, so shards mirror the choices exactly.
func (o *Options) newDisk() (*em.Disk, error) {
	kind := em.StoreMem
	switch o.Backend {
	case BackendAuto, BackendFile:
		if o.OnDisk {
			kind = em.StoreFile
		}
	case BackendMmap:
		kind = em.StoreMmap
	default:
		return nil, fmt.Errorf("maxrs: unknown backend kind %d", o.Backend)
	}
	if o.Backend != BackendAuto && !o.OnDisk {
		return nil, fmt.Errorf("maxrs: Options.Backend %v requires OnDisk", o.Backend)
	}
	var cands []codec.BlockCodec
	switch o.Codec {
	case CodecNone:
	case CodecDelta:
		cands = codec.DeltaFamily()
	default:
		return nil, fmt.Errorf("maxrs: unknown codec kind %d", o.Codec)
	}
	return em.NewStoreDisk(o.OnDiskDir, o.BlockSize, kind, cands)
}

// PhysIO counts the physical bytes moved below the counted block
// transfers (DESIGN.md §15). With a codec armed the counters are
// measured exactly — slot header + payload per transfer, with per-block
// compression outcomes; without one every transfer moves one
// fixed-layout block, so they are derived as transfers × block size and
// Measured is false.
type PhysIO struct {
	// ReadBytes and WriteBytes are physical bytes moved storage→memory
	// and memory→storage since the last ResetStats.
	ReadBytes, WriteBytes uint64
	// BlocksCompressed and BlocksRaw split block writes by whether a
	// codec beat the fixed layout.
	BlocksCompressed, BlocksRaw uint64
	// Measured is true when a codec's store counted real payloads.
	Measured bool
}

// Bytes returns ReadBytes + WriteBytes.
func (p PhysIO) Bytes() uint64 { return p.ReadBytes + p.WriteBytes }

// StorageInfo describes an engine's physical storage stack: the store
// actually serving blocks (after any mmap fallback) and the armed codec
// family.
type StorageInfo struct {
	Backend string // "mem", "file" or "mmap"
	Codec   string // "none" or "delta"
}

// PhysIO returns the physical-byte counters of the engine's primary
// disk since the last ResetStats. Shard disks are ephemeral — created
// and closed inside one sharded query — so their physical traffic is
// not included; the counted transfers of Engine.Stats remain the
// engine-global total.
func (e *Engine) PhysIO() PhysIO {
	p := e.env.Disk.PhysIO()
	return PhysIO{
		ReadBytes:        p.ReadBytes,
		WriteBytes:       p.WriteBytes,
		BlocksCompressed: p.BlocksCompressed,
		BlocksRaw:        p.BlocksRaw,
		Measured:         p.Measured,
	}
}

// StorageInfo reports the engine's physical storage stack.
func (e *Engine) StorageInfo() StorageInfo {
	info := e.env.Disk.StorageInfo()
	return StorageInfo{Backend: info.Backend, Codec: info.Codec}
}

// PipelineStats returns how many of the primary disk's counted
// transfers rode the background prefetch / write-behind path since the
// last ResetStats — always a subset of Stats, never extra transfers
// (DESIGN.md §8).
func (e *Engine) PipelineStats() (reads, writes uint64) {
	return e.env.Disk.PipelineStats()
}

package em

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/codec"
)

// storeKinds enumerates every slot-store flavor; StoreMmap exercises the
// real mapping on linux and the documented file fallback elsewhere.
var storeKinds = []struct {
	name string
	kind StoreKind
}{
	{"mem", StoreMem},
	{"file", StoreFile},
	{"mmap", StoreMmap},
}

// sortedBlock returns n bytes of sorted 3-word (24-byte) records — the
// compressible shape the delta family targets.
func sortedBlock(seed int64, n int) []byte { return sortedRecords(seed, 24, n) }

// sortedRecords returns n bytes of sorted recSize-byte records: each
// word of a record is the record's sorted key plus the word's index, and
// any sub-word tail is zero. Keys start at 1024, so the float exponents
// rarely change, as with real coordinates, and every block compresses.
func sortedRecords(seed int64, recSize, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, n+recSize)
	x := 1024 + rng.Float64()
	for len(buf) < n {
		x += rng.Float64()
		for w := 0; w < recSize/8; w++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x+float64(w)))
		}
		buf = append(buf, make([]byte, recSize%8)...)
	}
	return buf[:n]
}

// rawCodec passes recSize-byte records through as bytes, so a test can
// write any byte image as a record stream of that layout.
type rawCodec int

func (c rawCodec) Size() int                   { return int(c) }
func (c rawCodec) Encode(dst []byte, v []byte) { copy(dst, v) }
func (c rawCodec) Decode(src []byte) []byte    { return bytes.Clone(src) }

// layoutWriter returns the byte Writer of a RecordWriter for recSize-byte
// records on f: its blocks are encoded as that layout's blocks are.
func layoutWriter(t testing.TB, f *File, recSize int) *Writer {
	t.Helper()
	rw, err := NewRecordWriter(f, rawCodec(recSize))
	if err != nil {
		t.Fatal(err)
	}
	return rw.w
}

// writeLayoutBlock writes src to block id as a block of a 24-byte record
// stream, the way a RecordWriter's flush does.
func writeLayoutBlock(d *Disk, id BlockID, src []byte) error {
	return d.writeBlockCtx(nil, id, src, 24)
}

func TestStoreDiskRoundTrip(t *testing.T) {
	for _, sk := range storeKinds {
		for _, cands := range [][]codec.BlockCodec{nil, codec.DeltaFamily()} {
			d, err := NewStoreDisk(t.TempDir(), 64, sk.kind, cands)
			if err != nil {
				t.Fatalf("%s: %v", sk.name, err)
			}
			payloads := [][]byte{
				sortedBlock(1, 64),            // compressible, full
				sortedBlock(2, 40),            // compressible, partial
				bytes.Repeat([]byte{0xEE}, 7), // tiny partial
				nil,                           // empty write
			}
			ids := make([]BlockID, len(payloads))
			for i, p := range payloads {
				ids[i] = d.Alloc()
				if err := writeLayoutBlock(d, ids[i], p); err != nil {
					t.Fatalf("%s: write %d: %v", sk.name, i, err)
				}
			}
			// An allocated, never-written block reads as zeros.
			blank := d.Alloc()
			buf := make([]byte, 64)
			if err := d.ReadBlock(blank, buf); err != nil {
				t.Fatalf("%s: read blank: %v", sk.name, err)
			}
			if !bytes.Equal(buf, make([]byte, 64)) {
				t.Fatalf("%s: unwritten block not zero", sk.name)
			}
			for i, p := range payloads {
				if err := d.ReadBlock(ids[i], buf); err != nil {
					t.Fatalf("%s: read %d: %v", sk.name, i, err)
				}
				want := make([]byte, 64)
				copy(want, p)
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s: block %d round trip mismatch", sk.name, i)
				}
			}
			// Free + realloc re-zeroes, like every other backend.
			if err := d.Free(ids[0]); err != nil {
				t.Fatal(err)
			}
			if id := d.Alloc(); id != ids[0] {
				t.Fatalf("%s: expected free-list reuse", sk.name)
			}
			if err := d.ReadBlock(ids[0], buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, 64)) {
				t.Fatalf("%s: recycled block not zero", sk.name)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("%s: close: %v", sk.name, err)
			}
		}
	}
}

// TestStoreDiskTransferInvariance runs one scripted workload on the
// plain file-backed disk and every store variant: the counted transfers
// must be bit-identical — the store sits below the counters.
func TestStoreDiskTransferInvariance(t *testing.T) {
	script := func(t *testing.T, d *Disk) Stats {
		t.Helper()
		var ids []BlockID
		for i := 0; i < 6; i++ {
			ids = append(ids, d.Alloc())
		}
		buf := make([]byte, 128)
		for i, id := range ids {
			if err := writeLayoutBlock(d, id, sortedBlock(int64(i), 32+i*16)); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Free(ids[2]); err != nil {
			t.Fatal(err)
		}
		id := d.Alloc()
		if err := writeLayoutBlock(d, id, sortedBlock(9, 128)); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}

	ref, err := NewFileBackedDisk(t.TempDir(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := script(t, ref)

	for _, sk := range storeKinds {
		for _, cands := range [][]codec.BlockCodec{nil, codec.DeltaFamily()} {
			d, err := NewStoreDisk(t.TempDir(), 128, sk.kind, cands)
			if err != nil {
				t.Fatal(err)
			}
			if got := script(t, d); got != want {
				t.Errorf("%s (codecs=%d): stats %v, want %v", sk.name, len(cands), got, want)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStorePhysBytesCompressed pins the point of the subsystem: on
// sorted record data the delta store moves strictly fewer physical
// bytes than the fixed layout, and never more than uncompressed + the
// constant slot headers.
func TestStorePhysBytesCompressed(t *testing.T) {
	const blockSize = 4096
	d, err := NewStoreDisk(t.TempDir(), blockSize, StoreFile, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 32
	f := NewFile(d)
	w := layoutWriter(t, f, 24)
	if _, err := w.Write(sortedBlock(3, n*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, f.NewReader()); err != nil {
		t.Fatal(err)
	}
	block := sortedBlock(3, blockSize)
	p := d.PhysIO()
	if !p.Measured {
		t.Fatal("store disk did not measure physical bytes")
	}
	if p.BlocksCompressed != n || p.BlocksRaw != 0 {
		t.Fatalf("compressed=%d raw=%d, want %d,0", p.BlocksCompressed, p.BlocksRaw, n)
	}
	uncompressed := uint64(n * blockSize)
	if p.WriteBytes >= uncompressed {
		t.Fatalf("WriteBytes=%d, want < uncompressed %d", p.WriteBytes, uncompressed)
	}
	if p.ReadBytes >= uncompressed {
		t.Fatalf("ReadBytes=%d, want < uncompressed %d", p.ReadBytes, uncompressed)
	}
	// The codec-less store moves exactly one fixed-layout block per
	// transfer, derived rather than measured.
	d2, err := NewStoreDisk(t.TempDir(), blockSize, StoreFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	id := d2.Alloc()
	if err := d2.WriteBlock(id, block[:100]); err != nil {
		t.Fatal(err)
	}
	if p := d2.PhysIO(); p.WriteBytes != blockSize || p.ReadBytes != 0 || p.Measured {
		t.Fatalf("raw store phys = %+v", p)
	}
	// ResetStats zeroes the physical counters with the transfer counters.
	d.ResetStats()
	if p := d.PhysIO(); p.Bytes() != 0 || p.BlocksCompressed != 0 {
		t.Fatalf("phys counters survived ResetStats: %+v", p)
	}
}

// TestStoreDiskFaultComposition re-runs the canonical fault drills on
// every store kind, with and without the delta codecs: the injector sits
// in the medium, below the slot header check, so corruption and torn
// writes are caught by the slot CRC32C whatever the store or codec.
func TestStoreDiskFaultComposition(t *testing.T) {
	// forEachStore runs drill on a fresh disk per store kind × codec
	// family, with retries and plan armed.
	forEachStore := func(t *testing.T, plan FaultPlan, drill func(t *testing.T, d *Disk)) {
		for _, sk := range storeKinds {
			for _, cf := range []struct {
				name  string
				cands []codec.BlockCodec
			}{{"none", nil}, {"delta", codec.DeltaFamily()}} {
				t.Run(sk.name+"+"+cf.name, func(t *testing.T) {
					d, err := NewStoreDisk(t.TempDir(), 64, sk.kind, cf.cands)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = d.Close() })
					d.SetRetryPolicy(RetryPolicy{MaxRetries: 3})
					d.InjectFaults(plan)
					drill(t, d)
				})
			}
		}
	}

	t.Run("corrupt read recovered", func(t *testing.T) {
		plan := FaultPlan{At: []FaultAt{{Op: OpRead, Transfer: 1, Kind: FaultCorrupt}}}
		forEachStore(t, plan, func(t *testing.T, d *Disk) {
			id := d.Alloc()
			src := sortedBlock(4, 48)
			if err := writeLayoutBlock(d, id, src); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatalf("read through one-shot corruption: %v", err)
			}
			if !bytes.Equal(buf[:len(src)], src) {
				t.Fatal("recovered read returned damaged data")
			}
			if fs := d.FaultStats(); fs.ChecksumFailures != 1 || fs.ReadRetries != 1 {
				t.Fatalf("checksumFails=%d retries=%d, want 1,1", fs.ChecksumFailures, fs.ReadRetries)
			}
			// The damage went to a copy, never to the stored slot that mem
			// and mmap hand out as a view: a second read is clean at once.
			clear(buf)
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatalf("second read: %v", err)
			}
			if !bytes.Equal(buf[:len(src)], src) {
				t.Fatal("one-shot corruption persisted in the store")
			}
			if fs := d.FaultStats(); fs.ChecksumFailures != 1 || fs.ReadRetries != 1 {
				t.Fatalf("second read: checksumFails=%d retries=%d, want 1,1", fs.ChecksumFailures, fs.ReadRetries)
			}
		})
	})

	t.Run("torn write detected", func(t *testing.T) {
		plan := FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: 1, Kind: FaultTorn}}}
		forEachStore(t, plan, func(t *testing.T, d *Disk) {
			id := d.Alloc()
			src := sortedBlock(5, 48)
			if err := writeLayoutBlock(d, id, src); err != nil {
				t.Fatalf("torn write should report success: %v", err)
			}
			if !bytes.Equal(src, sortedBlock(5, 48)) {
				t.Fatal("torn write damaged the caller's block")
			}
			buf := make([]byte, 64)
			if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
				t.Fatalf("read of torn block = %v, want ErrBlockCorrupt", err)
			}
			if err := writeLayoutBlock(d, id, sortedBlock(6, 48)); err != nil {
				t.Fatal(err)
			}
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatalf("read after clean rewrite: %v", err)
			}
		})
	})

	t.Run("transient retried", func(t *testing.T) {
		plan := FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: 1, Kind: FaultTransient}}}
		forEachStore(t, plan, func(t *testing.T, d *Disk) {
			id := d.Alloc()
			if err := writeLayoutBlock(d, id, sortedBlock(7, 48)); err != nil {
				t.Fatalf("write through transient fault: %v", err)
			}
			if fs := d.FaultStats(); fs.WriteRetries != 1 {
				t.Fatalf("WriteRetries=%d, want 1", fs.WriteRetries)
			}
		})
	})
}

// TestStoreMediaCorruptionCaught flips a persisted payload byte under
// the injector-free store: the slot's own CRC32C must refuse to decode
// silently, and the failure must count in FaultStats.
func TestStoreMediaCorruptionCaught(t *testing.T) {
	d, err := NewStoreDisk(t.TempDir(), 64, StoreMem, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Alloc()
	if err := writeLayoutBlock(d, id, sortedBlock(8, 64)); err != nil {
		t.Fatal(err)
	}
	ms := d.store.store.(*memSlots)
	ms.payloads[id][3] ^= 0x40 // damage the payload on "media"
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read of damaged slot = %v, want ErrBlockCorrupt", err)
	}
	if fs := d.FaultStats(); fs.ChecksumFailures != 1 {
		t.Fatalf("ChecksumFailures = %d after one corrupt read, want 1", fs.ChecksumFailures)
	}
	// Unknown codec ids are corruption, not a crash.
	if err := writeLayoutBlock(d, id, sortedBlock(8, 64)); err != nil {
		t.Fatal(err)
	}
	ms.hdrs[id][0] = 0xFE // no codec has id 254
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read with unknown codec id = %v, want ErrBlockCorrupt", err)
	}
}

// TestStoreRejectsCodecOutsideFamily plants a well-formed slot encoded by
// a codec the family does not hold (word stride 6, a 48-byte layout the
// engine never writes): its payload and CRC are consistent, yet the read
// must fail as corruption, because the store never writes that id.
func TestStoreRejectsCodecOutsideFamily(t *testing.T) {
	d, err := NewStoreDisk("", 64, StoreMem, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := sortedRecords(15, 48, 64)
	stride6 := codec.WordDelta{Stride: 6}
	payload := stride6.AppendEncode(nil, src)
	got := make([]byte, len(src))
	if err := stride6.Decode(got, payload); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("word-delta/6 round trip: %v", err)
	}
	id := d.Alloc()
	ms := d.store.store.(*memSlots)
	hdr := &ms.hdrs[id]
	hdr[0] = stride6.ID()
	putU32(hdr[4:], uint32(len(payload)))
	putU32(hdr[8:], uint32(len(src)))
	putU32(hdr[12:], crc32.Checksum(src, castagnoli))
	ms.payloads[id] = payload
	d.store.sizes[id] = uint32(len(payload)) + 1
	if err := d.ReadBlock(id, make([]byte, 64)); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read of a word-delta/6 slot = %v, want ErrBlockCorrupt", err)
	}
}

// TestRecordWriterBlocksCarryLayoutCodec checks that each block a
// RecordWriter writes on a delta disk names its layout's family codec in
// the slot header, and that a WriteBlock page of the same bytes stays
// raw.
func TestRecordWriterBlocksCarryLayoutCodec(t *testing.T) {
	const blockSize = 512
	d, err := NewStoreDisk("", blockSize, StoreMem, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ms := d.store.store.(*memSlots)
	for _, c := range codec.DeltaFamily() {
		f := NewFile(d)
		w := layoutWriter(t, f, c.RecordSize())
		data := sortedRecords(16, c.RecordSize(), 4*blockSize)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(f.blocks) != 4 {
			t.Fatalf("%s: %d blocks, want 4", c.Name(), len(f.blocks))
		}
		for i, id := range f.blocks {
			if got := ms.hdrs[id][0]; got != c.ID() {
				t.Errorf("%s: block %d stored under codec %d, want %d", c.Name(), i, got, c.ID())
			}
		}
		got, err := io.ReadAll(f.NewReader())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: stream round trip mismatch", c.Name())
		}
		id := d.Alloc()
		if err := d.WriteBlock(id, data[:blockSize]); err != nil {
			t.Fatal(err)
		}
		if got := ms.hdrs[id][0]; got != codec.RawID {
			t.Errorf("%s: WriteBlock page stored under codec %d, want raw", c.Name(), got)
		}
	}
}

// FuzzSlotRead plants arbitrary header and payload bytes in an in-memory
// slot — the slot header check plus codec decode on arbitrary bytes, the
// one integrity path every block read takes. A read must succeed or fail
// with ErrBlockCorrupt; it must never panic or fail otherwise.
func FuzzSlotRead(f *testing.F) {
	const blockSize = 64
	// Seed with genuine slots (raw, compressed, partial, empty) so the
	// fuzzer starts from headers that pass the length checks.
	seed, err := NewStoreDisk("", blockSize, StoreMem, codec.DeltaFamily())
	if err != nil {
		f.Fatal(err)
	}
	ms := seed.store.store.(*memSlots)
	for _, src := range [][]byte{sortedBlock(13, blockSize), sortedBlock(14, 40), bytes.Repeat([]byte{0x5A}, blockSize), nil} {
		id := seed.Alloc()
		if err := writeLayoutBlock(seed, id, src); err != nil {
			f.Fatal(err)
		}
		f.Add(ms.hdrs[id][:], bytes.Clone(ms.payloads[id]))
	}
	f.Add(make([]byte, slotHeaderSize), []byte{0xFF, 0xFF, 0xFF})
	// A byte-delta/33 payload whose zero run of 2⁶⁴−1 bytes plus one
	// literal wraps to 0, under a header that passes the length checks.
	wrap := append(binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxUint64), 1), 0x01)
	hdr := make([]byte, slotHeaderSize)
	hdr[0] = codec.ByteDelta{Stride: 33}.ID()
	putU32(hdr[4:], uint32(len(wrap)))
	putU32(hdr[8:], blockSize)
	f.Add(hdr, wrap)

	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		if len(payload) > blockSize {
			payload = payload[:blockSize] // a slot never holds more than a block
		}
		d, err := NewStoreDisk("", blockSize, StoreMem, codec.DeltaFamily())
		if err != nil {
			t.Fatal(err)
		}
		id := d.Alloc()
		ms := d.store.store.(*memSlots)
		copy(ms.hdrs[id][:], hdr)
		ms.payloads[id] = bytes.Clone(payload)
		d.store.sizes[id] = uint32(len(payload)) + 1
		buf := make([]byte, blockSize)
		if err := d.ReadBlock(id, buf); err != nil && !errors.Is(err, ErrBlockCorrupt) {
			t.Fatalf("read of planted slot = %v, want nil or ErrBlockCorrupt", err)
		}
	})
}

// TestMmapStoreGrowRemap forces several geometric remaps and checks
// every block survives them — the munmap/truncate/mmap cycle under the
// exclusive grow lock.
func TestMmapStoreGrowRemap(t *testing.T) {
	const blockSize = 512
	d, err := NewStoreDisk(t.TempDir(), blockSize, StoreMmap, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 4096 // ≳ 2 MiB of slots: several doublings past the initial map
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = d.Alloc()
		if err := writeLayoutBlock(d, ids[i], sortedBlock(int64(i), blockSize)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	buf := make([]byte, blockSize)
	for i, id := range ids {
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, sortedBlock(int64(i), blockSize)) {
			t.Fatalf("block %d damaged across remaps", i)
		}
	}
}

// TestStoreDiskStreams runs the em stream layer (Writer write-behind,
// Reader prefetch) over a store disk and checks content and counted
// transfers match the codec-less file-backed disk.
func TestStoreDiskStreams(t *testing.T) {
	payload := sortedBlock(10, 10000)

	run := func(t *testing.T, d *Disk) Stats {
		t.Helper()
		defer d.Close()
		f := NewFile(d)
		w := layoutWriter(t, f, 24)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f.NewReader())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("stream round trip mismatch")
		}
		return d.Stats()
	}

	ref, err := NewFileBackedDisk(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, ref)
	for _, sk := range storeKinds {
		d, err := NewStoreDisk(t.TempDir(), 256, sk.kind, codec.DeltaFamily())
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, d); got != want {
			t.Errorf("%s: stream stats %v, want %v", sk.name, got, want)
		}
	}
}

// TestStorageInfo pins the introspection strings maxrsd surfaces and
// the Measured rule: physical bytes are counted only with a codec armed.
func TestStorageInfo(t *testing.T) {
	mem := MustNewDisk(64)
	if got := mem.StorageInfo(); got != (StorageInfo{Backend: "mem", Codec: "none"}) {
		t.Fatalf("mem disk info = %+v", got)
	}
	fd, err := NewFileBackedDisk(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if got := fd.StorageInfo(); got != (StorageInfo{Backend: "file", Codec: "none"}) {
		t.Fatalf("file disk info = %+v", got)
	}
	if p := fd.PhysIO(); p.Measured {
		t.Fatal("codec-less file disk claims measured physical bytes")
	}
	sd, err := NewStoreDisk(t.TempDir(), 64, StoreFile, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if got := sd.StorageInfo(); got != (StorageInfo{Backend: "file", Codec: "delta"}) {
		t.Fatalf("store disk info = %+v", got)
	}
	if p := sd.PhysIO(); !p.Measured {
		t.Fatal("delta disk does not measure physical bytes")
	}
	// Fault injection must not hide the store from introspection.
	sd.InjectFaults(FaultPlan{})
	if got := sd.StorageInfo(); got.Backend != "file" {
		t.Fatalf("store info through injector = %+v", got)
	}
	md, err := NewStoreDisk(t.TempDir(), 64, StoreMmap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	info := md.StorageInfo()
	if info.Backend != "mmap" && info.Backend != "file" {
		t.Fatalf("mmap disk backend = %q", info.Backend)
	}
	if info.Codec != "none" || md.PhysIO().Measured {
		t.Fatalf("codec-less mmap disk: info %+v, measured %v", info, md.PhysIO().Measured)
	}
}

// TestMemStoreFreeReleasesStorage pins the in-memory store's memory
// behaviour: an allocated block holds nothing until written, a written
// block holds exactly its payload (a full 4 KiB block in one 4096-byte
// allocation), and Free drops it — through a fault injector too — so
// released intermediates are collected.
func TestMemStoreFreeReleasesStorage(t *testing.T) {
	const blockSize = 4096
	d := MustNewDisk(blockSize)
	ms := d.store.store.(*memSlots)
	full, part := d.Alloc(), d.Alloc()
	if ms.payloads[full] != nil {
		t.Fatal("allocated, unwritten block holds storage")
	}
	if err := d.WriteBlock(full, sortedBlock(11, blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(part, sortedBlock(12, 100)); err != nil {
		t.Fatal(err)
	}
	if c := cap(ms.payloads[full]); c != blockSize {
		t.Fatalf("full raw block holds %d bytes, want %d", c, blockSize)
	}
	if n := len(ms.payloads[part]); n != 100 {
		t.Fatalf("partial block holds %d bytes, want its 100-byte prefix", n)
	}
	if err := d.Free(full); err != nil {
		t.Fatal(err)
	}
	if ms.payloads[full] != nil {
		t.Fatal("Free kept the block's payload")
	}
	d.InjectFaults(FaultPlan{})
	if err := d.Free(part); err != nil {
		t.Fatal(err)
	}
	if ms.payloads[part] != nil {
		t.Fatal("Free through the fault injector kept the block's payload")
	}
}

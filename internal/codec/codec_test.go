package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// roundTrip asserts Decode(Encode(src)) == src for codec c.
func roundTrip(t *testing.T, c BlockCodec, src []byte) {
	t.Helper()
	payload := c.AppendEncode(nil, src)
	got := make([]byte, len(src))
	if err := c.Decode(got, payload); err != nil {
		t.Fatalf("%s: decode %d-byte block: %v", c.Name(), len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: round trip of %d-byte block not bit-identical", c.Name(), len(src))
	}
}

// appendRecord appends a synthetic fixed-size record of size bytes built
// from sorted-ish float64 coordinates — the shape the codecs target.
func appendRecord(dst []byte, rng *rand.Rand, size int, base float64) []byte {
	rec := make([]byte, size)
	for off := 0; off+8 <= size; off += 8 {
		v := base + rng.Float64()
		binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(v))
	}
	for off := size / 8 * 8; off < size; off++ {
		rec[off] = byte(rng.Intn(4)) // small enums/flags in tail bytes
	}
	return append(dst, rec...)
}

// block builds a block of n records of recSize bytes with sorted first
// coordinates, sliced to blockLen (records may straddle the block edge,
// like the real em.Writer byte stream).
func block(rng *rand.Rand, recSize, blockLen int) []byte {
	var buf []byte
	base := rng.Float64() * 1000
	for len(buf) < blockLen {
		base += rng.Float64() // sorted stream
		buf = appendRecord(buf, rng, recSize, base)
	}
	return buf[:blockLen]
}

// TestRoundTripAllCodecs is the core property test: random event/edge
// record batches encode→decode bit-identical across every family
// codec, including empty and single-record blocks and blocks whose last
// record is truncated at the block boundary.
func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	recSizes := []int{8, 16, 24, 32, 33, 40, 41} // every layout, plus unaligned and mismatched strides
	for _, c := range DeltaFamily() {
		for _, rs := range recSizes {
			// Empty block.
			roundTrip(t, c, nil)
			// Single record.
			roundTrip(t, c, appendRecord(nil, rng, rs, rng.Float64()))
			// Full blocks, including lengths that truncate the last record.
			for _, bl := range []int{rs, 4 * rs, 512, 511, 4096, 4095, 4097} {
				roundTrip(t, c, block(rng, rs, bl))
			}
		}
	}
}

// TestRoundTripAdversarial feeds shapes that defeat the delta model:
// pure noise, all-zero, all-0xFF, and maximal bit-flip alternation. The
// codecs must stay exact even when they cannot compress.
func TestRoundTripAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	noise := make([]byte, 4096)
	rng.Read(noise)
	zero := make([]byte, 4096)
	ff := bytes.Repeat([]byte{0xFF}, 4096)
	alt := make([]byte, 4096)
	for i := range alt {
		if i%16 < 8 {
			alt[i] = 0xFF
		}
	}
	for _, c := range DeltaFamily() {
		for _, src := range [][]byte{noise, zero, ff, alt, noise[:1], noise[:7], noise[:9]} {
			roundTrip(t, c, src)
		}
	}
}

// TestEncoderPicksSmallest checks the Encoder returns the byte-smallest
// candidate and falls back to raw for incompressible blocks.
func TestEncoderPicksSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc := NewEncoder(DeltaFamily())

	src := block(rng, 24, 4096) // sorted Object records: must compress
	id, payload := enc.Encode(src)
	if id == RawID {
		t.Fatalf("sorted Object block did not compress")
	}
	if len(payload) >= len(src) {
		t.Fatalf("winner not smaller: %d >= %d", len(payload), len(src))
	}
	// The winner must be ≤ every candidate's own encoding.
	for _, c := range DeltaFamily() {
		if n := len(c.AppendEncode(nil, src)); n < len(payload) {
			t.Fatalf("Encoder picked %d bytes but %s encodes to %d", len(payload), c.Name(), n)
		}
	}
	got := make([]byte, len(src))
	if err := Lookup(id).Decode(got, payload); err != nil {
		t.Fatalf("decode winner: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("winner round trip not bit-identical")
	}

	noise := make([]byte, 4096)
	rng.Read(noise)
	id, payload = enc.Encode(noise)
	if id != RawID {
		t.Fatalf("noise block compressed under id %d", id)
	}
	if !bytes.Equal(payload, noise) {
		t.Fatalf("raw fallback payload is not the source block")
	}
}

// TestEncoderScratchReuse ensures the two-buffer scratch rotation never
// lets a later candidate clobber the current best payload.
func TestEncoderScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := NewEncoder(DeltaFamily())
	for i := 0; i < 200; i++ {
		rs := []int{8, 24, 32, 33, 40, 41}[rng.Intn(6)]
		src := block(rng, rs, 256+rng.Intn(4096))
		id, payload := enc.Encode(src)
		got := make([]byte, len(src))
		if id == RawID {
			copy(got, payload)
		} else if err := Lookup(id).Decode(got, payload); err != nil {
			t.Fatalf("iter %d: decode id %d: %v", i, id, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("iter %d: codec %d round trip not bit-identical", i, id)
		}
	}
}

// TestDecodeRejectsCorruptPayloads checks decoders fail cleanly (no
// panic, no out-of-bounds) on truncated and bit-flipped payloads, and
// reject token lengths whose sum wraps around.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	src := block(rng, 40, 4096)
	for _, c := range DeltaFamily() {
		payload := c.AppendEncode(nil, src)
		dst := make([]byte, len(src))
		for cut := 0; cut < len(payload); cut += 1 + len(payload)/17 {
			// Truncations must either error or decode to *something* —
			// never panic or write outside dst.
			_ = c.Decode(dst, payload[:cut])
		}
		for i := 0; i < 64; i++ {
			mut := append([]byte(nil), payload...)
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			_ = c.Decode(dst, mut)
		}
		// A zero run of 2⁶⁴−1 bytes, then one literal byte: run+lit wraps
		// to 0 and would pass a bound on the sum.
		wrap := binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxUint64), 1)
		if err := c.Decode(make([]byte, 64), append(wrap, 0x01)); err == nil {
			t.Fatalf("%s: decoded a zero run of 2⁶⁴−1 bytes", c.Name())
		}
	}
}

// layoutStream returns n bytes of a sorted stream of recSize-byte
// records shaped like the engine's record of that size (package rec):
// a sorted key, other coordinates spread over the data extent, interval
// ends a fixed extent past their starts, unit weights (every workload's
// objects weigh 1), location-weight sums that move by one between
// neighbors, and a top/bottom flag in the event records' last byte.
func layoutStream(rng *rand.Rand, recSize, n int) []byte {
	const extent, side = 1e5, 500.0
	var buf []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	slabs := make([]float64, 9) // slab boundaries shared by tuples
	for i := range slabs {
		slabs[i] = rng.Float64() * extent
	}
	sort.Float64s(slabs)
	key, sum := rng.Float64()*1e3, 1.0
	for len(buf) < n {
		key += rng.Float64() * 10
		sum = max(1, sum+float64(rng.Intn(3)-1))
		x := rng.Float64() * extent
		top := rng.Intn(2)
		switch recSize {
		case 8: // Float64: sorted edge x
			put(key)
		case 24: // Object {X, Y, W}, sorted by X
			put(key, x, 1)
		case 32: // Tuple {Y, X1, X2, Sum}, sorted by Y
			s := rng.Intn(len(slabs) - 1)
			put(key, slabs[s], slabs[s+1], sum)
		case 40: // WRect {X1, X2, Y1, Y2, W}, sorted by X1
			put(key, key+side, x, x+side, 1)
		case 41: // PieceEvent {WRect, Top}, sorted by the event's edge
			y1 := key - float64(top)*side
			put(x, x+side, y1, y1+side, 1)
			buf = append(buf, byte(top))
		default:
			panic("no record layout of this size")
		}
	}
	return buf[:n]
}

// TestLayoutCodecMatchesTrial checks that encoding a block with the one
// codec matching its record size (raw when that does not shrink it)
// costs within 1% of the bytes of trying every family member per block.
func TestLayoutCodecMatchesTrial(t *testing.T) {
	const blockSize = 4096
	for _, c := range DeltaFamily() {
		rng := rand.New(rand.NewSource(17))
		stream := layoutStream(rng, c.RecordSize(), 64*blockSize)
		enc := NewEncoder(DeltaFamily())
		layout, trial := 0, 0
		for off := 0; off < len(stream); off += blockSize {
			src := stream[off : off+blockSize]
			layout += min(len(c.AppendEncode(nil, src)), len(src))
			_, p := enc.Encode(src)
			trial += len(p)
		}
		t.Logf("%s: layout %d bytes, trial %d", c.Name(), layout, trial)
		if float64(layout) > 1.01*float64(trial) {
			t.Errorf("%s: layout codec %d bytes, trial %d (+%.2f%%)",
				c.Name(), layout, trial, 100*(float64(layout)/float64(trial)-1))
		}
	}
}

// TestSortedStreamCompresses pins the headline property: a block of
// sorted coordinate records compresses well under the matching stride.
func TestSortedStreamCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = rng.Float64() * 1e6
	}
	sort.Float64s(xs)
	src := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		src = binary.LittleEndian.AppendUint64(src, math.Float64bits(x))
	}
	enc := c8(src, t)
	if ratio := float64(enc) / float64(len(src)); ratio > 0.9 {
		t.Fatalf("sorted float64 stream ratio %.2f, want < 0.9", ratio)
	}
}

func c8(src []byte, t *testing.T) int {
	t.Helper()
	c := WordDelta{Stride: 1}
	payload := c.AppendEncode(nil, src)
	got := make([]byte, len(src))
	if err := c.Decode(got, payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip not bit-identical")
	}
	return len(payload)
}

// TestLookupFamilyOnly pins Lookup to the family: every member by its
// id and record size, and nil for the raw id and every id the family
// cannot emit.
func TestLookupFamilyOnly(t *testing.T) {
	sizes := map[int]bool{}
	for _, c := range DeltaFamily() {
		if got := Lookup(c.ID()); got != c {
			t.Fatalf("Lookup(%d) = %v, want %s", c.ID(), got, c.Name())
		}
		if sizes[c.RecordSize()] {
			t.Fatalf("two family codecs for %d-byte records", c.RecordSize())
		}
		sizes[c.RecordSize()] = true
	}
	for _, rs := range []int{8, 24, 32, 40, 41} {
		if !sizes[rs] {
			t.Fatalf("no family codec for %d-byte records", rs)
		}
	}
	for _, id := range []uint8{RawID, 2, 6, 7, 8, 9, 24, 32, 33, 40, 254} {
		if c := Lookup(id); c != nil {
			t.Fatalf("Lookup(%d) = %s, want nil", id, c.Name())
		}
	}
}

// FuzzRoundTrip drives every family codec over arbitrary blocks.
func FuzzRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(block(rng, 33, 512))
	f.Add(block(rng, 41, 300))
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, c := range DeltaFamily() {
			payload := c.AppendEncode(nil, src)
			got := make([]byte, len(src))
			if err := c.Decode(got, payload); err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip not bit-identical", c.Name())
			}
		}
	})
}

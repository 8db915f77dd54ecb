// Package codec implements the physical block codecs of the storage
// layer (DESIGN.md §15): given one logical disk block — a fixed-layout
// byte image of fixed-size records — a BlockCodec produces a smaller
// physical representation, so each counted block transfer moves fewer
// physical bytes. Codecs sit strictly below the EM transfer counters:
// they change what a transfer costs the hardware, never how many
// transfers the schedule performs.
//
// Two families cover the repo's record layouts:
//
//   - WordDelta (ids 1–8): column-split delta coding over N interleaved
//     8-byte word columns. A block of fixed-size records whose size is a
//     multiple of 8 (Object 24 B, Tuple 32 B, WRect 40 B, bare float64s)
//     decomposes into per-field float64 columns; consecutive values of a
//     column — sorted coordinates above all — have small bit-level
//     deltas, which zigzag varints store in one or two bytes instead of
//     eight.
//
//   - ByteDelta (ids 9–255): byte-stride delta + zero run-length coding
//     for record sizes that are not word-aligned (PieceEvent 41 B).
//     Subtracting the byte one record earlier turns the shared
//     high-order exponent/mantissa bytes of neighboring records into
//     zero runs, which RLE collapses.
//
// Both are exact: Decode(Encode(b)) is bit-identical to b for every
// input, asserted by the round-trip property tests. Neither assumes
// record alignment to block boundaries — records straddling blocks
// merely shift which column a field lands in, leaving correctness (and
// most of the ratio) intact.
//
// DeltaFamily holds one codec per record layout the engine writes; the
// store encodes each block with the member matching its stream's record
// size and falls back to the raw layout (id 0) when that does not
// strictly shrink the block, so compression never inflates a block
// beyond its fixed layout plus the store's constant header.
package codec

import (
	"encoding/binary"
	"fmt"
)

// RawID is the codec id of the identity (fixed-layout) encoding. A block
// stored with RawID has its logical bytes as the physical payload.
const RawID uint8 = 0

// BlockCodec is one reversible block encoding. Implementations must be
// stateless and safe for concurrent use.
type BlockCodec interface {
	// ID is the codec's id, recorded in the per-block header so readers
	// know how to decode the block.
	ID() uint8
	// Name identifies the codec in stats and logs.
	Name() string
	// RecordSize is the size in bytes of the records the codec targets.
	RecordSize() int
	// AppendEncode appends the encoded form of src to dst and returns
	// the extended slice. It never fails: every input has an encoding
	// (possibly longer than src — the store keeps src raw then).
	AppendEncode(dst, src []byte) []byte
	// Decode reconstructs exactly len(dst) logical bytes from payload.
	// It fails on truncated or inconsistent payloads instead of reading
	// out of bounds.
	Decode(dst, payload []byte) error
}

// family is one codec per record layout the engine writes, ascending by
// record size: float64 (8), Object (24), Tuple (32), WRect (40) and
// PieceEvent (41).
var family = [...]BlockCodec{
	WordDelta{Stride: 1},
	WordDelta{Stride: 3},
	WordDelta{Stride: 4},
	WordDelta{Stride: 5},
	ByteDelta{Stride: 41},
}

// DeltaFamily returns the delta codecs, one per record layout the engine
// writes: word strides for the 8-byte-aligned layouts, a byte stride for
// the unaligned piece-event record.
func DeltaFamily() []BlockCodec { return append([]BlockCodec(nil), family[:]...) }

// Lookup returns the DeltaFamily member with the given id, or nil. RawID
// has no codec (the payload is the block).
func Lookup(id uint8) BlockCodec {
	for _, c := range family {
		if c.ID() == id {
			return c
		}
	}
	return nil
}

// Encoder trial-encodes each block with every candidate and keeps the
// smallest. The store does not use it — it encodes each block with the
// one codec matching its record layout — so it serves as the reference
// the layout choice is tested against, and as the benchmark tracer's
// codec twin. Not safe for concurrent use.
type Encoder struct {
	cands []BlockCodec
	a, b  []byte
}

// NewEncoder returns an Encoder over cands. An empty cands always picks
// the raw layout.
func NewEncoder(cands []BlockCodec) *Encoder {
	return &Encoder{cands: cands}
}

// Encode returns the id and payload of the smallest candidate encoding
// strictly shorter than src, or (RawID, src) when none compresses. The
// returned payload aliases either src or the Encoder's scratch and is
// valid until the next Encode call.
func (e *Encoder) Encode(src []byte) (uint8, []byte) {
	bestID, best := RawID, src
	for _, c := range e.cands {
		e.a = c.AppendEncode(e.a[:0], src)
		if len(e.a) < len(best) {
			bestID, best = c.ID(), e.a
			e.a, e.b = e.b, e.a
		}
	}
	return bestID, best
}

// zigzag maps signed deltas to unsigned varint-friendly values:
// 0,-1,1,-2,2… → 0,1,2,3,4…
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WordDelta is the column-split word-delta codec: the block's 8-byte
// little-endian words are split into Stride interleaved columns, each
// column delta-coded (wrapping uint64 subtraction of the previous word)
// and stored as zigzag varints; the sub-word tail of the block rides
// verbatim. Exact for arbitrary bytes — the delta is in bit space, not
// float arithmetic.
type WordDelta struct {
	// Stride is the column period in words, 1–8: the record size of the
	// stream the codec targets, in 8-byte words.
	Stride int
}

// ID implements BlockCodec: word strides own ids 1–8.
func (w WordDelta) ID() uint8 { return uint8(w.Stride) }

// Name implements BlockCodec.
func (w WordDelta) Name() string { return fmt.Sprintf("word-delta/%d", w.Stride) }

// RecordSize implements BlockCodec: Stride words of 8 bytes.
func (w WordDelta) RecordSize() int { return 8 * w.Stride }

// AppendEncode implements BlockCodec.
func (w WordDelta) AppendEncode(dst, src []byte) []byte {
	nw := len(src) / 8
	var tmp [binary.MaxVarintLen64]byte
	for c := 0; c < w.Stride; c++ {
		var prev uint64
		for i := c; i < nw; i += w.Stride {
			word := binary.LittleEndian.Uint64(src[i*8:])
			n := binary.PutUvarint(tmp[:], zigzag(int64(word-prev)))
			dst = append(dst, tmp[:n]...)
			prev = word
		}
	}
	return append(dst, src[nw*8:]...)
}

// Decode implements BlockCodec.
func (w WordDelta) Decode(dst, payload []byte) error {
	nw := len(dst) / 8
	tail := len(dst) - nw*8
	for c := 0; c < w.Stride; c++ {
		var prev uint64
		for i := c; i < nw; i += w.Stride {
			u, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("codec: %s: truncated varint at word %d", w.Name(), i)
			}
			payload = payload[n:]
			prev += uint64(unzigzag(u))
			binary.LittleEndian.PutUint64(dst[i*8:], prev)
		}
	}
	if len(payload) != tail {
		return fmt.Errorf("codec: %s: tail %d bytes, want %d", w.Name(), len(payload), tail)
	}
	copy(dst[nw*8:], payload)
	return nil
}

// ByteDelta is the byte-stride delta + zero-RLE codec for record sizes
// that are not multiples of 8: residual[i] = src[i] − src[i−Stride]
// (bytes before the first full record ride unchanged), then the
// residual stream is stored as alternating ⟨zero-run length, literal
// length, literal bytes⟩ varint tokens. Neighboring records sharing
// high-order float bytes produce long zero runs.
type ByteDelta struct {
	// Stride is the record size in bytes, 9–255 (the codec id).
	Stride int
}

// ID implements BlockCodec: byte strides own ids 9–255.
func (b ByteDelta) ID() uint8 { return uint8(b.Stride) }

// Name implements BlockCodec.
func (b ByteDelta) Name() string { return fmt.Sprintf("byte-delta/%d", b.Stride) }

// RecordSize implements BlockCodec: Stride bytes.
func (b ByteDelta) RecordSize() int { return b.Stride }

// AppendEncode implements BlockCodec. One pass computes each residual
// once. A zero run ends at the first non-zero residual; a literal run
// ends at a zero residual followed by another zero or by the end of the
// block, because a lone zero between literals would cost two token bytes
// to encode as a run. Literal bytes are appended as they come, and the
// literal's length token is slid in front of them when the run closes.
func (b ByteDelta) AppendEncode(dst, src []byte) []byte {
	n := len(src)
	zeros := 0 // zero residuals already seen at the start of the next run
	for i := 0; i < n; {
		var r byte
		for ; i < n; i++ {
			if r = b.residual(src, i); r != 0 {
				break
			}
			zeros++
		}
		dst = binary.AppendUvarint(dst, uint64(zeros))
		if i == n {
			return append(dst, 0)
		}
		at := len(dst)
		dst = append(dst, r)
		zeros = 0
		for i++; i < n; {
			if r = b.residual(src, i); r != 0 {
				dst = append(dst, r)
				i++
				continue
			}
			// A zero in the last byte, or two zeros in a row, close the
			// literal and open the next zero run; a lone zero stays in.
			if i+1 == n {
				zeros, i = 1, n
				break
			}
			if r = b.residual(src, i+1); r == 0 {
				zeros, i = 2, i+2
				break
			}
			dst = append(dst, 0, r)
			i += 2
		}
		dst = closeLiteral(dst, at)
	}
	if zeros > 0 {
		dst = append(binary.AppendUvarint(dst, uint64(zeros)), 0)
	}
	return dst
}

// residual is the byte-stride delta at position i.
func (b ByteDelta) residual(src []byte, i int) byte {
	if i < b.Stride {
		return src[i]
	}
	return src[i] - src[i-b.Stride]
}

// closeLiteral inserts the length token of the literal whose bytes start
// at dst[at:] in front of them.
func closeLiteral(dst []byte, at int) []byte {
	n := len(dst) - at
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(n))
	dst = append(dst, tmp[:k]...)
	copy(dst[at+k:], dst[at:at+n])
	copy(dst[at:], tmp[:k])
	return dst
}

// Decode implements BlockCodec.
func (b ByteDelta) Decode(dst, payload []byte) error {
	i := 0
	for i < len(dst) {
		run, n := binary.Uvarint(payload)
		if n <= 0 {
			return fmt.Errorf("codec: %s: truncated zero-run token at byte %d", b.Name(), i)
		}
		payload = payload[n:]
		lit, n := binary.Uvarint(payload)
		if n <= 0 {
			return fmt.Errorf("codec: %s: truncated literal token at byte %d", b.Name(), i)
		}
		payload = payload[n:]
		// Bound each token on its own: run+lit can wrap around to a small
		// sum when run is near 2⁶⁴.
		rem := uint64(len(dst) - i)
		if run > rem || lit > rem-run || lit > uint64(len(payload)) {
			return fmt.Errorf("codec: %s: run %d+%d overflows block at byte %d", b.Name(), run, lit, i)
		}
		for ; run > 0; run-- {
			dst[i] = b.prior(dst, i)
			i++
		}
		for j := uint64(0); j < lit; j++ {
			dst[i] = payload[j] + b.prior(dst, i)
			i++
		}
		payload = payload[lit:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("codec: %s: %d trailing payload bytes", b.Name(), len(payload))
	}
	return nil
}

// prior is the reconstruction base at position i: the byte one stride
// earlier, or zero before the first full record.
func (b ByteDelta) prior(dst []byte, i int) byte {
	if i < b.Stride {
		return 0
	}
	return dst[i-b.Stride]
}

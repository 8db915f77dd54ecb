package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenCorpus returns the blocks the golden test encodes with codec c:
// empty and one-byte blocks, blocks shorter than one record and cut
// mid-record, 4 KiB blocks of the codec's own record layout and of every
// other layout, random bytes, and residual patterns built to hit each
// branch of the zero-run/literal tokenizer (lone zeros between literals,
// zero pairs, a zero in the last byte, all zeros).
func goldenCorpus(c BlockCodec) [][]byte {
	rng := rand.New(rand.NewSource(29))
	blocks := [][]byte{{}, {0}, {7}}
	for _, n := range []int{c.RecordSize() - 1, c.RecordSize(), c.RecordSize() + 1, 100, 4096} {
		blocks = append(blocks, layoutStream(rng, c.RecordSize(), n))
	}
	for _, rs := range []int{8, 24, 32, 40, 41} {
		blocks = append(blocks, layoutStream(rng, rs, 4096), block(rng, rs, 1000))
	}
	noise := make([]byte, 4096)
	rng.Read(noise)
	blocks = append(blocks, noise, make([]byte, 4096))
	// A stride-periodic base with residual patterns written over it:
	// every entry of pat is the residual of one position past the first
	// record.
	for _, pat := range [][]byte{
		{1, 0, 1, 0, 1},
		{1, 0, 0, 1, 0, 0, 0, 1},
		{0, 1, 1, 0},
		{1, 1, 1, 0},
		{0, 0, 1},
		{1, 0},
	} {
		src := make([]byte, 0, 600)
		for len(src) < c.RecordSize() {
			src = append(src, byte(rng.Intn(256)))
		}
		for len(src) < 600 {
			for _, r := range pat {
				src = append(src, src[len(src)-c.RecordSize()]+r)
			}
		}
		blocks = append(blocks, src, src[:len(src)-1])
	}
	return blocks
}

// goldenDigest is the SHA-256 of every DeltaFamily member's encoding of
// its goldenCorpus, each payload prefixed by the codec id and the block
// and payload lengths. Any change to an encoder's output moves it.
const goldenDigest = "d0fc60a8da483b7dfe7c0f77f855d0b4793d58364539487bbfb0b99b523071fc"

// TestEncodeGolden pins every DeltaFamily encoder's output byte for byte
// and checks that each golden block round-trips.
func TestEncodeGolden(t *testing.T) {
	h := sha256.New()
	for _, c := range DeltaFamily() {
		for _, src := range goldenCorpus(c) {
			payload := c.AppendEncode(nil, src)
			var hdr [9]byte
			hdr[0] = c.ID()
			binary.LittleEndian.PutUint32(hdr[1:], uint32(len(src)))
			binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
			h.Write(hdr[:])
			h.Write(payload)
			roundTrip(t, c, src)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("encoder output digest %s, want %s", got, goldenDigest)
	}
}

// BenchmarkBlockCodec encodes and decodes one 4 KiB block of each
// DeltaFamily member's own record layout.
func BenchmarkBlockCodec(b *testing.B) {
	for _, c := range DeltaFamily() {
		src := layoutStream(rand.New(rand.NewSource(30)), c.RecordSize(), 4096)
		payload := c.AppendEncode(nil, src)
		b.Run(c.Name()+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			dst := make([]byte, 0, 2*len(src))
			for i := 0; i < b.N; i++ {
				dst = c.AppendEncode(dst[:0], src)
			}
		})
		b.Run(c.Name()+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			dst := make([]byte, len(src))
			for i := 0; i < b.N; i++ {
				if err := c.Decode(dst, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

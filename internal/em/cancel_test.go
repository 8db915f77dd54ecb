package em

import (
	"context"
	"errors"
	"testing"
)

// TestWriterCancelAtBlockGranularity verifies a cancelled context stops a
// writer before its next block transfer and that releasing the partial
// file leaves nothing allocated.
func TestWriterCancelAtBlockGranularity(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		d := MustNewDisk(64)
		d.pipelined = pipelined
		ctx, cancel := context.WithCancel(context.Background())
		env := Env{Disk: d, M: 256, Ctx: ctx}
		f := env.NewFile()
		w := f.NewWriter()
		if _, err := w.Write(make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
		blocksBefore := f.Blocks()
		cancel()
		if _, err := w.Write(make([]byte, 200)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pipelined=%v: write after cancel: err = %v, want context.Canceled", pipelined, err)
		}
		if err := w.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("pipelined=%v: close after cancel: err = %v, want context.Canceled", pipelined, err)
		}
		// No block was appended past the cancellation check. (The raw
		// write counter is not compared: in pipelined mode a write-behind
		// dispatched before the cancel may legitimately land after it.)
		if got := f.Blocks(); got != blocksBefore {
			t.Fatalf("pipelined=%v: %d blocks after cancel, want %d (no transfer past the check)", pipelined, got, blocksBefore)
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
		if n := d.InUse(); n != 0 {
			t.Fatalf("pipelined=%v: %d blocks in use after release", pipelined, n)
		}
	}
}

// TestReaderCancelAtBlockGranularity verifies a reader consumes its
// current block but refuses to fetch the next one once the context is
// cancelled — including when a prefetch for it is already in flight.
func TestReaderCancelAtBlockGranularity(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		d := MustNewDisk(64)
		f := NewFile(d)
		w := f.NewWriter()
		if _, err := w.Write(make([]byte, 64*4)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		d.pipelined = pipelined

		ctx, cancel := context.WithCancel(context.Background())
		env := Env{Disk: d, M: 256, Ctx: ctx}
		rr, err := OpenRecordReader(env, f, byteCodec{})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if n, err := rr.ReadBatch(buf); err != nil || n != 64 {
			t.Fatalf("first block: n=%d err=%v", n, err)
		}
		cancel()
		if _, err := rr.Read(); !errors.Is(err, context.Canceled) {
			t.Fatalf("pipelined=%v: read after cancel: err = %v, want context.Canceled", pipelined, err)
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// byteCodec is a 1-byte test codec.
type byteCodec struct{}

func (byteCodec) Size() int                 { return 1 }
func (byteCodec) Encode(dst []byte, v byte) { dst[0] = v }
func (byteCodec) Decode(src []byte) byte    { return src[0] }

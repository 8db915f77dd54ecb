package em

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func TestFileBackedDiskRoundTrip(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f := NewFile(d)
	w := f.NewWriter()
	payload := bytes.Repeat([]byte("external-memory!"), 50)
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
		t.Fatal("file-backed round trip mismatch")
	}
	// Transfer accounting identical to the in-memory store.
	want := uint64((len(payload) + 63) / 64)
	if s := d.Stats(); s.Writes != want || s.Reads != want {
		t.Fatalf("stats = %v, want %d each way", s, want)
	}
}

func TestFileBackedDiskReuseZeroesBlocks(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Alloc()
	if err := d.WriteBlock(id, bytes.Repeat([]byte{0xFF}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	id2 := d.Alloc()
	if id2 != id {
		t.Fatalf("expected block reuse, got %d vs %d", id2, id)
	}
	buf := make([]byte, 32)
	if err := d.ReadBlock(id2, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("reused block not zeroed at %d: %#x", i, b)
		}
	}
}

func TestFileBackedDiskPartialWriteZeroPads(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Alloc()
	if err := d.WriteBlock(id, bytes.Repeat([]byte{0xAA}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(id, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{1, 2, 3}, make([]byte, 13)...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("partial write not zero-padded: %v", buf)
	}
}

// The memory and file stores must be observably identical: same data,
// same stats, for a randomized workload of allocs, frees, reads and
// writes.
func TestBackendsEquivalent(t *testing.T) {
	mem := MustNewDisk(32)
	file, err := NewFileBackedDisk(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	rng := rand.New(rand.NewSource(44))
	var ids []BlockID
	for op := 0; op < 500; op++ {
		switch {
		case len(ids) == 0 || rng.Float64() < 0.3:
			a, b := mem.Alloc(), file.Alloc()
			if a != b {
				t.Fatalf("alloc divergence: %d vs %d", a, b)
			}
			ids = append(ids, a)
		case rng.Float64() < 0.2:
			i := rng.Intn(len(ids))
			id := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			if err := mem.Free(id); err != nil {
				t.Fatal(err)
			}
			if err := file.Free(id); err != nil {
				t.Fatal(err)
			}
		case rng.Float64() < 0.5:
			id := ids[rng.Intn(len(ids))]
			data := make([]byte, rng.Intn(33))
			rng.Read(data)
			if err := mem.WriteBlock(id, data); err != nil {
				t.Fatal(err)
			}
			if err := file.WriteBlock(id, data); err != nil {
				t.Fatal(err)
			}
		default:
			id := ids[rng.Intn(len(ids))]
			a := make([]byte, 32)
			b := make([]byte, 32)
			if err := mem.ReadBlock(id, a); err != nil {
				t.Fatal(err)
			}
			if err := file.ReadBlock(id, b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("content divergence on block %d", id)
			}
		}
	}
	if mem.Stats() != file.Stats() {
		t.Fatalf("stats divergence: %v vs %v", mem.Stats(), file.Stats())
	}
	if mem.InUse() != file.InUse() {
		t.Fatalf("InUse divergence: %d vs %d", mem.InUse(), file.InUse())
	}
}

func TestFileBackedDiskValidation(t *testing.T) {
	if _, err := NewFileBackedDisk("", 0); err == nil {
		t.Fatal("zero block size must fail")
	}
}

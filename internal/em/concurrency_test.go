package em

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestInterleavedWritersDoNotCorruptBlocks is the regression test for
// shared scratch buffers under the file store: two writers on the same
// disk, flushing alternately (as the division phase's per-child writers
// do), must never see each other's payloads — with a single shared bounce
// buffer the second writer's copy-in could clobber the first's bytes
// before its WriteAt ran.
func TestInterleavedWritersDoNotCorruptBlocks(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var d *Disk
			var err error
			if backend == "file" {
				d, err = NewFileBackedDisk(t.TempDir(), 64)
			} else {
				d, err = NewDisk(64)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			fa, fb := NewFile(d), NewFile(d)
			wa, wb := fa.NewWriter(), fb.NewWriter()
			// 48-byte payloads on 64-byte blocks: every flush is a partial
			// write.
			for i := 0; i < 100; i++ {
				pa := bytes.Repeat([]byte{byte(i)}, 48)
				pb := bytes.Repeat([]byte{byte(200 - i)}, 48)
				if _, err := wa.Write(pa); err != nil {
					t.Fatal(err)
				}
				if _, err := wb.Write(pb); err != nil {
					t.Fatal(err)
				}
			}
			if err := wa.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}

			checkStream := func(f *File, value func(i int) byte) {
				t.Helper()
				r := f.NewReader()
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 100*48 {
					t.Fatalf("stream length %d, want %d", len(got), 100*48)
				}
				for i := 0; i < 100; i++ {
					for j := 0; j < 48; j++ {
						if got[i*48+j] != value(i) {
							t.Fatalf("payload %d byte %d = %d, want %d",
								i, j, got[i*48+j], value(i))
						}
					}
				}
			}
			checkStream(fa, func(i int) byte { return byte(i) })
			checkStream(fb, func(i int) byte { return byte(200 - i) })
		})
	}
}

// TestConcurrentWriters drives many goroutines, each writing and then
// reading back its own file on one shared disk. Run under -race this is
// the data-race test for the Disk's locking and the store's pooled bounce
// buffers.
func TestConcurrentWriters(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var d *Disk
			var err error
			if backend == "file" {
				d, err = NewFileBackedDisk(t.TempDir(), 128)
			} else {
				d, err = NewDisk(128)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const workers = 8
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = func() error {
						f := NewFile(d)
						wr := f.NewWriter()
						// 100-byte payloads: partial flushes throughout.
						payload := bytes.Repeat([]byte{byte(w + 1)}, 100)
						for i := 0; i < 50; i++ {
							if _, err := wr.Write(payload); err != nil {
								return err
							}
						}
						if err := wr.Close(); err != nil {
							return err
						}
						got, err := io.ReadAll(f.NewReader())
						if err != nil {
							return err
						}
						if len(got) != 50*100 {
							return fmt.Errorf("worker %d: length %d", w, len(got))
						}
						for i, b := range got {
							if b != byte(w+1) {
								return fmt.Errorf("worker %d: byte %d = %d", w, i, b)
							}
						}
						return f.Release()
					}()
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := d.InUse(); got != 0 {
				t.Fatalf("InUse = %d after all files released", got)
			}
		})
	}
}

// TestConcurrentStatsAreExact checks that the atomic tally loses no
// transfers under concurrency: W workers each writing and reading back K
// full blocks must count exactly 2·W·K transfers.
func TestConcurrentStatsAreExact(t *testing.T) {
	d := MustNewDisk(64)
	const workers, blocks = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < blocks; i++ {
				id := d.Alloc()
				if err := d.WriteBlock(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadBlock(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if s.Reads != workers*blocks || s.Writes != workers*blocks {
		t.Fatalf("stats %v, want %d reads and %d writes", s, workers*blocks, workers*blocks)
	}
	if d.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", d.InUse())
	}
}

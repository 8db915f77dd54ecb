package em

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// pipelineDisks returns a synchronous and a pipelined disk of the same
// kind, for count-equivalence comparisons.
func pipelineDisks(t *testing.T, blockSize int, fileBacked bool) (sync, pipe *Disk) {
	t.Helper()
	mk := func() *Disk {
		if fileBacked {
			d, err := NewFileBackedDisk(t.TempDir(), blockSize)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = d.Close() })
			return d
		}
		return MustNewDisk(blockSize)
	}
	sync, pipe = mk(), mk()
	sync.pipelined = false
	pipe.pipelined = true
	return sync, pipe
}

// TestPipelineCountsIdentical is the contract of DESIGN.md §8: for fully
// consumed streams, prefetch and write-behind change wall-clock only —
// bytes, Stats, and per-scope attribution are identical to the
// synchronous path, on the memory and file stores.
func TestPipelineCountsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, fileBacked := range []bool{false, true} {
		for _, size := range []int{0, 1, 100, 256, 257, 10_000} {
			data := make([]byte, size)
			rng.Read(data)
			results := make([]struct {
				out   []byte
				stats Stats
				scope Stats
			}, 2)
			syncD, pipeD := pipelineDisks(t, 256, fileBacked)
			for i, d := range []*Disk{syncD, pipeD} {
				sc := new(ScopeStats)
				f := NewFileScoped(d, sc)
				w := f.NewWriter()
				// Dribble writes so flush boundaries land mid-Write too.
				for off := 0; off < len(data); off += 97 {
					end := min(off+97, len(data))
					if _, err := w.Write(data[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				r := f.NewReader()
				out, err := io.ReadAll(readerOf(r))
				if err != nil {
					t.Fatal(err)
				}
				results[i].out = out
				results[i].stats = d.Stats()
				results[i].scope = sc.Stats()
			}
			if !bytes.Equal(results[0].out, results[1].out) {
				t.Fatalf("fileBacked=%v size=%d: pipelined bytes differ", fileBacked, size)
			}
			if results[0].stats != results[1].stats {
				t.Fatalf("fileBacked=%v size=%d: stats %+v != synchronous %+v",
					fileBacked, size, results[1].stats, results[0].stats)
			}
			if results[0].scope != results[1].scope {
				t.Fatalf("fileBacked=%v size=%d: scope %+v != synchronous %+v",
					fileBacked, size, results[1].scope, results[0].scope)
			}
			// The pipelined disk must actually have used the background
			// path (every block beyond the first read and the last write
			// rides it on a fully consumed stream).
			if size > 2*256 {
				pr, pw := pipeD.PipelineStats()
				if pr == 0 || pw == 0 {
					t.Fatalf("fileBacked=%v size=%d: pipeline unused (reads=%d writes=%d)",
						fileBacked, size, pr, pw)
				}
				if sr, sw := syncD.PipelineStats(); sr != 0 || sw != 0 {
					t.Fatalf("synchronous disk reports pipeline transfers (%d, %d)", sr, sw)
				}
			}
		}
	}
}

// readerOf adapts *Reader to io.Reader for io.ReadAll.
func readerOf(r *Reader) io.Reader { return readerFunc(r.Read) }

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestPipelineConcurrentStreams runs many pipelined writers and readers
// against one file-backed disk — the parallel solver's usage — under the
// race detector.
func TestPipelineConcurrentStreams(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				data := make([]byte, rng.Intn(2000))
				rng.Read(data)
				f := NewFile(d)
				w := f.NewWriter()
				if _, err := w.Write(data); err != nil {
					errs[g] = err
					return
				}
				if err := w.Close(); err != nil {
					errs[g] = err
					return
				}
				got, err := io.ReadAll(readerOf(f.NewReader()))
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(got, data) {
					errs[g] = fmt.Errorf("g=%d iter=%d: read back %d bytes != written %d", g, iter, len(got), len(data))
					return
				}
				if err := f.Release(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.InUse() != 0 {
		t.Fatalf("%d blocks leaked", d.InUse())
	}
}

// TestPipelineAbandonedStreams drops readers mid-file and writers without
// Close: the one-shot goroutine design must neither deadlock nor corrupt
// later use of the disk (a leaked goroutine would trip -race or hang the
// test binary's exit).
func TestPipelineAbandonedStreams(t *testing.T) {
	d := MustNewDisk(64)
	d.pipelined = true
	data := make([]byte, 64*10)
	rand.New(rand.NewSource(1)).Read(data)
	f := NewFile(d)
	w := f.NewWriter()
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Abandon a reader after one block: its in-flight prefetch completes
	// into the buffered channel and is dropped.
	r := f.NewReader()
	one := make([]byte, 64)
	if _, err := r.Read(one); err != nil {
		t.Fatal(err)
	}
	// Abandon a writer with an in-flight flush (no Close).
	f2 := NewFile(d)
	w2 := f2.NewWriter()
	if _, err := w2.Write(data); err != nil {
		t.Fatal(err)
	}
	// Fresh streams on the same disk still work.
	got, err := io.ReadAll(readerOf(f.NewReader()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch after abandoned streams")
	}
}

// TestStaleWriteBehindRejected pins the generation guard: a write-behind
// launched before its block was freed — the abandoned-writer-on-an-error-
// path scenario — must not land once the block has been reallocated to a
// new owner, even though the id passes the live check again.
func TestStaleWriteBehindRejected(t *testing.T) {
	d := MustNewDisk(64)
	id, gen := d.allocGen()
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	// Reallocate: the free list hands the same id to a new owner.
	id2 := d.Alloc()
	if id2 != id {
		t.Fatalf("expected free-list reuse of block %d, got %d", id, id2)
	}
	owner := make([]byte, 64)
	for i := range owner {
		owner[i] = 0xAB
	}
	if err := d.WriteBlock(id2, owner); err != nil {
		t.Fatal(err)
	}
	// The stale write must be rejected...
	stale := make([]byte, 64)
	if err := d.writeBlockGen(nil, id, gen, stale); err == nil {
		t.Fatal("stale background write landed on a reallocated block")
	}
	// ...leaving the new owner's data intact, while the current
	// generation still writes fine.
	got := make([]byte, 64)
	if err := d.ReadBlock(id2, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, new owner's data corrupted", i, b)
		}
	}
	id3, gen3 := d.allocGen()
	if err := d.writeBlockGen(nil, id3, gen3, owner); err != nil {
		t.Fatalf("current-generation write rejected: %v", err)
	}
}

// TestBufferPoolFrameReuse checks the recycled-frame contract: once the
// pool has evicted a frame, subsequent misses reuse its slice, and GetNew
// frames start zeroed even when recycled.
func TestBufferPoolFrameReuse(t *testing.T) {
	d := MustNewDisk(64)
	ids := make([]BlockID, 4)
	buf := make([]byte, 64)
	for i := range ids {
		ids[i] = d.Alloc()
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := d.WriteBlock(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewBufferPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Touch all four blocks: two evictions occur, so two slices recycle.
	var seen []*byte
	for _, id := range ids {
		data, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == 0 {
			t.Fatalf("block %d read back zero", id)
		}
		seen = append(seen, &data[0])
	}
	// The miss for ids[3] follows the pool's first eviction (triggered
	// while inserting ids[2]) and must recycle that frame's slice.
	if seen[3] != seen[0] && seen[3] != seen[1] {
		t.Error("miss after an eviction did not recycle the evicted frame slice")
	}
	// A recycled GetNew frame must be zeroed despite the dirty reuse.
	id := d.Alloc()
	data, err := p.GetNew(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("GetNew frame byte %d = %d, want 0", i, b)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

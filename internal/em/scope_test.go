package em

import (
	"sync"
	"testing"
)

// TestScopeStatsAttribution checks that scoped streams charge both the
// disk-global counters and their own scope, that foreign-file reads can be
// re-attributed, and that a nil scope is a no-op.
func TestScopeStatsAttribution(t *testing.T) {
	d := MustNewDisk(64)
	sc := new(ScopeStats)

	f := NewFileScoped(d, sc)
	w := f.NewWriter()
	if _, err := w.Write(make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sc.Stats(); got.Writes != 4 || got.Reads != 0 {
		t.Fatalf("scope after write = %+v, want 4 writes", got)
	}
	r := f.NewReader()
	buf := make([]byte, 200)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := sc.Stats(); got.Reads != 4 {
		t.Fatalf("scope after read = %+v, want 4 reads", got)
	}
	if g := d.Stats(); g.Reads != sc.Stats().Reads || g.Writes != sc.Stats().Writes {
		t.Fatalf("global %+v diverges from sole scope %+v", g, sc.Stats())
	}

	// Reading an unscoped file under an override scope attributes there.
	plain := NewFile(d)
	pw := plain.NewWriter()
	if _, err := pw.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	other := new(ScopeStats)
	or := plain.NewReader()
	or.scope = other
	if _, err := or.Read(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if got := other.Stats(); got.Reads != 1 || got.Writes != 0 {
		t.Fatalf("override scope = %+v, want 1 read", got)
	}

	// A nil scope (plain file) must not have charged sc.
	if got := sc.Stats(); got.Reads != 4 || got.Writes != 4 {
		t.Fatalf("scope polluted by unscoped traffic: %+v", got)
	}
}

// TestScopeStatsConcurrent charges one scope from many goroutines — the
// solver's fan-out shape — and checks the tally is exact under -race.
func TestScopeStatsConcurrent(t *testing.T) {
	d := MustNewDisk(64)
	sc := new(ScopeStats)
	var wg sync.WaitGroup
	const workers, blocks = 8, 25
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := NewFileScoped(d, sc)
			w := f.NewWriter()
			if _, err := w.Write(make([]byte, 64*blocks)); err != nil {
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sc.Stats(); got.Writes != workers*blocks {
		t.Fatalf("scope writes = %d, want %d", got.Writes, workers*blocks)
	}
}

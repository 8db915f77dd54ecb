package maxrs

import (
	"bufio"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"maxrs/internal/plan"
)

// newLeakEngine returns a small-budget engine whose disk starts empty.
func newLeakEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(&Options{BlockSize: 512, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func wantInUse(t *testing.T, e *Engine, want int, context string) {
	t.Helper()
	if n := e.BlocksInUse(); n != want {
		t.Fatalf("%s: BlocksInUse = %d, want %d", context, n, want)
	}
}

func TestLoadErrorLeaksNothing(t *testing.T) {
	e := newLeakEngine(t)
	// Enough valid objects to flush blocks before the bad one errors out.
	objs := make([]Object, 200)
	for i := range objs {
		objs[i] = Object{X: float64(i), Y: float64(i), Weight: 1}
	}
	for _, bad := range []Object{
		{X: math.NaN(), Y: 0, Weight: 1},
		{X: math.Inf(1), Y: 0, Weight: 1},
		{X: 0, Y: math.Inf(-1), Weight: 1},
		{X: 0, Y: 0, Weight: math.Inf(1)},
	} {
		if _, err := e.Load(context.Background(), append(append([]Object{}, objs...), bad)); err == nil {
			t.Fatalf("Load(%+v) must fail", bad)
		}
		wantInUse(t, e, 0, "after failed Load")
	}
}

func TestLoadCSVErrorLeaksNothing(t *testing.T) {
	e := newLeakEngine(t)
	valid := strings.Repeat("1,2,3\n", 200) // several blocks before the error
	cases := []struct {
		name, csv, wantErr string
	}{
		{"parse", valid + "1,notanumber\n", "line 201"},
		{"inf", valid + "1,+Inf\n", "line 201"},
		{"nan", valid + "NaN,2\n", "line 201"},
		{"columns", valid + "1,2,3,4\n", "line 201"},
		{"toolong", valid + strings.Repeat("9", 2<<20) + ",1\n", "line 201"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.LoadCSV(context.Background(), strings.NewReader(tc.csv))
			if err == nil {
				t.Fatal("LoadCSV must fail")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending line (%s)", err, tc.wantErr)
			}
			if tc.name == "toolong" && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("error %q does not wrap bufio.ErrTooLong", err)
			}
			wantInUse(t, e, 0, "after failed LoadCSV")
		})
	}
}

// corruptDataset returns a Dataset whose file ends mid-record, so every
// scan of it fails with a truncated-record error partway through — after
// intermediate files have already been created and partially written.
func corruptDataset(t *testing.T, e *Engine) *Dataset {
	t.Helper()
	f := e.env.NewFile()
	w := f.NewWriter()
	// Many whole records (several blocks), then a ragged tail.
	if _, err := w.Write(make([]byte, 24*200+7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return e.newDataset(f, 200, plan.Stats{N: 200})
}

// TestQueryErrorLeaksNothing drives every query type and algorithm into a
// mid-stream failure (truncated dataset) and requires Disk.InUse to come
// back to the pre-call level — the dataset's own blocks.
func TestQueryErrorLeaksNothing(t *testing.T) {
	algorithms := []Algorithm{ExactMaxRS, InMemory}
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			e, err := NewEngine(&Options{BlockSize: 512, Memory: 4096, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d := corruptDataset(t, e)
			base := e.BlocksInUse()
			if _, err := e.MaxRS(context.Background(), d, 10, 10); err == nil {
				t.Fatal("MaxRS on corrupt dataset must fail")
			}
			wantInUse(t, e, base, "after failed MaxRS")
		})
	}

	e := newLeakEngine(t)
	d := corruptDataset(t, e)
	base := e.BlocksInUse()
	if _, err := e.MinRS(context.Background(), d, 10, 10); err == nil {
		t.Fatal("MinRS must fail")
	}
	wantInUse(t, e, base, "after failed MinRS")
	if _, err := e.CountRS(context.Background(), d, 10, 10); err == nil {
		t.Fatal("CountRS must fail")
	}
	wantInUse(t, e, base, "after failed CountRS")
	if _, err := e.TopK(context.Background(), d, 10, 10, 3); err == nil {
		t.Fatal("TopK must fail")
	}
	wantInUse(t, e, base, "after failed TopK")
	if _, err := e.MaxCRS(context.Background(), d, 10); err == nil {
		t.Fatal("MaxCRS must fail")
	}
	wantInUse(t, e, base, "after failed MaxCRS")
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	wantInUse(t, e, 0, "after release")
}

// TestOneShotCleansUpOnDisk verifies the one-shot convenience functions
// close their OnDisk engine — removing the backing temp file — on success
// and on load/solve errors.
func TestOneShotCleansUpOnDisk(t *testing.T) {
	dir := t.TempDir()
	opts := &Options{OnDisk: true, OnDiskDir: dir}
	objs := []Object{{X: 1, Y: 1, Weight: 1}, {X: 2, Y: 2, Weight: 1}}

	if _, err := MaxRS(context.Background(), objs, 4, 4, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := MaxRS(context.Background(), []Object{{X: math.Inf(1)}}, 4, 4, opts); err == nil {
		t.Fatal("load error expected")
	}
	if _, err := MaxRS(context.Background(), objs, -1, 4, opts); err == nil {
		t.Fatal("solve error expected")
	}
	if _, err := MaxCRS(context.Background(), objs, 4, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := MaxCRS(context.Background(), []Object{{X: math.NaN()}}, 4, opts); err == nil {
		t.Fatal("load error expected")
	}
	if _, err := MaxCRS(context.Background(), objs, -2, opts); err == nil {
		t.Fatal("solve error expected")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("leaked backing files: %v", names)
	}
}

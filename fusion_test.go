package maxrs

import (
	"context"
	"math/rand"
	"testing"
)

// fusionObjects is a deterministic workload big enough to divide at the
// root under the small engine memory used below.
func fusionObjects(n int) []Object {
	rng := rand.New(rand.NewSource(2026))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			X:      float64(rng.Intn(4 * n)),
			Y:      float64(rng.Intn(4 * n)),
			Weight: float64(rng.Intn(9) + 1),
		}
	}
	return objs
}

// TestEnginePipelineInvariance pins the public contract of stream
// pipelining: an OnDisk engine's prefetch/write-behind, on either file
// store, changes neither the result nor a single counted transfer
// relative to the synchronous in-memory engine.
func TestEnginePipelineInvariance(t *testing.T) {
	objs := fusionObjects(3000)
	queryEdge := 4.0 * 3000 / 1000
	run := func(opts Options) (Result, uint64) {
		e, err := NewEngine(&opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		d, err := e.Load(context.Background(), objs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.MaxRS(context.Background(), d, queryEdge, queryEdge)
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := e.PipelineStats()
		return res, pr + pw
	}
	base, piped := run(Options{Memory: 52 * 1024})
	if piped != 0 {
		t.Fatalf("in-memory engine pipelined %d transfers", piped)
	}
	for name, opts := range map[string]Options{
		"disk/file": {Memory: 52 * 1024, OnDisk: true},
		"disk/mmap": {Memory: 52 * 1024, OnDisk: true, Backend: BackendMmap},
	} {
		opts.OnDiskDir = t.TempDir()
		got, piped := run(opts)
		if !sameResult(got, base) {
			t.Errorf("%s: result %+v (stats %+v) != in-memory baseline %+v (stats %+v)",
				name, got, got.Stats, base, base.Stats)
		}
		if piped == 0 {
			t.Errorf("%s: OnDisk engine did not pipeline", name)
		}
	}
}

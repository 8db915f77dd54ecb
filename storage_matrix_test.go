package maxrs

import (
	"context"
	"fmt"
	"testing"
)

// storageVariants is the store × codec grid of the extended invariance
// matrix: every storage stack an engine can run on. mem+none is the
// default engine.
var storageVariants = []struct {
	name    string
	onDisk  bool
	backend BackendKind
	codec   CodecKind
}{
	{"file+none", true, BackendFile, CodecNone},
	{"file+delta", true, BackendFile, CodecDelta},
	{"mmap+none", true, BackendMmap, CodecNone},
	{"mmap+delta", true, BackendMmap, CodecDelta},
	{"mem+none", false, BackendAuto, CodecNone},
	{"mem+delta", false, BackendAuto, CodecDelta},
}

// TestStorageInvarianceMatrix is the acceptance matrix of the storage
// subsystem (DESIGN.md §15): counted read/write transfers must be
// bit-identical between the mem, file and mmap stores and across all
// codecs, at parallelism 1, 2, 4 and 8, unsharded and sharded — the
// codecs and the medium live below the transfer counters, so the
// counted schedule cannot move. Results must be bit-identical too, and
// exactly the codec-bearing variants must measure physical bytes.
func TestStorageInvarianceMatrix(t *testing.T) {
	objs := fusionObjects(3000)
	queryEdge := 4.0 * 3000 / 1000

	run := func(t *testing.T, opts Options) (Result, PhysIO) {
		t.Helper()
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
		if err := d.Release(); err != nil {
			t.Fatal(err)
		}
		if n := e.BlocksInUse(); n != 0 {
			t.Fatalf("%d blocks leaked", n)
		}
		return res, e.PhysIO()
	}

	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base, _ := run(t, Options{
				Memory: 52 * 1024, Shards: shards,
				OnDisk: true, OnDiskDir: t.TempDir(),
			})
			for _, v := range storageVariants {
				for _, par := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("%s/p=%d", v.name, par)
					opts := Options{
						Memory: 52 * 1024, Shards: shards, Parallelism: par,
						OnDisk: v.onDisk, Backend: v.backend, Codec: v.codec,
					}
					if v.onDisk {
						opts.OnDiskDir = t.TempDir()
					}
					got, phys := run(t, opts)
					if !sameResult(got, base) {
						t.Errorf("%s: result %+v != baseline %+v", name, got, base)
					}
					if got.Stats != base.Stats {
						t.Errorf("%s: per-query transfers %+v != baseline %+v — the counted schedule moved",
							name, got.Stats, base.Stats)
					}
					if phys.Measured != (v.codec == CodecDelta) {
						t.Errorf("%s: physical bytes measured=%v with codec %v", name, phys.Measured, v.codec)
					}
				}
			}
		})
	}
}

// TestStorageOptionValidation pins NewEngine's rejection of
// misconfigured storage selections.
func TestStorageOptionValidation(t *testing.T) {
	if _, err := NewEngine(&Options{Backend: BackendMmap}); err == nil {
		t.Fatal("in-memory engine with BackendMmap must be rejected")
	}
	if _, err := NewEngine(&Options{Backend: BackendKind(42), OnDisk: true}); err == nil {
		t.Fatal("bogus backend kind must be rejected")
	}
	if _, err := NewEngine(&Options{Codec: CodecKind(42)}); err == nil {
		t.Fatal("bogus codec kind must be rejected")
	}
	for _, k := range []BackendKind{BackendAuto, BackendFile, BackendMmap} {
		if k.String() == "" {
			t.Fatal("BackendKind.String empty")
		}
	}
	for _, k := range []CodecKind{CodecNone, CodecDelta} {
		if k.String() == "" {
			t.Fatal("CodecKind.String empty")
		}
	}
}

// TestStoragePhysBytesCompressWorkload pins the compression win on real
// engine traffic: loading and querying a workload under CodecDelta must
// move strictly fewer physical bytes than the fixed layout, and report
// compressed blocks.
func TestStoragePhysBytesCompressWorkload(t *testing.T) {
	objs := fusionObjects(3000)
	queryEdge := 4.0 * 3000 / 1000
	phys := func(c CodecKind) (PhysIO, IOStats) {
		e, err := NewEngine(&Options{
			Memory: 52 * 1024, OnDisk: true, OnDiskDir: t.TempDir(), Codec: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		d, err := e.Load(context.Background(), objs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.MaxRS(context.Background(), d, queryEdge, queryEdge); err != nil {
			t.Fatal(err)
		}
		return e.PhysIO(), e.Stats()
	}
	delta, dStats := phys(CodecDelta)
	raw, rStats := phys(CodecNone)
	if dStats != rStats {
		t.Fatalf("counted transfers moved: delta %+v vs none %+v", dStats, rStats)
	}
	if !delta.Measured {
		t.Fatal("delta engine did not measure physical bytes")
	}
	if delta.BlocksCompressed == 0 {
		t.Fatal("no block beat the fixed layout on a sorted workload")
	}
	// raw is derived (transfers × B) — the fixed layout's exact cost.
	if delta.Bytes() >= raw.Bytes() {
		t.Fatalf("delta moved %d physical bytes, fixed layout %d — no compression win",
			delta.Bytes(), raw.Bytes())
	}
}

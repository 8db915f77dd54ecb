package em

import (
	"context"
	"errors"
	"testing"
	"time"
)

// faultDisk returns an in-memory disk with retries and the given plan
// armed — the standard hardened configuration under test.
func faultDisk(t *testing.T, plan FaultPlan) *Disk {
	t.Helper()
	d := MustNewDisk(64)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 3})
	d.InjectFaults(plan)
	return d
}

// TestTransientFaultRetried checks that a transient fault at an exact
// transfer index is retried and recovered, with the retry counted
// separately from the successful transfer.
func TestTransientFaultRetried(t *testing.T) {
	d := faultDisk(t, FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 2, Kind: FaultTransient},
		{Op: OpWrite, Transfer: 1, Kind: FaultTransient},
	}})
	id := d.Alloc()
	src := []byte("payload")
	if err := d.WriteBlock(id, src); err != nil {
		t.Fatalf("write through transient fault: %v", err)
	}
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read through transient fault: %v", err)
	}
	if string(buf[:len(src)]) != string(src) {
		t.Fatalf("recovered read returned %q, want %q", buf[:len(src)], src)
	}
	fs := d.FaultStats()
	if fs.ReadRetries != 1 || fs.WriteRetries != 1 {
		t.Fatalf("retries = (%d,%d), want (1,1)", fs.ReadRetries, fs.WriteRetries)
	}
	if fs.InjectedTransient != 2 {
		t.Fatalf("InjectedTransient = %d, want 2", fs.InjectedTransient)
	}
	// Only successful transfers count in the I/O metric: 1 write (the
	// faulted attempt does not count) + 2 reads.
	if got := d.Stats(); got.Reads != 2 || got.Writes != 1 {
		t.Fatalf("stats = %+v, want reads=2 writes=1", got)
	}
}

// TestPermanentFaultPersistsUntilFree checks that a permanent fault fails
// fast (no retries), poisons the block for every later access, and clears
// when the block is freed and reallocated (a remapped sector).
func TestPermanentFaultPersistsUntilFree(t *testing.T) {
	d := faultDisk(t, FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 2, Kind: FaultPermanent},
	}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	err := d.ReadBlock(id, buf)
	if !errors.Is(err, ErrIOFault) {
		t.Fatalf("read 2 = %v, want ErrIOFault", err)
	}
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
	// The block stays bad: reads and writes keep failing.
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrIOFault) {
		t.Fatalf("read 3 = %v, want ErrIOFault", err)
	}
	if err := d.WriteBlock(id, []byte("y")); !errors.Is(err, ErrIOFault) {
		t.Fatalf("write to bad block = %v, want ErrIOFault", err)
	}
	fs := d.FaultStats()
	if fs.ReadRetries != 0 {
		t.Fatalf("permanent fault was retried %d times", fs.ReadRetries)
	}
	if fs.InjectedPermanent != 1 {
		t.Fatalf("InjectedPermanent = %d, want 1", fs.InjectedPermanent)
	}
	// Free + realloc models a remapped sector: the id works again.
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	id2 := d.Alloc()
	if id2 != id {
		t.Fatalf("expected free-list reuse of %d, got %d", id, id2)
	}
	if err := d.WriteBlock(id2, []byte("z")); err != nil {
		t.Fatalf("write after realloc: %v", err)
	}
	if err := d.ReadBlock(id2, buf); err != nil {
		t.Fatalf("read after realloc: %v", err)
	}
}

// TestCorruptReadRecoveredByChecksum checks the one-shot corruption case:
// the first read delivers flipped bits, the slot CRC32C catches it, and
// the retry rereads clean data.
func TestCorruptReadRecoveredByChecksum(t *testing.T) {
	d := faultDisk(t, FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 1, Kind: FaultCorrupt},
	}})
	id := d.Alloc()
	src := []byte("precious")
	if err := d.WriteBlock(id, src); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read through one-shot corruption: %v", err)
	}
	if string(buf[:len(src)]) != string(src) {
		t.Fatalf("read returned %q, want %q", buf[:len(src)], src)
	}
	fs := d.FaultStats()
	if fs.ChecksumFailures != 1 || fs.ReadRetries != 1 {
		t.Fatalf("checksumFails=%d retries=%d, want 1,1", fs.ChecksumFailures, fs.ReadRetries)
	}
}

// TestCorruptReadDetectedByDefault checks that verification needs no
// configuration: a disk with no retry policy surfaces a corrupted read as
// ErrBlockCorrupt instead of delivering it, and the damage was confined to
// that read — the stored slot still reads back clean.
func TestCorruptReadDetectedByDefault(t *testing.T) {
	d := MustNewDisk(64)
	d.InjectFaults(FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 1, Kind: FaultCorrupt},
	}})
	id := d.Alloc()
	src := []byte{0x00, 0x11}
	if err := d.WriteBlock(id, src); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("corrupted read = %v, want ErrBlockCorrupt", err)
	}
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("reread after one-shot corruption: %v", err)
	}
	if string(buf[:len(src)]) != string(src) {
		t.Fatalf("reread returned %x, want %x", buf[:len(src)], src)
	}
	if fs := d.FaultStats(); fs.ChecksumFailures != 1 || fs.InjectedCorrupt != 1 {
		t.Fatalf("checksumFails=%d injected=%d, want 1,1", fs.ChecksumFailures, fs.InjectedCorrupt)
	}
}

// TestTornWriteSurfacesErrBlockCorrupt checks that a torn write persists
// damage which every subsequent read detects, exhausting retries and
// surfacing ErrBlockCorrupt, until the block is overwritten cleanly.
func TestTornWriteSurfacesErrBlockCorrupt(t *testing.T) {
	d := faultDisk(t, FaultPlan{At: []FaultAt{
		{Op: OpWrite, Transfer: 1, Kind: FaultTorn},
	}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("doomed")); err != nil {
		t.Fatalf("torn write should report success: %v", err)
	}
	buf := make([]byte, 64)
	err := d.ReadBlock(id, buf)
	if !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read of torn block = %v, want ErrBlockCorrupt", err)
	}
	fs := d.FaultStats()
	if fs.InjectedTorn != 1 {
		t.Fatalf("InjectedTorn = %d, want 1", fs.InjectedTorn)
	}
	// 1 original mismatch + MaxRetries rereads, each failing verification.
	if fs.ChecksumFailures != 4 || fs.ReadRetries != 3 {
		t.Fatalf("checksumFails=%d retries=%d, want 4,3", fs.ChecksumFailures, fs.ReadRetries)
	}
	// A clean rewrite records a fresh slot and recovers the block.
	if err := d.WriteBlock(id, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

// TestTornEmptyWriteDetected checks the tear of a slot with no payload
// (an empty write): the damage lands on the header's CRC32C field, so the
// block still fails verification instead of reading back as zeros.
func TestTornEmptyWriteDetected(t *testing.T) {
	d := faultDisk(t, FaultPlan{At: []FaultAt{
		{Op: OpWrite, Transfer: 1, Kind: FaultTorn},
	}})
	id := d.Alloc()
	if err := d.WriteBlock(id, nil); err != nil {
		t.Fatalf("torn write should report success: %v", err)
	}
	if err := d.ReadBlock(id, make([]byte, 64)); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read of torn empty block = %v, want ErrBlockCorrupt", err)
	}
}

// TestRetriesExhaustedSurfaceIOFault checks that a run of transient faults
// longer than the retry budget surfaces the transient error, classified as
// an ErrIOFault.
func TestRetriesExhaustedSurfaceIOFault(t *testing.T) {
	d := MustNewDisk(64)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 2})
	d.InjectFaults(FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 1, Kind: FaultTransient},
		{Op: OpRead, Transfer: 2, Kind: FaultTransient},
		{Op: OpRead, Transfer: 3, Kind: FaultTransient},
	}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	err := d.ReadBlock(id, buf)
	if !errors.Is(err, ErrIOFault) || !IsTransient(err) {
		t.Fatalf("exhausted retries = %v, want transient ErrIOFault", err)
	}
	if fs := d.FaultStats(); fs.ReadRetries != 2 {
		t.Fatalf("ReadRetries = %d, want 2", fs.ReadRetries)
	}
}

// TestRetryBackoffRespectsContext checks that a cancelled context aborts
// the backoff sleep instead of waiting it out.
func TestRetryBackoffRespectsContext(t *testing.T) {
	d := MustNewDisk(64)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 5, BaseDelay: time.Hour})
	d.InjectFaults(FaultPlan{At: []FaultAt{
		{Op: OpRead, Transfer: 1, Kind: FaultTransient},
	}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, 64)
	start := time.Now()
	err := d.readBlockCtx(ctx, id, buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backoff ignored cancellation (took %v)", elapsed)
	}
}

// TestLatencyFaultDelaysTransfer checks that a latency spike delays but
// does not fail the transfer.
func TestLatencyFaultDelaysTransfer(t *testing.T) {
	const spike = 30 * time.Millisecond
	d := faultDisk(t, FaultPlan{
		Latency: spike,
		At:      []FaultAt{{Op: OpRead, Transfer: 1, Kind: FaultLatency}},
	})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	start := time.Now()
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("latency fault errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed < spike {
		t.Fatalf("read took %v, want ≥ %v", elapsed, spike)
	}
	if fs := d.FaultStats(); fs.InjectedLatency != 1 {
		t.Fatalf("InjectedLatency = %d, want 1", fs.InjectedLatency)
	}
}

// TestSeededRatesDeterministic checks that the rate-driven injector is a
// pure function of the seed over a serial transfer sequence.
func TestSeededRatesDeterministic(t *testing.T) {
	run := func() (faults []int) {
		d := MustNewDisk(64)
		d.SetRetryPolicy(RetryPolicy{MaxRetries: 8})
		d.InjectFaults(FaultPlan{Seed: 42, TransientReadRate: 0.2})
		id := d.Alloc()
		if err := d.WriteBlock(id, []byte("x")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for i := 0; i < 50; i++ {
			before := d.FaultStats().ReadRetries
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if d.FaultStats().ReadRetries > before {
				faults = append(faults, i)
			}
		}
		return faults
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("20% transient rate fired no faults in 50 reads")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different fault schedule: %v vs %v", a, b)
		}
	}
}

// TestNoFaultScheduleBitIdentical checks the central invariance contract:
// an armed injector that fires nothing, plus a retry policy, leaves the counted transfer schedule bit-identical to a plain
// disk — including through pipelined streams.
func TestNoFaultScheduleBitIdentical(t *testing.T) {
	counts := func(harden bool) Stats {
		d := MustNewDisk(64)
		if harden {
			d.SetRetryPolicy(RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond})
			d.InjectFaults(FaultPlan{}) // armed, fires nothing
			d.pipelined = true
		}
		env := Env{Disk: d, M: 4 * 64}
		f := env.NewFile()
		w := f.NewWriter()
		rec := make([]byte, 16)
		for i := 0; i < 100; i++ {
			rec[0] = byte(i)
			if _, err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := f.NewReader()
		buf := make([]byte, 16)
		for {
			if _, err := r.Read(buf); err != nil {
				break
			}
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}
	plain, hardened := counts(false), counts(true)
	if plain != hardened {
		t.Fatalf("hardened schedule diverged: plain %+v, hardened %+v", plain, hardened)
	}
}

// TestInjectFaultsReplacesInjector checks that re-arming replaces rather
// than stacks injectors, and that a replaced injector's counters restart.
func TestInjectFaultsReplacesInjector(t *testing.T) {
	d := MustNewDisk(64)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 1})
	d.InjectFaults(FaultPlan{At: []FaultAt{{Op: OpRead, Transfer: 1, Kind: FaultTransient}}})
	d.InjectFaults(FaultPlan{At: []FaultAt{{Op: OpRead, Transfer: 2, Kind: FaultTransient}}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Read 1 clean (the first plan's fault at transfer 1 is gone), read 2
	// faulted once by the second plan.
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if fs := d.FaultStats(); fs.InjectedTransient != 0 {
		t.Fatalf("stacked injector fired: %+v", fs)
	}
	if err := d.ReadBlock(id, buf); err != nil {
		t.Fatalf("read 2: %v", err)
	}
	if fs := d.FaultStats(); fs.InjectedTransient != 1 {
		t.Fatalf("InjectedTransient = %d, want 1", fs.InjectedTransient)
	}
}

// TestFaultInjectionFileBacked smoke-checks the injector over the file
// store: torn write caught by the slot CRC32C, free forwarded through the
// wrapper, backing file removed on Close.
func TestFaultInjectionFileBacked(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 2})
	d.InjectFaults(FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: 1, Kind: FaultTorn}}})
	id := d.Alloc()
	if err := d.WriteBlock(id, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read = %v, want ErrBlockCorrupt", err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if n := d.InUse(); n != 0 {
		t.Fatalf("InUse = %d after free", n)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close through injector: %v", err)
	}
}

//go:build benchtrace

package main

// The traced build. Spans are recorded from this package's own files
// around calls into each layer's exported functions — never inside the
// program — so an internal refactor can break only this file, never the
// untraced comparison. It imports maxrs/internal/... for the twins: the
// same inputs replayed through one layer's function on a fresh disk of
// the workload's kind.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxrs"
	"maxrs/internal/codec"
	"maxrs/internal/core"
	"maxrs/internal/crs"
	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

func init() { newTracing = func(cfg config) tracing { return newRecorder(cfg) } }

// maxReplays caps the replayed operations of a run: every 10th measured
// operation is replayed, evenly thinned to this many, because one replay
// runs every layer's twin and costs several queries.
const maxReplays = 6

// twinParallelism matches the engines' Parallelism.
const twinParallelism = 2

// maxrsdBlockSize is maxrsd's default -block, which serve-mixed keeps.
const maxrsdBlockSize = 4096

// spanRec is one finished span. Times are ns since the run's epoch; self
// is the duration minus the time its child spans cover.
type spanRec struct {
	Trace  int64            `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder holds a run's spans in memory until write.
type recorder struct {
	cfg    config
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	// winnerShares are, per replay, the mean over record streams of the
	// share of blocks won by the stream's most frequent codec.
	winnerShares []float64

	heapMu   sync.Mutex
	heap     []metrics.Sample
	heapPeak uint64

	mem0 runtime.MemStats // at begin

	// gc* summarize a traced maxrsd's gctrace lines from begin on.
	gcMu      sync.Mutex
	gcOn      bool
	gcCycles  int
	gcPauseMs float64
	gcHeapMB  float64
}

func newRecorder(cfg config) *recorder {
	return &recorder{
		cfg: cfg, epoch: time.Now(),
		heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

type openSpan struct {
	r   *recorder
	rec spanRec
}

func (r *recorder) start(trace, parent int64, name string) *openSpan {
	return &openSpan{r: r, rec: spanRec{
		Trace: trace, ID: r.nextID.Add(1), Parent: parent, Name: name,
		Start: time.Since(r.epoch).Nanoseconds(),
	}}
}

func (s *openSpan) count(k string, v int64) {
	if s.rec.Counts == nil {
		s.rec.Counts = map[string]int64{}
	}
	s.rec.Counts[k] = v
}

func (s *openSpan) end() {
	s.rec.End = time.Since(s.r.epoch).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
}

func (r *recorder) begin() {
	runtime.ReadMemStats(&r.mem0)
	r.gcMu.Lock()
	r.gcOn = true
	r.gcMu.Unlock()
}

func (r *recorder) span(trace int64, name string) func() {
	s := r.start(trace, 0, name)
	return func() {
		s.end()
		r.sampleHeap()
	}
}

// sampleHeap tracks the peak of live heap objects across traced ops.
func (r *recorder) sampleHeap() {
	r.heapMu.Lock()
	defer r.heapMu.Unlock()
	metrics.Read(r.heap)
	r.heapPeak = max(r.heapPeak, r.heap[0].Value.Uint64())
}

// maxrsdEnv turns on maxrsd's GC trace; onGCLine reads it.
func (r *recorder) maxrsdEnv() ([]string, func(string)) {
	return []string{"GODEBUG=gctrace=1"}, r.onGCLine
}

// onGCLine parses one gctrace line:
//
//	gc 7 @0.41s 3%: 0.012+1.1+0.021 ms clock, … 9->10->4 MB, 11 MB goal, …
//
// The first and last clock terms are the stop-the-world pauses; the
// first heap size is the heap when the cycle started.
func (r *recorder) onGCLine(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	_, rest, ok := strings.Cut(line, "%: ")
	if !ok {
		return
	}
	clock, rest, ok := strings.Cut(rest, " ms clock")
	if !ok {
		return
	}
	terms := strings.Split(clock, "+")
	_, heap, _ := strings.Cut(rest, "cpu, ")
	heapStart, _, _ := strings.Cut(heap, "->")
	var pause float64
	for _, t := range []string{terms[0], terms[len(terms)-1]} {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return
		}
		pause += v
	}
	mb, err := strconv.ParseFloat(heapStart, 64)
	if err != nil {
		return
	}
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	if r.gcOn {
		r.gcCycles++
		r.gcPauseMs += pause
		r.gcHeapMB = max(r.gcHeapMB, mb)
	}
}

// stopGC ends the gctrace window and returns its summary.
func (r *recorder) stopGC() (cycles int, pauseMs, heapMB float64) {
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	r.gcOn = false
	return r.gcCycles, r.gcPauseMs, r.gcHeapMB
}

// twin is a replay environment: the workload's objects as a record file
// on a fresh disk of the workload's kind, and a solver over it.
type twin struct {
	env    em.Env
	file   *em.File
	solver *core.Solver
	objs   []rec.Object
	// leaf is an x-contiguous slice of objects the size of an in-memory
	// base case: as many rectangles as fit in M as piece events.
	leaf []rec.Object
}

func newTwin(objs []maxrs.Object, opts maxrs.Options, dir string) (*twin, error) {
	b, m := opts.BlockSize, opts.Memory
	if b == 0 {
		b = 4096
	}
	if m == 0 {
		m = 1 << 20
	}
	var cands []codec.BlockCodec
	if opts.Codec == maxrs.CodecDelta {
		cands = codec.DeltaFamily()
	}
	var (
		d   *em.Disk
		err error
	)
	switch {
	case opts.OnDisk && opts.Backend == maxrs.BackendMmap:
		d, err = em.NewStoreDisk(dir, b, em.StoreMmap, cands)
	case opts.OnDisk && cands != nil:
		d, err = em.NewStoreDisk(dir, b, em.StoreFile, cands)
	case opts.OnDisk:
		d, err = em.NewFileBackedDisk(dir, b)
	case cands != nil:
		d, err = em.NewStoreDisk("", b, em.StoreMem, cands)
	default:
		d, err = em.NewDisk(b)
	}
	if err != nil {
		return nil, err
	}
	t := &twin{env: em.Env{Disk: d, M: m}, objs: make([]rec.Object, len(objs))}
	for i, o := range objs {
		t.objs[i] = rec.Object{X: o.X, Y: o.Y, W: o.Weight}
	}
	if t.file, err = em.WriteAll(d, rec.ObjectCodec{}, t.objs); err != nil {
		_ = d.Close()
		return nil, err
	}
	if t.solver, err = core.NewSolver(t.env, core.Config{Parallelism: twinParallelism}); err != nil {
		_ = d.Close()
		return nil, err
	}
	byX := append([]rec.Object(nil), t.objs...)
	sort.Slice(byX, func(i, j int) bool { return byX[i].X < byX[j].X })
	n := min(len(byX), m/(2*rec.PieceEventCodec{}.Size()))
	lo := (len(byX) - n) / 2
	t.leaf = byX[lo : lo+n]
	return t, nil
}

// leaked is the twin disk's blocks beyond the object file's.
func (t *twin) leaked() int { return t.env.Disk.InUse() - t.file.Blocks() }

func (t *twin) close() error { return t.env.Disk.Close() }

func lessEventY(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }

// replay runs one operation's inputs through every layer under a
// "replay" span with the operation's trace id: each query kind and the
// planner on eng, then the twins of core, extsort, sweep, crs, em and
// codec.
func (r *recorder) replay(ctx context.Context, tw *twin, eng *maxrs.Engine, ds *maxrs.Dataset, trace int64, side float64) error {
	root := r.start(trace, 0, "replay")
	defer root.end()
	id := root.rec.ID
	for k := kMaxRS; k <= kMaxCRS; k++ {
		s := r.start(trace, id, kindCalls[k])
		var err error
		switch k {
		case kMaxRS:
			var res maxrs.Result
			res, err = eng.MaxRS(ctx, ds, side, side)
			s.count("io", int64(res.Stats.Total()))
			s.count("predicted", res.PredictedCost.Total())
		case kTopK:
			_, err = eng.TopK(ctx, ds, side, side, topK)
		case kCountRS:
			_, err = eng.CountRS(ctx, ds, side, side)
		case kMinRS:
			_, err = eng.MinRS(ctx, ds, side, side)
		case kMaxCRS:
			_, err = eng.MaxCRS(ctx, ds, side)
		}
		s.end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", kindCalls[k], err)
		}
	}
	s := r.start(trace, id, "Engine.Explain")
	_, err := eng.Explain(ctx, ds, side, side)
	s.end()
	if err != nil {
		return fmt.Errorf("replay Explain: %w", err)
	}

	sc := new(em.ScopeStats)
	s = r.start(trace, id, "core.SolveObjectsScoped")
	_, err = tw.solver.SolveObjectsScoped(ctx, tw.file, side, side, sc)
	s.count("io", int64(sc.Stats().Total()))
	s.end()
	if err != nil {
		return fmt.Errorf("replay core: %w", err)
	}

	events := make([]rec.PieceEvent, 0, 2*len(tw.objs))
	for _, o := range tw.objs {
		b, t := rec.PieceEventsOf(rec.FromObject(o, side, side))
		events = append(events, b, t)
	}
	if err := r.replaySort(trace, id, tw, events); err != nil {
		return fmt.Errorf("replay extsort: %w", err)
	}

	rects := make([]rec.WRect, len(tw.leaf))
	for i, o := range tw.leaf {
		rects[i] = rec.FromObject(o, side, side)
	}
	s = r.start(trace, id, "sweep.Slab")
	tuples := sweep.Slab(rects, geom.Interval{Lo: rects[0].X1, Hi: rects[len(rects)-1].X2})
	s.count("rects", int64(len(rects)))
	s.count("tuples", int64(len(tuples)))
	s.end()

	sc = new(em.ScopeStats)
	s = r.start(trace, id, "crs.ApproxScoped")
	_, err = crs.ApproxScoped(ctx, tw.solver, tw.file, side, sc)
	s.count("io", int64(sc.Stats().Total()))
	s.end()
	if err != nil {
		return fmt.Errorf("replay crs: %w", err)
	}

	if err := r.replayStream(trace, id, tw, events); err != nil {
		return fmt.Errorf("replay em: %w", err)
	}
	b := tw.env.B()
	streams := [][][]byte{
		blocksOf(rec.ObjectCodec{}, tw.objs, b),
		blocksOf(rec.PieceEventCodec{}, events, b),
		blocksOf(rec.TupleCodec{}, tuples, b),
	}
	if err := r.replayCodec(trace, id, streams); err != nil {
		return fmt.Errorf("replay codec: %w", err)
	}
	return nil
}

// replaySort forms sorted runs from the events in object order — the
// root's input order — and merges them into a counting sink.
func (r *recorder) replaySort(trace, parent int64, tw *twin, events []rec.PieceEvent) error {
	s := r.start(trace, parent, "extsort.RunBuilder")
	rb, err := extsort.NewRunBuilder(tw.env, rec.PieceEventCodec{}, lessEventY, twinParallelism)
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := rb.Add(e); err != nil {
			rb.Discard()
			return err
		}
	}
	runs, err := rb.Finish()
	if err != nil {
		return err
	}
	s.count("runs", int64(len(runs)))
	s.end()

	s = r.start(trace, parent, "extsort.Merger")
	mg := extsort.NewMerger(tw.env, runs, rec.PieceEventCodec{}, lessEventY, twinParallelism)
	n := 0
	err = mg.Reduce()
	if err == nil {
		err = mg.MergeInto(func(rec.PieceEvent) error { n++; return nil })
	}
	err = errors.Join(err, mg.Release())
	s.count("records", int64(n))
	s.end()
	if err == nil && n != len(events) {
		err = fmt.Errorf("merged %d of %d events", n, len(events))
	}
	return err
}

// replayStream writes the events as a record file and reads it back.
func (r *recorder) replayStream(trace, parent int64, tw *twin, events []rec.PieceEvent) (err error) {
	f := tw.env.NewFile()
	defer func() { err = errors.Join(err, f.Release()) }()
	s := r.start(trace, parent, "em.Writer")
	w, err := em.NewRecordWriter(f, rec.PieceEventCodec{})
	if err != nil {
		return err
	}
	if err := errors.Join(w.WriteBatch(events), w.Close()); err != nil {
		return err
	}
	s.count("blocks", int64(f.Blocks()))
	s.end()

	s = r.start(trace, parent, "em.Reader")
	rr, err := em.NewRecordReader(f, rec.PieceEventCodec{})
	if err != nil {
		return err
	}
	buf := make([]rec.PieceEvent, 1024)
	n := 0
	for {
		k, err := rr.ReadBatch(buf)
		n += k
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	s.count("blocks", int64(f.Blocks()))
	s.end()
	if n != len(events) {
		return fmt.Errorf("read %d of %d events", n, len(events))
	}
	return nil
}

// blocksOf lays records out the way em's writers do — back to back,
// cut into blocks of b bytes — and returns the blocks.
func blocksOf[T any](c em.Codec[T], vs []T, b int) [][]byte {
	sz := c.Size()
	buf := make([]byte, len(vs)*sz)
	for i, v := range vs {
		c.Encode(buf[i*sz:], v)
	}
	var out [][]byte
	for len(buf) > 0 {
		n := min(b, len(buf))
		out = append(out, buf[:n:n])
		buf = buf[n:]
	}
	return out
}

// replayCodec encodes every block of the streams with the delta family,
// decodes each back and checks it round-trips.
func (r *recorder) replayCodec(trace, parent int64, streams [][][]byte) error {
	type encoded struct {
		id      uint8
		payload []byte
	}
	var enc [][]encoded
	total, share := 0, 0.0
	e := codec.NewEncoder(codec.DeltaFamily())
	s := r.start(trace, parent, "codec.Encode")
	for _, blocks := range streams {
		out := make([]encoded, len(blocks))
		wins := map[uint8]int{}
		for i, blk := range blocks {
			id, p := e.Encode(blk)
			out[i] = encoded{id, append([]byte(nil), p...)}
			wins[id]++
		}
		top := 0
		for _, w := range wins {
			top = max(top, w)
		}
		if len(blocks) > 0 {
			share += float64(top) / float64(len(blocks))
		}
		total += len(blocks)
		enc = append(enc, out)
	}
	s.count("blocks", int64(total))
	s.end()

	s = r.start(trace, parent, "codec.Decode")
	var bad error
	for si, blocks := range streams {
		for i, blk := range blocks {
			dst := make([]byte, len(blk))
			if c := enc[si][i]; c.id == codec.RawID {
				copy(dst, c.payload)
			} else if err := codec.Lookup(c.id).Decode(dst, c.payload); err != nil {
				bad = err
			}
			if bad == nil && !bytes.Equal(dst, blk) {
				bad = fmt.Errorf("stream %d block %d does not round-trip", si, i)
			}
		}
	}
	s.count("blocks", int64(total))
	s.end()
	r.mu.Lock()
	r.winnerShares = append(r.winnerShares, share/float64(len(streams)))
	r.mu.Unlock()
	return bad
}

// replayOps picks the operations to replay: every 10th of the given
// measured operations, evenly thinned to maxReplays.
func replayOps(indices []int) []int {
	var tenth []int
	for k := 0; k < len(indices); k += 10 {
		tenth = append(tenth, indices[k])
	}
	if len(tenth) <= maxReplays {
		return tenth
	}
	out := make([]int, maxReplays)
	for k := range out {
		out[k] = tenth[k*len(tenth)/maxReplays]
	}
	return out
}

// inproc replays sampled operations of an in-process workload and
// derives its per-layer metrics.
func (r *recorder) inproc(ctx context.Context, ir *inprocRun, samples []sample) (metricSet, error) {
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	n := float64(len(samples))
	m := metricSet{}
	var reads, writes float64
	for _, s := range samples {
		reads += float64(s.reads)
		writes += float64(s.writes)
	}
	m.set("em.reads_per_query", "transfers", reads/n)
	m.set("em.writes_per_query", "transfers", writes/n)
	m.set("runtime.gc_cycles_per_query", "cycles", float64(mem1.NumGC-r.mem0.NumGC)/n)
	m.set("runtime.gc_pause_ms_per_query", "ms", float64(mem1.PauseTotalNs-r.mem0.PauseTotalNs)/1e6/n)
	r.heapMu.Lock()
	m.set("runtime.heap_peak_mb", "MiB", float64(r.heapPeak)/(1<<20))
	r.heapMu.Unlock()
	r.overhead(m, ir.spec.clients, samplesOf(samples))

	st := ir.eng.Stats()
	pr, pw := ir.eng.PipelineStats()
	m.set("em.pipeline_share", "ratio", ratio(float64(pr+pw), float64(st.Total())))
	phys := ir.eng.PhysIO()
	m.set("codec.compressed_block_share", "ratio",
		ratio(float64(phys.BlocksCompressed), float64(phys.BlocksCompressed+phys.BlocksRaw)))
	m.set("codec.bytes_ratio", "ratio", ratio(float64(phys.Bytes()), float64(st.Total())*float64(ir.blockSize())))

	dir := filepath.Join(ir.cfg.work, "twin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tw, err := newTwin(ir.objs, ir.spec.opts, dir)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	idx := make([]int, len(samples))
	for k, s := range samples {
		idx[k] = s.i
	}
	picked := replayOps(idx)
	for _, i := range picked {
		if err := r.replay(ctx, tw, ir.eng, ir.ds, int64(i), ir.spec.sides[ir.sched[i].side]); err != nil {
			return nil, err
		}
	}
	leaked := ir.eng.BlocksInUse() - ir.ds.Blocks() + tw.leaked()
	m.set("em.leaked_blocks", "blocks", float64(leaked))
	if leaked != 0 {
		return nil, fmt.Errorf("traced run leaked %d blocks", leaked)
	}

	sides := make([]float64, len(picked))
	for k, i := range picked {
		sides[k] = ir.spec.sides[ir.sched[i].side]
	}
	if err := r.serverTwin(ctx, ir, picked, sides, m); err != nil {
		return nil, err
	}
	r.spanMetrics(m)
	return m, nil
}

// serverTwin replays the picked operations' sizes through a maxrsd
// configured like the workload's engine, exercising each serving path
// once per size: a TopK miss, a containment reuse, an insert, a delta
// re-execution, an exact hit and a delete.
func (r *recorder) serverTwin(ctx context.Context, ir *inprocRun, picked []int, sides []float64, m metricSet) error {
	o := ir.spec.opts
	flags := []string{"-workers", "2", "-parallel", strconv.Itoa(twinParallelism), "-block", strconv.Itoa(ir.blockSize())}
	if o.Memory > 0 {
		flags = append(flags, "-mem", strconv.Itoa(o.Memory))
	}
	if o.OnDisk {
		flags = append(flags, "-ondisk", "-ondiskdir", filepath.Join(ir.cfg.work, "twin"),
			"-backend", o.Backend.String(), "-codec", o.Codec.String())
	}
	sr := &serveRun{cfg: ir.cfg, objs: ir.objs, live: map[uint64]maxrs.Object{}, client: &http.Client{}}
	srv, err := startMaxrsd(ctx, ir.cfg.maxrsd, flags, nil, filepath.Join(ir.cfg.work, "maxrsd-twin.log"), nil)
	if err != nil {
		return err
	}
	sr.srv = srv
	err = r.serverTwinOps(ctx, sr, picked, sides, m)
	return errors.Join(err, srv.stop())
}

func (r *recorder) serverTwinOps(ctx context.Context, sr *serveRun, picked []int, sides []float64, m metricSet) error {
	if err := sr.put(ctx, sr.srv, datasetName, appendCSV(nil, sr.objs)); err != nil {
		return err
	}
	before, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	var samples []serveSample
	steps := []string{"topk", "maxrs", "insert", "maxrs", "maxrs", "delete"}
	rg := newRNG(sr.cfg.seed, streamSchedule+1)
	for k, i := range picked {
		for _, step := range steps {
			s := serveSample{i: i, op: step, side: sides[k]}
			sp := r.start(int64(i), 0, "http."+step)
			t0 := time.Now()
			switch step {
			case "insert":
				s.err = sr.insert(ctx, uniformSet(rg, 1, 1e6, smallIntWeight))
			case "delete":
				s.err = sr.deleteOldest(ctx)
			default:
				var qr queryReply
				qr, s.err = sr.query(ctx, step, s.side)
				s.cached = qr.Cached
			}
			s.ms = ms(time.Since(t0))
			sp.end()
			if s.err != nil {
				return fmt.Errorf("maxrsd twin %s: %w", step, s.err)
			}
			samples = append(samples, s)
		}
	}
	after, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	info, err := sr.dataset(ctx)
	if err != nil {
		return err
	}
	serverMetrics(m, before, after, info, samples)
	return nil
}

// serverMetrics sets the maxrsd layer's metrics from /v1/stats around a
// phase and the phase's requests.
func serverMetrics(m metricSet, before, after serverStats, info datasetInfo, samples []serveSample) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	reuse := after.ReuseHits - before.ReuseHits
	m.set("maxrsd.cache_hit_ratio", "ratio", ratio(float64(hits+reuse), float64(hits+misses)))
	m.set("maxrsd.reuse_hits", "count", float64(reuse))
	m.set("maxrsd.delta_hits", "count", float64(after.DeltaHits-before.DeltaHits))
	m.set("maxrsd.compactions", "count", float64(info.Compactions))
	var hit, miss, mut []float64
	shed := 0
	for _, s := range samples {
		var se *statusError
		switch {
		case errors.As(s.err, &se) && se.code == 429:
			shed++
		case s.err != nil:
		case s.op == "insert" || s.op == "delete":
			mut = append(mut, s.ms)
		case s.cached:
			hit = append(hit, s.ms)
		default:
			miss = append(miss, s.ms)
		}
	}
	// A smoke run may see no request of a class; it reports 0.
	classMedian := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	m.set("maxrsd.hit_ms.p50", "ms", classMedian(hit))
	m.set("maxrsd.miss_ms.p50", "ms", classMedian(miss))
	m.set("maxrsd.mutate_ms.p50", "ms", classMedian(mut))
	m.set("maxrsd.shed", "count", float64(shed))
}

// serve replays sampled requests of the serve workload through an
// in-process twin engine configured like maxrsd, over the effective set
// the run ended with, and derives the per-layer metrics.
func (r *recorder) serve(ctx context.Context, sr *serveRun, samples []serveSample) (metricSet, error) {
	cycles, pauseMs, heapMB := r.stopGC()
	n := float64(len(samples))
	m := metricSet{}
	b, a := sr.before, sr.after
	m.set("em.reads_per_query", "transfers", float64(a.Reads-b.Reads)/n)
	m.set("em.writes_per_query", "transfers", float64(a.Writes-b.Writes)/n)
	m.set("em.pipeline_share", "ratio", ratio(float64(a.Pipeline.Reads+a.Pipeline.Writes-b.Pipeline.Reads-b.Pipeline.Writes), float64(a.Total-b.Total)))
	comp, raw := a.Storage.BlocksCompressed-b.Storage.BlocksCompressed, a.Storage.BlocksRaw-b.Storage.BlocksRaw
	m.set("codec.compressed_block_share", "ratio", ratio(float64(comp), float64(comp+raw)))
	phys := a.Storage.PhysRead + a.Storage.PhysWrite - b.Storage.PhysRead - b.Storage.PhysWrite
	m.set("codec.bytes_ratio", "ratio", ratio(float64(phys), float64(a.Total-b.Total)*maxrsdBlockSize))
	m.set("runtime.gc_cycles_per_query", "cycles", float64(cycles)/n)
	m.set("runtime.gc_pause_ms_per_query", "ms", pauseMs/n)
	m.set("runtime.heap_peak_mb", "MiB", heapMB)
	r.overhead(m, sr.spec.clients, serveSamplesOf(samples))
	info, err := sr.dataset(ctx)
	if err != nil {
		return nil, err
	}
	serverMetrics(m, b, a, info, samples)
	st, err := sr.stats(ctx)
	if err != nil {
		return nil, err
	}
	leaked := st.BlocksInUse - info.Blocks

	eff := sr.effective()
	eng, err := maxrs.NewEngine(&maxrs.Options{Parallelism: twinParallelism})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	sp := r.start(-1, 0, "Engine.LoadCSV")
	ds, err := eng.LoadCSV(ctx, bytes.NewReader(appendCSV(nil, eff)))
	sp.end()
	if err != nil {
		return nil, err
	}
	defer ds.Release()
	tw, err := newTwin(eff, maxrs.Options{}, "")
	if err != nil {
		return nil, err
	}
	defer tw.close()
	var idx []int
	for _, s := range samples {
		if s.op != "insert" && s.op != "delete" {
			idx = append(idx, s.i)
		}
	}
	for _, i := range replayOps(idx) {
		if err := r.replay(ctx, tw, eng, ds, int64(i), sr.sched[i].side); err != nil {
			return nil, err
		}
	}
	leaked += eng.BlocksInUse() - ds.Blocks() + tw.leaked()
	m.set("em.leaked_blocks", "blocks", float64(leaked))
	if leaked != 0 {
		return nil, fmt.Errorf("traced run leaked %d blocks", leaked)
	}
	r.spanMetrics(m)
	return m, nil
}

// latencySample is what the tracing-overhead comparison needs of a
// sample.
type latencySample struct {
	ms     float64
	traced bool
}

func samplesOf(s []sample) []latencySample {
	out := make([]latencySample, len(s))
	for i, x := range s {
		out[i] = latencySample{x.ms, x.traced}
	}
	return out
}

func serveSamplesOf(s []serveSample) []latencySample {
	out := make([]latencySample, len(s))
	for i, x := range s {
		out[i] = latencySample{x.ms, x.traced}
	}
	return out
}

// overhead compares the traced half of the measured operations with the
// untraced half. A closed loop of c clients completes c / (mean latency)
// operations per second, so each half's rate follows from its latencies.
func (r *recorder) overhead(m metricSet, clients int, s []latencySample) {
	var on, off []float64
	for _, x := range s {
		if x.traced {
			on = append(on, x.ms)
		} else {
			off = append(off, x.ms)
		}
	}
	rate := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return float64(clients) * 1000 * float64(len(xs)) / sum
	}
	m.set("trace.overhead_ops_per_s", "ops/s", rate(on)-rate(off))
	m.set("trace.overhead_p50_ms", "ms", median(on)-median(off))
}

// spanMetrics derives the metrics read off the recorded spans.
func (r *recorder) spanMetrics(m metricSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := map[string][]spanRec{}
	for _, s := range r.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	durMs := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
		return out
	}
	perCount := func(name, key string, scale float64) []float64 {
		var out []float64
		for _, s := range byName[name] {
			if c := s.Counts[key]; c > 0 {
				out = append(out, float64(s.End-s.Start)*scale/float64(c))
			}
		}
		return out
	}
	counts := func(name, key string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.Counts[key]))
		}
		return out
	}
	for k := kMaxRS; k <= kMaxCRS; k++ {
		m.set("maxrs.query_ms."+k.String(), "ms", median(durMs(kindCalls[k])))
	}
	// self_ms: the Engine.MaxRS span minus the core solve of the same
	// replay — what the root package adds around the solver.
	var self []float64
	core := map[int64]spanRec{}
	for _, s := range byName["core.SolveObjectsScoped"] {
		core[s.Parent] = s
	}
	var predErr []float64
	for _, s := range byName["Engine.MaxRS"] {
		if c, ok := core[s.Parent]; ok && s.Parent != 0 {
			self = append(self, float64((s.End-s.Start)-(c.End-c.Start))/1e6)
		}
		if io := s.Counts["io"]; io > 0 {
			predErr = append(predErr, math.Abs(float64(s.Counts["predicted"])/float64(io)-1))
		}
	}
	m.set("maxrs.self_ms", "ms", median(self))
	m.set("maxrs.load_ms", "ms", median(durMs("Engine.LoadCSV")))
	ex := durMs("Engine.Explain")
	for i := range ex {
		ex[i] *= 1000
	}
	m.set("plan.explain_us", "us", median(ex))
	m.set("plan.prediction_error", "ratio", median(predErr))
	m.set("core.solve_ms", "ms", median(durMs("core.SolveObjectsScoped")))
	m.set("core.io_per_solve", "transfers", median(counts("core.SolveObjectsScoped", "io")))
	m.set("extsort.run_formation_ms", "ms", median(durMs("extsort.RunBuilder")))
	m.set("extsort.runs", "runs", median(counts("extsort.RunBuilder", "runs")))
	m.set("extsort.merge_ms", "ms", median(durMs("extsort.Merger")))
	m.set("sweep.slab_ms", "ms", median(durMs("sweep.Slab")))
	m.set("crs.approx_ms", "ms", median(durMs("crs.ApproxScoped")))
	m.set("em.write_us_per_block", "us", median(perCount("em.Writer", "blocks", 1e-3)))
	m.set("em.read_us_per_block", "us", median(perCount("em.Reader", "blocks", 1e-3)))
	m.set("codec.encode_us_per_block", "us", median(perCount("codec.Encode", "blocks", 1e-3)))
	m.set("codec.decode_us_per_block", "us", median(perCount("codec.Decode", "blocks", 1e-3)))
	m.set("codec.candidates_per_block", "codecs", float64(len(codec.DeltaFamily())))
	m.set("codec.top_winner_share", "ratio", median(r.winnerShares))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write stores the spans, with self times, as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].Self = selfTime(spans[i], children[spans[i].ID])
	}
	b, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{r.cfg.workload, r.cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is s's duration minus the union of its children's intervals
// (clipped to s), given children sorted by start.
func selfTime(s spanRec, children []spanRec) int64 {
	covered, end := int64(0), s.Start
	for _, c := range children {
		lo, hi := max(c.Start, end), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return s.End - s.Start - covered
}

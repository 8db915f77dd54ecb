package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"maxrs"
)

// inprocRun drives one in-process workload: a shared Engine queried by a
// closed loop of client goroutines.
type inprocRun struct {
	spec  inprocSpec
	cfg   config
	objs  []maxrs.Object
	csv   []byte // objs as LoadCSV reads them
	sched []op
	// want holds each (kind, side)'s oracle answer: the exact score, or
	// for MaxCRS the exact circular optimum the approximation is held to.
	want map[op]float64
	eng  *maxrs.Engine
	ds   *maxrs.Dataset
	// measuredPhys is set when the engine's store counts physical bytes
	// (a codec or mmap slot store) rather than deriving them.
	measuredPhys bool
	tr           tracing // nil when untraced
}

// sample is one measured query.
type sample struct {
	i             int // schedule index, also the trace id
	op            op
	ms            float64
	reads, writes uint64
	phys          uint64
	traced        bool
	err           error
}

// kindCalls names the Engine method each kind calls (also its span name).
var kindCalls = [...]string{"Engine.MaxRS", "Engine.TopK", "Engine.CountRS", "Engine.MinRS", "Engine.MaxCRS"}

func runInproc(ctx context.Context, spec inprocSpec, cfg config, tr tracing) (*outcome, error) {
	r := &inprocRun{
		spec: spec, cfg: cfg, tr: tr,
		objs:  spec.objects(cfg.seed),
		sched: spec.schedule(cfg.seed, scheduleLen),
	}
	r.csv = appendCSV(nil, r.objs)
	warm := cfg.warmup(spec.warmup)
	classes := r.classesUpTo(warm + cfg.ops)
	if err := r.computeOracles(ctx, classes); err != nil {
		return nil, err
	}
	defer func() {
		if r.eng != nil {
			_ = r.ds.Release()
			_ = r.eng.Close()
		}
	}()
	setup, err := r.setUp(ctx)
	if err != nil {
		return nil, err
	}

	res := &outcome{Metrics: metricSet{}, Extra: metricSet{}}
	query := func(traced bool) func(int) sample {
		return func(i int) sample { return r.query(ctx, i, traced && tracedOp(i)) }
	}
	warmSamples, _ := phase(ctx, spec.clients, 0, warm, 0, query(false))
	if tr != nil {
		tr.begin()
	}
	rss, err := watchRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	allocs := newAllocCounter()
	b0, o0 := allocs.read()
	samples, elapsed := phase(ctx, spec.clients, warm, cfg.ops, seconds(cfg.seconds), query(tr != nil))
	b1, o1 := allocs.read()
	peak, err := rss.finish()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("no operation completed")
	}

	all := append(warmSamples, samples...)
	for _, s := range all {
		checkInto(res, s.err == nil, "op %d (%v, side %g): %v", s.i, s.op.kind, spec.sides[s.op.side], s.err)
	}
	ioOf, physOf := r.classCosts(all, res)
	leaked := r.eng.BlocksInUse() - r.ds.Blocks()
	checkInto(res, leaked == 0, "leaked %d blocks", leaked)

	more, err := r.setUpAfter(ctx)
	if err != nil {
		return nil, err
	}
	setup = append(setup, more...)

	n := float64(len(samples))
	lat := make([]float64, len(samples))
	for k, s := range samples {
		lat[k] = s.ms
	}
	sorted := sortedCopy(lat)
	m := res.Metrics
	m.set("setup_s", "s", median(setup))
	m.set("ops_per_s", "ops/s", n/elapsed.Seconds())
	m.set("query_ms.p50", "ms", quantile(sorted, 0.5))
	m.set("query_ms.p90", "ms", quantile(sorted, 0.9))
	m.set("io_per_query", "transfers", r.periodMean(ioOf))
	m.set("phys_bytes_per_query", "bytes", r.periodMean(physOf))
	m.set("alloc_bytes_per_query", "bytes", float64(b1-b0)/n)
	m.set("allocs_per_query", "allocs", float64(o1-o0)/n)
	m.set("peak_rss_mb", "MiB", peak)
	res.Extra.set("samples", "ops", n)
	res.Extra.set("leaked_blocks", "blocks", float64(leaked))
	if tr != nil {
		layers, err := tr.inproc(ctx, r, samples)
		if err != nil {
			return nil, err
		}
		res.useLayers(layers)
	}
	return res, nil
}

// tracedOp picks the traced half of a traced run's operations. It splits
// by i mod 4 rather than by parity: the serve schedule's two mutations
// per period sit at positions of equal parity, and would otherwise all
// land in one half.
func tracedOp(i int) bool { return i%4 < 2 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// classesUpTo returns the distinct (kind, side) pairs the run can reach:
// the first n schedule entries in smoke mode, a whole period otherwise.
func (r *inprocRun) classesUpTo(n int) []op {
	src := r.spec.period()
	if r.cfg.ops > 0 {
		src = r.sched[:n]
	}
	seen := map[op]bool{}
	var out []op
	for _, o := range src {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// computeOracles solves every class once, untimed, with the in-memory
// plane sweep — a different algorithm than the external one measured.
func (r *inprocRun) computeOracles(ctx context.Context, classes []op) error {
	inMem := &maxrs.Options{Algorithm: maxrs.InMemory}
	variants := map[kind][]maxrs.Object{}
	variant := func(k kind) []maxrs.Object {
		if v, ok := variants[k]; ok {
			return v
		}
		v := make([]maxrs.Object, len(r.objs))
		for i, o := range r.objs {
			v[i] = o
			switch k {
			case kCountRS:
				v[i].Weight = 1
			case kMinRS:
				v[i].Weight = -o.Weight
			}
		}
		variants[k] = v
		return v
	}
	r.want = map[op]float64{}
	for _, o := range classes {
		side := r.spec.sides[o.side]
		switch o.kind {
		case kMaxRS, kTopK, kCountRS, kMinRS:
			objs := r.objs
			if o.kind == kCountRS || o.kind == kMinRS {
				objs = variant(o.kind)
			}
			res, err := maxrs.MaxRS(ctx, objs, side, side, inMem)
			if err != nil {
				return fmt.Errorf("oracle %v side %g: %w", o.kind, side, err)
			}
			r.want[o] = res.Score
			if o.kind == kMinRS {
				r.want[o] = -res.Score
			}
		case kMaxCRS:
			if side > r.spec.crsCheckMax {
				continue
			}
			res, err := maxrs.MaxCRSExact(r.objs, side)
			if err != nil {
				return fmt.Errorf("oracle maxcrs side %g: %w", side, err)
			}
			r.want[o] = res.Score
		}
	}
	return nil
}

// setUp times the set-ups that precede the measured phase (see
// config.setups), keeping the last engine for the run.
func (r *inprocRun) setUp(ctx context.Context) ([]float64, error) {
	untimed, before, _ := r.cfg.setups()
	var times []float64
	for rep := 0; rep < untimed+before; rep++ {
		if r.eng != nil {
			err := errors.Join(r.ds.Release(), r.eng.Close())
			r.eng, r.ds = nil, nil
			if err != nil {
				return nil, err
			}
		}
		eng, ds, secs, err := r.setUpOnce(ctx)
		if err != nil {
			return nil, err
		}
		if rep >= untimed {
			times = append(times, secs)
		}
		r.eng, r.ds = eng, ds
	}
	r.measuredPhys = r.eng.PhysIO().Measured
	if r.measuredPhys && r.spec.clients > 1 {
		return nil, errors.New("per-query physical bytes need a single client")
	}
	return times, nil
}

// setUpAfter times the set-ups that follow the measured phase, each on
// an engine of its own.
func (r *inprocRun) setUpAfter(ctx context.Context) ([]float64, error) {
	_, _, after := r.cfg.setups()
	var times []float64
	for rep := 0; rep < after; rep++ {
		eng, ds, secs, err := r.setUpOnce(ctx)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(ds.Release(), eng.Close()); err != nil {
			return nil, err
		}
		times = append(times, secs)
	}
	return times, nil
}

// setUpOnce creates an engine and loads the dataset, returning the
// seconds it took: NewEngine + LoadCSV, the way cmd/maxrs and maxrsd
// take data. A Load of the objects in memory takes about a millisecond,
// too short to time steadily beside the machine's jitter.
func (r *inprocRun) setUpOnce(ctx context.Context) (*maxrs.Engine, *maxrs.Dataset, float64, error) {
	opts := r.spec.opts
	if opts.OnDisk {
		opts.OnDiskDir = filepath.Join(r.cfg.work, "engine")
		if err := os.MkdirAll(opts.OnDiskDir, 0o755); err != nil {
			return nil, nil, 0, err
		}
	}
	runtime.GC() // no set-up pays for collecting its predecessor
	t0 := time.Now()
	eng, err := maxrs.NewEngine(&opts)
	if err != nil {
		return nil, nil, 0, err
	}
	var end func()
	if r.tr != nil {
		end = r.tr.span(-1, "Engine.LoadCSV")
	}
	ds, err := eng.LoadCSV(ctx, bytes.NewReader(r.csv))
	if end != nil {
		end()
	}
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, 0, errors.Join(err, eng.Close())
	}
	return eng, ds, secs, nil
}

// query runs schedule entry i and checks its answer.
func (r *inprocRun) query(ctx context.Context, i int, traced bool) sample {
	o := r.sched[i]
	s := sample{i: i, op: o, traced: traced}
	side := r.spec.sides[o.side]
	var end func()
	if traced {
		end = r.tr.span(int64(i), kindCalls[o.kind])
	}
	var phys0 uint64
	if r.measuredPhys {
		phys0 = r.eng.PhysIO().Bytes()
	}
	t0 := time.Now()
	var (
		got float64
		st  maxrs.QueryStats
		err error
	)
	switch o.kind {
	case kMaxRS:
		var res maxrs.Result
		res, err = r.eng.MaxRS(ctx, r.ds, side, side)
		got, st = res.Score, res.Stats
	case kTopK:
		var rs []maxrs.Result
		rs, err = r.eng.TopK(ctx, r.ds, side, side, topK)
		for _, res := range rs {
			st.Reads += res.Stats.Reads
			st.Writes += res.Stats.Writes
		}
		if err == nil && len(rs) == 0 {
			err = fmt.Errorf("TopK returned no result")
		} else if err == nil {
			got = rs[0].Score
		}
	case kCountRS:
		var res maxrs.Result
		res, err = r.eng.CountRS(ctx, r.ds, side, side)
		got, st = res.Score, res.Stats
	case kMinRS:
		var res maxrs.Result
		res, err = r.eng.MinRS(ctx, r.ds, side, side)
		got, st = res.Score, res.Stats
	case kMaxCRS:
		var res maxrs.CRSResult
		res, err = r.eng.MaxCRS(ctx, r.ds, side)
		got, st = res.Score, res.Stats
	}
	s.ms = ms(time.Since(t0))
	if end != nil {
		end()
	}
	s.reads, s.writes = st.Reads, st.Writes
	if r.measuredPhys {
		s.phys = r.eng.PhysIO().Bytes() - phys0
	} else {
		s.phys = st.Total() * uint64(r.blockSize())
	}
	if err == nil {
		err = r.checkAnswer(o, got)
	}
	s.err = err
	return s
}

func (r *inprocRun) blockSize() int {
	if b := r.spec.opts.BlockSize; b > 0 {
		return b
	}
	return 4096 // the engine's default B
}

// checkAnswer holds got to the oracle: equality for the exact kinds
// (integer weights keep every sum exact), and ¼·optimum ≤ got ≤ optimum
// for ApproxMaxCRS (Theorem 4).
func (r *inprocRun) checkAnswer(o op, got float64) error {
	key := o
	if o.kind == kTopK {
		key.kind = kMaxRS
	}
	want, ok := r.want[key]
	if !ok {
		if o.kind == kMaxCRS {
			return nil // beyond the exact oracle's reach
		}
		return fmt.Errorf("no oracle for %v", o)
	}
	if o.kind == kMaxCRS {
		if got < want/4 || got > want {
			return fmt.Errorf("MaxCRS score %g outside [¼·%g, %g]", got, want, want)
		}
		return nil
	}
	if got != want {
		return fmt.Errorf("score %g, oracle %g", got, want)
	}
	return nil
}

// classCosts checks that every repeat of a (kind, side) moved the same
// transfers and returns each class's transfers and physical bytes.
func (r *inprocRun) classCosts(samples []sample, res *outcome) (io, phys map[op]float64) {
	io, phys = map[op]float64{}, map[op]float64{}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		t := float64(s.reads + s.writes)
		if prev, ok := io[s.op]; ok && prev != t {
			checkInto(res, false, "%v side %g: %g transfers, earlier %g", s.op.kind, r.spec.sides[s.op.side], t, prev)
		}
		io[s.op] = t
		phys[s.op] = float64(s.phys)
	}
	return io, phys
}

// periodMean averages a per-class value over one schedule period, so the
// figure reflects the workload's mix, not which ops a window happened to
// catch.
func (r *inprocRun) periodMean(v map[op]float64) float64 {
	sum, n := 0.0, 0
	for _, o := range r.spec.period() {
		if x, ok := v[o]; ok {
			sum += x
			n++
		}
	}
	return sum / float64(n)
}

// checkInto records one operation or run-level check as attempted, and
// as failed with the formatted problem when !ok.
func checkInto(res *outcome, ok bool, format string, args ...any) {
	res.Attempted++
	if !ok {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
}

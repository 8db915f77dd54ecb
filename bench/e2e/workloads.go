package main

import (
	"fmt"

	"maxrs"
)

// The four workloads. Each fixes N relative to the memory budget M (not
// N alone), so the recursion depth and the resident/external regime —
// the things the program's cost depends on — stay what the workload
// names. README.md explains why each exists.
var workloadNames = []string{"exact-mem", "disk-codec", "resident-mix", "serve-mixed"}

// kind is a query kind of the public API.
type kind int

const (
	kMaxRS kind = iota
	kTopK
	kCountRS
	kMinRS
	kMaxCRS
)

var kindNames = [...]string{"maxrs", "topk", "countrs", "minrs", "maxcrs"}

func (k kind) String() string { return kindNames[k] }

// topK is the k of every TopK query.
const topK = 3

// op is one query of an in-process schedule: a kind and a side index.
type op struct {
	kind kind
	side int
}

// inprocSpec describes a workload that drives one in-process Engine.
type inprocSpec struct {
	opts    maxrs.Options
	objects func(seed int64) []maxrs.Object
	sides   []float64
	// kinds is one period of the kind pattern; sides rotate alongside it,
	// so one schedule period (lcm of the two lengths) holds every
	// (kind, side) pair the pattern reaches.
	kinds   []kind
	clients int
	warmup  int
	// crsCheckMax is the largest MaxCRS diameter checked against the
	// exact optimum; the exact oracle is too slow beyond it.
	crsCheckMax float64
}

func inprocSpecFor(name string) (inprocSpec, bool) {
	switch name {
	case "exact-mem":
		// Fig. 12's default point at scale 0.1: N/M and the one-level
		// recursion of the paper's setting are preserved.
		return inprocSpec{
			opts: maxrs.Options{BlockSize: 4096, Memory: 104857, Parallelism: 2},
			objects: func(seed int64) []maxrs.Object {
				return uniformSet(newRNG(seed, streamData), 25000, 4*25000, unitWeight)
			},
			sides:   []float64{90, 100, 110, 120},
			kinds:   []kind{kMaxRS},
			clients: 1,
			warmup:  4,
		}, true
	case "disk-codec":
		// NE's 256 KB buffer at scale 0.2: two recursion levels with
		// multi-pass merges, on the mmap slot store with delta codecs.
		// Flush policy: page cache with MS_ASYNC write-back, no fsync.
		return inprocSpec{
			opts: maxrs.Options{
				BlockSize: 4096, Memory: 52428, Parallelism: 2,
				OnDisk: true, Backend: maxrs.BackendMmap, Codec: maxrs.CodecDelta,
			},
			objects: func(seed int64) []maxrs.Object { return neLike(newRNG(seed, streamData), 25000) },
			sides:   []float64{900, 1000, 1100, 1200},
			kinds:   []kind{kMaxRS},
			clients: 1,
			warmup:  4,
		}, true
	case "resident-mix":
		// Fits the default M = 1 MiB: every query takes the resident
		// fast path, so per-query fixed cost is a visible share.
		return inprocSpec{
			opts:    maxrs.Options{Parallelism: 2},
			objects: func(seed int64) []maxrs.Object { return uxLike(newRNG(seed, streamData), 10000) },
			sides:   []float64{5000, 10000, 20000, 40000},
			kinds: []kind{kMaxRS, kMaxRS, kMaxRS, kMaxRS, kTopK, kTopK,
				kCountRS, kMinRS, kMaxCRS, kMaxCRS},
			clients:     2,
			warmup:      20,
			crsCheckMax: 20000,
		}, true
	}
	return inprocSpec{}, false
}

// period returns one schedule period in canonical order.
func (s inprocSpec) period() []op {
	n := lcm(len(s.kinds), len(s.sides))
	out := make([]op, n)
	for j := range out {
		out[j] = op{kind: s.kinds[j%len(s.kinds)], side: j % len(s.sides)}
	}
	return out
}

// schedule returns n ops: whole periods, each shuffled by the seed, so
// any window of the run sees the workload's mix in a seed-dependent
// order.
func (s inprocSpec) schedule(seed int64, n int) []op {
	r := newRNG(seed, streamSchedule)
	per := s.period()
	out := make([]op, 0, n+len(per))
	for len(out) < n {
		for _, j := range r.perm(len(per)) {
			out = append(out, per[j])
		}
	}
	return out[:n]
}

// serveSpec describes the workload that drives maxrsd over HTTP.
type serveSpec struct {
	objects func(seed int64) []maxrs.Object
	flags   []string
	clients int
	// Every period of the schedule holds the same mix: queries of the
	// given kinds in a seeded order, with mutations at fixed positions.
	// A window of the run then never depends on how a draw fell — with
	// random mixes the median moved between latency classes from run to
	// run. The mix also keeps each percentile inside one class: p50 in
	// the re-executions a mutation forces (hits stay below half of all
	// queries), p90 among the full solves of maxcrs and of maxrs
	// re-executions the delta path cannot answer (the rarer topk sits
	// above it).
	periodQueries []string
	insertAt      int // period position of the insert
	period        int // requests per period; the last is the delete
	// Inserts add insertBatch objects; a delete removes the oldest batch
	// still live, so one or two batches are always pending and queries
	// stay on the delta path. Inserted objects land in a strip just
	// north of the data space (new development beyond the mapped area),
	// where they cannot move an optimum: every re-execution a mutation
	// forces takes the delta path's combined answer. With inserts inside
	// the data space, whether one happened to land in a popular size's
	// optimal strip split seeds into two groups 25% apart in transfers
	// per request.
	insertBatch int
	// Query sides are drawn from sides with Zipf(zipfS) weights.
	sides []float64
	zipfS float64
}

func serveSpecFor(name string) (serveSpec, bool) {
	if name != "serve-mixed" {
		return serveSpec{}, false
	}
	queries := []string{"topk", "maxcrs", "maxcrs"}
	for len(queries) < 18 {
		queries = append(queries, "maxrs")
	}
	return serveSpec{
		objects:       func(seed int64) []maxrs.Object { return uxLike(newRNG(seed, streamData), 19499) },
		flags:         []string{"-workers", "2", "-parallel", "2"},
		clients:       2,
		periodQueries: queries,
		insertAt:      9,
		period:        20,
		insertBatch:   8,
		sides:         []float64{5000, 6000, 7000, 8000, 9000, 10000, 11000, 12000},
		zipfS:         1.2,
	}, true
}

// request is one step of the serve schedule.
type request struct {
	op      string // "maxrs", "topk", "maxcrs", "insert" or "delete"
	side    float64
	inserts []maxrs.Object
}

// warmup is the number of warm-up requests: an insert, then every side
// once — each first query of a side pays the base solve the delta path
// caches — and one topk and maxcrs.
func (s serveSpec) warmup() int { return 3 + len(s.sides) }

// schedule returns n requests: the warm-up, then whole periods.
func (s serveSpec) schedule(seed int64, n int) []request {
	r := newRNG(seed, streamSchedule)
	z := newZipf(s.zipfS, len(s.sides))
	insert := func() request {
		objs := uniformSet(r, s.insertBatch, 1e6, smallIntWeight)
		for i := range objs {
			objs[i].Y = 1.01e6 + objs[i].Y/25 // the strip [1.01e6, 1.05e6)
		}
		return request{op: "insert", inserts: objs}
	}
	out := []request{insert()}
	for _, side := range s.sides {
		out = append(out, request{op: "maxrs", side: side})
	}
	out = append(out, request{op: "topk", side: s.sides[0]}, request{op: "maxcrs", side: s.sides[0]})
	for len(out) < n {
		perm := r.perm(len(s.periodQueries))
		for pos := 0; pos < s.period; pos++ {
			switch pos {
			case s.insertAt:
				out = append(out, insert())
			case s.period - 1:
				out = append(out, request{op: "delete"})
			default:
				out = append(out, request{op: s.periodQueries[perm[0]], side: s.sides[z.draw(r)]})
				perm = perm[1:]
			}
		}
	}
	return out[:n]
}

// Stream ids keep the dataset and the schedule of one seed independent.
const (
	streamData uint64 = iota + 1
	streamSchedule
)

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

func checkWorkload(name string) error {
	for _, w := range workloadNames {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

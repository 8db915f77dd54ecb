// Package plan is the engine's decision layer: load-time dataset
// statistics, a calibrated cost model that predicts the block-transfer
// count of every execution strategy, and a chooser that picks
// algorithm × shards under the M budget.
//
// The EM layer counts block transfers deterministically, which makes the
// cost model exactly testable rather than merely plausible: for the
// strategies whose schedule is closed-form (a resident dataset scanned
// once) Estimate is bit-for-bit right and says so (Cost.Exact); for the
// recursive ExactMaxRS schedule, whose division boundaries and spanning
// populations are data-dependent, Estimate replays the real division and
// sharding rules over a small load-time sample of the x-distribution and
// scales the resulting counts — an expected-value simulation whose error
// against the measured counters is bounded by the calibration tests
// (DESIGN.md §12).
package plan

import (
	"math"
	"sort"

	"maxrs/internal/rec"
)

// sampleCap bounds the reservoir sample of x-coordinates kept per
// dataset (2048 float64s = 16 KB). The sample is the planner's picture
// of the x-distribution: division boundaries, fragment populations and
// shard balance are all replayed over it, so it must be big enough to
// resolve per-child event counts at two levels of a fan-out ~10
// recursion and small enough to be irrelevant next to the M budget.
const sampleCap = 2048

// Stats are the dataset statistics collected in the loader's existing
// streaming pass — no extra scan, no extra block transfers.
type Stats struct {
	N      int64 // object count
	Bytes  int64 // object-file bytes (N × record size)
	Blocks int64 // object-file blocks at the engine's block size

	MinX, MaxX float64 // extent
	MinY, MaxY float64
	MinW, MaxW float64 // weight range
	SumW       float64

	// Resident reports Bytes ≤ M at load time: the whole dataset fits
	// in the engine's memory budget, the regime where single-scan
	// strategies beat the external recursion outright.
	Resident bool

	// SampleX is a deterministic reservoir sample of object
	// x-coordinates, sorted ascending — the empirical x-distribution
	// the cost model simulates division and sharding against.
	SampleX []float64
}

// MeanW returns the mean object weight (0 for an empty dataset).
func (s Stats) MeanW() float64 {
	if s.N == 0 {
		return 0
	}
	return s.SumW / float64(s.N)
}

// Collector accumulates Stats record by record inside a loader pass.
type Collector struct {
	n          int64
	minX, maxX float64
	minY, maxY float64
	minW, maxW float64
	sumW       float64
	sample     []float64
	rng        uint64
}

// NewCollector returns an empty collector. The reservoir PRNG is seeded
// with a fixed constant so the sample — and therefore every plan — is a
// deterministic function of the input sequence.
func NewCollector() *Collector {
	return &Collector{
		minX: math.Inf(1), maxX: math.Inf(-1),
		minY: math.Inf(1), maxY: math.Inf(-1),
		minW: math.Inf(1), maxW: math.Inf(-1),
		sample: make([]float64, 0, sampleCap),
		rng:    0x9e3779b97f4a7c15,
	}
}

// next is splitmix64 — deterministic, fast, and plenty for reservoir
// index selection.
func (c *Collector) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add folds one object into the statistics (Algorithm R reservoir
// sampling for the x-coordinate).
func (c *Collector) Add(x, y, w float64) {
	c.n++
	c.minX = math.Min(c.minX, x)
	c.maxX = math.Max(c.maxX, x)
	c.minY = math.Min(c.minY, y)
	c.maxY = math.Max(c.maxY, y)
	c.minW = math.Min(c.minW, w)
	c.maxW = math.Max(c.maxW, w)
	c.sumW += w
	if len(c.sample) < sampleCap {
		c.sample = append(c.sample, x)
		return
	}
	if j := c.next() % uint64(c.n); j < sampleCap {
		c.sample[j] = x
	}
}

// Finalize seals the collector into Stats for an engine with the given
// block size and memory budget. The collector must not be reused.
func (c *Collector) Finalize(blockSize, memory int) Stats {
	sort.Float64s(c.sample)
	bytes := c.n * int64(rec.ObjectCodec{}.Size())
	st := Stats{
		N: c.n, Bytes: bytes, Blocks: ceilDiv(bytes, int64(blockSize)),
		MinX: c.minX, MaxX: c.maxX, MinY: c.minY, MaxY: c.maxY,
		MinW: c.minW, MaxW: c.maxW, SumW: c.sumW,
		Resident: bytes <= int64(memory),
		SampleX:  c.sample,
	}
	if c.n == 0 {
		st.MinX, st.MaxX, st.MinY, st.MaxY = 0, 0, 0, 0
		st.MinW, st.MaxW = 0, 0
	}
	return st
}

// Algorithm mirrors the public maxrs.Algorithm constants numerically
// (ExactMaxRS = 0, InMemory = 1); the package stays import-cycle-free
// by not naming them.
type Algorithm int

const (
	ExactMaxRS Algorithm = iota
	InMemory
)

func (a Algorithm) String() string {
	switch a {
	case ExactMaxRS:
		return "ExactMaxRS"
	case InMemory:
		return "InMemory"
	}
	return "Algorithm(?)"
}

// Settings carries everything besides the dataset that determines a
// strategy's transfer count: the EM geometry, the solver configuration
// and the query rectangle.
type Settings struct {
	B    int     // block size
	M    int     // memory budget
	W, H float64 // query rectangle (W doubles as the MaxCRS diameter)

	// NoShards excludes sharded candidates (MaxCRS, whose execution path
	// never shards).
	NoShards bool
	// SolverOnly restricts candidates to the ExactMaxRS solver (MaxCRS,
	// whose inner MaxRS call cannot be swapped for the in-memory sweep).
	SolverOnly bool
	// ExtraReads/ExtraWrites are kind-specific passes charged to every
	// candidate alike: the map pass of MinRS/CountRS (read + rewrite of
	// the object file), the candidate scan of MaxCRS.
	ExtraReads, ExtraWrites int64
	// DeltaPending is the dataset's buffered mutation count. > 0 adds
	// the informational combined base+delta row to the candidate table;
	// the chooser never picks it (the combined path is taken adaptively
	// at solve time when its soundness gates hold) and predictions stop
	// being Exact (the delta's work is data-dependent).
	DeltaPending int64
}

// Strategy is one executable point of the plan space.
type Strategy struct {
	Algorithm Algorithm
	Shards    int
}

// Cost is a predicted transfer count. Exact marks the strategies whose
// schedule is closed-form — the calibration tests hold those bit-for-bit
// and the rest to a documented tolerance (DESIGN.md §12).
type Cost struct {
	Reads, Writes int64
	Exact         bool
}

// Total returns reads + writes — the io/op figure strategies are ranked
// by.
func (c Cost) Total() int64 { return c.Reads + c.Writes }

// Candidate is one row of the plan's candidate table: a strategy, its
// predicted cost, and whether the chooser may pick it. Ineligible rows
// (strategies the execution rules forbid, with the reason in Note) are
// kept for visibility in explain output.
type Candidate struct {
	Strategy
	Cost     Cost
	Eligible bool
	Chosen   bool
	// Delta marks the informational combined base+delta row shown when
	// the dataset has buffered mutations. It is never Chosen: the solve
	// path decides per query whether the influence bound holds.
	Delta bool
	Note  string
}

// Choose enumerates the candidate table for the dataset and settings and
// returns the cheapest eligible strategy by predicted Total (ties go to
// the earlier, simpler row). Transfer counts are parallelism-invariant
// throughout the engine (DESIGN.md §6), so parallelism is not part of
// the choice — the caller keeps its configured worker count.
func Choose(st Stats, set Settings) (Strategy, []Candidate) {
	cands := Candidates(st, set)
	best := -1
	for i, c := range cands {
		if !c.Eligible {
			continue
		}
		if best < 0 || c.Cost.Total() < cands[best].Cost.Total() {
			best = i
		}
	}
	if best < 0 {
		// Defensive: the unsharded solver is always eligible.
		return Strategy{Algorithm: ExactMaxRS}, cands
	}
	cands[best].Chosen = true
	return cands[best].Strategy, cands
}

// shardGrid is the shard-count grid Choose considers. 1 is included for
// the candidate table (it isolates the partition-pass overhead) even
// though it can never beat 0.
var shardGrid = [...]int{0, 1, 2, 4, 8}

// Candidates builds the full candidate table, eligibility flags
// included, without choosing.
func Candidates(st Stats, set Settings) []Candidate {
	var cands []Candidate
	add := func(s Strategy, eligible bool, note string) {
		cands = append(cands, Candidate{
			Strategy: s,
			Cost:     Estimate(st, set, s),
			Eligible: eligible,
			Note:     note,
		})
	}
	if !set.SolverOnly {
		// InMemory always gets a row, so an explicit InMemory query finds
		// its own; residency decides eligibility and the note.
		if st.Resident {
			add(Strategy{Algorithm: InMemory}, true, "dataset fits in M: one scan")
		} else {
			add(Strategy{Algorithm: InMemory}, false, "dataset exceeds M: the in-memory sweep cannot hold it")
		}
	}
	for _, k := range shardGrid {
		if k > 0 && set.NoShards {
			continue
		}
		add(Strategy{Algorithm: ExactMaxRS, Shards: k}, true, "")
	}
	if set.DeltaPending > 0 {
		cands = append(cands, Candidate{
			Strategy: Strategy{Algorithm: ExactMaxRS},
			Delta:    true,
			Eligible: false,
			Note:     "combined base+delta path: taken adaptively when the influence bound holds",
		})
	}
	return cands
}

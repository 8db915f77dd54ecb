// Package plan is the engine's decision layer: load-time dataset
// statistics, a cost model that predicts the block-transfer count of
// every execution strategy, and a chooser that picks algorithm × shards
// under the M budget.
//
// The EM layer counts block transfers deterministically, which makes the
// cost model exactly testable rather than merely plausible. The InMemory
// schedule is closed-form (one scan of the object file) and Estimate
// says so (Cost.Exact). An ExactMaxRS row is priced on a scale model:
// the engine's own solve of a load-time sample of n objects, run on a
// private counting disk at block size B·n/N and memory M·n/N. Theorem 2's
// cost depends on N/B and M/B alone, and the model keeps both, so it
// costs what the full query costs; when the sample is the whole dataset
// the model is the query and the count is exact. DESIGN.md §12 gives the
// derivation and the measured calibration error.
package plan

import (
	"math"
	"slices"

	"maxrs/internal/rec"
)

// sampleMin is the smallest sample the collector keeps (2048 objects,
// 48 KB): the scale model's children must hold enough sample objects to
// divide like the real ones at two levels of a fan-out ~10 recursion.
const sampleMin = 2048

// eventSize is the piece-event record size. A block of the scale model
// must hold two events, so the sample keeps at least N·2·eventSize/B
// objects.
var eventSize = rec.PieceEventCodec{}.Size()

// sampleSize returns how many of n objects the sample keeps at block
// size b: max(sampleMin, ⌈n·2·eventSize/b⌉), at most n.
func sampleSize(n int64, b int) int64 {
	need := (n*int64(2*eventSize) + int64(b) - 1) / int64(b)
	return min(n, max(sampleMin, need))
}

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

	// Sample is a uniform random sample of the objects, in load order:
	// sampleSize(N, B) of them, all N when N ≤ 2048. It is the scale
	// model's dataset.
	Sample []rec.Object

	// model prices ExactMaxRS rows on Sample and memoizes them. Stats
	// derived from these (a dataset's effective statistics under a
	// pending delta) share it, so the memo lives exactly as long as the
	// base generation the sample was drawn from.
	model *scaleModel
}

// MeanW returns the mean object weight (0 for an empty dataset).
func (s Stats) MeanW() float64 {
	if s.N == 0 {
		return 0
	}
	return s.SumW / float64(s.N)
}

// keyed is one object the collector may still put in the sample, with
// its random key.
type keyed struct {
	key uint64
	obj rec.Object
}

// Collector accumulates Stats record by record inside a loader pass.
//
// Every object draws a random key, and the sample is the objects with
// the sampleSize(N, B) smallest keys — a uniform sample of a size known
// only at the end. The collector keeps, in load order, every object
// whose key is below a threshold tau. Whenever it holds 2·sampleMin
// objects it lowers tau to the sampleMin+1-th smallest key they hold,
// but never below keep, twice the rate ⌈N·2·eventSize/B⌉ needs, and
// drops the objects at or above it. So it holds the sampleMin smallest
// keys seen and, but for a vanishing chance, the ⌈N·2·eventSize/B⌉
// smallest too.
type Collector struct {
	blockSize, memory int

	n          int64
	minX, maxX float64
	minY, maxY float64
	minW, maxW float64
	sumW       float64

	keep uint64 // tau's floor
	tau  uint64
	kept []keyed
	keys []uint64 // scratch for cutKey
	rng  uint64
}

// NewCollector returns an empty collector for an engine with the given
// block size and memory budget. The key PRNG is seeded with a fixed
// constant so the sample — and therefore every plan — is a
// deterministic function of the input sequence.
func NewCollector(blockSize, memory int) *Collector {
	keep := uint64(math.MaxUint64)
	if rate := float64(4*eventSize) / float64(blockSize); rate < 1 {
		keep = uint64(math.Ldexp(rate, 64))
	}
	return &Collector{
		blockSize: blockSize, memory: memory,
		minX: math.Inf(1), maxX: math.Inf(-1),
		minY: math.Inf(1), maxY: math.Inf(-1),
		minW: math.Inf(1), maxW: math.Inf(-1),
		keep: keep, tau: math.MaxUint64,
		kept: make([]keyed, 0, 2*sampleMin),
		rng:  0x9e3779b97f4a7c15,
	}
}

// next is splitmix64 — deterministic, fast, and plenty for sample keys.
func (c *Collector) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add folds one object into the statistics.
func (c *Collector) Add(x, y, w float64) {
	c.minX, c.maxX = min(c.minX, x), max(c.maxX, x)
	c.minY, c.maxY = min(c.minY, y), max(c.maxY, y)
	c.minW, c.maxW = min(c.minW, w), max(c.maxW, w)
	c.sumW += w
	c.n++
	key := c.next()
	if key >= c.tau {
		return
	}
	c.kept = append(c.kept, keyed{key: key, obj: rec.Object{X: x, Y: y, W: w}})
	if len(c.kept) >= 2*sampleMin && c.tau > c.keep {
		c.tau = max(c.keep, c.cutKey(sampleMin))
		c.dropFrom(c.tau)
	}
}

// cutKey returns the k+1-th smallest kept key (k zero-based): exactly k
// kept keys lie below it, keys being distinct but for a vanishing
// chance. It is a quickselect whose pivot, the last key of the range,
// is as random as the keys themselves.
func (c *Collector) cutKey(k int) uint64 {
	keys := c.keys[:0]
	for _, o := range c.kept {
		keys = append(keys, o.key)
	}
	c.keys = keys
	lo, hi := 0, len(keys)-1
	for lo < hi {
		i := lo
		for j := lo; j < hi; j++ {
			if keys[j] < keys[hi] {
				keys[i], keys[j] = keys[j], keys[i]
				i++
			}
		}
		keys[i], keys[hi] = keys[hi], keys[i]
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return keys[i]
		}
	}
	return keys[k]
}

// dropFrom drops the kept objects whose key is tau or more, keeping the
// rest in load order.
func (c *Collector) dropFrom(tau uint64) {
	c.kept = slices.DeleteFunc(c.kept, func(o keyed) bool { return o.key >= tau })
}

// Finalize seals the collector into Stats. The collector must not be
// reused.
func (c *Collector) Finalize() Stats {
	if n := sampleSize(c.n, c.blockSize); int64(len(c.kept)) > n {
		c.dropFrom(c.cutKey(int(n)))
	}
	sample := make([]rec.Object, len(c.kept))
	for i, k := range c.kept {
		sample[i] = k.obj
	}
	bytes := c.n * int64(rec.ObjectCodec{}.Size())
	st := Stats{
		N: c.n, Bytes: bytes, Blocks: (bytes + int64(c.blockSize) - 1) / int64(c.blockSize),
		MinX: c.minX, MaxX: c.maxX, MinY: c.minY, MaxY: c.maxY,
		MinW: c.minW, MaxW: c.maxW, SumW: c.sumW,
		Resident: bytes <= int64(c.memory),
		Sample:   sample,
		model:    newScaleModel(sample, c.n, c.blockSize, c.memory),
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

// Settings carries everything besides the dataset and the EM geometry
// (which the Stats were collected for) that determines a strategy's
// transfer count: the query rectangle and the query kind's shape.
type Settings struct {
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
	// at solve time when its soundness gates hold) and ExactMaxRS
	// predictions stop being Exact: they price the base generation's
	// sample, and the delta's work is data-dependent.
	DeltaPending int64
}

// Strategy is one executable point of the plan space.
type Strategy struct {
	Algorithm Algorithm
	Shards    int
}

// Cost is a predicted transfer count. Exact marks a prediction that is
// the query's own schedule — InMemory's closed form, or an ExactMaxRS
// row priced on the whole dataset. The calibration tests hold those
// bit-for-bit and the rest to a documented tolerance (DESIGN.md §12).
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

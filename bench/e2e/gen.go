package main

import (
	"math"
	"strconv"

	"maxrs"
)

// The benchmark owns its inputs: these generators are deliberately not
// the program's (internal/workload), so no change to the program can
// change what the benchmark measures. Every value comes from a
// splitmix64 stream, whose output is fixed by its definition rather than
// by a library version; the golden hashes in e2e_test.go pin it.

// rng is a splitmix64 generator.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose) pair, so the
// dataset and the op schedule of one seed never share draws.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)}
	r.s ^= r.next() + stream*0x9e3779b97f4a7c15
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// norm returns a standard normal deviate (Box–Muller).
func (r *rng) norm() float64 {
	u1, u2 := r.float(), r.float()
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// perm returns a uniformly shuffled 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func unitWeight(*rng) float64 { return 1 }

// smallIntWeight draws an integer weight 1–10: integer sums stay exact in
// float64, so every oracle comparison can demand equality.
func smallIntWeight(r *rng) float64 { return float64(1 + r.intn(10)) }

// uniformSet returns n objects uniform over [0, extent]².
func uniformSet(r *rng, n int, extent float64, weight func(*rng) float64) []maxrs.Object {
	objs := make([]maxrs.Object, n)
	for i := range objs {
		objs[i] = maxrs.Object{X: r.float() * extent, Y: r.float() * extent, Weight: weight(r)}
	}
	return objs
}

// clusteredSet returns n objects over [0, extent]²: a share background of
// uniform points, the rest from nClusters elongated, rotated Gaussian
// clusters with skewed masses — the shape of settlement data, where a
// few dense clusters hold most of the weight.
func clusteredSet(r *rng, n, nClusters int, extent, spread, background float64, weight func(*rng) float64) []maxrs.Object {
	type cluster struct{ x, y, sx, sy, cos, sin, cum float64 }
	cs := make([]cluster, nClusters)
	total := 0.0
	for i := range cs {
		mass := 0.05 + r.float()*r.float()
		sx := extent * spread * (0.3 + r.float())
		rot := r.float() * math.Pi
		total += mass
		cs[i] = cluster{
			x: r.float() * extent, y: r.float() * extent,
			sx: sx, sy: sx * (0.15 + 0.5*r.float()),
			cos: math.Cos(rot), sin: math.Sin(rot), cum: total,
		}
	}
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), extent) }
	objs := make([]maxrs.Object, n)
	for i := range objs {
		if r.float() < background {
			objs[i] = maxrs.Object{X: r.float() * extent, Y: r.float() * extent, Weight: weight(r)}
			continue
		}
		pick := r.float() * total
		c := cs[len(cs)-1]
		for _, cand := range cs {
			if pick < cand.cum {
				c = cand
				break
			}
		}
		dx, dy := r.norm()*c.sx, r.norm()*c.sy
		objs[i] = maxrs.Object{
			X:      clamp(c.x + dx*c.cos - dy*c.sin),
			Y:      clamp(c.y + dx*c.sin + dy*c.cos),
			Weight: weight(r),
		}
	}
	return objs
}

// uxLike is a stand-in for the UX point set (USA and Mexico): sparse,
// wide-area clusters over [0, 10⁶]².
func uxLike(r *rng, n int) []maxrs.Object {
	return clusteredSet(r, n, 25, 1e6, 0.08, 0.25, smallIntWeight)
}

// neLike is a stand-in for the NE point set (North East USA): dense,
// narrow clusters over [0, 10⁶]².
func neLike(r *rng, n int) []maxrs.Object {
	return clusteredSet(r, n, 60, 1e6, 0.03, 0.10, unitWeight)
}

// zipf draws from {0, …, n-1} with P(k) ∝ (k+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rng) int {
	u := r.float()
	for k, c := range z.cdf {
		if u < c {
			return k
		}
	}
	return len(z.cdf) - 1
}

// appendCSV appends objs in the "x,y,weight" lines LoadCSV and maxrsd
// read; 'g'/-1 formatting round-trips every float64 exactly.
func appendCSV(dst []byte, objs []maxrs.Object) []byte {
	for _, o := range objs {
		dst = strconv.AppendFloat(dst, o.X, 'g', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, o.Y, 'g', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, o.Weight, 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// Package rng provides seeded, splittable random streams and the
// distribution samplers used by the EDM workload generators.
//
// Reproducibility contract: every stream is derived from a 64-bit seed
// through SplitMix64, so a simulation seeded with S always observes the
// same random sequence regardless of how many sibling streams exist or
// in which order they are drawn from.
package rng

import (
	"math"
	"math/rand"
)

// splitmix64 advances a SplitMix64 state and returns the next value.
// It is the standard seeding function recommended for xoshiro-family
// generators and serves here to derive independent child seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random stream. It wraps math/rand.Rand with a
// splittable seed so that subsystems (per-SSD, per-client, per-generator)
// can each own an independent stream derived from one experiment seed.
type Stream struct {
	r     *rand.Rand
	seed  uint64
	draws uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Split derives an independent child stream. The child's sequence is a
// pure function of (parent seed, label), so adding more Split calls with
// other labels never perturbs existing streams.
func (s *Stream) Split(label uint64) *Stream {
	state := s.seed ^ 0xd1b54a32d192ed03
	_ = splitmix64(&state)
	state ^= label * 0x2545f4914f6cdd1d
	child := splitmix64(&state)
	return New(child)
}

// Seed returns the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// State returns the stream's seed and the number of top-level draws
// made so far. Because a stream's sequence is a pure function of its
// seed, (seed, draws) fully identifies the stream's position — two
// streams with equal State have byte-identical futures. Checkpoint
// verification compares these pairs to pin RNG alignment on resume.
func (s *Stream) State() (seed, draws uint64) { return s.seed, s.draws }

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { s.draws++; return s.r.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { s.draws++; return s.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 { s.draws++; return s.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 { s.draws++; return s.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { s.draws++; return s.r.NormFloat64() }

// UniformRange returns a uniform int64 in [lo, hi]. It panics if hi < lo.
func (s *Stream) UniformRange(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: UniformRange with hi < lo")
	}
	return lo + s.Int63n(hi-lo+1)
}

// LognormalMean samples a lognormal variate whose distribution has the
// requested mean and coefficient of variation cv (= stddev/mean). This is
// the natural parameterisation for "average file size X, heavy tail".
func (s *Stream) LognormalMean(mean, cv float64) float64 {
	if mean <= 0 {
		panic("rng: LognormalMean with non-positive mean")
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*s.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { s.draws++; return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.draws++; s.r.Shuffle(n, swap) }

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1+q)^skew — the Zipf–Mandelbrot law. The offset q flattens
// the head: q=0 is classic Zipf (the single hottest item can carry >10%
// of the mass), while q≈10–30 spreads the head heat over tens of items,
// matching measured file-popularity curves. The CDF is precomputed so
// sampling is O(log n); with the file counts in Table I (≤ ~27k) the
// table costs are negligible.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a classic Zipf sampler (offset 0) over n ranks with the
// given skew (s > 0; s≈1 is the heavy skew reported for NFS workloads).
func NewZipf(n int, skew float64) *Zipf { return NewZipfMandelbrot(n, skew, 0) }

// NewZipfMandelbrot builds a Zipf–Mandelbrot sampler with head offset
// q >= 0.
func NewZipfMandelbrot(n int, skew, q float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	if skew <= 0 {
		panic("rng: NewZipf with skew <= 0")
	}
	if q < 0 {
		panic("rng: NewZipfMandelbrot with q < 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1)+q, skew)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against FP round-off
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, N) from stream s.
func (z *Zipf) Sample(s *Stream) int {
	u := s.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ProbAt returns the probability mass of rank i (for tests).
func (z *Zipf) ProbAt(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

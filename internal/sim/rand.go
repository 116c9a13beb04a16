package sim

// Rand is a small deterministic pseudo-random source (xorshift64*), used
// for loss injection and workload jitter. math/rand would work too, but a
// self-contained generator keeps simulation results bit-stable across Go
// releases, which matters for golden-value protocol tests.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero is remapped, since a
// zero xorshift state is absorbing).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return Unit(r.Uint64()) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// mix64 is the SplitMix64 finalizer: a bijection on 64 bits whose every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Hash folds a seed and a key tuple into 64 pseudo-random bits. It is
// counter-based randomness: the result is a pure function of (seed,
// keys), so a draw keyed by simulation state comes out the same no matter
// in which order — or on which goroutine — the draws are made.
func Hash(seed uint64, keys ...uint64) uint64 {
	h := mix64(seed)
	for _, k := range keys {
		h = mix64(h ^ mix64(k+0x9E3779B97F4A7C15))
	}
	return h
}

// Unit maps 64 random bits to a uniform value in [0, 1).
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

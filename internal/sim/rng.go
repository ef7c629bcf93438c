package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). The simulator cannot use math/rand's global source because
// experiment runs must be reproducible independent of package initialization
// order; each component derives its own RNG from the run seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant, since the xorshift state must never be zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Fork derives an independent stream labelled by id. Streams forked with
// distinct ids from the same parent are decorrelated.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(Mix64(r.state ^ Mix64(id+0x632BE59BD9B4E019)))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Mix64 is the SplitMix64 finalizer; it is also used by the H3-style hash
// families in the metadata tables.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

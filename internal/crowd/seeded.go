package crowd

// seededSource is a rand.Source64 whose output equals
// rand.NewSource(seed) draw for draw, but whose Seed is O(1).
//
// math/rand seeds its additive lagged-Fibonacci register by running the
// Lehmer generator x → 48271·x mod (2³¹−1) from the seed: twenty warm-up
// steps, then three steps per state word, XORed with rngCooked. Since
// the k-th Lehmer value is 48271^k·x₀ mod (2³¹−1), state word i needs
// only three precomputed powers and x₀, so each word is built on its
// first read instead of all 607 up front. A simulated worker answering
// one microtask reads a handful of words, while filling the whole
// register costs ~12 µs, far more than the answer itself.
//
// The dependence is on math/rand's seeded stream, which Go 1
// compatibility freezes; TestSeededSourceMatchesMathRand and
// FuzzSeededSource compare the two on every toolchain CI runs.
//
// A seededSource is not safe for concurrent use.
type seededSource struct {
	tap, feed int
	x0        uint64
	built     [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is materialized
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lehmerA is math/rand's seedrand multiplier.
	lehmerA = 48271
	// seedWarmup is the number of Lehmer steps math/rand discards before
	// filling state word 0.
	seedWarmup = 20
)

// lehmerPow[i] holds 48271^(seedWarmup+1+3i+c) mod (2³¹−1) for c = 0, 1,
// 2: the multipliers taking x₀ to the three Lehmer values state word i
// is built from.
var lehmerPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < seedWarmup; k++ {
		x = x * lehmerA % int32max
	}
	for i := range p {
		for c := range p[i] {
			x = x * lehmerA % int32max
			p[i][c] = x
		}
	}
	return p
}()

func newSeededSource(seed int64) *seededSource {
	s := new(seededSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source with math/rand's seed normalization.
func (s *seededSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.built = [len(s.built)]uint64{}
}

// word returns state word i, building it on first read.
func (s *seededSource) word(i int) int64 {
	if s.built[i>>6]&(1<<(uint(i)&63)) == 0 {
		p := &lehmerPow[i]
		u := int64(p[0]*s.x0%int32max) << 40
		u ^= int64(p[1]*s.x0%int32max) << 20
		u ^= int64(p[2] * s.x0 % int32max)
		s.vec[i] = u ^ rngCooked[i]
		s.built[i>>6] |= 1 << (uint(i) & 63)
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64: math/rand's feedback step.
func (s *seededSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

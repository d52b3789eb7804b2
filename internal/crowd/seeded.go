package crowd

// seededSource is a rand.Source64 whose output equals
// rand.NewSource(seed) draw for draw, but whose Seed is O(1) and whose
// state is its own outputs, built up as they are drawn.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register. Draw d (counting from 1) returns F + T, where F is
// the register word under the feed cursor and T the word under the tap
// cursor, and the sum overwrites the feed word. Seeding fills the
// register by running the Lehmer generator x → 48271·x mod (2³¹−1) from
// the seed: twenty warm-up steps, then three steps per word, XORed with
// rngCooked. Two facts make the register unnecessary:
//
//   - The k-th Lehmer value is 48271^k·x₀ mod (2³¹−1), so any seed word
//     can be built on demand from precomputed powers and x₀.
//   - Every word the feedback step reads is a seed word or an earlier
//     output. The tap reads output d−273 from draw 274 on, and the feed
//     reads output d−607 from draw 608 on; before that they read seed
//     words, each exactly where math/rand's seeding would have put it.
//
// So draws 1–334 build their feed word from the seed, draws 1–273 build
// their tap word too, draws 335–607 read as their feed word the tap word
// draw d−334 built (kept in the ring once it is full-size, rebuilt
// before that; see firstLap), and every later read is an earlier output.
// The state is a ring of outputs: output d lives in ring slot
// (d−1) mod 607, which is also where output d−607, draw d's feed word,
// lived. Outputs are computed in blocks (refill) and handed out one per
// call. The ring holds 64 words until the source has computed 64
// outputs and 607 from then on, so a simulated worker answering one
// microtask computes a couple of outputs and a pair that draws a few
// dozen values holds 64 words, where math/rand fills 4.9 KB for ~12 µs
// before the first draw.
//
// The dependence is on math/rand's seeded stream, which Go 1
// compatibility freezes; TestSeededSourceMatchesMathRand and
// FuzzSeededSource compare the two on every toolchain CI runs.
//
// A seededSource is not safe for concurrent use.
type seededSource struct {
	x0 uint64 // the normalized seed: the Lehmer stream's start
	// ring[next:ready] are computed outputs not yet handed out; made
	// counts the outputs computed since Seed, up to rngLen, after which
	// every refill is a ring update.
	next, ready, made int
	// kept is the first output whose tap word the first lap stored for
	// reuse as output n+334's feed word; rngTap when none are. Only a
	// full-size ring has room for them.
	kept int
	ring []int64
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
	// ringHead is the ring's first capacity: one batch of 30 two-uniform
	// microtasks fits. It grows to rngLen at once, so that from then on
	// the tap words of the first lap are kept for the feed.
	ringHead = 64
	// ringBlock bounds how many outputs one refill computes ahead.
	ringBlock = 64
)

// lehmerPow[i] holds 48271^(seedWarmup+1+3i+c) mod (2³¹−1) for c = 0, 1,
// 2: the multipliers taking x₀ to the three Lehmer values seed word i is
// built from. Three independent products keep a build off a chain of
// dependent multiplications.
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

// Seed implements rand.Source with math/rand's seed normalization. It
// keeps the ring's capacity, so a re-seeded source allocates nothing.
func (s *seededSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.next, s.ready, s.made = 0, 0, 0
	s.kept = rngTap
	if cap(s.ring) == rngLen {
		s.kept = 0
	}
	s.ring = s.ring[:0]
}

// modLehmer reduces x < 2⁶² modulo the Mersenne prime 2³¹−1 by folding
// the high bits onto the low ones twice. For a product of two nonzero
// residues, the only inputs it sees, the result is already in [1, 2³¹−2].
func modLehmer(x uint64) uint64 {
	x = x&int32max + x>>31
	return x&int32max + x>>31
}

// seedWord returns word i of the register seeded from x0: three
// consecutive Lehmer values, shifted and XORed as math/rand's seeding
// does, then XORed with rngCooked[i].
func seedWord(x0 uint64, i int) int64 {
	p := &lehmerPow[i]
	return int64(modLehmer(p[0]*x0))<<40 ^ int64(modLehmer(p[1]*x0))<<20 ^
		int64(modLehmer(p[2]*x0)) ^ rngCooked[i]
}

// Uint64 implements rand.Source64: it hands out the next computed
// output, refilling the ring when none is left. It inlines into Int63,
// through which every histogram rating and normal variate comes.
func (s *seededSource) Uint64() uint64 {
	if s.next == s.ready {
		s.refill()
	}
	s.next++
	return uint64(s.ring[s.next-1])
}

// Int63 implements rand.Source.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// refill computes the next block of outputs into the ring: during the
// first lap a block that doubles from 2 up to ringBlock, so a source
// that answers one microtask computes almost nothing ahead, and after it
// ringBlock ring updates, or up to the ring's end.
func (s *seededSource) refill() {
	if s.made < rngLen {
		s.firstLap()
		return
	}
	if s.next == rngLen {
		s.next = 0
	}
	from := s.next
	to := min(from+ringBlock, rngLen)
	ring := s.ring[:rngLen]
	// Slot i holds output d−607 and becomes output d; output d−273 sits
	// 334 slots on, or 273 back once that wraps.
	for i := from; i < min(to, rngTap); i++ {
		ring[i] += ring[i+rngLen-rngTap]
	}
	for i := max(from, rngTap); i < to; i++ {
		ring[i] += ring[i-rngTap]
	}
	s.ready = to
}

// firstLap computes outputs made+1 … made+block, all within draws 1–607.
// The feed cursor starts at word 333 and runs down through 0 to 606; the
// tap cursor starts at word 606 and reaches words the feed has
// overwritten, earlier outputs, at draw 274. Words 606 down to 334 are
// read twice, as the tap word of output n and the feed word of output
// n+334: on a full-size ring the first read leaves the word in slot
// n+334, where output n+334 will read it. A whole lap builds 607 words
// on a re-seeded full-size ring and 671 on a fresh one, whose first 64
// tap words predate the growth, where rebuilding every word read twice
// made 880.
func (s *seededSource) firstLap() {
	const feedWrap = rngLen - rngTap // output 334's feed word is word 606
	from := s.made
	to := min(from+min(max(from, 2), ringBlock), rngLen)
	if to > cap(s.ring) {
		c := ringHead
		if cap(s.ring) > 0 {
			c, s.kept = rngLen, from
		}
		grown := make([]int64, from, c)
		copy(grown, s.ring)
		s.ring = grown
	}
	ring, x0 := s.ring[:to], s.x0
	// Feed words: 333 down to 0, then 606 down to 334 unless kept.
	for n := from; n < min(to, feedWrap); n++ {
		ring[n] = seedWord(x0, feedWrap-1-n)
	}
	for n := max(from, feedWrap); n < min(to, feedWrap+s.kept); n++ {
		ring[n] = seedWord(x0, rngLen+feedWrap-1-n)
	}
	// Tap words 606 down to 334, kept in slot n+feedWrap from s.kept on.
	for n := from; n < min(to, rngTap, s.kept); n++ {
		ring[n] += seedWord(x0, rngLen-1-n)
	}
	if n0, n1 := max(from, s.kept), min(to, rngTap); n0 < n1 {
		keep := s.ring[feedWrap:rngLen]
		for n := n0; n < n1; n++ {
			t := seedWord(x0, rngLen-1-n)
			ring[n] += t
			keep[n] = t
		}
	}
	for n := max(from, rngTap); n < to; n++ {
		ring[n] += ring[n-rngTap]
	}
	s.ring = ring
	s.made, s.ready = to, to
}

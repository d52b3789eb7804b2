package crowd

import (
	"math"
	"math/rand"
	"testing"
)

// seededDraws is enough draws to wrap the 607-word register twice, so
// words rebuilt by the feedback step are read back as well as fresh ones.
const seededDraws = 1500

// checkSeededStream compares got against rand.NewSource(seed) over
// seededDraws values, alternating Uint64 and Int63 the way rand.Rand's
// methods mix them.
func checkSeededStream(t testing.TB, got *seededSource, seed int64) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for d := 0; d < seededDraws; d++ {
		if d%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, d, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, d, g, w)
		}
	}
}

// TestSeededSourceMatchesMathRand pins the O(1)-seeded source to
// math/rand's seeded stream: edge seeds (zero, negative, the modulus and
// its multiples, the int64 extremes) and thousands of random ones, each
// on a fresh source and on one re-seeded in place after a long run.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, -1, 1, 89482311, -89482311,
		int32max, 2 * int32max, -int32max, 7 * int32max, int32max + 1, int32max - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	gen := rand.New(rand.NewSource(20240607))
	for i := 0; i < 2048; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	reused := newSeededSource(12345)
	for _, seed := range seeds {
		checkSeededStream(t, newSeededSource(seed), seed)
		// reused carries the previous seed's fully materialized register;
		// re-seeding must forget all of it.
		reused.Seed(seed)
		checkSeededStream(t, reused, seed)
	}
}

// FuzzSeededSource searches for a seed (and a re-seed after a prefix of
// draws) where the O(1)-seeded source leaves math/rand's stream.
func FuzzSeededSource(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(0))
	f.Add(int64(-1), int64(math.MinInt64), uint16(606))
	f.Add(int64(int32max), int64(math.MaxInt64), uint16(1214))
	f.Fuzz(func(t *testing.T, first, second int64, prefix uint16) {
		s := newSeededSource(first)
		checkSeededStream(t, s, first)
		for d := 0; d < int(prefix); d++ {
			s.Uint64()
		}
		s.Seed(second)
		checkSeededStream(t, s, second)
	})
}

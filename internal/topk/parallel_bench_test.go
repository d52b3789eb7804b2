package topk

import (
	"math/rand"
	"testing"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
)

// slowOracle models a crowd platform with a fixed round-trip latency per
// batch exchange: posting a batch of microtasks and collecting the answers
// blocks the calling worker, exactly like a real platform integration. The
// wall-clock win of the comparison-wave worker pool comes from overlapping
// those waits, so it shows even on a single-CPU machine.
type slowOracle struct {
	n     int
	delay time.Duration
}

func (o slowOracle) NumItems() int { return o.n }

func (o slowOracle) sample(rng *rand.Rand, i, j int) float64 {
	v := float64(j-i)/float64(o.n) + rng.NormFloat64()*0.3
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

func (o slowOracle) Preference(rng *rand.Rand, i, j int) float64 {
	time.Sleep(o.delay)
	return o.sample(rng, i, j)
}

// Preferences implements crowd.BatchOracle: one round trip per batch.
func (o slowOracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	time.Sleep(o.delay)
	for t := range dst {
		dst[t] = o.sample(rng, i, j)
	}
}

// benchCompareAll measures one full flat-plan batch — 200 pairs of a
// 60-item instance racing to conclusion in waves — at the given pool bound.
func benchCompareAll(b *testing.B, parallelism int) {
	b.Helper()
	const n = 60
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < i+5 && j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for it := 0; it < b.N; it++ {
		eng := crowd.NewEngine(slowOracle{n: n, delay: 200 * time.Microsecond},
			rand.New(rand.NewSource(int64(it+1))))
		r := compare.NewRunner(eng, compare.NewStudent(0.05),
			compare.Params{B: 300, I: 30, Step: 30, Parallelism: parallelism})
		drive(r, newFlatPlan(pairs))
	}
}

// BenchmarkCompareAllParallel contrasts sequential waves with worker pools
// of 4 and 16. The pool bound is deliberately explicit rather than
// GOMAXPROCS: workers spend their time blocked on the platform round trip,
// so the pool pays off beyond the CPU count (and on single-CPU machines).
func BenchmarkCompareAllParallel(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchCompareAll(b, 1) })
	b.Run("pool4", func(b *testing.B) { benchCompareAll(b, 4) })
	b.Run("pool16", func(b *testing.B) { benchCompareAll(b, 16) })
}

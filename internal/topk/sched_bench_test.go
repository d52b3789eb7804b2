package topk

import (
	"math/rand"
	"testing"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/sched"
)

// stragglerOracle simulates crowd latency: every microtask blocks its
// worker for fast, except the straggler pair, whose workers take slow per
// answer. Fast pairs are near-ties (they run their comparison to the
// budget, many rounds); the straggler is decisive (one round of very late
// answers) — the one-late-batch-stalls-the-wave shape of §5.5.
type stragglerOracle struct {
	n          int
	slowI      int
	slowJ      int
	fast, slow time.Duration
}

func (s stragglerOracle) NumItems() int { return s.n }

func (s stragglerOracle) Preference(rng *rand.Rand, i, j int) float64 {
	if (i == s.slowI && j == s.slowJ) || (i == s.slowJ && j == s.slowI) {
		time.Sleep(s.slow)
		v := 0.85 + 0.1*rng.Float64() // decisive: concluded in one batch
		if i == s.slowJ {
			return -v
		}
		return v
	}
	time.Sleep(s.fast)
	// Near-tie with antisymmetric drift: runs to the per-pair budget.
	v := 0.001*float64(j-i) + 0.9*(2*rng.Float64()-1)
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return v
}

// BenchmarkSchedulerStraggler measures what the async scheduler exists
// for: a flat batch of 200 pairs in which one pair's crowd answers come
// back two orders of magnitude later than everyone else's. In wave mode
// the first round drains behind the straggler while the rest of the pool
// idles, and the remaining rounds of the near-tie pairs only start after
// that barrier; in async mode every decided or resubmitted chain keeps
// the workers fed, so the straggler's batch overlaps the other pairs'
// whole budget. Besides wall-clock time per batch it reports pool
// utilization — busyNs/(wall × workers) — as the "util" metric that
// perfcheck gates on (async must beat wave).
func BenchmarkSchedulerStraggler(b *testing.B) {
	const (
		pairs   = 200
		workers = 8
		fast    = 50 * time.Microsecond
		slow    = 100 * time.Millisecond
	)
	for _, mode := range []struct {
		name  string
		async bool
	}{{"wave", false}, {"async", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var busy, wall int64
			for i := 0; i < b.N; i++ {
				o := stragglerOracle{n: 2 * pairs, slowI: 0, slowJ: pairs, fast: fast, slow: slow}
				eng := crowd.NewEngine(o, rand.New(rand.NewSource(int64(i+1))))
				r := compare.NewRunner(eng, compare.NewStudent(0.05), compare.Params{
					B: 100, I: 20, Step: 20, Parallelism: workers, Async: mode.async,
				})
				r.Sched().SetInstruments(sched.NewInstruments(obs.NewRegistry())) // BusyNs counts only when wired
				reqs := make([][2]int, pairs)
				for t := 0; t < pairs; t++ {
					reqs[t] = [2]int{t, t + pairs}
				}
				start := time.Now()
				drive(r, newFlatPlan(reqs))
				wall += time.Since(start).Nanoseconds()
				busy += r.Sched().BusyNs()
			}
			if wall > 0 {
				b.ReportMetric(float64(busy)/(float64(wall)*workers), "util")
			}
		})
	}
}

package topk

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

// runnerAt builds a runner over a fresh synthetic dataset with the given
// worker-pool bound; everything else matches noisyRunner.
func runnerAt(n int, noise float64, seed int64, parallelism int) *compare.Runner {
	src := dataset.NewSynthetic(n, noise, seed)
	eng := crowd.NewEngine(src, rand.New(rand.NewSource(seed+2000)))
	return compare.NewRunner(eng, compare.NewStudent(0.05),
		compare.Params{B: 300, I: 30, Step: 30, Parallelism: parallelism})
}

// TestCompareAllParallelEquivalence is the core determinism contract of the
// concurrent engine: one flat plan driven over the same pair list — duplicates, both
// orientations and identical-item pairs included — returns byte-identical
// outcomes, cost and latency whether waves run on one goroutine or eight.
func TestCompareAllParallelEquivalence(t *testing.T) {
	const n = 30
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < i+5 && j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
			if j%2 == 0 {
				pairs = append(pairs, [2]int{j, i}) // flipped duplicate
			}
		}
	}
	pairs = append(pairs, [2]int{4, 4}, [2]int{0, 1}) // self pair + plain duplicate

	for _, seed := range []int64{501, 502, 503} {
		r1 := runnerAt(n, 0.25, seed, 1)
		r8 := runnerAt(n, 0.25, seed, 8)
		p1, p8 := newFlatPlan(pairs), newFlatPlan(pairs)
		drive(r1, p1)
		drive(r8, p8)
		out1, out8 := p1.out, p8.out
		if !reflect.DeepEqual(out1, out8) {
			t.Errorf("seed %d: outcomes diverged\n p=1: %v\n p=8: %v", seed, out1, out8)
		}
		e1, e8 := r1.Engine(), r8.Engine()
		if e1.TMC() != e8.TMC() || e1.Rounds() != e8.Rounds() {
			t.Errorf("seed %d: accounting diverged: TMC %d vs %d, rounds %d vs %d",
				seed, e1.TMC(), e8.TMC(), e1.Rounds(), e8.Rounds())
		}
		for _, p := range pairs {
			if p[0] == p[1] {
				continue
			}
			if v1, v8 := e1.View(p[0], p[1]), e8.View(p[0], p[1]); v1 != v8 {
				t.Errorf("seed %d: pair %v bags diverged: %+v vs %+v", seed, p, v1, v8)
			}
		}
	}
}

// TestAlgorithmsParallelEquivalence runs every confidence-aware algorithm
// end to end at Parallelism 1 and 8 over two synthetic datasets and several
// k: the full Result — answer, cost, latency — must be identical.
func TestAlgorithmsParallelEquivalence(t *testing.T) {
	datasets := []struct {
		n     int
		noise float64
	}{
		{40, 0.2},
		{70, 0.35},
	}
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for _, d := range datasets {
				for _, k := range []int{3, 8} {
					seed := int64(600 + 10*d.n + k)
					seq := Run(alg, runnerAt(d.n, d.noise, seed, 1), k)
					par := Run(alg, runnerAt(d.n, d.noise, seed, 8), k)
					if !reflect.DeepEqual(seq, par) {
						t.Errorf("n=%d k=%d: results diverged\n p=1: %+v\n p=8: %+v", d.n, k, seq, par)
					}
				}
			}
		})
	}
}

// TestPartitionAsyncMatchesDeterministic pins the async partition to the
// deterministic one: chains racing on eight workers classify the
// same items, upgrade the reference at the same point and return the
// same lists in the same order, whatever the interleaving. Async buys
// every step deterministic mode buys, plus at most one stale step per
// racing item at each reference upgrade.
func TestPartitionAsyncMatchesDeterministic(t *testing.T) {
	const n, k, step = 40, 5, 30
	upgrades := 0
	for seed := int64(901); seed <= 908; seed++ {
		src := dataset.NewSynthetic(n, 0.3, seed)
		ref := dataset.Order(src)[3*k]
		at := func(parallelism int, async bool) (partitionResult, int64) {
			eng := crowd.NewEngine(src, rand.New(rand.NewSource(seed+2000)))
			r := compare.NewRunner(eng, compare.NewStudent(0.05),
				compare.Params{B: 300, I: 30, Step: step, Parallelism: parallelism, Async: async})
			return partition(r, allItems(n), k, ref, 2), eng.TMC()
		}
		want, wantTMC := at(1, false)
		upgrades += want.refChanges
		maxTMC := wantTMC + int64(want.refChanges*(n-1)*step)
		for rep := 0; rep < 5; rep++ {
			got, tmc := at(8, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d rep %d: async partition diverged\n async: %+v\n det:   %+v", seed, rep, got, want)
			}
			if tmc < wantTMC || tmc > maxTMC {
				t.Fatalf("seed %d rep %d: async bought %d microtasks, want %d to %d", seed, rep, tmc, wantTMC, maxTMC)
			}
		}
	}
	if upgrades == 0 {
		t.Fatal("no reference upgrade in any run: the test does not exercise the upgrade path")
	}
}

// TestParallelAccountingInvariants runs SPR with a full worker pool and
// checks the ledger arithmetic the concurrent counters must preserve, then
// repeats under a tight global cap: spending never exceeds it.
func TestParallelAccountingInvariants(t *testing.T) {
	r := runnerAt(60, 0.3, 701, 8)
	res := Run(NewSPR(), r, 8)
	e := r.Engine()
	if got := e.PairwiseTasks() + e.GradedTasks(); got != e.TMC() {
		t.Errorf("PairwiseTasks+GradedTasks = %d != TMC %d", got, e.TMC())
	}
	if res.TMC != e.TMC() {
		t.Errorf("result TMC %d != engine TMC %d", res.TMC, e.TMC())
	}

	const cap = 2000
	rCap := runnerAt(60, 0.3, 701, 8)
	rCap.Engine().SetSpendingCap(cap)
	capped := Run(NewSPR(), rCap, 8)
	if capped.TMC > cap {
		t.Errorf("capped run spent %d > cap %d", capped.TMC, cap)
	}
	if got := rCap.Engine().TMC(); got > cap {
		t.Errorf("engine spent %d > cap %d", got, cap)
	}
	if len(capped.TopK) != 8 {
		t.Errorf("capped run returned %d items, want best-effort 8", len(capped.TopK))
	}
}

// FuzzCompareAllGrouping drives flat plans of arbitrary pair lists and checks
// the grouping/orientation algebra: requests for the same unordered pair
// agree up to Flip, identical-item pairs are ties, and the whole batch is
// reproducible.
func FuzzCompareAllGrouping(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2}, int64(1))
	f.Add([]byte{5, 9, 9, 5, 5, 9, 3, 3}, int64(7))
	f.Add([]byte{}, int64(3))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		const n = 10
		if len(raw) > 64 {
			raw = raw[:64]
		}
		pairs := make([][2]int, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, [2]int{int(raw[i]) % n, int(raw[i+1]) % n})
		}

		r := runnerAt(n, 0.2, seed, 4)
		p := newFlatPlan(pairs)
		drive(r, p)
		out := p.out
		if len(out) != len(pairs) {
			t.Fatalf("got %d outcomes for %d pairs", len(out), len(pairs))
		}
		verdict := map[[2]int]compare.Outcome{}
		for idx, p := range pairs {
			if p[0] == p[1] {
				if out[idx] != compare.Tie {
					t.Fatalf("self pair %v resolved to %v", p, out[idx])
				}
				continue
			}
			key := [2]int{p[0], p[1]}
			o := out[idx]
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
				o = o.Flip()
			}
			if prev, ok := verdict[key]; ok && prev != o {
				t.Fatalf("pair %v got both %v and %v (canonical)", key, prev, o)
			}
			verdict[key] = o
		}

		// The batch is reproducible: a fresh sequential runner with the
		// same seed returns the same outcomes.
		rerun := newFlatPlan(pairs)
		drive(runnerAt(n, 0.2, seed, 1), rerun)
		again := rerun.out
		if !reflect.DeepEqual(out, again) {
			t.Fatalf("rerun diverged:\n first: %v\n again: %v", out, again)
		}
	})
}

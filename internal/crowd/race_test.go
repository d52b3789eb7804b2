package crowd

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSpendingCapStopsGrade is the regression test for graded judgments
// bypassing the spending cap: Grade must charge against the same budget as
// pairwise draws and refuse to purchase once it is exhausted.
func TestSpendingCapStopsGrade(t *testing.T) {
	e := newTestEngine(10, 65)
	e.SetSpendingCap(2)
	for i := 0; i < 2; i++ {
		if _, ok := e.Grade(0); !ok {
			t.Fatalf("grade %d failed before the cap", i)
		}
	}
	if _, ok := e.Grade(0); ok {
		t.Error("cap did not stop Grade")
	}
	if e.TMC() != 2 || e.GradedTasks() != 2 {
		t.Errorf("TMC = %d, GradedTasks = %d, want 2, 2", e.TMC(), e.GradedTasks())
	}
	// Pairwise and graded purchases share one budget.
	e.SetSpendingCap(3)
	if _, ok := e.DrawOne(0, 1); !ok {
		t.Fatal("DrawOne failed with budget left")
	}
	if _, ok := e.Grade(1); ok {
		t.Error("Grade ignored budget spent by DrawOne")
	}
}

// TestSpendingCapConcurrentNeverOvershoots hammers a capped engine from
// many goroutines: whatever the interleaving, the atomic reservation must
// stop total spending exactly at the cap.
func TestSpendingCapConcurrentNeverOvershoots(t *testing.T) {
	const (
		cap     = 1000
		workers = 16
	)
	e := newTestEngine(50, 66)
	e.SetSpendingCap(cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for t := 0; t < 50; t++ {
				i, j := rng.Intn(50), rng.Intn(50)
				if i == j {
					j = (j + 1) % 50
				}
				switch t % 3 {
				case 0:
					e.Draw(i, j, 1+rng.Intn(10))
				case 1:
					e.DrawOne(i, j)
				default:
					e.Grade(i)
				}
			}
		}(w)
	}
	wg.Wait()
	// Demand (16 workers × 50 ops × ≥1 task) exceeds the cap, so spending
	// must land exactly on it — an overshoot means reservation raced.
	if e.TMC() != cap {
		t.Errorf("TMC = %d, want exactly the cap %d", e.TMC(), cap)
	}
	if got := e.PairwiseTasks() + e.GradedTasks(); got != e.TMC() {
		t.Errorf("PairwiseTasks+GradedTasks = %d != TMC %d", got, e.TMC())
	}
	if e.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhaustion", e.Remaining())
	}
}

// TestConcurrentEngineStress drives every public engine entry point from
// many goroutines at once. Run under -race it verifies the locking story:
// striped pair bags, atomic counters, the audit log, and the per-item
// graded streams.
func TestConcurrentEngineStress(t *testing.T) {
	const (
		n       = 40
		workers = 12
		ops     = 200
	)
	e := newTestEngine(n, 67)
	enableLog(e)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for t := 0; t < ops; t++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					j = (j + 1) % n
				}
				switch t % 7 {
				case 0:
					e.Draw(i, j, 1+rng.Intn(5))
				case 1:
					e.DrawOne(i, j)
				case 2:
					e.View(i, j)
				case 3:
					e.Grade(i)
				case 4:
					e.TMC()
					e.Remaining()
				case 5:
					e.PairsTouched()
				default:
					e.SetSpendingCap(100_000) // far above demand: a no-op limit
				}
			}
		}(w)
	}
	wg.Wait()
	if got := e.PairwiseTasks() + e.GradedTasks(); got != e.TMC() {
		t.Errorf("PairwiseTasks+GradedTasks = %d != TMC %d", got, e.TMC())
	}
	if int64(len(logOf(e))) != e.TMC() {
		t.Errorf("audit log has %d records, TMC is %d", len(logOf(e)), e.TMC())
	}
}

// TestPairStreamsIndependentOfPurchaseOrder is the determinism heart of the
// concurrency design: every pair samples from a private stream derived from
// the engine seed and the pair identity, so the samples a pair receives do
// not depend on when — or interleaved with what — they were purchased.
func TestPairStreamsIndependentOfPurchaseOrder(t *testing.T) {
	const n = 12
	pairs := [][2]int{{0, 1}, {2, 9}, {4, 5}, {1, 7}, {3, 11}, {6, 8}}

	a := newTestEngine(n, 68)
	for _, p := range pairs { // forward order, one big batch each
		a.Draw(p[0], p[1], 20)
	}

	b := newTestEngine(n, 68)
	for round := 0; round < 20; round++ { // reverse order, interleaved singles
		for idx := len(pairs) - 1; idx >= 0; idx-- {
			p := pairs[idx]
			b.DrawOne(p[1], p[0]) // flipped orientation, too
		}
	}

	for _, p := range pairs {
		va, vb := a.View(p[0], p[1]), b.View(p[0], p[1])
		if va != vb {
			t.Errorf("pair %v bags diverged across purchase orders: %+v vs %+v", p, va, vb)
		}
	}

	// A third engine purchasing concurrently agrees as well.
	c := newTestEngine(n, 68)
	var wg sync.WaitGroup
	for _, p := range pairs {
		wg.Add(1)
		go func(p [2]int) {
			defer wg.Done()
			for t := 0; t < 20; t++ {
				c.DrawOne(p[0], p[1])
			}
		}(p)
	}
	wg.Wait()
	for _, p := range pairs {
		if va, vc := a.View(p[0], p[1]), c.View(p[0], p[1]); va != vc {
			t.Errorf("pair %v bags diverged under concurrency: %+v vs %+v", p, va, vc)
		}
	}
}

// TestGradeStreamsPerItem pins the graded analogue: each item's grades come
// from a private stream rooted in the engine seed, so two engines with the
// same seed agree item by item regardless of grading order.
func TestGradeStreamsPerItem(t *testing.T) {
	a := newTestEngine(6, 69)
	b := newTestEngine(6, 69)
	ga := make([][]float64, 6)
	for i := 0; i < 6; i++ {
		for rep := 0; rep < 5; rep++ {
			v, _ := a.Grade(i)
			ga[i] = append(ga[i], v)
		}
	}
	for rep := 0; rep < 5; rep++ { // transposed order
		for i := 5; i >= 0; i-- {
			v, _ := b.Grade(i)
			if v != ga[i][rep] {
				t.Fatalf("item %d grade %d diverged: %v vs %v", i, rep, v, ga[i][rep])
			}
		}
	}
}

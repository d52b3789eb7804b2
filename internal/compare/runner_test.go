package compare

import (
	"testing"
)

func newRunner(mu, sigma float64, p Params, seed int64) *Runner {
	return NewRunner(pairEngine(mu, sigma, seed), NewStudent(0.02), p)
}

func TestCompareEasyPairUsesMinimumWorkload(t *testing.T) {
	r := newRunner(0.6, 0.05, Params{B: 1000, I: 30, Step: 30}, 1)
	if got := r.Compare(0, 1); got != FirstWins {
		t.Fatalf("Compare = %v, want FirstWins", got)
	}
	if w := r.Workload(0, 1); w != 30 {
		t.Errorf("workload = %d, want 30 (decided on the initial batch)", w)
	}
	if rounds := r.Engine().Rounds(); rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}
}

func TestCompareHardPairExhaustsBudget(t *testing.T) {
	r := newRunner(0, 0.3, Params{B: 120, I: 30, Step: 30}, 2)
	if got := r.Compare(0, 1); got != Tie {
		t.Fatalf("Compare on mean-0 pair = %v, want Tie", got)
	}
	if w := r.Workload(0, 1); w != 120 {
		t.Errorf("workload = %d, want full budget 120", w)
	}
	// 1 initial round + 3 extra batches.
	if rounds := r.Engine().Rounds(); rounds != 4 {
		t.Errorf("rounds = %d, want 4", rounds)
	}
}

func TestCompareMemoizesConclusions(t *testing.T) {
	r := newRunner(0.4, 0.2, Params{B: 1000, I: 30, Step: 30}, 3)
	first := r.Compare(0, 1)
	cost := r.Engine().TMC()
	rounds := r.Engine().Rounds()
	again := r.Compare(0, 1)
	if again != first {
		t.Errorf("memoized outcome changed: %v vs %v", again, first)
	}
	if r.Engine().TMC() != cost || r.Engine().Rounds() != rounds {
		t.Errorf("repeat comparison spent money or time: TMC %d→%d, rounds %d→%d",
			cost, r.Engine().TMC(), rounds, r.Engine().Rounds())
	}
	// Mirror orientation is also free and flipped.
	if got := r.Compare(1, 0); got != first.Flip() {
		t.Errorf("mirror comparison = %v, want %v", got, first.Flip())
	}
	if r.Engine().TMC() != cost {
		t.Error("mirror comparison spent money")
	}
}

func TestCompareCorrectDirectionBothOrientations(t *testing.T) {
	r := newRunner(0.3, 0.2, Params{B: 4000, I: 30, Step: 30}, 4)
	if got := r.Compare(0, 1); got != FirstWins {
		t.Errorf("Compare(0,1) = %v, want FirstWins", got)
	}
	r2 := newRunner(0.3, 0.2, Params{B: 4000, I: 30, Step: 30}, 5)
	if got := r2.Compare(1, 0); got != SecondWins {
		t.Errorf("Compare(1,0) = %v, want SecondWins", got)
	}
}

func TestCompareUnlimitedBudgetAlwaysConcludesOnSeparatedPair(t *testing.T) {
	r := newRunner(0.05, 0.5, Params{B: 0, I: 30, Step: 1}, 6)
	if got := r.Compare(0, 1); got != FirstWins {
		t.Errorf("Compare with B=∞ = %v, want FirstWins", got)
	}
	if w := r.Workload(0, 1); w <= 30 {
		t.Errorf("hard pair workload = %d, expected > I", w)
	}
}

func TestAdvanceStepsBatchAtATime(t *testing.T) {
	r := newRunner(0, 0.3, Params{B: 150, I: 30, Step: 30}, 7)
	// First advance purchases I samples.
	if _, done := r.Advance(0, 1); done {
		t.Fatal("mean-0 pair should not be done after the initial batch")
	}
	if w := r.Workload(0, 1); w != 30 {
		t.Errorf("workload after first advance = %d, want 30", w)
	}
	// Drive to completion; budget must be respected exactly.
	steps := 1
	for {
		_, done := r.Advance(0, 1)
		steps++
		if done {
			break
		}
		if steps > 100 {
			t.Fatal("Advance never finished")
		}
	}
	if w := r.Workload(0, 1); w != 150 {
		t.Errorf("workload at exhaustion = %d, want 150", w)
	}
	if r.Engine().Rounds() != 0 {
		t.Errorf("Advance must not tick the clock, rounds = %d", r.Engine().Rounds())
	}
	// Once finished, further advances are free no-ops.
	cost := r.Engine().TMC()
	o, done := r.Advance(0, 1)
	if !done || o != Tie {
		t.Errorf("advance after exhaustion = (%v,%v), want (Tie,true)", o, done)
	}
	if r.Engine().TMC() != cost {
		t.Error("advance after exhaustion spent money")
	}
}

func TestAdvanceEasyPairFinishesOnInitialBatch(t *testing.T) {
	r := newRunner(0.7, 0.05, Params{B: 1000, I: 30, Step: 30}, 8)
	o, done := r.Advance(0, 1)
	if !done || o != FirstWins {
		t.Errorf("easy pair advance = (%v,%v), want (FirstWins,true)", o, done)
	}
	if w := r.Workload(0, 1); w != 30 {
		t.Errorf("workload = %d, want 30", w)
	}
}

func TestLeaningAndTestOnlyAreFree(t *testing.T) {
	r := newRunner(0.4, 0.2, Params{B: 1000, I: 30, Step: 30}, 9)
	r.Compare(0, 1)
	cost := r.Engine().TMC()
	if got := r.Leaning(0, 1); got != FirstWins {
		t.Errorf("Leaning = %v, want FirstWins", got)
	}
	if got := r.Leaning(1, 0); got != SecondWins {
		t.Errorf("mirror Leaning = %v, want SecondWins", got)
	}
	if got := r.TestOnly(0, 1); got != FirstWins {
		t.Errorf("TestOnly = %v, want FirstWins", got)
	}
	if r.Engine().TMC() != cost {
		t.Error("Leaning/TestOnly spent money")
	}
	// Unsampled pair leans nowhere.
	r2 := newRunner(0.4, 0.2, Params{B: 1000, I: 30, Step: 30}, 10)
	if got := r2.Leaning(0, 1); got != Tie {
		t.Errorf("Leaning on empty bag = %v, want Tie", got)
	}
}

func TestForgetConclusionsKeepsSamples(t *testing.T) {
	r := newRunner(0.4, 0.2, Params{B: 1000, I: 30, Step: 30}, 11)
	r.Compare(0, 1)
	w := r.Workload(0, 1)
	cost := r.Engine().TMC()
	r.ForgetConclusions()
	if _, ok := r.Concluded(0, 1); ok {
		t.Error("conclusion survived ForgetConclusions")
	}
	if r.Workload(0, 1) != w {
		t.Error("samples did not survive ForgetConclusions")
	}
	// Re-comparing re-tests the existing bag; an easy decided pair needs no
	// new purchases.
	if got := r.Compare(0, 1); got != FirstWins {
		t.Errorf("re-compare = %v, want FirstWins", got)
	}
	if r.Engine().TMC() != cost {
		t.Errorf("re-compare on sufficient bag spent money: %d → %d", cost, r.Engine().TMC())
	}
}

func TestRunnerAccuracyAtConfidenceLevel(t *testing.T) {
	// Monte-Carlo: on a genuinely separated pair, conclusions at 1−α = 0.95
	// must be correct well over 95% of the time (Table 3 reports ≥ 0.99).
	const runs = 300
	wrong := 0
	for s := 0; s < runs; s++ {
		r := NewRunner(pairEngine(0.15, 0.4, int64(1000+s)), NewStudent(0.05), Params{B: 0, I: 30, Step: 1})
		if r.Compare(0, 1) != FirstWins {
			wrong++
		}
	}
	if frac := float64(wrong) / runs; frac > 0.05 {
		t.Errorf("error rate %.3f exceeds α = 0.05", frac)
	}
}

func TestWorkloadScalesWithDifficulty(t *testing.T) {
	// Closer means ⇒ more microtasks (the paper's Messi/Ronaldo point).
	avg := func(mu float64) float64 {
		total := 0
		const runs = 40
		for s := 0; s < runs; s++ {
			r := NewRunner(pairEngine(mu, 0.4, int64(2000+s)), NewStudent(0.05), Params{B: 0, I: 30, Step: 1})
			r.Compare(0, 1)
			total += r.Workload(0, 1)
		}
		return float64(total) / runs
	}
	easy := avg(0.5)
	hard := avg(0.05)
	if hard <= 2*easy {
		t.Errorf("hard pair workload %v not ≫ easy pair workload %v", hard, easy)
	}
}

func TestStepOneMatchesAlgorithmOneGranularity(t *testing.T) {
	// With Step=1 the runner must stop at the exact first sample size where
	// the CI excludes zero — replay the decision on a copy of the samples.
	eng := pairEngine(0.2, 0.5, 77)
	r := NewRunner(eng, NewStudent(0.05), Params{B: 0, I: 30, Step: 1})
	r.Compare(0, 1)
	w := r.Workload(0, 1)
	if w < 30 {
		t.Fatalf("workload %d below I", w)
	}
	if w > 30 {
		// At w-1 samples the policy must have been undecided. We can't
		// rewind the engine, but we can check the final state decides.
		if r.TestOnly(0, 1) == Tie {
			t.Error("runner stopped while policy still undecided")
		}
	}
}

func TestRunnerPanics(t *testing.T) {
	eng := pairEngine(0.2, 0.2, 1)
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("nil engine", func() { NewRunner(nil, NewStudent(0.05), DefaultParams()) })
	assertPanic("nil policy", func() { NewRunner(eng, nil, DefaultParams()) })
	assertPanic("bad I", func() { NewRunner(eng, NewStudent(0.05), Params{B: 100, I: 1, Step: 1}) })
	assertPanic("bad Step", func() { NewRunner(eng, NewStudent(0.05), Params{B: 100, I: 30, Step: 0}) })
	assertPanic("B<I", func() { NewRunner(eng, NewStudent(0.05), Params{B: 10, I: 30, Step: 1}) })
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.B != 1000 || p.I != 30 || p.Step != 30 {
		t.Errorf("DefaultParams = %+v, want B=1000 I=30 Step=30", p)
	}
}

func TestHoeffdingRunnerNeedsMoreThanStudent(t *testing.T) {
	// The core Table 3 claim at pair level: binary judgments cost several
	// times more microtasks than preference judgments.
	avgFor := func(p Policy) float64 {
		total := 0
		const runs = 25
		for s := 0; s < runs; s++ {
			r := NewRunner(pairEngine(0.12, 0.35, int64(3000+s)), p, Params{B: 0, I: 30, Step: 1})
			r.Compare(0, 1)
			total += r.Workload(0, 1)
		}
		return float64(total) / runs
	}
	student := avgFor(NewStudent(0.05))
	hoeffding := avgFor(NewHoeffding(0.05))
	if hoeffding < 2*student {
		t.Errorf("hoeffding workload %v not ≫ student workload %v", hoeffding, student)
	}
}

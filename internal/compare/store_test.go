package compare

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jstore"
)

// gaussItems is a deterministic oracle over n items with linearly spaced
// qualities; the preference toward the better item is N(gap·Δq, sigma²).
type gaussItems struct {
	n     int
	sigma float64
}

func (g gaussItems) NumItems() int { return g.n }

func (g gaussItems) Preference(rng *rand.Rand, i, j int) float64 {
	mu := 0.15 * float64(j-i) // later items are worse
	v := mu + rng.NormFloat64()*g.sigma
	return math.Max(-1, math.Min(1, v))
}

func itemsRunner(n int, sigma float64, p Params, seed int64) *Runner {
	eng := crowd.NewEngine(gaussItems{n, sigma}, rand.New(rand.NewSource(seed)))
	return NewRunner(eng, NewStudent(0.02), p)
}

func TestForkedRunnersShareConclusions(t *testing.T) {
	r := itemsRunner(4, 0.2, Params{B: 1000, I: 30, Step: 30}, 11)
	f1, f2 := r.Fork(), r.Fork()

	out := f1.Compare(0, 1)
	if out != FirstWins {
		t.Fatalf("Compare = %v, want FirstWins", out)
	}
	cost := r.Engine().TMC()

	// The sibling fork observes the conclusion through the shared memo.
	got, ok := f2.Concluded(0, 1)
	if !ok || got != out {
		t.Fatalf("sibling fork Concluded = (%v, %v), want (%v, true)", got, ok, out)
	}
	if f2.Compare(0, 1) != out {
		t.Error("sibling fork re-compared to a different verdict")
	}
	if f2.Compare(1, 0) != out.Flip() {
		t.Error("sibling fork mirror orientation not flipped")
	}
	if r.Engine().TMC() != cost {
		t.Errorf("sibling fork spent money on a shared conclusion: TMC %d → %d", cost, r.Engine().TMC())
	}
}

func TestConcurrentForksObserveEachOther(t *testing.T) {
	const n = 8
	r := itemsRunner(n, 0.2, Params{B: 2000, I: 30, Step: 30, Parallelism: 4}, 12)

	// Phase 1: concurrent forks conclude disjoint pairs.
	var wg sync.WaitGroup
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			fork := r.Fork()
			for i := f; i < n-1; i += 4 {
				fork.Compare(i, i+1)
			}
		}(f)
	}
	wg.Wait()
	cost := r.Engine().TMC()

	// Phase 2: fresh concurrent forks read every conclusion for free.
	var misses sync.Map
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			fork := r.Fork()
			for i := 0; i < n-1; i++ {
				if _, ok := fork.Concluded(i, i+1); !ok {
					misses.Store([2]int{i, i + 1}, true)
				}
				fork.Compare(i, i+1)
			}
		}(f)
	}
	wg.Wait()
	misses.Range(func(k, _ any) bool {
		t.Errorf("pair %v concluded in phase 1 was not visible to a phase-2 fork", k)
		return true
	})
	if r.Engine().TMC() != cost {
		t.Errorf("phase 2 spent money re-reading shared conclusions: TMC %d → %d", cost, r.Engine().TMC())
	}
}

func TestStoreSeededRunEquivalentToColdRun(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()
	pol := StorePolicy{Confidence: 0.98}

	// Cold run: conclude, commit.
	cold := itemsRunner(4, 0.2, params, 21)
	cold.SetJudgmentStore(store, pol)
	var coldOut [3]Outcome
	for i := 0; i < 3; i++ {
		coldOut[i] = cold.Compare(i, i+1)
	}
	coldCost := cold.Engine().TMC()
	if coldCost == 0 {
		t.Fatal("cold run spent nothing")
	}
	if n := cold.CommitConclusions(); n != 3 {
		t.Fatalf("CommitConclusions = %d, want 3", n)
	}
	var coldViews [3]crowd.BagView
	for i := 0; i < 3; i++ {
		coldViews[i] = cold.Engine().View(i, i+1)
	}

	// Warm run on a fresh engine: identical verdicts and bit-identical
	// bag state, at zero TMC.
	warm := itemsRunner(4, 0.2, params, 21)
	warm.SetJudgmentStore(store, pol)
	for i := 0; i < 3; i++ {
		if got := warm.Compare(i, i+1); got != coldOut[i] {
			t.Errorf("warm Compare(%d,%d) = %v, cold %v", i, i+1, got, coldOut[i])
		}
	}
	if tmc := warm.Engine().TMC(); tmc != 0 {
		t.Errorf("warm run spent %d microtasks, want 0", tmc)
	}
	for i := 0; i < 3; i++ {
		wv, cv := warm.Engine().View(i, i+1), coldViews[i]
		if wv.N != cv.N || wv.Mean != cv.Mean || wv.SD != cv.SD {
			t.Errorf("warm view (%d,%d) = %+v, cold %+v (must be bit-identical)", i, i+1, wv, cv)
		}
	}
	ss := warm.StoreStats()
	if ss.Hits != 3 || ss.Stale != 0 || ss.Commits != 0 {
		t.Errorf("warm StoreStats = %+v, want 3 hits, 0 stale, 0 commits", ss)
	}
	if warm.CommitConclusions() != 0 {
		t.Error("warm run re-committed store-served verdicts")
	}
}

func TestStaleRecordVerifiedAtReducedCost(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()

	cold := itemsRunner(2, 0.1, params, 31)
	cold.SetJudgmentStore(store, StorePolicy{Confidence: 0.98})
	coldOut := cold.Compare(0, 1)
	coldCost := cold.Engine().TMC()
	cold.CommitConclusions()

	// Age the record to 3×TTL: evidence decays to 2^-2 = 25%.
	ttl := time.Hour
	rec, _ := store.Lookup(0, 1)
	rec.UnixNano = time.Now().Add(-3 * ttl).UnixNano()
	store.Commit(rec)

	warm := itemsRunner(2, 0.1, params, 31)
	warm.SetJudgmentStore(store, StorePolicy{TTL: ttl, Confidence: 0.98})
	if got := warm.Compare(0, 1); got != coldOut {
		t.Errorf("verified stale verdict = %v, cold %v", got, coldOut)
	}
	warmCost := warm.Engine().TMC()
	if warmCost == 0 {
		t.Error("stale record was trusted without verification")
	}
	if warmCost >= coldCost {
		t.Errorf("stale verification cost %d, not reduced vs cold %d", warmCost, coldCost)
	}
	ss := warm.StoreStats()
	if ss.Stale != 1 || ss.Hits != 0 {
		t.Errorf("StoreStats = %+v, want 1 stale, 0 hits", ss)
	}
	// The verified conclusion re-commits with a fresh timestamp.
	warm.CommitConclusions()
	fresh, _ := store.Lookup(0, 1)
	if fresh.UnixNano == rec.UnixNano {
		t.Error("verified conclusion did not refresh the stored record")
	}
}

func TestUnderConfidentRecordNotTrustedAsVerdict(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()

	cold := itemsRunner(2, 0.1, params, 41)
	cold.SetJudgmentStore(store, StorePolicy{Confidence: 0.90})
	cold.Compare(0, 1)
	cold.CommitConclusions()

	// A fleet demanding 0.98 must not adopt a 0.90 verdict wholesale.
	warm := itemsRunner(2, 0.1, params, 41)
	warm.SetJudgmentStore(store, StorePolicy{Confidence: 0.98})
	warm.Compare(0, 1)
	if tmc := warm.Engine().TMC(); tmc == 0 {
		t.Error("under-confident record served as a free verdict")
	}
	if ss := warm.StoreStats(); ss.Stale != 1 {
		t.Errorf("StoreStats = %+v, want the record counted stale", ss)
	}
}

func TestDecayedRecordBelowFloorIsAMiss(t *testing.T) {
	store := jstore.NewMemStore()
	// A record aged so far that its decayed sample count collapses.
	store.Commit(jstore.Record{
		Lo: 0, Hi: 1, Outcome: 1, N: 30, Mean: 0.3, M2: 1.0,
		BinN: 30, BinMean: 0.9, BinM2: 30 * (1 - 0.81), Confidence: 0.98,
		UnixNano: time.Now().Add(-100 * time.Hour).UnixNano(),
	})
	warm := itemsRunner(2, 0.1, Params{B: 1000, I: 30, Step: 30}, 51)
	warm.SetJudgmentStore(store, StorePolicy{TTL: time.Hour, Confidence: 0.98})
	warm.Compare(0, 1)
	if ss := warm.StoreStats(); ss.Misses != 1 || ss.Stale != 0 {
		t.Errorf("StoreStats = %+v, want 1 miss (evidence decayed away)", ss)
	}
}

func TestTruncatedTieNotCommitted(t *testing.T) {
	// A near-tie pair under a tight spending cap concludes tie with less
	// than the per-pair budget B of evidence — a truncation, not a crowd
	// verdict. It must not be committed to the store.
	store := jstore.NewMemStore()
	capped := itemsRunner(2, 1.0, Params{B: 400, I: 30, Step: 30}, 71)
	capped.SetJudgmentStore(store, StorePolicy{Confidence: 0.99})
	capped.Engine().SetSpendingCap(60)
	if out := capped.Compare(0, 1); out != Tie {
		t.Skipf("pair decided decisively (%v) under the cap; seed no longer exercises truncation", out)
	}
	if n := capped.CommitConclusions(); n != 0 {
		t.Errorf("committed %d truncated tie(s); store must only hold crowd verdicts", n)
	}

	// The same pair genuinely exhausting B = 60 is a protocol conclusion
	// and does commit.
	honest := itemsRunner(2, 1.0, Params{B: 60, I: 30, Step: 30}, 71)
	honest.SetJudgmentStore(store, StorePolicy{Confidence: 0.99})
	if out := honest.Compare(0, 1); out != Tie {
		t.Skipf("pair decided decisively (%v) within B=60", out)
	}
	if n := honest.CommitConclusions(); n != 1 {
		t.Errorf("protocol-exhausted tie not committed: got %d commits, want 1", n)
	}
}

func TestCrossPolicyRecordDowngradedToPrior(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()
	pol := StorePolicy{Confidence: 0.98}

	// Conclude and commit under Student.
	cold := itemsRunner(2, 0.1, params, 81)
	cold.SetJudgmentStore(store, pol)
	coldOut := cold.Compare(0, 1)
	coldCost := cold.Engine().TMC()
	if coldOut == Tie || coldCost == 0 {
		t.Fatalf("cold run inconclusive (out %v, cost %d); seed no longer exercises the scenario", coldOut, coldCost)
	}
	cold.CommitConclusions()
	rec, ok := store.Lookup(0, 1)
	if !ok || rec.Policy != "student" {
		t.Fatalf("committed record = (%+v, %v), want Policy \"student\"", rec, ok)
	}

	// A same-policy consumer gets the fresh hit: verdict served free.
	same := itemsRunner(2, 0.1, params, 81)
	same.SetJudgmentStore(store, pol)
	if got := same.Compare(0, 1); got != coldOut {
		t.Errorf("same-policy warm Compare = %v, cold %v", got, coldOut)
	}
	if tmc := same.Engine().TMC(); tmc != 0 {
		t.Errorf("same-policy consumer spent %d microtasks, want 0", tmc)
	}
	if ss := same.StoreStats(); ss.Hits != 1 || ss.Stale != 0 {
		t.Errorf("same-policy StoreStats = %+v, want 1 hit, 0 stale", ss)
	}

	// A consumer under a different policy must not adopt the verdict
	// wholesale: the record downgrades to a full-strength prior that is
	// re-verified with a reduced purchase.
	voiEng := crowd.NewEngine(gaussItems{2, 0.1}, rand.New(rand.NewSource(81)))
	voi := NewRunner(voiEng, NewVoI(0.02), params)
	voi.SetJudgmentStore(store, pol)
	if got := voi.Compare(0, 1); got != coldOut {
		t.Errorf("cross-policy warm Compare = %v, cold %v", got, coldOut)
	}
	voiCost := voi.Engine().TMC()
	if voiCost == 0 {
		t.Error("cross-policy record served as a free verdict")
	}
	if voiCost >= coldCost {
		t.Errorf("cross-policy verification cost %d, not reduced vs cold %d", voiCost, coldCost)
	}
	if ss := voi.StoreStats(); ss.Hits != 0 || ss.Stale != 1 {
		t.Errorf("cross-policy StoreStats = %+v, want 0 hits, 1 stale", ss)
	}

}

// Records committed before the estimators became policies carry "fixed"
// or no policy name. Both read as "student": a Student consumer trusts
// them as verdicts; a Stein or VoI consumer — a different stopping rule —
// re-verifies them as priors.
func TestLegacyRecordsTrustedByStudentOnly(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	pol := StorePolicy{Confidence: 0.98}
	src := jstore.NewMemStore()
	cold := itemsRunner(2, 0.1, params, 81)
	cold.SetJudgmentStore(src, pol)
	if cold.Compare(0, 1) == Tie {
		t.Fatal("cold run inconclusive; seed no longer exercises the scenario")
	}
	cold.CommitConclusions()
	rec, _ := src.Lookup(0, 1)

	for _, name := range []string{"", "fixed"} {
		legacy := rec
		legacy.Policy = name
		store := jstore.NewMemStore()
		store.Commit(legacy)

		student := itemsRunner(2, 0.1, params, 81)
		student.SetJudgmentStore(store, pol)
		student.Compare(0, 1)
		if tmc, ss := student.Engine().TMC(), student.StoreStats(); tmc != 0 || ss.Hits != 1 {
			t.Errorf("record pol %q: student consumer spent %d microtasks with %+v, want a free hit", name, tmc, ss)
		}

		for _, other := range []Policy{NewStein(0.02), NewVoI(0.02)} {
			r := NewRunner(crowd.NewEngine(gaussItems{2, 0.1}, rand.New(rand.NewSource(81))), other, params)
			r.SetJudgmentStore(store, pol)
			r.Compare(0, 1)
			if tmc, ss := r.Engine().TMC(), r.StoreStats(); tmc == 0 || ss.Stale != 1 {
				t.Errorf("record pol %q: %s consumer spent %d microtasks with %+v, want a re-verified prior", name, other.Name(), tmc, ss)
			}
		}
	}
}

func TestStoreSharedAcrossForks(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()
	pol := StorePolicy{Confidence: 0.98}

	cold := itemsRunner(4, 0.2, params, 61)
	cold.SetJudgmentStore(store, pol)
	f0 := cold.Fork() // each fork is one query: it concludes and commits
	f0.Compare(0, 1)
	if n := f0.CommitConclusions(); n != 1 {
		t.Fatalf("fork CommitConclusions = %d, want 1", n)
	}

	warm := itemsRunner(4, 0.2, params, 61)
	warm.SetJudgmentStore(store, pol)
	f := warm.Fork()
	if _, ok := f.Concluded(0, 1); !ok {
		t.Fatal("fork of a warm session did not see the stored verdict")
	}
	if tmc := warm.Engine().TMC(); tmc != 0 {
		t.Errorf("warm fork spent %d microtasks", tmc)
	}
}

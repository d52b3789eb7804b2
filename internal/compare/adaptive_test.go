package compare

import (
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jstore"
)

// Regression: with an unlimited per-pair budget the runner passes
// left = MaxInt, and the fundability check computed v.N+left in int,
// which wrapped negative — every projection then looked unfundable, so
// the adaptive policies surrendered every undecided pair past their
// evidence floor as a tie precisely when the budget was unlimited.
func TestAdaptiveNextFundsUnderUnlimitedBudget(t *testing.T) {
	unlimited := int(^uint(0) >> 1)
	v := crowd.BagView{N: 40, Mean: 0.4, SD: 0.5}
	for _, tc := range []struct {
		name string
		next func(crowd.BagView, int, Params) int
	}{
		{"voi", NewVoI(0.05).Next},
		{"pac", NewPAC(0.05).Next},
	} {
		if got := tc.next(v, unlimited, Params{}); got <= 0 {
			t.Errorf("%s.Next(separable pair, unlimited budget) = %d, want > 0", tc.name, got)
		}
	}
}

// The end-to-end shape of the same regression: under B = 0 (unlimited)
// a separable pair that stays undecided past the evidence floor must
// still be funded to a directional verdict, not surrendered as a tie.
func TestAdaptiveUnlimitedBudgetConcludesSeparablePair(t *testing.T) {
	params := Params{B: 0, I: 30, Step: 30}
	for _, tc := range []struct {
		pol       Policy
		mu, sigma float64
	}{
		// Gaps sized so the projected need exceeds the surrender floor:
		// the verdict arrives well past N = 24 samples.
		{NewVoI(0.05), 0.1, 0.5},
		{NewPAC(0.05), 0.3, 0.3},
	} {
		r := NewRunner(pairEngine(tc.mu, tc.sigma, 7), tc.pol, params)
		if got := r.Compare(0, 1); got != FirstWins {
			t.Errorf("%s under unlimited budget = %v, want FirstWins", tc.pol.Name(), got)
		}
		if n := r.Workload(0, 1); n <= voiFloor {
			t.Errorf("%s concluded at N=%d; the scenario no longer crosses the surrender floor", tc.pol.Name(), n)
		}
	}
}

// Surrender itself must survive the overflow fix: a projection that a
// small finite remainder cannot fund still declines the purchase.
func TestAdaptiveNextSurrendersWhenUnfundable(t *testing.T) {
	v := crowd.BagView{N: 30, Mean: 0.01, SD: 0.5} // needs thousands of samples
	if got := NewVoI(0.05).Next(v, 20, Params{}); got != 0 {
		t.Errorf("voi.Next(near-tie, 20 left) = %d, want 0 (surrender)", got)
	}
	if got := NewPAC(0.05).Next(v, 20, Params{}); got != 0 {
		t.Errorf("pac.Next(near-tie, 20 left) = %d, want 0 (eliminate)", got)
	}
}

// In-session conclusion reuse follows the same trust rule as the
// judgment store: verdicts are shared between queries running the same
// policy and never adopted across stopping semantics.
func TestSetPolicyIsolatesConclusionMemoAcrossPolicies(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	e := pairEngine(0.4, 0.3, 19)
	r := NewRunner(e, NewStudent(0.05), params)

	if out := r.Compare(0, 1); out != FirstWins {
		t.Fatalf("session Compare = %v, want FirstWins", out)
	}

	// A fork without an override shares the session verdict table.
	if _, ok := r.Fork().Concluded(0, 1); !ok {
		t.Error("same-policy fork does not see the session verdict")
	}

	// A fork pinned to a different policy must not adopt a verdict
	// reached under different stopping semantics; it re-judges the pair
	// under its own rule against the already-purchased evidence.
	voi := r.Fork()
	voi.SetPolicy(NewVoI(0.05))
	if _, ok := voi.Concluded(0, 1); ok {
		t.Fatal("voi-pinned fork adopted a fixed-schedule verdict from the session memo")
	}
	before := e.TMC()
	if got := voi.Compare(0, 1); got != FirstWins {
		t.Errorf("voi re-judgment = %v, want FirstWins", got)
	}
	if cost := e.TMC() - before; cost != 0 {
		t.Errorf("voi re-judgment bought %d new samples; the session evidence was already decisive", cost)
	}

	// Forks pinned to the same policy share one verdict table.
	voi2 := r.Fork()
	voi2.SetPolicy(NewVoI(0.05))
	if _, ok := voi2.Concluded(0, 1); !ok {
		t.Error("second voi-pinned fork does not share the voi verdict table")
	}

	// Re-pinning the session's own policy returns the session table.
	back := r.Fork()
	back.SetPolicy(NewStudent(0.05))
	if _, ok := back.Concluded(0, 1); !ok {
		t.Error("re-pinning the session policy lost the session verdict table")
	}
}

// ForgetConclusions from the session runner clears the per-policy side
// tables along with the session table.
func TestForgetConclusionsClearsPolicySideTables(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	r := NewRunner(pairEngine(0.4, 0.3, 23), NewStudent(0.05), params)
	voi := r.Fork()
	voi.SetPolicy(NewVoI(0.05))
	if voi.Compare(0, 1) != FirstWins {
		t.Fatal("voi fork did not conclude the pair")
	}
	r.ForgetConclusions()
	if _, ok := voi.Concluded(0, 1); ok {
		t.Error("voi side table survived the session's ForgetConclusions")
	}
}

// A store hit latched by a consumer that trusted the committing policy
// is not re-served as a verdict to a fork pinned to a different policy:
// the fork re-runs its own stopping rule over the seeded evidence, the
// per-reader mirror of the consult-time cross-policy downgrade.
func TestStoreLatchedHitNotServedAcrossPolicies(t *testing.T) {
	params := Params{B: 1000, I: 30, Step: 30}
	store := jstore.NewMemStore()
	pol := StorePolicy{Confidence: 0.98}

	cold := itemsRunner(2, 0.2, params, 33)
	cold.SetJudgmentStore(store, pol)
	coldOut := cold.Compare(0, 1)
	if coldOut == Tie {
		t.Fatal("cold run inconclusive; seed no longer exercises the scenario")
	}
	cold.CommitConclusions()

	// The warm session's first consult trusts the same-policy record and
	// latches the hit.
	warm := itemsRunner(2, 0.2, params, 33)
	warm.SetJudgmentStore(store, pol)
	if got := warm.Compare(0, 1); got != coldOut {
		t.Fatalf("warm Compare = %v, cold %v", got, coldOut)
	}
	if tmc := warm.Engine().TMC(); tmc != 0 {
		t.Fatalf("warm hit cost %d microtasks, want 0", tmc)
	}

	voi := warm.Fork()
	voi.SetPolicy(NewVoI(0.02))
	if _, ok := voi.Concluded(0, 1); ok {
		t.Fatal("latched fixed-policy hit served as a verdict to a voi fork")
	}
	if got := voi.Compare(0, 1); got != coldOut {
		t.Errorf("voi re-judgment of latched pair = %v, want %v", got, coldOut)
	}
	if ss := warm.StoreStats(); ss.Hits != 1 {
		t.Errorf("StoreStats.Hits = %d, want 1 (hit must not be re-counted cross-policy)", ss.Hits)
	}
}

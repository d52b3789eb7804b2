package compare

import (
	"math"
	"testing"
	"time"

	"crowdtopk/internal/jstore"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/obs/explain"
)

// advanceToEnd steps (i, j) with Advance until the process finishes.
func advanceToEnd(t *testing.T, r *Runner, i, j int) Outcome {
	t.Helper()
	for step := 0; step < 1000; step++ {
		if o, done := r.Advance(i, j); done {
			return o
		}
	}
	t.Fatal("Advance never finished the pair")
	return Tie
}

// TestRunnerExitPathBookkeeping drives Compare and Advance through every
// way a comparison process ends — a decisive verdict, a tie at the
// per-pair budget, a VoI surrender, a spending cap that runs dry, and a
// verdict that verifies a stale store prior — and checks that each exit
// books the same things: the memo entry, the post-query store commit, the
// explain conclusion (verdict, concluded, half-width), the Concluded
// counter, the comp span's verdict/exhausted labels, and no wave-mode
// state left behind.
func TestRunnerExitPathBookkeeping(t *testing.T) {
	const ttl = time.Hour
	cases := []struct {
		name      string
		pol       Policy
		mu, sigma float64
		seed      int64
		params    Params
		cap       int64 // engine spending cap; 0 = none
		stale     bool  // a stale store record seeds the pair first
		out       Outcome
		concluded bool // a memoized conclusion, not a best-effort outcome
		commits   int
	}{
		{"verdict", NewStudent(0.02), 0.5, 0.1, 1, Params{B: 1000, I: 30, Step: 30}, 0, false, FirstWins, true, 1},
		// A tie that spent the whole per-pair budget is a crowd verdict and
		// commits.
		{"budget-tie", NewStudent(0.02), 0, 0.3, 2, Params{B: 120, I: 30, Step: 30}, 0, false, Tie, true, 1},
		// A surrender concludes the pair below B: memoized, never committed.
		{"voi-surrender", NewVoI(0.02), 0, 0.5, 3, Params{B: 400, I: 30, Step: 30}, 0, false, Tie, true, 0},
		{"cap-dry", NewStudent(0.02), 0, 0.3, 4, Params{B: 1000, I: 30, Step: 30}, 50, false, Tie, false, 0},
		// The prior's 50 decayed samples cover the cold start; one batch
		// verifies it.
		{"stale-verify", NewStudent(0.02), 0.5, 0.1, 5, Params{B: 1000, I: 30, Step: 30}, 0, true, FirstWins, true, 1},
	}
	drivers := []struct {
		name string
		run  func(t *testing.T, r *Runner) Outcome
	}{
		{"Compare", func(_ *testing.T, r *Runner) Outcome { return r.Compare(0, 1) }},
		{"Advance", func(t *testing.T, r *Runner) Outcome { return advanceToEnd(t, r, 0, 1) }},
	}
	for _, d := range drivers {
		for _, tc := range cases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				eng := pairEngine(tc.mu, tc.sigma, tc.seed)
				if tc.cap > 0 {
					eng.SetSpendingCap(tc.cap)
				}
				store := jstore.NewMemStore()
				if tc.stale {
					// 200 decisive samples aged 3×TTL decay to a 50-sample prior.
					store.Commit(jstore.Record{
						Lo: 0, Hi: 1, Outcome: int(FirstWins),
						N: 200, Mean: 0.5, M2: 0.01 * 199, BinN: 200, BinMean: 1,
						Confidence: 0.98, Policy: tc.pol.Name(),
						UnixNano: time.Now().Add(-3 * ttl).UnixNano(),
					})
				}
				r := NewRunner(eng, tc.pol, tc.params)
				r.SetJudgmentStore(store, StorePolicy{TTL: ttl, Confidence: 0.98})
				tel := obs.New()
				r.SetTelemetry(tel)
				c := explain.NewCollector()
				r.SetExplain(c)
				r.SetPhase("select")

				if got := d.run(t, r); got != tc.out {
					t.Fatalf("outcome = %v, want %v", got, tc.out)
				}
				v := eng.View(0, 1)
				if tc.name == "voi-surrender" && v.N >= tc.params.B {
					t.Fatalf("workload %d reached B; the scenario no longer surrenders", v.N)
				}
				if tc.stale {
					if ss := r.StoreStats(); ss.Stale != 1 {
						t.Fatalf("StoreStats = %+v, want the record served stale", ss)
					}
					if tmc := r.QueryTMC(); tmc != int64(tc.params.Step) {
						t.Errorf("verification bought %d samples, want one batch of %d", tmc, tc.params.Step)
					}
				}
				if _, ok := r.Concluded(0, 1); ok != tc.concluded {
					t.Errorf("Concluded = %v, want %v", ok, tc.concluded)
				}
				if n := r.CommitConclusions(); n != tc.commits {
					t.Errorf("CommitConclusions = %d, want %d", n, tc.commits)
				}

				wantHW := tc.pol.HalfWidth(v)
				if math.IsInf(wantHW, 0) || math.IsNaN(wantHW) {
					wantHW = 0
				}
				var leaf *explain.PairCost
				for _, ph := range c.Tree().Phases {
					for k := range ph.Pairs {
						if ph.Phase == "select" && ph.Pairs[k].Pair == "0-1" {
							leaf = &ph.Pairs[k]
						}
					}
				}
				switch {
				case leaf == nil:
					t.Error("no explain leaf for 0-1")
				case leaf.Verdict != tc.out.String() || leaf.Concluded != tc.concluded || leaf.HalfWidth != wantHW:
					t.Errorf("explain conclusion = (%q, %v, %v), want (%q, %v, %v)",
						leaf.Verdict, leaf.Concluded, leaf.HalfWidth, tc.out.String(), tc.concluded, wantHW)
				}

				wantCount := int64(0)
				if tc.concluded {
					wantCount = 1
				}
				if got := r.Instruments().Concluded.Value(); got != wantCount {
					t.Errorf("Concluded counter = %d, want %d", got, wantCount)
				}

				var comps []obs.Span
				for _, sp := range tel.Tracer().Spans() {
					if sp.Name == "comp" {
						comps = append(comps, sp)
					}
				}
				if len(comps) != 1 {
					t.Fatalf("%d comp spans, want 1", len(comps))
				}
				wantExhausted := ""
				if !tc.concluded {
					wantExhausted = "true"
				}
				if l := comps[0].Labels; l["verdict"] != tc.out.String() || l["exhausted"] != wantExhausted {
					t.Errorf("span labels verdict=%q exhausted=%q, want %q and %q",
						l["verdict"], l["exhausted"], tc.out.String(), wantExhausted)
				}

				r.spanMu.Lock()
				open := len(r.active)
				r.spanMu.Unlock()
				if open != 0 {
					t.Errorf("%d wave-mode comparison states left open", open)
				}
			})
		}
	}
}

// A derived sub-phase runner concludes under a reduced per-pair budget,
// so its budget-exhausted ties are not queued for the judgment store; its
// decisive verdicts are.
func TestDerivedRunnerQueuesOnlyDecisiveVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mu      float64
		seed    int64
		out     Outcome
		commits int
	}{
		{"verdict", 0.5, 1, FirstWins, 1},
		{"budget-tie", 0, 2, Tie, 0},
	} {
		r := NewRunner(pairEngine(tc.mu, 0.3, tc.seed), NewStudent(0.02), Params{B: 1000, I: 30, Step: 30})
		r.SetJudgmentStore(jstore.NewMemStore(), StorePolicy{Confidence: 0.98})
		sub := r.Derive(Params{B: 120, I: 30, Step: 30})
		if got := sub.Compare(0, 1); got != tc.out {
			t.Fatalf("%s: outcome = %v, want %v", tc.name, got, tc.out)
		}
		if n := sub.CommitConclusions(); n != tc.commits {
			t.Errorf("%s: CommitConclusions = %d, want %d", tc.name, n, tc.commits)
		}
	}
}

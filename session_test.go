package crowdtopk

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSessionReusesJudgments(t *testing.T) {
	// A repeated identical query reuses every judgment. It is not free —
	// SPR's reference selection draws fresh random samples, which can
	// touch never-compared pairs, and a new random reference forces a
	// fresh partition — so on a single seed the repeat can occasionally
	// cost more. The reuse claims hold in aggregate, so the cost
	// comparisons run over several seeds and assert the totals.
	d := SyntheticDataset(50, 0.25, 30)
	var firstTotal, againTotal, deeperTotal, freshTotal int64
	overlap := 0
	const seeds = 8
	for seed := int64(31); seed < 31+seeds; seed++ {
		s, err := NewSession(d, Options{Confidence: 0.95, Budget: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.TopK(5)
		if err != nil {
			t.Fatal(err)
		}
		if first.TMC <= 0 {
			t.Fatal("first query cost nothing")
		}
		again, err := s.TopK(5)
		if err != nil {
			t.Fatal(err)
		}
		// The returned order can differ on budget-exhausted ties, which
		// Algorithm 2 line 5 fills randomly, so compare as sets.
		overlap += overlapCount(again.TopK, first.TopK)

		// A deeper follow-up query costs less than asking it from scratch.
		deeper, err := s.TopK(10)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSession(d, Options{Confidence: 0.95, Budget: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		freshRes, err := fresh.TopK(10)
		if err != nil {
			t.Fatal(err)
		}
		firstTotal += first.TMC
		againTotal += again.TMC
		deeperTotal += deeper.TMC
		freshTotal += freshRes.TMC
		if s.TMC() != first.TMC+again.TMC+deeper.TMC {
			t.Errorf("seed %d: session TMC %d != sum of query deltas", seed, s.TMC())
		}
		if s.Rounds() <= 0 {
			t.Error("session rounds not recorded")
		}
	}
	if againTotal >= firstTotal {
		t.Errorf("repeat queries cost %d tasks total, want below the first runs' %d", againTotal, firstTotal)
	}
	if overlap < 3*seeds {
		t.Errorf("repeat answers drifted: %d/%d items stable, want >= %d", overlap, 5*seeds, 3*seeds)
	}
	if deeperTotal >= freshTotal {
		t.Errorf("incremental k=10 cost %d total not below fresh k=10 runs' %d", deeperTotal, freshTotal)
	}
}

func overlapCount(a, b []int) int {
	in := map[int]bool{}
	for _, x := range b {
		in[x] = true
	}
	n := 0
	for _, x := range a {
		if in[x] {
			n++
		}
	}
	return n
}

func TestSessionJudgeAndTiers(t *testing.T) {
	d := SyntheticDataset(30, 0.2, 32)
	s, err := NewSession(d, Options{Confidence: 0.95, Budget: 1000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	// Judging two returned items reuses the query's evidence.
	cost := s.TMC()
	j, err := s.Judge(res.TopK[0], res.TopK[5])
	if err != nil {
		t.Fatal(err)
	}
	if j.Workload == 0 {
		t.Error("judgment reports zero workload despite purchased samples")
	}
	_ = cost // the comparison may or may not need more samples; sanity only

	// Tiers over the result set against a mid reference: free, covers all.
	ref := res.TopK[5]
	tiers, err := s.Tiers(res.TopK, ref)
	if err != nil {
		t.Fatal(err)
	}
	free := s.TMC()
	if free != s.TMC() {
		t.Error("Tiers spent money")
	}
	total := 0
	for _, tier := range tiers {
		total += len(tier)
	}
	if total != len(res.TopK) {
		t.Errorf("tiers cover %d items, want %d", total, len(res.TopK))
	}

	// Validation errors.
	if _, err := s.Judge(0, 0); err == nil {
		t.Error("Judge(0,0) accepted")
	}
	if _, err := s.Judge(-1, 2); err == nil {
		t.Error("Judge(-1,·) accepted")
	}
	if _, err := s.TopK(0); err == nil {
		t.Error("TopK(0) accepted")
	}
	if _, err := s.Tiers([]int{99}, 0); err == nil {
		t.Error("Tiers with out-of-range item accepted")
	}
	if _, err := s.Tiers([]int{1}, 99); err == nil {
		t.Error("Tiers with out-of-range ref accepted")
	}
}

func TestSessionAuditLogAndReplay(t *testing.T) {
	d := SyntheticDataset(25, 0.25, 34)
	s, err := NewSession(d, Options{Confidence: 0.95, Budget: 200, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAuditLog()
	orig, err := s.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	log := s.AuditLog()
	if int64(len(log)) != s.TMC() {
		t.Fatalf("audit log has %d records, TMC is %d", len(log), s.TMC())
	}

	// Serialize, parse back, replay the exact run without a crowd.
	var buf bytes.Buffer
	if err := s.WriteAuditLog(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAuditLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := ReplayOracle(25, back)
	s2, err := NewSession(replay, Options{Confidence: 0.95, Budget: 200, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.TopK, orig.TopK) {
		t.Errorf("replayed query answered %v, original %v", res2.TopK, orig.TopK)
	}
	if res2.TMC != orig.TMC {
		t.Errorf("replayed cost %d, original %d", res2.TMC, orig.TMC)
	}
}

func TestSessionOptionValidation(t *testing.T) {
	d := SyntheticDataset(10, 0.2, 36)
	if _, err := NewSession(d, Options{Algorithm: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := NewSession(d, Options{PriorScores: []float64{1, 2}}); err == nil {
		t.Error("short PriorScores accepted")
	}
	if _, err := NewSession(d, Options{Policy: StudentOneSided, Confidence: 0.4}); err == nil {
		t.Error("one-sided at confidence <= 0.5 accepted")
	}
}

func TestQueryNewEstimators(t *testing.T) {
	d := SyntheticDataset(30, 0.2, 37)
	for _, est := range []PolicyName{StudentOneSided, HoeffdingPreference} {
		res, err := Query(d, Options{K: 3, Policy: est, Budget: 3000, Seed: 38})
		if err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		if q := Evaluate(d, res.TopK); q.Precision < 0.6 {
			t.Errorf("%s precision %v too low", est, q.Precision)
		}
	}
}

func TestQueryWithPriorScores(t *testing.T) {
	d := SyntheticDataset(60, 0.25, 39)
	prior := make([]float64, 60)
	for i := range prior {
		prior[i] = -float64(d.TrueRank(i))
	}
	withPrior, err := Query(d, Options{K: 6, PriorScores: prior, Budget: 400, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Query(d, Options{K: 6, Budget: 400, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	if withPrior.TMC >= without.TMC {
		t.Errorf("prior-informed TMC %d not below vanilla %d", withPrior.TMC, without.TMC)
	}
	if q := Evaluate(d, withPrior.TopK); q.Precision < 0.6 {
		t.Errorf("prior-informed precision %v too low", q.Precision)
	}
}

func TestTotalBudgetCapsQuery(t *testing.T) {
	d := SyntheticDataset(80, 0.3, 50)
	for _, cap := range []int64{500, 2000, 8000} {
		res, err := Query(d, Options{K: 8, TotalBudget: cap, Seed: 51})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if res.TMC > cap {
			t.Errorf("cap %d exceeded: TMC %d", cap, res.TMC)
		}
		if len(res.TopK) != 8 {
			t.Errorf("cap %d: returned %d items", cap, len(res.TopK))
		}
	}
}

func TestTotalBudgetQualityGrowsWithCap(t *testing.T) {
	d := SyntheticDataset(80, 0.3, 52)
	avgPrecision := func(cap int64) float64 {
		total := 0.0
		for rep := int64(0); rep < 4; rep++ {
			res, err := Query(d, Options{K: 8, TotalBudget: cap, Seed: 53 + rep})
			if err != nil {
				t.Fatal(err)
			}
			total += Evaluate(d, res.TopK).Precision
		}
		return total / 4
	}
	tight, roomy := avgPrecision(400), avgPrecision(30000)
	if roomy <= tight {
		t.Errorf("precision did not grow with the cap: %.2f (400 tasks) vs %.2f (30k)", tight, roomy)
	}
}

func TestTotalBudgetValidation(t *testing.T) {
	d := SyntheticDataset(10, 0.2, 54)
	if _, err := Query(d, Options{K: 2, TotalBudget: -5}); err == nil {
		t.Error("negative TotalBudget accepted")
	}
}

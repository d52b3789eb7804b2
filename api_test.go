package crowdtopk

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestQueryDefaultsFindTopK(t *testing.T) {
	d := SyntheticDataset(60, 0.2, 7)
	res, err := Query(d, Options{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 5 || res.TMC <= 0 || res.Rounds <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	q := Evaluate(d, res.TopK)
	if q.Precision < 0.8 {
		t.Errorf("precision %v below 0.8 (got %v, want %v)", q.Precision, res.TopK, TrueTopK(d, 5))
	}
	if q.NDCG <= 0 || q.NDCG > 1 {
		t.Errorf("NDCG %v out of range", q.NDCG)
	}
}

func TestQueryAllAlgorithms(t *testing.T) {
	d := SyntheticDataset(40, 0.2, 8)
	for _, alg := range []Algorithm{SPR, TourTree, HeapSort, QuickSelect, PBR} {
		res, err := Query(d, Options{K: 4, Algorithm: alg, Budget: 300, Seed: 12})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.TopK) != 4 {
			t.Errorf("%s returned %d items", alg, len(res.TopK))
		}
	}
}

func TestQueryAllEstimators(t *testing.T) {
	d := SyntheticDataset(30, 0.2, 9)
	for _, est := range []PolicyName{Student, Stein, HoeffdingBinary} {
		res, err := Query(d, Options{K: 3, Policy: est, Budget: 2000, Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		if q := Evaluate(d, res.TopK); q.Precision < 0.6 {
			t.Errorf("%s precision %v too low", est, q.Precision)
		}
	}
}

// Every policy name, and "fixed" (the older name of student), answers a
// query; an unknown name fails with the canonical list; an override the
// session cannot run is refused by StartTopK instead of crashing.
func TestQueryEveryPolicy(t *testing.T) {
	d := SyntheticDataset(20, 0.2, 21)
	for _, name := range append(PolicyNames(), "fixed") {
		res, err := Query(d, Options{K: 3, Policy: PolicyName(name), Budget: 300, Seed: 22})
		if err != nil || len(res.TopK) != 3 || res.TMC <= 0 {
			t.Errorf("policy %q: %+v, %v", name, res, err)
		}
	}
	want := `unknown policy "bogus" (available: ` + strings.Join(PolicyNames(), ", ") + ")"
	if _, err := Query(d, Options{K: 3, Policy: "bogus"}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("bogus policy: %v, want %q", err, want)
	}
	if p, err := ResolvePolicy("fixed", 0.95); err != nil || p != Student {
		t.Errorf("ResolvePolicy(fixed) = %q, %v; want student", p, err)
	}

	s, err := NewSession(d, Options{Policy: VoIPolicy, Confidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.StartTopK(context.Background(), 3, QueryOptions{Policy: StudentOneSided}); err == nil {
		t.Error("one-sided override at confidence 0.5 started")
	}
	if _, err := s.ResolvePolicy(StudentOneSided); err == nil {
		t.Error("ResolvePolicy accepted one-sided at confidence 0.5")
	}
	for name, want := range map[PolicyName]PolicyName{"": VoIPolicy, "fixed": Student, Stein: Stein} {
		if p, err := s.ResolvePolicy(name); err != nil || p != want {
			t.Errorf("Session.ResolvePolicy(%q) = %q, %v; want %q", name, p, err, want)
		}
	}
	if _, err := s.TopK(3); err != nil {
		t.Errorf("session unusable after a refused override: %v", err)
	}
}

func TestQueryDeterministic(t *testing.T) {
	run := func() Result {
		res, err := Query(SyntheticDataset(50, 0.3, 14), Options{K: 5, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestQueryValidation(t *testing.T) {
	d := SyntheticDataset(10, 0.2, 16)
	cases := []Options{
		{K: -1}, // K: 0 is not an error — it selects the default of 10
		{K: 11},
		{K: 3, Algorithm: "bogus"},
		{K: 3, Policy: "bogus"},
		{K: 3, Confidence: 1.5},
		{K: 3, MinWorkload: 1},
		{K: 3, BatchSize: -1},
		{K: 3, Budget: 5},
		{K: 3, SweetSpot: 0.5},
		{K: 3, MaxRefChanges: -1},
	}
	for _, o := range cases {
		if _, err := Query(d, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestJudgeEasyAndHardPairs(t *testing.T) {
	d := SyntheticDataset(50, 0.25, 17)
	best := TrueTopK(d, 1)[0]
	order := TrueTopK(d, 50)
	worst := order[49]

	j, err := Judge(d, best, worst, Options{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if j.Outcome != FirstBetter {
		t.Errorf("best vs worst = %v, want first-better", j.Outcome)
	}
	if j.Workload < 30 {
		t.Errorf("workload %d below the minimum", j.Workload)
	}
	if j.Mean <= 0 {
		t.Errorf("mean %v not positive toward the better item", j.Mean)
	}

	// Mirror orientation flips the verdict.
	j2, err := Judge(d, worst, best, Options{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Outcome != SecondBetter {
		t.Errorf("mirrored = %v, want second-better", j2.Outcome)
	}

	// Adjacent items under a small budget stay indistinguishable.
	j3, err := Judge(d, order[20], order[21], Options{Budget: 60, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if j3.Outcome != Indistinguishable {
		t.Logf("adjacent pair resolved as %v (allowed but unusual)", j3.Outcome)
	}
	if j3.Workload > 60 {
		t.Errorf("workload %d exceeds budget", j3.Workload)
	}
}

func TestJudgeValidation(t *testing.T) {
	d := SyntheticDataset(10, 0.2, 20)
	for _, pair := range [][2]int{{-1, 2}, {2, 10}, {3, 3}} {
		if _, err := Judge(d, pair[0], pair[1], Options{}); err == nil {
			t.Errorf("pair %v accepted", pair)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if FirstBetter.String() != "first-better" ||
		SecondBetter.String() != "second-better" ||
		Indistinguishable.String() != "indistinguishable" {
		t.Error("unexpected Outcome strings")
	}
}

func TestDatasetConstructorsAndEvaluate(t *testing.T) {
	sets := []Dataset{
		IMDbDataset(1), BookDataset(2), JesterDataset(3),
		PhotoDataset(4), PeopleAgeDataset(5), SyntheticDataset(20, 0.2, 6),
	}
	for _, d := range sets {
		top := TrueTopK(d, 3)
		q := Evaluate(d, top)
		if q.NDCG != 1 || q.Precision != 1 || q.KendallTau != 1 || q.Footrule != 0 {
			t.Errorf("%s: perfect list scored %+v", d.Name(), q)
		}
	}
	sub := SubsetDataset(sets[5], []int{0, 3, 5, 9})
	if sub.NumItems() != 4 {
		t.Errorf("subset has %d items", sub.NumItems())
	}
}

func TestUnlimitedBudgetOption(t *testing.T) {
	d := SyntheticDataset(20, 0.2, 21)
	res, err := Query(d, Options{K: 3, Budget: -1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	want := TrueTopK(d, 3)
	if !reflect.DeepEqual(res.TopK, want) {
		t.Errorf("unlimited budget result %v, want exact %v", res.TopK, want)
	}
}

func TestQueryOverSimulatedPlatform(t *testing.T) {
	base := SyntheticDataset(40, 0.25, 60)
	oracle := WrapPlatform(base.NumItems(), SimulatedPlatform(base, 6, 61))
	res, err := Query(oracle, Options{K: 5, Budget: 300, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 5 || res.TMC <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	// Ground truth lives on the base dataset.
	if q := Evaluate(base, res.TopK); q.Precision < 0.6 {
		t.Errorf("platform-path precision %v too low", q.Precision)
	}
}

func TestQueryPhaseBreakdown(t *testing.T) {
	d := SyntheticDataset(60, 0.25, 70)
	res, err := Query(d, Options{K: 6, Budget: 300, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p == nil {
		t.Fatal("SPR result missing phase breakdown")
	}
	if p.SelectTMC+p.PartitionTMC+p.RankTMC != res.TMC {
		t.Errorf("phase TMCs %d+%d+%d != total %d",
			p.SelectTMC, p.PartitionTMC, p.RankTMC, res.TMC)
	}
	if p.SelectRounds+p.PartitionRounds+p.RankRounds != res.Rounds {
		t.Errorf("phase rounds do not sum to %d", res.Rounds)
	}
	// Non-SPR algorithms report no phases.
	res2, err := Query(d, Options{K: 6, Algorithm: HeapSort, Budget: 300, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Phases != nil {
		t.Error("heap sort reported SPR phases")
	}
}

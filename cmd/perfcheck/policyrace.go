// The policy race answers whether the adaptive comparison policies earn
// their keep (BENCH_PR10.json). A grid of datasets × algorithms ×
// policies runs full queries and scores each cell by TMC against the
// Lemma 1/3 infimum (internal/topk) at measured NDCG. Every cell is
// repeated with the same seed and must be deterministic (identical TMC
// and top-k across reps); the race gate requires at least one cell where
// an adaptive policy (voi or pac) beats fixed-step Student on
// TMC-vs-infimum at equal-or-better NDCG.
//
// That the fixed-step policy reproduces the pre-policy comparison loop
// byte for byte is proven by internal/compare's equivalence tests
// against the shipped Runner, not here.
package main

import (
	"fmt"
	"reflect"

	"crowdtopk"
	"crowdtopk/internal/topk"
)

// raceReps is the number of same-seed repetitions per grid cell.
const raceReps = 3

// raceCell is one dataset × algorithm × policy grid entry.
type raceCell struct {
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	Policy    string  `json:"policy"`
	TMC       int64   `json:"tmc"`
	Rounds    int64   `json:"rounds"`
	Infimum   float64 `json:"infimum"`
	// Ratio is TMC over the Lemma 1 infimum — the paper's
	// quality-of-execution metric; lower is closer to optimal.
	Ratio float64 `json:"ratio"`
	NDCG  float64 `json:"ndcg"`
}

// policyRaceReport is the BENCH_PR10.json artifact shape.
type policyRaceReport struct {
	K          int     `json:"k"`
	Budget     int     `json:"budget_per_pair"`
	Confidence float64 `json:"confidence"`
	Reps       int     `json:"reps"`

	Grid []raceCell `json:"grid"`
	// Winners lists the cells where an adaptive policy beat fixed-step
	// Student on TMC-vs-infimum at equal-or-better NDCG.
	Winners []string `json:"adaptive_wins"`
}

// runPolicyRace runs the grid and returns the report, or an error naming
// the first violated gate.
func runPolicyRace() (*policyRaceReport, error) {
	rep := &policyRaceReport{K: 8, Budget: 300, Confidence: 0.95, Reps: raceReps}

	datasets := []struct {
		name string
		d    crowdtopk.Dataset
	}{
		{"easy-n40", crowdtopk.SyntheticDataset(40, 0.15, 221)},
		{"noisy-n40", crowdtopk.SyntheticDataset(40, 0.35, 222)},
	}
	algorithms := []crowdtopk.Algorithm{crowdtopk.SPR, crowdtopk.HeapSort}
	// Fixed-step Student comes first: the race gate scores the rest against it.
	policies := []crowdtopk.PolicyName{
		crowdtopk.FixedPolicy, crowdtopk.VoIPolicy, crowdtopk.PACPolicy,
	}

	infP := topk.InfimumParams{Alpha: 1 - rep.Confidence, B: rep.Budget, I: 30, Eta: 30}
	for _, ds := range datasets {
		inf := topk.InfimumCost(ds.d, rep.K, infP)
		for _, alg := range algorithms {
			var fixed raceCell
			for _, pol := range policies {
				var first crowdtopk.Result
				for r := 0; r < rep.Reps; r++ {
					res, err := crowdtopk.Query(ds.d, crowdtopk.Options{
						Algorithm: alg, K: rep.K, Policy: pol,
						Confidence: rep.Confidence, Budget: rep.Budget,
						Seed: 223, Parallelism: 1,
					})
					if err != nil {
						return rep, fmt.Errorf("%s/%s/%s: %w", ds.name, alg, pol, err)
					}
					if r == 0 {
						first = res
						continue
					}
					// Determinism gate: adaptive schedules must not leak
					// nondeterminism — same seed, same query, same answer.
					if res.TMC != first.TMC || !reflect.DeepEqual(res.TopK, first.TopK) {
						return rep, fmt.Errorf("%s/%s/%s rep %d: tmc %d top-k %v diverged from tmc %d top-k %v",
							ds.name, alg, pol, r, res.TMC, res.TopK, first.TMC, first.TopK)
					}
				}
				cell := raceCell{
					Dataset: ds.name, Algorithm: string(alg), Policy: string(pol),
					TMC: first.TMC, Rounds: first.Rounds,
					Infimum: inf, Ratio: float64(first.TMC) / inf,
					NDCG: crowdtopk.Evaluate(ds.d, first.TopK).NDCG,
				}
				rep.Grid = append(rep.Grid, cell)
				// Race gate: an adaptive cell wins with a lower ratio than
				// fixed-step Student at equal-or-better NDCG.
				if pol == crowdtopk.FixedPolicy {
					fixed = cell
				} else if cell.Ratio < fixed.Ratio && cell.NDCG >= fixed.NDCG {
					rep.Winners = append(rep.Winners, cell.Dataset+"/"+cell.Algorithm+"/"+cell.Policy)
				}
			}
		}
	}
	if len(rep.Winners) == 0 {
		return rep, fmt.Errorf("no adaptive policy beat fixed-step Student on any of the %d grid cells", len(rep.Grid))
	}
	return rep, nil
}

func policyRaceMain(jsonOut string) {
	report, err := runPolicyRace()
	for _, c := range report.Grid {
		fmt.Printf("%-10s %-10s %-6s  tmc %6d  inf %8.1f  ratio %5.2f  ndcg %.4f\n",
			c.Dataset, c.Algorithm, c.Policy, c.TMC, c.Infimum, c.Ratio, c.NDCG)
	}
	for _, w := range report.Winners {
		fmt.Printf("perfcheck: adaptive win: %s\n", w)
	}
	if werr := writeJSON(jsonOut, report); werr != nil {
		fatalf("policy-race: %v", werr)
	}
	if err != nil {
		fatalf("policy-race gate failed: %v", err)
	}
}

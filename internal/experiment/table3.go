package experiment

import (
	"fmt"
	"math/rand"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

// table3Confidences are the confidence levels of Table 3.
var table3Confidences = []float64{0.95, 0.98, 0.99}

// table3GradedWorkloads are the per-item workloads of Table 3's graded row.
var table3GradedWorkloads = []int{100, 1000, 10000}

// Table3 reproduces Table 3: the average workload and accuracy of the
// comparison process COMP over the 435 pairs of 30 popular IMDb movies,
// under three judgment models — pairwise binary with Hoeffding intervals,
// pairwise preference with Student-t, pairwise preference with Stein —
// plus the graded model at fixed per-item workloads.
func Table3(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()

	imdb := dataset.NewIMDb(cfg.Seed)
	sub := dataset.RandomSubset(imdb, 30, rand.New(rand.NewSource(cfg.Seed+7)))
	n := sub.NumItems()

	cols := make([]string, len(table3Confidences))
	for i, c := range table3Confidences {
		cols[i] = fmt.Sprintf("%.2f", c)
	}
	models := []struct {
		label  string
		policy func(alpha float64) compare.Policy
	}{
		{"binary-hoeffding", func(a float64) compare.Policy { return compare.NewHoeffding(a) }},
		{"preference-student", func(a float64) compare.Policy { return compare.NewStudent(a) }},
		{"preference-stein", func(a float64) compare.Policy { return compare.NewStein(a) }},
	}
	var rows []string
	for _, m := range models {
		rows = append(rows, m.label+" workload", m.label+" accuracy")
	}
	t := newTable("table3", "Accuracy and workload of judgment models (435 IMDb pairs)", rows, cols)

	// The pairwise section: B = ∞ (capped for safety), one-at-a-time
	// progressive sampling as in Algorithm 1.
	params := compare.Params{B: 200_000, I: cfg.I, Step: 1}
	for mi, m := range models {
		for ci, conf := range table3Confidences {
			alpha := 1 - conf
			var work, acc, cnt float64
			for run := 0; run < cfg.Runs; run++ {
				// The same run seed across confidence levels keeps the
				// columns comparable (common random numbers).
				eng := crowd.NewEngine(sub, rand.New(rand.NewSource(cfg.Seed+int64(run)*131)))
				r := compare.NewRunner(eng, m.policy(alpha), params)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						out := r.Compare(i, j)
						work += float64(r.Workload(i, j))
						correct := (sub.TrueRank(i) < sub.TrueRank(j)) == (out == compare.FirstWins)
						if out != compare.Tie && correct {
							acc++
						}
						cnt++
					}
				}
			}
			t.Values[2*mi][ci] = work / cnt
			t.Values[2*mi+1][ci] = acc / cnt
		}
	}

	// The graded section: every item graded w times, pairs decided by mean
	// grades.
	gcols := make([]string, len(table3GradedWorkloads))
	for i, w := range table3GradedWorkloads {
		gcols[i] = fmt.Sprintf("%d", w)
	}
	g := newTable("table3-graded", "Accuracy of the graded judgment model by per-item workload", []string{"graded accuracy"}, gcols)
	for wi, w := range table3GradedWorkloads {
		var acc, cnt float64
		for run := 0; run < cfg.Runs; run++ {
			eng := crowd.NewEngine(sub, rand.New(rand.NewSource(cfg.Seed+int64(run)*977+int64(wi))))
			means := make([]float64, n)
			for i := 0; i < n; i++ {
				s := 0.0
				for rep := 0; rep < w; rep++ {
					v, _ := eng.Grade(i) // uncapped engine: always ok
					s += v
				}
				means[i] = s / float64(w)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if (sub.TrueRank(i) < sub.TrueRank(j)) == (means[i] > means[j]) {
						acc++
					}
					cnt++
				}
			}
		}
		g.Values[0][wi] = acc / cnt
	}

	t.Notes = append(t.Notes, fmt.Sprintf("averaged over %d runs; paper uses 100", cfg.Runs))
	return []*Table{t, g}
}

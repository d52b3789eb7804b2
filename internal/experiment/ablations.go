package experiment

import (
	"fmt"
	"math/rand"

	"crowdtopk/internal/btl"
	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/metrics"
	"crowdtopk/internal/topk"
)

// AblationEta studies the §5.5 money/latency trade-off: the batch size η
// sweeps from one-at-a-time (minimum money, maximum rounds) to large
// batches (the opposite). SPR on IMDb at defaults.
func AblationEta(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	src := MakeSource("imdb", cfg.Seed)

	etas := []int{1, 5, 10, 30, 60, 120}
	cols := make([]string, len(etas))
	for i, eta := range etas {
		cols[i] = fmt.Sprintf("eta=%d", eta)
	}
	t := newTable("ablation-eta", "Batch size: money vs latency (SPR, IMDb)",
		[]string{"TMC", "latency"}, cols)
	for ci, eta := range etas {
		ecfg := cfg
		ecfg.Eta = eta
		m := measureNamed("spr", src, ecfg)
		t.Values[0][ci] = m.TMC
		t.Values[1][ci] = m.Rounds
	}
	t.Notes = append(t.Notes,
		"latency falls monotonically with η; money is non-monotone: large batches overshoot the stopping point, "+
			"while η=1 maximizes the optional-stopping inflation of Algorithm 1 (a fresh test after every single "+
			"sample) whose spurious early verdicts corrupt the partition and trigger rework")
	return []*Table{t}
}

// AblationSelectionBudget justifies the reduced-budget reference selection
// (DESIGN.md): the naive full-budget reading of Algorithm 3 spends most of
// the query on sorting near-tied sampled maxima.
func AblationSelectionBudget(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	src := MakeSource("imdb", cfg.Seed)

	budgets := []struct {
		label string
		value int
	}{
		{"selB=I", 30},
		{"selB=2I (default)", 0},
		{"selB=4I", 120},
		{"selB=B (naive)", -1},
	}
	cols := make([]string, len(budgets))
	for i, b := range budgets {
		cols[i] = b.label
	}
	t := newTable("ablation-selbudget", "Reference-selection comparison budget (SPR, IMDb)",
		[]string{"TMC", "NDCG"}, cols)
	for ci, b := range budgets {
		m := measure(func(int) topk.Algorithm {
			return &topk.SPR{C: cfg.C, MaxRefChanges: cfg.MaxRefChanges, SelectionBudget: b.value}
		}, src, cfg)
		t.Values[0][ci] = m.TMC
		t.Values[1][ci] = m.NDCG
	}
	return []*Table{t}
}

// AblationJudgment compares the comparison-process variants this library
// adds beyond the paper's Table 3: one-sided Student intervals (§3.1
// remark) and the distribution-free Hoeffding-on-magnitudes policy
// (footnote 3), against the defaults.
func AblationJudgment(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()

	imdb := dataset.NewIMDb(cfg.Seed)
	sub := dataset.RandomSubset(imdb, 30, rand.New(rand.NewSource(cfg.Seed+7)))
	n := sub.NumItems()
	alpha := cfg.Alpha

	policies := []compare.Policy{
		compare.NewStudent(alpha),
		compare.NewStudentOneSided(alpha),
		compare.NewStein(alpha),
		compare.NewHoeffdingPref(alpha),
		compare.NewHoeffding(alpha),
	}
	rows := make([]string, 0, 3*len(policies))
	for _, p := range policies {
		rows = append(rows, p.Name()+" workload", p.Name()+" accuracy", p.Name()+" tie-rate")
	}
	t := newTable("ablation-judgment",
		fmt.Sprintf("Comparison-process variants over 435 IMDb pairs (1-α=%.2f)", 1-alpha),
		rows, []string{"value"})

	// Common random numbers: every pair gets its own engine seeded by the
	// pair identity, so all policies judge the exact same sample streams
	// and their workloads are pointwise comparable. Accuracy is measured
	// over decided pairs — a tie under budget is an honest abstention,
	// not an error. A moderate per-pair cap keeps near-tie pairs from
	// dominating the average.
	params := compare.Params{B: 10_000, I: cfg.I, Step: 1}
	for pi, p := range policies {
		var work, acc, decided, cnt float64
		for run := 0; run < cfg.Runs; run++ {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					seed := cfg.Seed + int64(run)*1_000_003 + int64(i)*1_009 + int64(j)
					eng := crowd.NewEngine(sub, rand.New(rand.NewSource(seed)))
					r := compare.NewRunner(eng, p, params)
					out := r.Compare(i, j)
					work += float64(r.Workload(i, j))
					if out != compare.Tie {
						decided++
						if (sub.TrueRank(i) < sub.TrueRank(j)) == (out == compare.FirstWins) {
							acc++
						}
					}
					cnt++
				}
			}
		}
		t.Values[3*pi][0] = work / cnt
		if decided > 0 {
			t.Values[3*pi+1][0] = acc / decided
		}
		t.Values[3*pi+2][0] = 1 - decided/cnt
	}
	return []*Table{t}
}

// AblationWorkers measures the robustness of the confidence-aware pipeline
// under imperfect worker populations (spammers and per-worker slider
// scales), a dimension the paper leaves to its §2 citations.
func AblationWorkers(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	base := MakeSource("jester", cfg.Seed)

	fractions := []float64{0, 0.1, 0.2, 0.3}
	cols := make([]string, len(fractions))
	for i, f := range fractions {
		cols[i] = fmt.Sprintf("spam=%.0f%%", f*100)
	}
	t := newTable("ablation-workers", "SPR under spammer fractions (Jester, scale-noisy workers)",
		[]string{"TMC", "NDCG"}, cols)
	for ci, f := range fractions {
		var tmc, ndcg float64
		for run := 0; run < cfg.Runs; run++ {
			pool := crowd.NewWorkerPool(base, crowd.WorkerPoolConfig{
				Workers:         200,
				SpammerFraction: f,
				ScaleSD:         0.3,
				Seed:            cfg.Seed + int64(ci),
			})
			eng := crowd.NewEngine(pool, rand.New(rand.NewSource(cfg.Seed+int64(1000*run))))
			r := compare.NewRunner(eng, compare.NewStudent(cfg.Alpha), compare.Params{B: cfg.B, I: cfg.I, Step: cfg.Eta})
			res := topk.Run(&topk.SPR{C: cfg.C, MaxRefChanges: cfg.MaxRefChanges}, r, cfg.K)
			tmc += float64(res.TMC)
			ndcg += metrics.NDCG(res.TopK, base.TrueRank, base.NumItems())
		}
		t.Values[0][ci] = tmc / float64(cfg.Runs)
		t.Values[1][ci] = ndcg / float64(cfg.Runs)
	}
	t.Notes = append(t.Notes, "spammers widen preference variance: cost rises, quality degrades gracefully")
	return []*Table{t}
}

// AblationPhases breaks SPR's cost down by framework phase on every
// dataset — the §5 cost anatomy (select / partition / rank) measured
// rather than asserted.
func AblationPhases(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()

	t := newTable("ablation-phases", "SPR cost by phase (TMC; defaults)",
		DatasetNames, []string{"select", "partition", "rank", "refChanges", "ties"})
	for ri, ds := range DatasetNames {
		src := MakeSource(ds, cfg.Seed)
		var sel, part, rank, changes, ties float64
		for run := 0; run < cfg.Runs; run++ {
			trace := &topk.PhaseTrace{}
			alg := &topk.SPR{C: cfg.C, MaxRefChanges: cfg.MaxRefChanges, Trace: trace}
			r := newRunner(src, cfg, cfg.Seed+int64(1000*run))
			topk.Run(alg, r, cfg.K)
			sel += float64(trace.Select.TMC)
			part += float64(trace.Partition.TMC)
			rank += float64(trace.Rank.TMC)
			changes += float64(trace.RefChanges)
			ties += float64(trace.Ties)
		}
		f := float64(cfg.Runs)
		t.Values[ri][0] = sel / f
		t.Values[ri][1] = part / f
		t.Values[ri][2] = rank / f
		t.Values[ri][3] = changes / f
		t.Values[ri][4] = ties / f
	}
	return []*Table{t}
}

// AblationSort tests the paper's §5.3 sorting argument head-on: the
// ranking phase receives an almost-sorted candidate order, where the
// recommended adjacent (bubble) sort is near-linear while merge sort
// pays its full n·log n comparisons regardless of presortedness.
func AblationSort(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()

	sizes := []int{10, 20, 40, 80}
	cols := make([]string, len(sizes))
	for i, n := range sizes {
		cols[i] = fmt.Sprintf("n=%d", n)
	}
	t := newTable("ablation-sort", "Ranking-phase sort strategy on almost-sorted candidates (TMC)",
		[]string{"adjacent (paper)", "merge"}, cols)

	for ci, n := range sizes {
		src := dataset.NewSynthetic(n, 0.25, cfg.Seed+int64(ci))
		order := dataset.Order(src)
		for ri, strategy := range []topk.SortStrategy{topk.SortAdjacent, topk.SortMerge} {
			var total float64
			for run := 0; run < cfg.Runs; run++ {
				almost := append([]int(nil), order...)
				rng := rand.New(rand.NewSource(cfg.Seed + int64(100*run)))
				for s := 0; s < n/10+1; s++ {
					i := rng.Intn(n - 1)
					almost[i], almost[i+1] = almost[i+1], almost[i]
				}
				r := newRunner(src, cfg, cfg.Seed+int64(1000*run))
				topk.RankCandidates(r, almost, strategy)
				total += float64(r.Engine().TMC())
			}
			t.Values[ri][ci] = total / float64(cfg.Runs)
		}
	}
	t.Notes = append(t.Notes, "the adjacent sort only pays for the inversions; merge re-compares everything")
	return []*Table{t}
}

// AblationCrowdBT compares CrowdBT's uniform random pair selection with
// the active scheme of Chen et al. (refit-and-pick-uncertain-pairs) at
// matched budgets, on a small instance where the budget is genuinely
// tight.
func AblationCrowdBT(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	base := MakeSource("jester", cfg.Seed)

	budgets := []int64{2000, 5000, 10000}
	cols := make([]string, len(budgets))
	for i, b := range budgets {
		cols[i] = fmt.Sprintf("budget=%d", b)
	}
	t := newTable("ablation-crowdbt", "CrowdBT: random vs active pair selection (Jester, NDCG)",
		[]string{"random", "active"}, cols)
	for ci, budget := range budgets {
		for ri, active := range []bool{false, true} {
			var ndcg float64
			for run := 0; run < cfg.Runs; run++ {
				c := btl.NewCrowdBT(budget)
				c.Active = active
				c.Eta = cfg.Eta
				eng := crowd.NewEngine(base, rand.New(rand.NewSource(cfg.Seed+int64(1000*run))))
				order := c.Rank(eng)
				ndcg += metrics.NDCG(order[:cfg.K], base.TrueRank, base.NumItems())
			}
			t.Values[ri][ci] = ndcg / float64(cfg.Runs)
		}
	}
	return []*Table{t}
}

// AblationPrior studies the §7 future-work idea implemented in this
// library: reference selection from prior knowledge at zero crowd cost,
// with perfect and noisy priors, against vanilla sampled selection.
func AblationPrior(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	src := MakeSource("imdb", cfg.Seed)
	n := src.NumItems()

	perfect := make([]float64, n)
	for i := 0; i < n; i++ {
		perfect[i] = -float64(src.TrueRank(i))
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 55))
	noisy := make([]float64, n)
	for i := 0; i < n; i++ {
		noisy[i] = perfect[i] + rng.NormFloat64()*float64(n)/10
	}

	variants := []struct {
		label string
		prior []float64
	}{
		{"sampled (paper)", nil},
		{"perfect prior", perfect},
		{"noisy prior", noisy},
	}
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.label
	}
	t := newTable("ablation-prior", "Prior-informed reference selection (SPR, IMDb; §7)",
		[]string{"TMC", "NDCG"}, cols)
	for ci, v := range variants {
		m := measure(func(int) topk.Algorithm {
			return &topk.SPR{C: cfg.C, MaxRefChanges: cfg.MaxRefChanges, PriorScores: v.prior}
		}, src, cfg)
		t.Values[0][ci] = m.TMC
		t.Values[1][ci] = m.NDCG
	}
	return []*Table{t}
}

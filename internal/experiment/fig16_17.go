package experiment

import (
	"fmt"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/topk"
)

// fig16SweetSpots are the sweet-spot constants of Figure 16.
var fig16SweetSpots = []float64{1.25, 1.50, 1.75, 2.00}

// Figure16 reproduces Appendix F's Figure 16: SPR's TMC as a function of
// the sweet-spot range c on IMDb and Book — the paper's point being that
// the cost is stable in c.
func Figure16(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()

	cols := make([]string, len(fig16SweetSpots))
	for i, c := range fig16SweetSpots {
		cols[i] = fmt.Sprintf("c=%.2f", c)
	}
	t := newTable("fig16", "SPR TMC vs sweet-spot range c", []string{"imdb", "book"}, cols)
	for ri, ds := range []string{"imdb", "book"} {
		src := MakeSource(ds, cfg.Seed)
		for ci, c := range fig16SweetSpots {
			m := measure(func(int) topk.Algorithm {
				return &topk.SPR{C: c, MaxRefChanges: cfg.MaxRefChanges}
			}, src, cfg)
			t.Values[ri][ci] = m.TMC
		}
	}
	return []*Table{t}
}

// Figure17 reproduces Appendix F's Figure 17: SPR's TMC under the Stein
// comparison process versus the Student process, swept over k on IMDb —
// the two estimators should be nearly indistinguishable.
func Figure17(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	cfg.validate()
	src := MakeSource("imdb", cfg.Seed)

	cols := make([]string, len(paperKs))
	for i, k := range paperKs {
		cols[i] = fmt.Sprintf("k=%d", k)
	}
	t := newTable("fig17", "SPR TMC: Stein vs Student comparison process (IMDb)",
		[]string{"student", "stein"}, cols)
	for ri, policyName := range []string{"student", "stein"} {
		for ci, k := range paperKs {
			kcfg := cfg
			kcfg.K = k
			var total float64
			for run := 0; run < kcfg.Runs; run++ {
				var policy compare.Policy
				if policyName == "student" {
					policy = compare.NewStudent(kcfg.Alpha)
				} else {
					policy = compare.NewStein(kcfg.Alpha)
				}
				// Independent crowd seeds per estimator: their stopping
				// rules are algebraically equivalent, so shared seeds
				// would show exactly-equal numbers rather than the
				// paper's natural near-equality.
				r := newRunnerWithPolicy(src, kcfg, policy, kcfg.Seed+int64(1000*run)+int64(ri)*7777)
				alg := &topk.SPR{C: kcfg.C, MaxRefChanges: kcfg.MaxRefChanges}
				total += float64(topk.Run(alg, r, k).TMC)
			}
			t.Values[ri][ci] = total / float64(kcfg.Runs)
		}
	}
	return []*Table{t}
}

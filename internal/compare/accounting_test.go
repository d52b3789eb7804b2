package compare

import (
	"errors"
	"math/rand"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/obs/explain"
)

// gradedPair is gaussPair plus graded microtasks, so one engine serves
// every purchase kind the Runner offers.
type gradedPair struct{ gaussPair }

func (g gradedPair) Grade(rng *rand.Rand, i int) float64 { return float64(i) + rng.Float64() }

// TestRunnerPurchaseAccounting pins the query-level money of each Runner
// purchase path — Draw, DrawOne and Grade — under a healthy engine, a
// budget sub-cap that runs dry, a global cap that truncates, and a
// stopped query. Every case makes three requests and checks that the
// query meter, the engine's TMC, the explain tree and the sub-cap's
// reservation all count exactly the delivered answers, that undelivered
// reservations surface as leaf refunds, and that the stop cause is the
// one the scenario implies.
func TestRunnerPurchaseAccounting(t *testing.T) {
	errCanceled := errors.New("canceled")
	ops := []struct {
		name string
		size int64 // microtasks one request asks for
		leaf string
		buy  func(r *Runner)
	}{
		{"Draw", 30, "0-1", func(r *Runner) { r.Draw(0, 1, 30) }},
		{"DrawOne", 1, "0-1", func(r *Runner) { r.DrawOne(1, 0) }},
		{"Grade", 1, "item:0", func(r *Runner) { r.Grade(0) }},
	}
	scenarios := []struct {
		name string
		// setup prepares the runner and returns the expected charged
		// microtasks, leaf refunds and stop cause for a request size.
		setup func(r *Runner, size int64) (charged, refunds int64, cause error)
	}{
		{"healthy", func(r *Runner, size int64) (int64, int64, error) {
			return 3 * size, 0, nil
		}},
		{"subcap-dry", func(r *Runner, size int64) (int64, int64, error) {
			// The second request gets the remainder (half a batch for
			// Draw, nothing for the single-task paths); the next one
			// finds the sub-cap empty and stops the query.
			budget := size + size/2
			r.SetQueryBudget(budget)
			return budget, 0, ErrBudgetExhausted
		}},
		{"global-cap", func(r *Runner, size int64) (int64, int64, error) {
			// The sub-cap grants every request in full; the engine's cap
			// truncates the first to half and declines the rest, and the
			// shortfall goes back to the sub-cap as refunds.
			r.SetQueryBudget(100 * size)
			r.Engine().SetSpendingCap(r.Engine().TMC() + size/2)
			return size / 2, 3*size - size/2, nil
		}},
		{"stopped", func(r *Runner, size int64) (int64, int64, error) {
			r.Stop(errCanceled)
			return 0, 0, errCanceled
		}},
	}
	for _, op := range ops {
		for _, sc := range scenarios {
			t.Run(op.name+"/"+sc.name, func(t *testing.T) {
				eng := crowd.NewEngine(gradedPair{gaussPair{0.2, 0.3}}, rand.New(rand.NewSource(7)))
				eng.Draw(0, 1, 5) // spend outside the query: the cap must see it
				r := NewRunner(eng, NewStudent(0.02), DefaultParams())
				c := explain.NewCollector()
				r.SetExplain(c)
				r.SetPhase("select")
				charged, refunds, cause := sc.setup(r, op.size)
				before := eng.TMC()
				for n := 0; n < 3; n++ {
					op.buy(r)
				}
				if got := r.QueryTMC(); got != charged {
					t.Errorf("QueryTMC = %d, want %d", got, charged)
				}
				if got := eng.TMC() - before; got != charged {
					t.Errorf("engine TMC delta = %d, want %d", got, charged)
				}
				if got := c.Total(); got != charged {
					t.Errorf("explain Total = %d, want %d", got, charged)
				}
				if b := r.QueryBudget(); b > 0 {
					if got := r.acct.reserved.Load(); got != charged {
						t.Errorf("sub-cap reservation = %d, want the %d charged", got, charged)
					}
				}
				var leaf *explain.PairCost
				for _, ph := range c.Tree().Phases {
					for k := range ph.Pairs {
						if ph.Phase == "select" && ph.Pairs[k].Pair == op.leaf {
							leaf = &ph.Pairs[k]
						}
					}
				}
				switch {
				case leaf == nil && charged+refunds != 0:
					t.Errorf("no explain leaf %q", op.leaf)
				case leaf != nil && (leaf.TMC != charged || leaf.Refunds != refunds):
					t.Errorf("leaf %q: tmc %d refunds %d, want %d and %d", op.leaf, leaf.TMC, leaf.Refunds, charged, refunds)
				}
				if got := r.StopCause(); !errors.Is(got, cause) || (got == nil) != (cause == nil) {
					t.Errorf("StopCause = %v, want %v", got, cause)
				}
			})
		}
	}
}

// Package loadtest drives a crowdtopk Session with hundreds of
// concurrent top-k queries — mixed priorities, budget sub-caps, random
// cancellations — and checks the global invariants that make the service
// layer trustworthy: exact accounting (the per-query meters, the session
// meter and the audit log all agree), well-formed best-effort partials in
// every degraded cell, no budget overdraws, and no leaked goroutines.
//
// It is both a test library (loadtest_test.go runs it under -race) and
// the engine of the service smoke script.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"crowdtopk"
)

// Config shapes one load run. Zero values select a small sane default.
type Config struct {
	// Queries is how many top-k queries to launch (default 20).
	Queries int
	// Concurrency bounds simultaneously running queries (0 = all at once).
	Concurrency int
	// K is the per-query parameter (default 3). Every query uses the same
	// k so result well-formedness is a uniform check.
	K int
	// Priorities is cycled over the queries (empty = all zero).
	Priorities []int
	// Budgets is cycled over the queries as per-query MaxCost sub-caps
	// (empty = uncapped; a zero entry means "this query uncapped").
	Budgets []int64
	// Algorithms is cycled over the queries (empty = session default).
	Algorithms []crowdtopk.Algorithm
	// CancelEvery cancels every Nth query (0 = none): the cancel fires
	// once the query's live TMC meter crosses CancelAfterTMC, so it lands
	// mid-flight rather than before the fork starts work.
	CancelEvery int
	// CancelAfterTMC is the spend threshold that triggers a cancellation
	// (default 1, i.e. as soon as the query has bought anything).
	CancelAfterTMC int64
	// Seed drives the run's own randomness (jittered launch order).
	Seed int64
}

// QueryReport is one query's outcome.
type QueryReport struct {
	Index     int
	K         int
	Priority  int
	Budget    int64
	Algorithm crowdtopk.Algorithm

	TMC    int64
	Rounds int64
	Items  int // len(TopK)
	Err    error

	// CancelRequested records that the harness asked for cancellation;
	// Canceled that the query actually reported a canceled partial (a
	// request can race completion and lose — that is legal).
	CancelRequested bool
	Canceled        bool
	// BudgetStopped reports a partial wrapping ErrBudgetExhausted.
	BudgetStopped bool

	// FinishOrder is the query's rank in completion order (0 = first).
	FinishOrder int
}

// Report aggregates a run.
type Report struct {
	Config  Config
	Queries []QueryReport

	// SessionTMC and AuditLen are deltas over the run.
	SessionTMC int64
	AuditLen   int
	// AuditOn records whether the session had its audit log enabled
	// before the run (the audit invariant is only checked when true).
	AuditOn bool

	// GoroutinesBefore/After bracket the run (After is sampled once the
	// session has quiesced; see StableGoroutines).
	GoroutinesBefore int
	GoroutinesAfter  int
}

// Run launches cfg.Queries concurrent queries against the session and
// waits for all of them. It does not Close the session.
func Run(sess *crowdtopk.Session, cfg Config) *Report {
	if cfg.Queries <= 0 {
		cfg.Queries = 20
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.CancelAfterTMC <= 0 {
		cfg.CancelAfterTMC = 1
	}
	rep := &Report{Config: cfg, Queries: make([]QueryReport, cfg.Queries)}
	rep.GoroutinesBefore = runtime.NumGoroutine()
	tmc0 := sess.TMC()
	audit0 := sess.AuditLen()

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(cfg.Queries) // jitter launch order vs priority order

	var sem chan struct{}
	if cfg.Concurrency > 0 {
		sem = make(chan struct{}, cfg.Concurrency)
	}
	var finish struct {
		sync.Mutex
		n int
	}
	var wg sync.WaitGroup
	for _, idx := range order {
		qr := &rep.Queries[idx]
		qr.Index = idx
		qr.K = cfg.K
		if len(cfg.Priorities) > 0 {
			qr.Priority = cfg.Priorities[idx%len(cfg.Priorities)]
		}
		if len(cfg.Budgets) > 0 {
			qr.Budget = cfg.Budgets[idx%len(cfg.Budgets)]
		}
		if len(cfg.Algorithms) > 0 {
			qr.Algorithm = cfg.Algorithms[idx%len(cfg.Algorithms)]
		}
		qr.CancelRequested = cfg.CancelEvery > 0 && idx%cfg.CancelEvery == 0

		wg.Add(1)
		go func(qr *QueryReport) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			h, err := sess.StartTopK(ctx, qr.K, crowdtopk.QueryOptions{
				Algorithm: qr.Algorithm,
				MaxCost:   qr.Budget,
				Priority:  qr.Priority,
			})
			if err != nil {
				qr.Err = err
				return
			}
			stopWatch := make(chan struct{})
			if qr.CancelRequested {
				// Cancel mid-flight: wait for the live meter to show real
				// spend, then pull the plug.
				go func() {
					for {
						select {
						case <-stopWatch:
							return
						case <-time.After(100 * time.Microsecond):
						}
						if h.TMC() >= cfg.CancelAfterTMC {
							cancel()
							return
						}
					}
				}()
			}
			res, rerr := h.Wait()
			close(stopWatch)
			qr.TMC, qr.Rounds, qr.Items = res.TMC, res.Rounds, len(res.TopK)
			qr.Err = rerr
			qr.Canceled = errors.Is(rerr, context.Canceled)
			qr.BudgetStopped = errors.Is(rerr, crowdtopk.ErrBudgetExhausted)
			finish.Lock()
			qr.FinishOrder = finish.n
			finish.n++
			finish.Unlock()
		}(qr)
	}
	wg.Wait()

	rep.SessionTMC = sess.TMC() - tmc0
	rep.AuditLen = int(sess.AuditLen() - audit0)
	// A session without an audit trail counts no records even after
	// spending; one with a trail counts from the first charged microtask.
	rep.AuditOn = sess.AuditLen() > 0
	rep.GoroutinesAfter = runtime.NumGoroutine()
	return rep
}

// Check verifies the run's invariants and returns the first violation.
func (r *Report) Check() error {
	var sum int64
	for i := range r.Queries {
		q := &r.Queries[i]
		sum += q.TMC
		if q.Err != nil {
			var partial *crowdtopk.PartialResultError
			if !errors.As(q.Err, &partial) {
				return fmt.Errorf("query %d: error is not a PartialResultError: %v", q.Index, q.Err)
			}
		}
		if q.Items != q.K {
			return fmt.Errorf("query %d: got %d items, want k=%d (err=%v)", q.Index, q.Items, q.K, q.Err)
		}
		if q.Budget > 0 && q.TMC > q.Budget {
			return fmt.Errorf("query %d: overdraw: spent %d over sub-cap %d", q.Index, q.TMC, q.Budget)
		}
		if q.TMC < 0 || q.Rounds < 0 {
			return fmt.Errorf("query %d: negative meters: tmc=%d rounds=%d", q.Index, q.TMC, q.Rounds)
		}
	}
	// The global ledger: every microtask the session charged is owned by
	// exactly one query, and every audit record was charged.
	if sum != r.SessionTMC {
		return fmt.Errorf("accounting: sum of per-query TMC %d != session TMC %d", sum, r.SessionTMC)
	}
	if r.AuditOn && int64(r.AuditLen) != r.SessionTMC {
		return fmt.Errorf("accounting: audit log grew by %d, session TMC by %d", r.AuditLen, r.SessionTMC)
	}
	return nil
}

// Partials counts queries that returned a degraded (partial) result.
func (r *Report) Partials() (canceled, budget, other int) {
	for i := range r.Queries {
		q := &r.Queries[i]
		switch {
		case q.Err == nil:
		case q.Canceled:
			canceled++
		case q.BudgetStopped:
			budget++
		default:
			other++
		}
	}
	return
}

// MeanFinishOrder returns the average completion rank of the queries at
// the given priority — the load test's priority-ordering probe: under a
// contended worker pool, higher-priority queries should finish earlier
// (smaller mean rank) than lower-priority ones launched together.
func (r *Report) MeanFinishOrder(priority int) float64 {
	var sum, n float64
	for i := range r.Queries {
		if r.Queries[i].Priority == priority {
			sum += float64(r.Queries[i].FinishOrder)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// StableGoroutines polls until the goroutine count drops to at most
// want+slack or the timeout elapses, returning the final count. Draining
// platform workers and AfterFunc timers land asynchronously after Close,
// so leak checks need a grace window rather than an instant sample.
func StableGoroutines(want, slack int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC() // finalize dead timer goroutines promptly
		n := runtime.NumGoroutine()
		if n <= want+slack || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

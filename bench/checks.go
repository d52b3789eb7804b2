package main

import (
	"fmt"
	"os"
)

// Output checks. Each checks a contract DESIGN.md states and a passing
// test covers; see README.md for the ones deliberately not checked.

// validTopK checks that a top-k answer holds k distinct items in [0, n).
func validTopK(top []int, k, n int) error {
	if len(top) != k {
		return fmt.Errorf("top-k holds %d items, want %d", len(top), k)
	}
	seen := make(map[int]bool, k)
	for _, it := range top {
		if it < 0 || it >= n {
			return fmt.Errorf("top-k item %d outside [0,%d)", it, n)
		}
		if seen[it] {
			return fmt.Errorf("top-k repeats item %d", it)
		}
		seen[it] = true
	}
	return nil
}

// ledger is the money trail of a set of queries: every query's own TMC,
// the engine's (or engines') total, and the audit-log length where one
// was kept (-1 when not).
type ledger struct {
	queryTMC   []int64
	sessionTMC int64
	auditLen   int64
}

// reconcile checks exact money reconciliation: Σ per-query TMC ==
// session TMC (== audit-log length when kept).
func (l ledger) reconcile() error {
	var sum int64
	for _, t := range l.queryTMC {
		sum += t
	}
	if sum != l.sessionTMC {
		return fmt.Errorf("ledger unbalanced: Σ query TMC %d != session TMC %d", sum, l.sessionTMC)
	}
	if l.auditLen >= 0 && l.auditLen != l.sessionTMC {
		return fmt.Errorf("ledger unbalanced: audit log holds %d records, session TMC %d", l.auditLen, l.sessionTMC)
	}
	return nil
}

// diverged records a query whose answer differs from another run of the
// same query. Deterministic mode promises identical answers for a seed
// at any parallelism, and TestQueryParallelismEquivalence covers it for
// the fixed policy, so there (strict) a divergence fails the run. No
// passing test covers the adaptive policies, which do diverge by a few
// microtasks at Parallelism > 1, nor a query reading store records that
// such a divergence wrote: those are counted in
// compare.adaptive_divergences and reported, not failed.
func (r *report) diverged(what fmt.Stringer, strict bool, detail string) {
	if strict {
		r.fail("%v: %s", what, detail)
		return
	}
	r.layer["compare.adaptive_divergences"]++
	fmt.Fprintf(os.Stderr, "bench: adaptive policy diverged: %v: %s\n", what, detail)
}

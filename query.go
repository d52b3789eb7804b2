package crowdtopk

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/obs/explain"
	"crowdtopk/internal/topk"
)

// CostTree is a query's aggregated cost attribution — query → phase →
// pair, where each leaf records the microtasks charged (TMC), purchase
// calls, refunds, memo/store hits, and the verdict with its
// confidence-interval half-width at conclusion. The tree's TMC equals
// the leaf sum equals the query's Result.TMC exactly: both meters are
// fed by the same charge sites (the reconciliation invariant).
type CostTree = explain.Tree

// PhaseCost is one phase aggregate of a CostTree.
type PhaseCost = explain.PhaseCost

// PairCost is one pair leaf of a CostTree.
type PairCost = explain.PairCost

// ErrBudgetExhausted reports a query stopped by its per-query budget
// sub-cap (QueryOptions.MaxCost): the query wanted more evidence than its
// cap allowed and concluded best-effort. It surfaces wrapped in a
// *PartialResultError; detect it with errors.Is.
var ErrBudgetExhausted = compare.ErrBudgetExhausted

// ErrSessionClosed reports an operation on a closed session. Queries in
// flight when Close is called are stopped with this cause and return
// their best-effort answer as a *PartialResultError wrapping it.
var ErrSessionClosed = errors.New("crowdtopk: session closed")

// QueryOptions configures one TopK call within a session beyond the
// session-wide Options. The zero value asks for a plain query: the
// session's algorithm, no budget sub-cap, neutral priority.
type QueryOptions struct {
	// Algorithm overrides the session's query processor for this call
	// ("" keeps the session default). All algorithms share the session's
	// purchased evidence either way.
	Algorithm Algorithm
	// Policy overrides the session's comparison policy for this call (""
	// keeps the session default) — per-tenant policy selection on one
	// shared session. The query runs its comparisons under the named
	// policy while sharing the session's purchased evidence; verdicts
	// are reused only between queries under the same policy (within the
	// session through the conclusion memo, across sessions through the
	// judgment store), and a different policy re-judges a pair under its
	// own stopping rule.
	Policy PolicyName
	// MaxCost carves a per-query budget sub-cap out of the session's
	// TotalBudget: this query may charge at most MaxCost microtasks.
	// When the sub-cap runs dry the query stops and returns its
	// best-effort answer as a *PartialResultError wrapping
	// ErrBudgetExhausted — with exact spend, and without touching the
	// session cap or any concurrent query. The sub-cap is a ceiling, not
	// a reservation: whatever this query leaves unspent was never
	// withheld from its neighbors. 0 means no sub-cap.
	MaxCost int64
	// Priority weights the shared comparison scheduler's dequeue: among
	// queries with pending work, higher priority is always served first;
	// equal priorities share the worker pool round-robin (the default
	// fair-share). Negative priorities yield to the default 0.
	Priority int
	// Explain attaches per-pair cost attribution to this query even when
	// the session runs without Telemetry. With Options.Telemetry set,
	// attribution is always on and this flag is redundant. Read the tree
	// with QueryHandle.Explain.
	Explain bool
}

// QueryHandle is a live top-k query started with Session.StartTopK: a
// ticket for streaming progress, canceling, and collecting the result.
// All methods are safe for concurrent use.
type QueryHandle struct {
	k      int
	alg    Algorithm
	prio   int
	fork   *compare.Runner
	cancel context.CancelCauseFunc
	done   chan struct{}
	res    Result
	err    error
}

// K returns the query parameter k.
func (h *QueryHandle) K() int { return h.k }

// Algorithm returns the processor answering the query.
func (h *QueryHandle) Algorithm() Algorithm { return h.alg }

// Policy returns the name of the comparison policy the query runs under
// ("student", "voi", ...; the legacy spelling "fixed" reads as "student").
func (h *QueryHandle) Policy() PolicyName { return PolicyName(h.fork.PolicyName()) }

// Priority returns the query's scheduling priority.
func (h *QueryHandle) Priority() int { return h.prio }

// TMC returns the microtasks this query has charged so far — live and
// exact, even while other queries share the session.
func (h *QueryHandle) TMC() int64 { return h.fork.QueryTMC() }

// Rounds returns the latency rounds this query has consumed so far.
func (h *QueryHandle) Rounds() int64 { return h.fork.QueryRounds() }

// Phase returns the algorithm phase the query is currently executing
// ("select", "partition", "rank" for SPR), or "" between phases and for
// algorithms that do not report phases.
func (h *QueryHandle) Phase() string { return h.fork.Phase() }

// Explain returns the query's cost-attribution tree: where every charged
// microtask went, by phase and pair. Safe to call at any time — while
// the query runs it is a live view; after completion it is final and its
// TMC equals Result.TMC exactly. Returns an empty tree when attribution
// is off (no session Telemetry and QueryOptions.Explain unset).
func (h *QueryHandle) Explain() *CostTree { return h.fork.Explain().Tree() }

// ExplainTotal returns the attributed spend without building the full
// tree — the cheap probe for live reconciliation checks. 0 when
// attribution is off.
func (h *QueryHandle) ExplainTotal() int64 { return h.fork.Explain().Total() }

// ExplainEnabled reports whether cost attribution is recording for this
// query (session Telemetry set, or QueryOptions.Explain).
func (h *QueryHandle) ExplainEnabled() bool { return h.fork.Explain() != nil }

// Cancel stops the query: purchases stop, pending comparison steps are
// dropped, in-flight steps drain, and Wait returns the best-effort
// result with a *PartialResultError wrapping context.Canceled. Cancel is
// idempotent and a no-op after completion.
func (h *QueryHandle) Cancel() { h.cancel(context.Canceled) }

// Done returns a channel closed when the query has finished (normally,
// canceled, or degraded).
func (h *QueryHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the query finishes and returns its result, exactly
// as Session.TopKContext would.
func (h *QueryHandle) Wait() (Result, error) {
	<-h.done
	return h.res, h.err
}

// TopKContext answers a top-k query within the session under a context:
// canceling ctx (or exceeding its deadline) stops the query's purchases,
// drops its pending comparison steps, drains the in-flight ones, and
// returns the best-effort answer with exact spend as a
// *PartialResultError wrapping context.Cause(ctx). See QueryOptions for
// the per-query budget sub-cap and scheduler priority.
func (s *Session) TopKContext(ctx context.Context, k int, qo QueryOptions) (Result, error) {
	h, err := s.StartTopK(ctx, k, qo)
	if err != nil {
		return Result{}, err
	}
	return h.Wait()
}

// ResolvePolicy returns the canonical name of the policy a query on this
// session asking for name runs under ("" resolves to the session's own),
// or why it cannot run: an unknown name, or a confidence the policy
// cannot run at. It is the check StartTopK makes, for callers that admit
// queries before starting them.
func (s *Session) ResolvePolicy(name PolicyName) (PolicyName, error) {
	pol, err := s.queryPolicy(name)
	switch {
	case err != nil:
		return "", err
	case pol == nil:
		return s.opts.Policy, nil
	}
	return PolicyName(pol.Name()), nil
}

// queryPolicy builds a query's policy override: nil when the query runs
// under the session's own policy ("" or any spelling of it), so the
// common case shares the session policy instead of building a new one.
func (s *Session) queryPolicy(name PolicyName) (compare.Policy, error) {
	if name == "" {
		return nil, nil
	}
	name = PolicyName(compare.CanonicalPolicy(string(name)))
	if name == s.opts.Policy {
		return nil, nil
	}
	return newPolicy(name, s.opts.Confidence)
}

// StartTopK begins a top-k query asynchronously and returns a handle for
// progress, cancellation and the result — the primitive a long-running
// query service builds on. The query runs on its own goroutine; the
// handle's meters (TMC, Rounds, Phase) read live. Every started query is
// finished (or stopped) by Session.Close.
func (s *Session) StartTopK(ctx context.Context, k int, qo QueryOptions) (*QueryHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := s.runner.Engine().NumItems()
	if k < 1 || k > n {
		return nil, fmt.Errorf("crowdtopk: k=%d out of range [1,%d]", k, n)
	}
	opts := s.opts
	opts.K = k
	if qo.Algorithm != "" {
		opts.Algorithm = qo.Algorithm
	}
	alg, err := newAlgorithm(opts)
	if err != nil {
		return nil, err
	}
	// A per-query policy override is built up front so an unknown name
	// fails the call before anything is started.
	pol, err := s.queryPolicy(qo.Policy)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()

	r := s.runner.Fork()
	if pol != nil {
		r.SetPolicy(pol)
	}
	if s.opts.Telemetry != nil || qo.Explain {
		r.SetExplain(explain.NewCollector())
	}
	if qo.MaxCost > 0 {
		r.SetQueryBudget(qo.MaxCost)
	}
	r.SetQueryPriority(int32(qo.Priority))
	if d, ok := ctx.Deadline(); ok {
		r.SetQueryDeadline(d)
	}

	qctx, cancel := context.WithCancelCause(ctx)
	unclose := context.AfterFunc(s.closeCtx, func() { cancel(ErrSessionClosed) })

	h := &QueryHandle{
		k: k, alg: opts.Algorithm, prio: qo.Priority,
		fork: r, cancel: cancel, done: make(chan struct{}),
	}
	go func() {
		defer s.inflight.Done()
		defer unclose()
		defer cancel(nil) // release the context's resources on every path
		before := s.opts.Telemetry.snapshot()
		start := time.Now()
		res := topk.RunContext(qctx, alg, r, k)
		r.CommitConclusions()
		out := Result{TopK: res.TopK, TMC: res.TMC, Rounds: res.Rounds}
		out.Stats = s.opts.Telemetry.statsSince(before, time.Since(start))
		if out.Stats != nil {
			out.Stats.TMC = res.TMC
			out.Stats.Rounds = res.Rounds
		}
		h.res = out
		if res.Err != nil {
			h.err = partialError(out, s.runner.Engine().Oracle(), res.Err)
		}
		close(h.done)
	}()
	return h, nil
}

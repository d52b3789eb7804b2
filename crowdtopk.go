package crowdtopk

import (
	"fmt"
	"math/rand"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/topk"
)

// Oracle is the crowd: each call to Preference publishes one microtask —
// "compare item i with item j" — to one independent worker and returns
// her answer in [-1, 1] (positive favors i, magnitude is strength of
// preference). Implementations backed by real crowdsourcing platforms
// block until the answer arrives; the provided datasets simulate workers
// from rating data. Preference must be antisymmetric in distribution.
type Oracle = crowd.Oracle

// Grader is optionally implemented by oracles that can also answer
// absolute rating microtasks ("grade item i"), enabling the hybrid
// two-phase methods.
type Grader = crowd.Grader

// PlatformFailure is one entry of the platform failure log: a timeout,
// transient error, quarantined answer, re-post, or circuit-breaker event
// observed while talking to a crowd platform.
type PlatformFailure = crowd.FailureEvent

// PartialResultError reports a query that could not buy all the evidence
// it wanted because the crowd platform failed mid-flight. The query does
// not lose the money already spent: Result holds the best-effort top-k
// computed from every judgment purchased before the failure, TMC is
// exact (only delivered answers were charged), and Failures is the
// platform failure log explaining what went wrong.
//
// Detect it with errors.As:
//
//	res, err := crowdtopk.Query(oracle, opts)
//	var partial *crowdtopk.PartialResultError
//	if errors.As(err, &partial) {
//		// partial.Result is usable, partial.Failures says why it is partial
//	}
type PartialResultError struct {
	// Result is the best-effort answer: the k most plausible items on the
	// evidence purchased so far, with exact cost accounting.
	Result Result
	// Failures is the platform failure log, oldest first.
	Failures []PlatformFailure
	// Err is the underlying platform error that degraded the query.
	Err error
}

// Error implements error.
func (e *PartialResultError) Error() string {
	return fmt.Sprintf("crowdtopk: partial result (spent %d microtasks, %d failure events): %v",
		e.Result.TMC, len(e.Failures), e.Err)
}

// Unwrap exposes the underlying platform error to errors.Is/As.
func (e *PartialResultError) Unwrap() error { return e.Err }

// queryResult assembles a finished query's Result — the one builder
// behind Query and Session.StartTopK. An SPR query's phase breakdown
// comes from the trace newAlgorithm attached. A telemetry bundle may
// serve concurrent queries, so the registry diff in stats may fold their
// traffic into this query's window; its TMC and Rounds are overwritten
// with this query's exact per-query meter. A degraded run's outcome
// comes back with a *PartialResultError carrying the oracle's failure
// log when it keeps one.
func queryResult(res topk.Result, stats *QueryStats, alg topk.Algorithm, o Oracle) (Result, error) {
	out := Result{TopK: res.TopK, TMC: res.TMC, Rounds: res.Rounds, Stats: stats}
	if spr, ok := alg.(*topk.SPR); ok {
		tr := spr.Trace
		out.Phases = &PhaseBreakdown{
			SelectTMC: tr.Select.TMC, PartitionTMC: tr.Partition.TMC, RankTMC: tr.Rank.TMC,
			SelectRounds: tr.Select.Rounds, PartitionRounds: tr.Partition.Rounds, RankRounds: tr.Rank.Rounds,
			RefChanges: tr.RefChanges,
		}
	}
	if stats != nil {
		stats.TMC = res.TMC
		stats.Rounds = res.Rounds
	}
	if res.Err == nil {
		return out, nil
	}
	pe := &PartialResultError{Result: out, Err: res.Err}
	if fr, ok := o.(crowd.FailureReporter); ok {
		pe.Failures = fr.Failures()
	}
	return out, pe
}

// judge runs (or re-reads) one confidence-aware comparison on r — the
// one builder behind Judge and Session.Judge. When the platform failed
// mid-comparison the verdict rests on whatever evidence arrived before,
// and the failure comes back with it.
func judge(r *compare.Runner, i, j int) (Judgment, error) {
	n := r.Engine().NumItems()
	if i < 0 || i >= n || j < 0 || j >= n || i == j {
		return Judgment{}, fmt.Errorf("crowdtopk: invalid pair (%d, %d) over %d items", i, j, n)
	}
	out := r.Compare(i, j)
	r.CommitConclusions()
	v := r.Engine().View(i, j)
	return Judgment{Outcome: Outcome(out), Workload: v.N, Mean: v.Mean, SD: v.SD}, r.Err()
}

// Result is the outcome of a top-k query.
type Result struct {
	// TopK holds the k best items, best first.
	TopK []int
	// TMC is the total monetary cost: the number of microtasks purchased.
	TMC int64
	// Rounds is the query latency measured in batch rounds (§5.5): waves
	// of microtasks that were outsourced in parallel.
	Rounds int64
	// Phases breaks the cost down by SPR framework phase. It is nil for
	// the non-SPR algorithms.
	Phases *PhaseBreakdown
	// Stats is the structured telemetry snapshot of this run — cost,
	// comparison, wave and resilience counters, incremental to the query.
	// It is nil unless Options.Telemetry was set.
	Stats *QueryStats
}

// PhaseBreakdown attributes an SPR query's cost to the framework's three
// phases (§5.1-5.3).
type PhaseBreakdown struct {
	// SelectTMC, PartitionTMC and RankTMC split the monetary cost.
	SelectTMC, PartitionTMC, RankTMC int64
	// SelectRounds, PartitionRounds and RankRounds split the latency.
	SelectRounds, PartitionRounds, RankRounds int64
	// RefChanges counts Algorithm 4's reference upgrades.
	RefChanges int
}

// Outcome is the verdict of a single confidence-aware comparison.
type Outcome int

// Possible verdicts of Judge.
const (
	// Indistinguishable means the budget ran out before the confidence
	// interval excluded the neutral value.
	Indistinguishable Outcome = 0
	// FirstBetter means o_i ≻ o_j at the requested confidence.
	FirstBetter Outcome = 1
	// SecondBetter means o_i ≺ o_j at the requested confidence.
	SecondBetter Outcome = -1
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case FirstBetter:
		return "first-better"
	case SecondBetter:
		return "second-better"
	default:
		return "indistinguishable"
	}
}

// Judgment reports a single pairwise comparison: the verdict and what it
// cost.
type Judgment struct {
	Outcome Outcome
	// Workload is the number of microtasks the comparison consumed.
	Workload int
	// Mean and SD are the sample statistics of the purchased preferences,
	// oriented toward the first item.
	Mean, SD float64
}

// Query finds the top-k items of the oracle's item set, minimizing the
// total monetary cost subject to per-comparison confidence (the paper's
// problem statement, §4). The default configuration runs SPR with
// Student-t comparisons at confidence 0.98 and budget 1000.
//
// When the oracle is backed by a crowd platform that fails mid-query
// (after retries, see Options.Resilience), Query does not discard the
// evidence already paid for: it returns the best-effort Result computed
// from it together with a *PartialResultError carrying the platform
// failure log.
func Query(o Oracle, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(o.NumItems()); err != nil {
		return Result{}, err
	}
	r, err := newRunner(o, opts)
	if err != nil {
		return Result{}, err
	}
	alg, err := newAlgorithm(opts)
	if err != nil {
		return Result{}, err
	}
	before := opts.Telemetry.snapshot()
	start := time.Now()
	res := topk.Run(alg, r, opts.K)
	r.CommitConclusions()
	stats := opts.Telemetry.statsSince(before, time.Since(start))
	return queryResult(res, stats, alg, r.Engine().Oracle())
}

// Judge runs one confidence-aware comparison COMP(o_i, o_j): it keeps
// purchasing preference microtasks for the pair until the policy can
// call a winner at the configured confidence, or the budget runs out.
// Options.K and the SPR-specific options are ignored.
func Judge(o Oracle, i, j int, opts Options) (Judgment, error) {
	opts = opts.withDefaults()
	opts.K = 1 // irrelevant to a single comparison; keep validation happy
	if err := opts.validate(o.NumItems()); err != nil {
		return Judgment{}, err
	}
	r, err := newRunner(o, opts)
	if err != nil {
		return Judgment{}, err
	}
	return judge(r, i, j)
}

// ResolvePolicy returns the canonical name of the policy a query asking
// for name runs under at the given confidence ("" and "fixed" resolve to
// Student), or why it cannot run: an unknown name (the error lists
// PolicyNames), or a confidence the policy cannot run at. Query and
// NewSession make the same check; it is exported for callers that
// validate flags before opening anything. Session.ResolvePolicy is the
// per-query form.
func ResolvePolicy(name PolicyName, confidence float64) (PolicyName, error) {
	pol, err := newPolicy(name, confidence)
	if err != nil {
		return "", err
	}
	return PolicyName(pol.Name()), nil
}

// newPolicy builds the named comparison policy at the given confidence.
// It is the one construction path — session defaults, per-query
// overrides and service admission all go through it — and reports an
// unknown name or a confidence the policy cannot run at as an error.
func newPolicy(name PolicyName, confidence float64) (compare.Policy, error) {
	pol, err := compare.NewPolicy(string(name), 1-confidence)
	if err != nil {
		return nil, fmt.Errorf("crowdtopk: %w", err)
	}
	return pol, nil
}

func newRunner(o Oracle, opts Options) (*compare.Runner, error) {
	policy, err := newPolicy(opts.Policy, opts.Confidence)
	if err != nil {
		return nil, err
	}
	if opts.Resilience != nil {
		if po, ok := o.(*crowd.PlatformOracle); ok {
			o = po.WithResilience(opts.Resilience.policy())
		}
	}
	eng := crowd.NewEngine(o, rand.New(rand.NewSource(opts.Seed)))
	if opts.TotalBudget > 0 {
		eng.SetSpendingCap(opts.TotalBudget)
	}
	r := compare.NewRunner(eng, policy, compare.Params{
		B: opts.Budget, I: opts.MinWorkload, Step: opts.BatchSize,
		Parallelism: opts.Parallelism,
		Async:       opts.Scheduling == Async,
	})
	if opts.Telemetry != nil {
		r.SetTelemetry(opts.Telemetry.tel)
	}
	if opts.JudgmentStore != nil {
		r.SetJudgmentStore(opts.JudgmentStore, compare.StorePolicy{
			TTL:        opts.JudgmentTTL,
			Confidence: opts.Confidence,
		})
	}
	return r, nil
}

func newAlgorithm(opts Options) (topk.Algorithm, error) {
	switch opts.Algorithm {
	case SPR:
		return &topk.SPR{
			C:             opts.SweetSpot,
			MaxRefChanges: opts.MaxRefChanges,
			PriorScores:   opts.PriorScores,
			Trace:         &topk.PhaseTrace{},
		}, nil
	case TourTree:
		return topk.TourTree{}, nil
	case HeapSort:
		return topk.HeapSort{}, nil
	case QuickSelect:
		return topk.QuickSelect{}, nil
	case PBR:
		return &topk.PBR{Alpha: 1 - opts.Confidence}, nil
	default:
		return nil, fmt.Errorf("crowdtopk: unknown algorithm %q", opts.Algorithm)
	}
}

package crowdtopk

import (
	"fmt"
	"runtime"
	"time"

	"crowdtopk/internal/compare"
)

// Algorithm selects a top-k query processor.
type Algorithm string

// The available query processors.
const (
	// SPR is the paper's Select-Partition-Rank framework — the default,
	// and the cheapest confidence-aware method on every evaluated dataset.
	SPR Algorithm = "spr"
	// TourTree is the tournament-tree baseline (§4.1).
	TourTree Algorithm = "tourtree"
	// HeapSort is the crowd heap-sort baseline (§4.2).
	HeapSort Algorithm = "heapsort"
	// QuickSelect is the crowd quick-selection baseline (§4.3).
	QuickSelect Algorithm = "quickselect"
	// PBR is preference-based racing on binary judgments (Busa-Fekete et
	// al.), included for completeness; it is far more expensive.
	PBR Algorithm = "pbr"
)

// SchedulingMode selects how a query's comparisons are interleaved on
// the worker pool.
type SchedulingMode string

// The available scheduling modes.
const (
	// Deterministic (the default) runs comparisons in lockstep waves:
	// every undecided pair advances one batch per round and the round
	// waits for all of them. Results are byte-identical for a fixed seed
	// at any Parallelism, and latency accounting follows the paper's
	// batch-round model (§5.5) exactly.
	Deterministic SchedulingMode = "deterministic"
	// Async lets every comparison chain free-run on the shared
	// scheduler: the moment a pair is decided its worker slot is handed
	// to the next pending pair, so one straggler comparison no longer
	// stalls a whole wave. The result set is unchanged on decisive data
	// (each comparison still sees its own deterministic sample stream),
	// but the order in which ties break and the round accounting may
	// differ from deterministic mode. With Parallelism 1 async degrades
	// gracefully to deterministic.
	Async SchedulingMode = "async"
)

// PolicyName selects the comparison policy: the statistical stopping rule
// that decides whether a pair's verdict is in, together with the sampling
// schedule that decides how many microtasks to buy about it next. The
// full list is PolicyNames().
type PolicyName string

// The available policies.
const (
	// Student is Algorithm 1 (STUDENTCOMP): Student-t confidence
	// intervals on preference means under the paper's fixed schedule
	// (§5.5) — MinWorkload samples to overcome cold start, then
	// BatchSize per batch until the interval excludes 0 or the per-pair
	// Budget runs dry. The default.
	Student PolicyName = "student"
	// Stein is Algorithm 5 (STEINCOMP): Stein's estimation, recast
	// progressively, on the fixed schedule. Its stopping rule is
	// Student's up to the paper's ε = 1e-9, so it runs Student's rule
	// under its own name (its labels, memo side table and store trust
	// stay separate).
	Stein PolicyName = "stein"
	// StudentOneSided uses half-closed (one-sided) intervals, the §3.1
	// extension, on the fixed schedule: ~20% cheaper than Student at the
	// same per-direction error guarantee. It needs Confidence > 0.5.
	StudentOneSided PolicyName = "student-onesided"
	// HoeffdingBinary judges from the signs of the preferences only,
	// with anytime Hoeffding intervals, on the fixed schedule.
	// Distribution-free but several times more expensive (Table 3).
	HoeffdingBinary PolicyName = "hoeffding"
	// HoeffdingPreference applies distribution-free intervals to the raw
	// preference magnitudes (footnote 3 of the paper) on the fixed
	// schedule — for preference distributions that are not normal. On
	// well-behaved rating data it is dominated by both Student and
	// HoeffdingBinary.
	HoeffdingPreference PolicyName = "hoeffding-pref"
	// VoIPolicy is a Bayesian value-of-information policy (Chen–Jiao–Lin
	// style): a normal credible interval on the preference mean, with
	// batches sized by the posterior's projected distance to a verdict;
	// it stops paying for pairs whose verdict is not fundable from the
	// remaining budget — near-ties surrender early instead of burning
	// the full per-pair Budget.
	VoIPolicy PolicyName = "voi"
	// PACPolicy is a PAC gap-elimination policy (Ren–Liu–Shroff style):
	// an anytime-valid Hoeffding race whose batch sizes grow
	// geometrically with the observed gap's projected sample need,
	// eliminating pairs whose gap cannot be separated within budget.
	// Distribution-free.
	PACPolicy PolicyName = "pac"
	// FixedPolicy is an older spelling of Student, from when the fixed
	// schedule and the Student estimator were chosen separately. It is
	// accepted wherever a policy name is and runs exactly as Student.
	FixedPolicy PolicyName = "fixed"
)

// PolicyNames returns the names of every comparison policy, the default
// first — the list -policy flags and error messages enumerate.
func PolicyNames() []string { return compare.PolicyNames() }

// Options configures a Query or a Judge call. The zero value of every
// field selects the paper's default (Table 6).
type Options struct {
	// K is the number of items to return (default 10).
	K int
	// Algorithm picks the query processor (default SPR).
	Algorithm Algorithm
	// Policy picks the comparison policy: stopping rule and sampling
	// schedule (default Student). See PolicyName.
	Policy PolicyName
	// Confidence is the per-comparison confidence level 1−α in (0, 1)
	// (default 0.98).
	Confidence float64
	// Budget is the maximum number of microtasks one pairwise comparison
	// may consume (default 1000). Budget < 0 means unlimited.
	Budget int
	// TotalBudget, when positive, caps the whole query's (or session's)
	// monetary cost: once the cap is reached no more microtasks are
	// purchased and the answer is computed best-effort from the evidence
	// at hand. 0 means unlimited.
	TotalBudget int64
	// MinWorkload is the initial sample size that overcomes cold start
	// (default 30, the usual statistical floor).
	MinWorkload int
	// BatchSize is η, the number of microtasks distributed per batch
	// round; it trades latency for money (§5.5; default 30).
	BatchSize int
	// Parallelism bounds the worker pool that executes undecided pairs
	// concurrently (default GOMAXPROCS; 1 runs comparisons sequentially).
	// In the default Deterministic scheduling mode results are
	// byte-identical for a fixed seed at any parallelism — the engine
	// samples every pair from its own deterministic stream — so the knob
	// trades wall-clock time only, never reproducibility, and latency
	// accounting is unaffected: a wave still costs one batch round. See
	// Scheduling for the async trade-off.
	Parallelism int
	// Scheduling picks how comparisons share the worker pool (default
	// Deterministic). Async trades wave-lockstep reproducibility for
	// higher pool utilization: decided pairs free their workers
	// immediately instead of waiting for the wave's stragglers.
	Scheduling SchedulingMode
	// SweetSpot is SPR's sweet-spot constant c > 1 (default 1.5).
	SweetSpot float64
	// MaxRefChanges caps SPR's reference upgrades (default 2, the
	// optimum of Table 4).
	MaxRefChanges int
	// Seed fixes all randomness — sampling, shuffles, simulated workers —
	// making runs reproducible (default 1).
	Seed int64
	// PriorScores, when non-nil, supplies prior quality estimates (one
	// per item, higher is better) that SPR uses to pick its reference at
	// zero crowd cost — the paper's §7 future-work extension. Priors only
	// steer efficiency; result quality is still guarded by the
	// confidence-aware comparisons. Ignored by the other algorithms.
	PriorScores []float64
	// Resilience, when non-nil, wraps the query's platform (oracles built
	// with WrapPlatform) in the fault-tolerance layer: per-batch
	// collection deadlines, bounded retries of only the missing tasks,
	// exponential backoff with deterministic jitter, and a circuit
	// breaker. A query whose platform fails permanently then returns its
	// best-effort answer as a *PartialResultError instead of hanging or
	// crashing. Ignored for oracles that are not platform-backed.
	Resilience *ResilienceOptions
	// JudgmentStore, when non-nil, enables cross-query judgment reuse:
	// before scheduling a pair's first batch, the query consults the
	// store — a fresh stored verdict is served at zero TMC with the
	// pair's exact posterior replayed into the engine, a stale one (see
	// JudgmentTTL) seeds a decayed prior that is verified with a reduced
	// purchase — and every newly concluded pair is committed back after
	// the query. One store may be shared by any number of sessions and
	// processes (NewMemoryJudgmentStore for in-process sharing,
	// OpenFileJudgmentStore for a persistent JSONL file), so a warm fleet
	// answers repeat-heavy traffic at near-zero marginal cost. nil (the
	// default) disables reuse.
	JudgmentStore JudgmentStore
	// JudgmentTTL is the age beyond which stored judgments are presumed
	// stale: past it a record's evidence decays exponentially (half-life
	// JudgmentTTL) and the comparison re-verifies instead of trusting the
	// verdict. 0 (the default) means stored judgments never expire.
	JudgmentTTL time.Duration
	// Telemetry, when non-nil, instruments the whole execution stack of
	// the query (or session): engine purchases, comparison processes and
	// their confidence trajectories, parallel waves, SPR phases, and
	// platform resilience events all feed the bundle's metrics registry
	// and span tracer, and every Result carries a structured QueryStats
	// snapshot. nil (the default) disables instrumentation entirely; the
	// disabled path costs one predictable nil check per site and zero
	// allocations.
	Telemetry *Telemetry
}

// withDefaults resolves zero values to the paper's defaults.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 10
	}
	if o.Algorithm == "" {
		o.Algorithm = SPR
	}
	o.Policy = PolicyName(compare.CanonicalPolicy(string(o.Policy)))
	if o.Confidence == 0 {
		o.Confidence = 0.98
	}
	if o.Budget == 0 {
		o.Budget = 1000
	}
	if o.Budget < 0 {
		o.Budget = 0 // internal convention: 0 = unlimited
	}
	if o.MinWorkload == 0 {
		o.MinWorkload = 30
	}
	if o.BatchSize == 0 {
		o.BatchSize = 30
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Scheduling == "" {
		o.Scheduling = Deterministic
	}
	if o.SweetSpot == 0 {
		o.SweetSpot = 1.5
	}
	if o.MaxRefChanges == 0 {
		o.MaxRefChanges = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) validate(n int) error {
	if o.K < 1 || o.K > n {
		return fmt.Errorf("crowdtopk: K=%d out of range [1,%d]", o.K, n)
	}
	switch o.Algorithm {
	case SPR, TourTree, HeapSort, QuickSelect, PBR:
	default:
		return fmt.Errorf("crowdtopk: unknown algorithm %q", o.Algorithm)
	}
	if o.PriorScores != nil && len(o.PriorScores) != n {
		return fmt.Errorf("crowdtopk: PriorScores has %d entries for %d items", len(o.PriorScores), n)
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return fmt.Errorf("crowdtopk: confidence %v outside (0,1)", o.Confidence)
	}
	if o.MinWorkload < 2 {
		return fmt.Errorf("crowdtopk: MinWorkload %d below 2", o.MinWorkload)
	}
	if o.BatchSize < 1 {
		return fmt.Errorf("crowdtopk: BatchSize %d below 1", o.BatchSize)
	}
	if o.Parallelism < 1 {
		return fmt.Errorf("crowdtopk: Parallelism %d below 1", o.Parallelism)
	}
	switch o.Scheduling {
	case Deterministic, Async:
	default:
		return fmt.Errorf("crowdtopk: unknown scheduling mode %q", o.Scheduling)
	}
	if o.Budget != 0 && o.Budget < o.MinWorkload {
		return fmt.Errorf("crowdtopk: Budget %d below MinWorkload %d", o.Budget, o.MinWorkload)
	}
	if o.SweetSpot <= 1 {
		return fmt.Errorf("crowdtopk: SweetSpot %v must exceed 1", o.SweetSpot)
	}
	if o.MaxRefChanges < 0 {
		return fmt.Errorf("crowdtopk: MaxRefChanges %d negative", o.MaxRefChanges)
	}
	if o.TotalBudget < 0 {
		return fmt.Errorf("crowdtopk: TotalBudget %d negative", o.TotalBudget)
	}
	if o.JudgmentTTL < 0 {
		return fmt.Errorf("crowdtopk: JudgmentTTL %v negative", o.JudgmentTTL)
	}
	return nil
}

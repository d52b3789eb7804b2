package obs

// The metric name catalog. Every instrumented layer registers its metrics
// under these names, so the scrape endpoint, the QueryStats snapshot and
// the documentation all speak one vocabulary. Counters end in _total;
// durations are nanosecond counters ending in _ns_total; histograms carry
// no suffix (the exporter adds _bucket/_sum/_count).
const (
	// Engine (internal/crowd): the microtask purchase path.

	// MSamples counts pairwise preference answers accepted into bags.
	MSamples = "crowdtopk_samples_total"
	// MGraded counts graded (absolute rating) microtasks purchased.
	MGraded = "crowdtopk_graded_total"
	// MTMC counts every microtask charged — pairwise and graded combined.
	// At quiescence it equals the engine's TMC and the audit-log length.
	MTMC = "crowdtopk_tmc_total"
	// MRefunds counts reserved-but-undelivered microtasks refunded after a
	// short or failed platform batch.
	MRefunds = "crowdtopk_refunds_total"
	// MCapDenied counts microtasks declined by the global spending cap (or
	// the engine's failure latch) before reaching any oracle.
	MCapDenied = "crowdtopk_cap_denied_total"
	// MDrawBatches counts batch purchases (Draw calls that reached the
	// oracle dispatch).
	MDrawBatches = "crowdtopk_draw_batches_total"
	// MRounds counts latency clock ticks: batch rounds elapsed.
	MRounds = "crowdtopk_rounds_total"
	// MBagSize is a histogram of per-pair bag sizes observed after each
	// batch purchase.
	MBagSize = "crowdtopk_bag_size"

	// Comparison runner (internal/compare): COMP processes.

	// MComparisons counts comparison processes started (memo misses).
	MComparisons = "crowdtopk_comparisons_total"
	// MConcluded counts comparisons that reached a confidence-level
	// verdict (first-wins or second-wins, not budget-exhausted ties).
	MConcluded = "crowdtopk_comparisons_concluded_total"
	// MMemoHits counts conclusion-memo lookups answered for free.
	MMemoHits = "crowdtopk_memo_hits_total"
	// MCompRounds is a histogram of batch rounds per comparison process.
	MCompRounds = "crowdtopk_comp_rounds"
	// MCompWorkload is a histogram of microtasks per comparison process.
	MCompWorkload = "crowdtopk_comp_workload"

	// Judgment store (internal/jstore via internal/compare): cross-query
	// reuse of concluded comparisons.

	// MStoreHits counts comparisons answered from the judgment store at
	// zero TMC (fresh stored verdicts served into the memo).
	MStoreHits = "crowdtopk_store_hits_total"
	// MStoreStale counts pairs whose stored record had aged past the TTL
	// (or was concluded at a lower confidence) and was served as a decayed
	// prior, re-verified with a reduced purchase.
	MStoreStale = "crowdtopk_store_stale_total"
	// MStoreMisses counts store consultations that found nothing usable.
	MStoreMisses = "crowdtopk_store_misses_total"
	// MStoreCommits counts concluded pairs committed back to the store.
	MStoreCommits = "crowdtopk_store_commits_total"
	// MStoreSize is a gauge of records currently in the judgment store.
	MStoreSize = "crowdtopk_store_size"

	// Wave workers (internal/topk): parallel comparison waves.

	// MWaves counts comparison waves executed.
	MWaves = "crowdtopk_waves_total"
	// MWaveWidth is a histogram of undecided pairs per wave.
	MWaveWidth = "crowdtopk_wave_width"
	// MWaveWidthMax is a gauge holding the widest wave seen.
	MWaveWidthMax = "crowdtopk_wave_width_max"
	// MWaveNs accumulates wall-clock nanoseconds spent inside waves.
	MWaveNs = "crowdtopk_wave_ns_total"
	// MQueueWaitNs accumulates nanoseconds pairs waited between wave
	// start and a worker picking them up — the pool's queueing delay.
	MQueueWaitNs = "crowdtopk_queue_wait_ns_total"

	// Comparison scheduler (internal/sched): the shared task pool.

	// MSchedQueueDepth is a gauge of tasks queued for a pool worker.
	MSchedQueueDepth = "crowdtopk_sched_queue_depth"
	// MSchedInFlight is a gauge of tasks currently executing.
	MSchedInFlight = "crowdtopk_sched_inflight"
	// MSchedQueueWait is a histogram of per-task nanoseconds between
	// submission and worker pickup.
	MSchedQueueWait = "crowdtopk_sched_queue_wait_ns"
	// MSchedSteals counts straggler steals: a later-round task starting
	// while an earlier-round task of the same query still runs — work the
	// wave barrier would have serialized behind the straggler.
	MSchedSteals = "crowdtopk_sched_straggler_steals_total"
	// MSchedDropped counts pending tasks dropped by query cancellation —
	// steps that were queued but never ran because their query was
	// canceled, budget-stopped or deadline-expired.
	MSchedDropped = "crowdtopk_sched_dropped_total"

	// Resilient platform (internal/crowd): retries and degradation.

	// MReposts counts shortfall re-posts (retry traffic).
	MReposts = "crowdtopk_platform_reposts_total"
	// MBackoffNs accumulates nanoseconds slept in retry backoff.
	MBackoffNs = "crowdtopk_platform_backoff_ns_total"
	// MPartialBatches counts cleanly-collected batches that came up short.
	MPartialBatches = "crowdtopk_platform_partial_batches_total"
	// MQuarantined counts answers rejected by validation.
	MQuarantined = "crowdtopk_platform_quarantined_total"
	// MPostErrors counts failed Post attempts.
	MPostErrors = "crowdtopk_platform_post_errors_total"
	// MTimeouts counts batch collections that exceeded their deadline.
	MTimeouts = "crowdtopk_platform_timeouts_total"
	// MExhausted counts batches that stayed incomplete after all retries.
	MExhausted = "crowdtopk_platform_exhausted_total"
	// MBreakerOpens counts circuit-breaker open transitions.
	MBreakerOpens = "crowdtopk_platform_breaker_opens_total"
	// MBreakerOpen is a gauge: 1 while the circuit breaker is open.
	MBreakerOpen = "crowdtopk_platform_breaker_open"
	// MFailureEvents counts failure-log events recorded.
	MFailureEvents = "crowdtopk_platform_failures_total"
	// MFailuresDropped counts failure events evicted from the bounded
	// failure ring — the price of keeping chaos runs memory-bounded.
	MFailuresDropped = "crowdtopk_platform_failures_dropped_total"

	// Tracer (internal/obs).

	// MSpansDropped counts finished spans the tracer's bounded ring
	// evicted: a trace written after it moved past zero no longer holds
	// every span of the run.
	MSpansDropped = "crowdtopk_trace_spans_dropped_total"

	// SLO burn-rate tracker (internal/obs/slo via internal/service). Burn
	// rates are milli-units (1000 = burning the error budget exactly at
	// the allowed rate) because the registry is integer-only; states are
	// 0 = ok, 1 = warn, 2 = page.

	// MSLOLatencyBurnShort/Long are the latency objective's burn rates
	// over the short and long evaluation windows, in milli-units.
	MSLOLatencyBurnShort = "crowdtopk_slo_latency_burn_short_milli"
	MSLOLatencyBurnLong  = "crowdtopk_slo_latency_burn_long_milli"
	// MSLOLatencyState is the latency alert state (0/1/2).
	MSLOLatencyState = "crowdtopk_slo_latency_state"
	// MSLOBudgetBurnShort/Long are the budget objective's burn rates in
	// milli-units.
	MSLOBudgetBurnShort = "crowdtopk_slo_budget_burn_short_milli"
	MSLOBudgetBurnLong  = "crowdtopk_slo_budget_burn_long_milli"
	// MSLOBudgetState is the budget alert state (0/1/2).
	MSLOBudgetState = "crowdtopk_slo_budget_state"
	// MSLOBudgetRemaining is the unspent remainder of the tracked budget.
	MSLOBudgetRemaining = "crowdtopk_slo_budget_remaining"
	// MSLOBudgetExhaustS projects seconds until the budget runs out at
	// the short-window spend rate (-1 = not spending / no budget).
	MSLOBudgetExhaustS = "crowdtopk_slo_budget_exhaust_seconds"
)

// Default histogram bucket bounds (upper bounds, ascending; the exporter
// adds the implicit +Inf bucket).
var (
	// BagSizeBuckets covers the paper's workload range: I = 30 cold start
	// up to the default per-pair budget of 1000.
	BagSizeBuckets = []int64{30, 60, 90, 150, 250, 500, 1000}
	// CompRoundsBuckets covers rounds per comparison.
	CompRoundsBuckets = []int64{1, 2, 3, 5, 8, 13, 21, 34}
	// WorkloadBuckets covers microtasks per comparison.
	WorkloadBuckets = []int64{30, 60, 90, 150, 250, 500, 1000}
	// WaveWidthBuckets covers undecided pairs per wave.
	WaveWidthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	// QueueWaitBuckets covers scheduler queue waits, 1µs to 1s in ns.
	QueueWaitBuckets = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// PolicyComparisons returns the labeled counter name attributing started
// comparison processes to one sampling policy ("fixed", "voi", "pac").
func PolicyComparisons(policy string) string {
	return `crowdtopk_comparisons_total{policy="` + policy + `"}`
}

// PolicyConcluded returns the labeled counter name attributing concluded
// (verdict-reaching) comparison processes to one sampling policy.
func PolicyConcluded(policy string) string {
	return `crowdtopk_comparisons_concluded_total{policy="` + policy + `"}`
}

// PhaseTMC returns the labeled counter name attributing monetary cost to
// one framework phase ("select", "partition", "rank").
func PhaseTMC(phase string) string {
	return `crowdtopk_phase_tmc_total{phase="` + phase + `"}`
}

// PhaseRounds returns the labeled counter name attributing latency rounds
// to one framework phase.
func PhaseRounds(phase string) string {
	return `crowdtopk_phase_rounds_total{phase="` + phase + `"}`
}

// PhaseOf inverts PhaseTMC/PhaseRounds: given a registered metric name it
// reports the phase label and whether the metric is the TMC (true) or
// rounds (false) counter. ok is false for non-phase metrics.
func PhaseOf(name string) (phase string, isTMC bool, ok bool) {
	const (
		tmcPrefix    = `crowdtopk_phase_tmc_total{phase="`
		roundsPrefix = `crowdtopk_phase_rounds_total{phase="`
		suffix       = `"}`
	)
	strip := func(s, prefix string) (string, bool) {
		if len(s) > len(prefix)+len(suffix) && s[:len(prefix)] == prefix && s[len(s)-len(suffix):] == suffix {
			return s[len(prefix) : len(s)-len(suffix)], true
		}
		return "", false
	}
	if p, found := strip(name, tmcPrefix); found {
		return p, true, true
	}
	if p, found := strip(name, roundsPrefix); found {
		return p, false, true
	}
	return "", false, false
}

package compare

import (
	"fmt"
	"log/slog"
	"math"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/sched"
)

// Instruments is the comparison layer's pre-resolved metric bundle.
type Instruments struct {
	Comparisons  *obs.Counter   // comparison processes started
	Concluded    *obs.Counter   // processes that reached a memoized verdict
	MemoHits     *obs.Counter   // comparisons answered from the memo for free
	Waves        *obs.Counter   // parallel comparison waves executed
	WaveNs       *obs.Counter   // wall-clock nanoseconds spent inside waves
	QueueWaitNs  *obs.Counter   // pair-nanoseconds spent queued for a worker
	WaveWidth    *obs.Histogram // undecided pairs per wave
	CompRounds   *obs.Histogram // batch rounds per finished comparison
	CompWorkload *obs.Histogram // microtasks per finished comparison
	WaveWidthMax *obs.Gauge     // widest wave seen (peak parallelism demand)

	StoreHits    *obs.Counter // comparisons answered from the judgment store
	StoreStale   *obs.Counter // stale records served as decayed priors
	StoreMisses  *obs.Counter // store consultations that found nothing usable
	StoreCommits *obs.Counter // conclusions committed back to the store
	StoreSize    *obs.Gauge   // records in the judgment store
}

// NewInstruments resolves the bundle from the registry; nil registry
// (telemetry disabled) yields nil.
func NewInstruments(reg *obs.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		Comparisons:  reg.Counter(obs.MComparisons),
		Concluded:    reg.Counter(obs.MConcluded),
		MemoHits:     reg.Counter(obs.MMemoHits),
		Waves:        reg.Counter(obs.MWaves),
		WaveNs:       reg.Counter(obs.MWaveNs),
		QueueWaitNs:  reg.Counter(obs.MQueueWaitNs),
		WaveWidth:    reg.Histogram(obs.MWaveWidth, obs.WaveWidthBuckets),
		CompRounds:   reg.Histogram(obs.MCompRounds, obs.CompRoundsBuckets),
		CompWorkload: reg.Histogram(obs.MCompWorkload, obs.WorkloadBuckets),
		WaveWidthMax: reg.Gauge(obs.MWaveWidthMax),
		StoreHits:    reg.Counter(obs.MStoreHits),
		StoreStale:   reg.Counter(obs.MStoreStale),
		StoreMisses:  reg.Counter(obs.MStoreMisses),
		StoreCommits: reg.Counter(obs.MStoreCommits),
		StoreSize:    reg.Gauge(obs.MStoreSize),
	}
}

// SetTelemetry wires the whole execution stack below the runner to one
// telemetry bundle: the runner's own comparison metrics and COMP spans,
// the engine's purchase metrics, and — when the oracle is a platform
// adapter — the resilience metrics. Passing nil disables everything.
// Call before the runner is shared across goroutines.
func (r *Runner) SetTelemetry(t *obs.Telemetry) {
	r.tel = t
	r.ins = NewInstruments(t.Registry())
	r.resolvePolicyCounters()
	r.eng.SetInstruments(crowd.NewEngineInstruments(t.Registry()))
	r.sch.SetInstruments(sched.NewInstruments(t.Registry()))
	if po, ok := r.eng.Oracle().(*crowd.PlatformOracle); ok {
		po.Instrument(crowd.NewPlatformInstruments(t.Registry()))
	}
}

// SetLogger wires structured logging through the execution stack below
// the runner: the shared scheduler's pool lifecycle and — when the
// oracle is a platform adapter — quarantine and retry/breaker failure
// events. Nil installs the discard logger, the default. Call before the
// runner is shared across goroutines.
func (r *Runner) SetLogger(lg *slog.Logger) {
	r.sch.SetLogger(lg)
	if po, ok := r.eng.Oracle().(*crowd.PlatformOracle); ok {
		po.SetLogger(lg)
	}
}

// Telemetry returns the bundle last set with SetTelemetry (nil = off).
func (r *Runner) Telemetry() *obs.Telemetry { return r.tel }

// Instruments returns the comparison metric bundle (nil = off).
func (r *Runner) Instruments() *Instruments { return r.ins }

// Tracer returns the span tracer, nil when tracing is off.
func (r *Runner) Tracer() *obs.Tracer { return r.tel.Tracer() }

// Registry returns the metrics registry, nil when telemetry is off.
func (r *Runner) Registry() *obs.Registry { return r.tel.Registry() }

// SetParentSpan declares the span under which subsequently started
// comparison spans nest — the query or phase span of the algorithm layer.
// It is called from the query's control goroutine; workers read it through
// the atomic, so a phase switch mid-wave is benign (spans parent to one
// phase or the other, both valid).
func (r *Runner) SetParentSpan(id obs.SpanID) { r.parent.Store(uint64(id)) }

// ParentSpan returns the current parent span id.
func (r *Runner) ParentSpan() obs.SpanID { return obs.SpanID(r.parent.Load()) }

// instrumented reports whether comparison lifecycles need per-process
// state: telemetry spans, or cost attribution recording conclusions.
func (r *Runner) instrumented() bool { return r.tel != nil || r.acct.explain != nil }

// memoHit counts a comparison answered from the memo.
func (r *Runner) memoHit(i, j int) {
	if ins := r.ins; ins != nil {
		ins.MemoHits.Inc()
	}
	if c := r.acct.explain; c != nil {
		c.MemoHit(r.Phase(), i, j)
	}
}

// compState tracks one in-flight comparison process across wave steps:
// its pair, open span and how many batch rounds it has consumed so far.
// wave marks a state registered in Runner.active, which finishComp
// removes again.
type compState struct {
	i, j   int
	span   *obs.ActiveSpan
	rounds int
	wave   bool
}

// resolvePolicyCounters re-resolves the policy-labeled comparison
// counters — called whenever the telemetry wiring or the policy changes.
func (r *Runner) resolvePolicyCounters() {
	if r.tel == nil {
		r.polComparisons, r.polConcluded = nil, nil
		return
	}
	reg := r.tel.Registry()
	r.polComparisons = reg.Counter(obs.PolicyComparisons(r.policy.Name()))
	r.polConcluded = reg.Counter(obs.PolicyConcluded(r.policy.Name()))
}

// beginComp opens the span and state of a fresh comparison process.
func (r *Runner) beginComp(i, j int) *compState {
	if ins := r.ins; ins != nil {
		ins.Comparisons.Inc()
	}
	if c := r.polComparisons; c != nil {
		c.Inc()
	}
	sp := r.tel.Tracer().Start("comp", r.ParentSpan())
	if sp != nil {
		sp.SetLabel("pair", fmt.Sprintf("%d-%d", i, j))
		sp.SetLabel("policy", r.policy.Name())
	}
	return &compState{i: i, j: j, span: sp}
}

// compStateOf returns the wave-mode state of pair (i, j), creating it on
// the pair's first Advance. Only called when telemetry is enabled.
func (r *Runner) compStateOf(i, j int) *compState {
	k, _ := canonical(i, j)
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if st := r.active[k]; st != nil {
		return st
	}
	if r.active == nil {
		r.active = make(map[[2]int]*compState)
	}
	st := r.beginComp(i, j)
	st.wave = true
	r.active[k] = st
	return st
}

// FlushOpenComparisons closes the spans of wave-mode comparison processes
// that were started but abandoned before reaching any conclusion — e.g.
// partition waves cut short by a reference upgrade. The algorithm layer
// calls it at query end so the trace accounts for every process started.
func (r *Runner) FlushOpenComparisons() {
	if !r.instrumented() {
		return
	}
	r.spanMu.Lock()
	open := r.active
	r.active = nil
	r.spanMu.Unlock()
	for k, st := range open {
		if sp := st.span; sp != nil {
			sp.SetLabel("abandoned", "true")
		}
		r.finishComp(st, r.eng.View(k[0], k[1]), Tie, false)
	}
}

// observeRound records one batch round of a comparison: the round count
// and the policy's confidence-interval half-width the process is racing
// to shrink. Infinite widths (cold bags) are skipped — they carry no
// information and JSONL cannot encode them.
func (r *Runner) observeRound(st *compState, v crowd.BagView, rounds int) {
	if st == nil {
		return
	}
	st.rounds += rounds
	if st.span != nil {
		if hw := r.policy.HalfWidth(v); !math.IsInf(hw, 0) && !math.IsNaN(hw) {
			st.span.Observe(hw)
		}
	}
}

// finishComp closes a comparison process: verdict counters, workload and
// round histograms, the span's final attributes, and — for a wave-mode
// process — its entry in Runner.active. concluded reports whether a
// statistical verdict was memoized (as opposed to a best-effort outcome
// forced by an exhausted cap or budgetless tie).
func (r *Runner) finishComp(st *compState, v crowd.BagView, o Outcome, concluded bool) {
	if st == nil {
		return
	}
	if st.wave {
		k, _ := canonical(st.i, st.j)
		r.spanMu.Lock()
		delete(r.active, k)
		r.spanMu.Unlock()
	}
	if c := r.acct.explain; c != nil {
		hw := 0.0
		if x := r.policy.HalfWidth(v); !math.IsInf(x, 0) && !math.IsNaN(x) {
			hw = x
		}
		c.Conclude(r.Phase(), st.i, st.j, o.String(), hw, concluded)
	}
	if ins := r.ins; ins != nil {
		if concluded {
			ins.Concluded.Inc()
			if c := r.polConcluded; c != nil {
				c.Inc()
			}
		}
		ins.CompRounds.Observe(int64(st.rounds))
		ins.CompWorkload.Observe(int64(v.N))
	}
	if sp := st.span; sp != nil {
		sp.SetLabel("verdict", o.String())
		if !concluded {
			sp.SetLabel("exhausted", "true")
		}
		sp.SetAttr("workload", float64(v.N))
		sp.SetAttr("rounds", float64(st.rounds))
		sp.SetAttr("mean", v.Mean)
		sp.End()
	}
}

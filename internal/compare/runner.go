package compare

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/obs/explain"
	"crowdtopk/internal/sched"
)

// ErrBudgetExhausted stops a query whose per-query budget sub-cap (see
// Runner.SetQueryBudget) ran dry: the query concludes best-effort on the
// evidence already purchased, while the session's shared cap — and every
// neighboring query — is untouched.
var ErrBudgetExhausted = errors.New("per-query budget exhausted")

// Params configures the execution of comparison processes.
type Params struct {
	// B is the per-pair budget: the maximum number of microtasks a single
	// comparison may consume. B <= 0 means unlimited (the paper's B = ∞
	// setting of §3.2).
	B int
	// I is the minimum initial workload that overcomes cold start
	// (Algorithm 1; at least 30 by common statistical practice).
	I int
	// Step is the batch size η of microtask-level batch processing
	// (§5.5): after the initial I samples, microtasks are purchased Step
	// at a time and the stopping rule is tested after each batch. Step = 1
	// reproduces the one-at-a-time Algorithm 1.
	Step int
	// Parallelism bounds the shared scheduler pool that executes the
	// undecided pairs of comparison waves concurrently (§5.5 made
	// physical). 1 runs comparisons inline on the control goroutine;
	// 0 selects GOMAXPROCS. Thanks to the engine's per-pair sample
	// streams, any value produces byte-identical results for a fixed
	// seed in the default (deterministic) scheduling mode — Parallelism
	// trades wall-clock only.
	Parallelism int
	// Async switches algorithms from deterministic wave barriers to
	// free-running comparison chains on the shared scheduler: a decided
	// pair immediately frees its worker instead of waiting for the
	// wave's slowest straggler. Results remain correct (per-pair sample
	// streams are schedule-independent) but control-flow decisions that
	// depend on completion order may differ run to run; latency rounds
	// become a high-water mark rather than an exact wave count. Async is
	// ignored when the resolved Parallelism is 1.
	Async bool
}

// DefaultParams returns the paper's default execution parameters:
// B = 1000, I = 30, η = 30 (Table 6, §6.2).
func DefaultParams() Params { return Params{B: 1000, I: 30, Step: 30} }

func (p Params) validate() {
	if p.I < 2 {
		panic(fmt.Sprintf("compare: Params.I must be >= 2, got %d", p.I))
	}
	if p.Step < 1 {
		panic(fmt.Sprintf("compare: Params.Step must be >= 1, got %d", p.Step))
	}
	if p.B > 0 && p.B < p.I {
		panic(fmt.Sprintf("compare: Params.B (%d) must be >= Params.I (%d) or unlimited", p.B, p.I))
	}
	if p.Parallelism < 0 {
		panic(fmt.Sprintf("compare: Params.Parallelism must be >= 0, got %d", p.Parallelism))
	}
}

// Runner executes comparison processes over a crowd engine: it purchases
// sample batches, applies the policy's stopping rule, advances the latency
// clock, and memoizes conclusions so the rest of the query can reuse them
// for free.
//
// Concluded, Advance, TestOnly, Leaning and Workload are safe for
// concurrent use on distinct pairs — the shape parallel comparison waves
// need. Concurrent Advance calls on the *same* pair are the caller's
// responsibility to avoid (waves deduplicate pairs before fanning out);
// the runner itself stays race-free either way, but duplicate calls would
// buy duplicate batches. A conclusion, once memoized, is immutable.
type Runner struct {
	eng    *crowd.Engine
	policy Policy
	params Params

	// Telemetry wiring (SetTelemetry). tel/ins/hw are written once at
	// wiring time; nil means the corresponding instrumentation is off and
	// costs one nil check. parent is the span comparison spans nest under,
	// updated by the algorithm layer as phases change. active tracks the
	// open span and round count of each in-flight wave-mode comparison.
	tel    *obs.Telemetry
	ins    *Instruments
	hw     HalfWidther
	parent atomic.Uint64
	spanMu sync.Mutex
	active map[[2]int]*compState

	// polComparisons/polConcluded are the policy-labeled slices of the
	// comparison counters, re-resolved whenever telemetry or the policy
	// changes; nil when telemetry is off.
	polComparisons *obs.Counter
	polConcluded   *obs.Counter

	// sch is the shared comparison scheduler: one pool serving every
	// query forked off this runner. acct is this runner's (this query's)
	// slice of it — exact microtask/round attribution plus the
	// ref-counted scheduler handle. Fork gives each concurrent query its
	// own acct over the same sch; Derive shares both.
	sch  *sched.Scheduler
	acct *queryAcct

	// memo points at the conclusion table so forked runners share
	// verdicts while derived sub-phase runners (whose budget-exhausted
	// ties must not pollute the main query) get a private one. The table
	// stripes canonical pairs over independently locked maps, so SPR's
	// inner loops — which call Concluded for every candidate pair of a
	// wave — do not serialize on one global RWMutex. Within a stripe
	// reads take an RLock (allocation-free); a conclusion, once written,
	// is immutable (first writer wins), so readers always observe a
	// stable verdict.
	memo *memoTable

	// js is the cross-query judgment-store attachment (SetJudgmentStore),
	// shared — like the engine — by every fork and derived runner of the
	// session; nil when reuse is off. derived marks sub-phase runners
	// whose budget-exhausted ties must not be committed as session-level
	// verdicts.
	js      *storeState
	derived bool
}

// memoStripes must be a power of two.
const memoStripes = 64

type memoTable struct {
	stripes [memoStripes]memoStripe

	// pol names the policy whose stopping semantics produced this table's
	// verdicts. Verdicts are only reused between queries running the same
	// policy — the in-session mirror of the judgment store's cross-policy
	// downgrade — so per-query policy overrides get a side table keyed by
	// policy name off the session table (forPolicy), while derived
	// sub-phase runners keep fully private tables.
	pol   string
	mu    sync.Mutex
	byPol map[string]*memoTable
	root  *memoTable // non-nil on side tables: the session table
}

// forPolicy returns the memo table holding verdicts concluded under the
// named policy, creating the side table on first use. Tables are resolved
// from the session table, so every fork pinned to one policy shares one
// table, and re-pinning back to the session policy returns the session
// table itself.
func (m *memoTable) forPolicy(name string) *memoTable {
	if m.root != nil {
		m = m.root
	}
	if name == m.pol {
		return m
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byPol[name]
	if t == nil {
		t = &memoTable{pol: name, root: m}
		if m.byPol == nil {
			m.byPol = make(map[string]*memoTable)
		}
		m.byPol[name] = t
	}
	return t
}

// clear empties the table and, from the session table, every per-policy
// side table hanging off it.
func (m *memoTable) clear() {
	for s := range m.stripes {
		m.stripes[s].mu.Lock()
		m.stripes[s].m = nil
		m.stripes[s].mu.Unlock()
	}
	m.mu.Lock()
	side := make([]*memoTable, 0, len(m.byPol))
	for _, t := range m.byPol {
		side = append(side, t)
	}
	m.mu.Unlock()
	for _, t := range side {
		t.clear()
	}
}

type memoStripe struct {
	mu sync.RWMutex
	m  map[[2]int]Outcome // canonical pair (lo, hi) -> outcome toward lo
}

// queryAcct is one query's accounting slice of the shared execution
// stack: exact counts of the microtasks and latency rounds this query
// (and only this query) consumed, the query's budget sub-cap and stop
// latch, its scheduling weight, plus the ref-counted scheduler handle its
// drivers submit through. Derived sub-phase runners share the acct, so a
// stop or an exhausted sub-cap covers the whole query.
type queryAcct struct {
	tmc    atomic.Int64 // microtasks charged via this runner's draws
	rounds atomic.Int64 // latency rounds ticked via this runner

	// budget is the per-query TMC sub-cap (0 = unlimited); reserved is
	// the CAS-reserved claim against it, always >= tmc, so concurrent
	// chains of one query can never overdraw the sub-cap between check
	// and charge. The sub-cap is a ceiling, not a reservation against the
	// session's shared cap: whatever the query leaves unspent was never
	// taken from its neighbors. budget, priority and deadline are set
	// before the query starts and immutable afterwards.
	budget   int64
	reserved atomic.Int64
	priority int32
	deadline time.Time

	// The per-query stop latch: once set (context canceled, deadline
	// expired, sub-cap exhausted, session closing) every further purchase
	// through this acct is declined, so in-flight comparison chains
	// conclude best-effort and drain — exactly the shape of an exhausted
	// global cap, but scoped to one query. The first cause wins.
	stopped   atomic.Bool
	stopMu    sync.Mutex
	stopCause error

	// phase names the query's currently executing algorithm phase
	// ("select", "partition", "rank", ... ) for live progress reporting.
	phase atomic.Pointer[string]

	// explain, when non-nil, attributes every purchase charged through
	// this acct to its (phase, pair) leaf (SetExplain). It lives on the
	// acct — not the runner — so derived sub-phase runners attribute to
	// the parent query, and its leaf sum always equals tmc: both meters
	// are fed by exactly the same charge sites.
	explain *explain.Collector

	mu   sync.Mutex
	q    *sched.Query // open handle while refs > 0
	refs int

	// pending queues the pairs this query concluded for the post-query
	// judgment-store commit (CommitConclusions). It lives on the acct —
	// not the runner — so conclusions from derived sub-phase runners,
	// which share the acct but not the memo, are captured too.
	pendMu  sync.Mutex
	pending []pendingConclusion
}

// handle returns the open scheduler handle, nil when nothing is borrowed.
func (a *queryAcct) handle() *sched.Query {
	a.mu.Lock()
	q := a.q
	a.mu.Unlock()
	return q
}

// reserve claims up to n microtasks against the query's budget sub-cap
// and returns how many were granted; with no sub-cap every request is
// granted in full. Like the engine's cap reservation, the claim is a CAS
// so concurrent chains never overshoot.
func (a *queryAcct) reserve(n int) int {
	if n <= 0 {
		return 0
	}
	if a.budget <= 0 {
		return n
	}
	for {
		cur := a.reserved.Load()
		left := a.budget - cur
		if left <= 0 {
			return 0
		}
		m := int64(n)
		if m > left {
			m = left
		}
		if a.reserved.CompareAndSwap(cur, cur+m) {
			return int(m)
		}
	}
}

// refund returns an unused reservation (a cap- or platform-truncated
// draw) to the sub-cap.
func (a *queryAcct) refund(n int) {
	if n > 0 && a.budget > 0 {
		a.reserved.Add(-int64(n))
	}
}

// stop latches the query stopped; the first cause wins.
func (a *queryAcct) stop(cause error) {
	a.stopMu.Lock()
	if a.stopCause == nil {
		a.stopCause = cause
	}
	a.stopMu.Unlock()
	a.stopped.Store(true)
}

// cause returns the stop cause, nil while the query is live.
func (a *queryAcct) cause() error {
	if !a.stopped.Load() {
		return nil
	}
	a.stopMu.Lock()
	defer a.stopMu.Unlock()
	return a.stopCause
}

// stripeOf picks the memo stripe of a canonical pair, mixing both indices
// so pairs sharing a low item spread across stripes.
func stripeOf(k [2]int) uint64 {
	x := uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & (memoStripes - 1)
}

// NewRunner binds a comparison policy to an engine.
func NewRunner(e *crowd.Engine, pol Policy, p Params) *Runner {
	if e == nil {
		panic("compare: NewRunner requires a non-nil engine")
	}
	if pol == nil {
		panic("compare: NewRunner requires a non-nil policy")
	}
	p.validate()
	r := &Runner{
		eng:    e,
		policy: pol,
		params: p,
		memo:   &memoTable{pol: pol.Name()},
		acct:   &queryAcct{},
	}
	r.sch = sched.New(r.Parallelism())
	// Cache the half-width reporter once so comparison spans can record
	// confidence trajectories without a type assertion per round.
	r.hw, _ = r.policy.(HalfWidther)
	return r
}

// SetPolicy swaps the runner's comparison policy — the per-query override
// hook: a Session forks the shared runner, then pins the fork to the
// policy the query asked for. Conclusion reuse follows the same trust
// rule as the judgment store: verdicts are shared between queries running
// the SAME policy (the fork switches to the session memo's side table for
// the new policy name, shared with every other fork pinned to it), never
// adopted across stopping rules — an adaptive policy's early surrender is
// not the fixed schedule's exhausted tie, and Stein's verdict is not
// Student's. A pinned query instead re-judges such pairs under its own
// stopping rule against the session's already-purchased evidence, which
// usually concludes without buying new samples. Call before the query
// starts executing.
func (r *Runner) SetPolicy(pol Policy) {
	if pol == nil {
		panic("compare: SetPolicy requires a non-nil policy")
	}
	r.policy = pol
	r.hw, _ = r.policy.(HalfWidther)
	r.memo = r.memo.forPolicy(r.policy.Name())
	r.resolvePolicyCounters()
}

// Fork returns a runner for one more concurrent query on the same
// execution stack: it shares the engine, policy, scheduler, conclusion
// memo and telemetry wiring, but starts a fresh accounting slice — so
// QueryTMC/QueryRounds on the fork report exactly what that query
// consumed — and fresh span state. Forks may run TopK concurrently.
func (r *Runner) Fork() *Runner {
	f := &Runner{
		eng:            r.eng,
		policy:         r.policy,
		params:         r.params,
		tel:            r.tel,
		ins:            r.ins,
		hw:             r.hw,
		polComparisons: r.polComparisons,
		polConcluded:   r.polConcluded,
		sch:            r.sch,
		acct:           &queryAcct{},
		memo:           r.memo,
		js:             r.js,
	}
	f.parent.Store(r.parent.Load())
	return f
}

// Derive returns a sub-phase runner with different execution parameters
// but the same engine, policy, scheduler handle and accounting slice —
// its purchases count toward the parent query. The derived runner gets a
// PRIVATE conclusion memo: sub-phases like reference selection conclude
// pairs under a tighter budget, and those budget-exhausted ties must not
// leak into the main query's verdict table.
func (r *Runner) Derive(p Params) *Runner {
	p.validate()
	d := &Runner{
		eng:            r.eng,
		policy:         r.policy,
		params:         p,
		tel:            r.tel,
		ins:            r.ins,
		hw:             r.hw,
		polComparisons: r.polComparisons,
		polConcluded:   r.polConcluded,
		sch:            r.sch,
		acct:           r.acct,
		memo:           &memoTable{},
		js:             r.js,
		derived:        true,
	}
	d.parent.Store(r.parent.Load())
	return d
}

// SetExplain attaches a per-query cost-attribution collector: every
// microtask charged through this runner (and its Derived sub-phases) is
// recorded against its (phase, pair) leaf, so the collector's tree total
// equals QueryTMC exactly — both are fed by the same charge sites. Nil
// detaches. Call before the query starts executing.
func (r *Runner) SetExplain(c *explain.Collector) { r.acct.explain = c }

// Explain returns the attached cost-attribution collector (nil = off).
func (r *Runner) Explain() *explain.Collector { return r.acct.explain }

// SetQueryBudget carves a per-query budget sub-cap out of the session's
// shared spending cap: at most n microtasks may be charged through this
// runner (and its Derived sub-phases). When the sub-cap runs dry the
// query stops with ErrBudgetExhausted and concludes best-effort; the
// engine's cap and concurrent queries are unaffected, and whatever the
// query did not spend was never withheld from them. n <= 0 means
// unlimited. Call before the query starts executing.
func (r *Runner) SetQueryBudget(n int64) {
	if n < 0 {
		n = 0
	}
	r.acct.budget = n
}

// QueryBudget returns the per-query sub-cap (0 = unlimited).
func (r *Runner) QueryBudget() int64 { return r.acct.budget }

// SetQueryPriority sets the query's scheduling weight on the shared
// pool: higher-priority queries' comparison steps are dequeued first;
// equals share round-robin. Call before the query starts executing.
func (r *Runner) SetQueryPriority(p int32) { r.acct.priority = p }

// SetQueryDeadline declares when the query's answer is due; among
// equal-priority queries the earliest deadline is served first. The
// deadline only weights scheduling — enforcement (stopping the query) is
// the context's job. Call before the query starts executing.
func (r *Runner) SetQueryDeadline(t time.Time) { r.acct.deadline = t }

// Stop latches the query stopped with the given cause (first cause
// wins): every further purchase through this runner is declined, so
// in-flight comparisons conclude best-effort from the evidence already
// bought, and the query's pending scheduler tasks are dropped while its
// running steps drain. Safe to call from any goroutine, multiple times.
func (r *Runner) Stop(cause error) {
	if cause == nil {
		cause = errors.New("query stopped")
	}
	r.acct.stop(cause)
	if q := r.acct.handle(); q != nil {
		q.Cancel()
	}
}

// Stopped reports whether the query has been stopped (canceled, deadline
// expired, budget sub-cap exhausted, or session closing).
func (r *Runner) Stopped() bool { return r.acct.stopped.Load() }

// StopCause returns why the query was stopped, nil while it is live.
func (r *Runner) StopCause() error { return r.acct.cause() }

// SetPhase publishes the name of the algorithm phase the query is
// currently executing; the empty string clears it. Safe for concurrent
// readers (Phase).
func (r *Runner) SetPhase(name string) {
	if name == "" {
		r.acct.phase.Store(nil)
		return
	}
	r.acct.phase.Store(&name)
}

// Phase returns the query's currently executing phase name, "" between
// phases or for algorithms that do not report phases.
func (r *Runner) Phase() string {
	if p := r.acct.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// Borrow opens (or joins) this query's handle on the shared scheduler
// and returns it with a release func. The handle is ref-counted: the
// pool workers spin up with the first outstanding borrow on the
// scheduler and wind down when the last is released, so sessions that
// are idle hold no goroutines. topk.Run borrows for the whole query;
// nested borrows (sub-phases) join the same handle.
func (r *Runner) Borrow() (*sched.Query, func()) {
	a := r.acct
	a.mu.Lock()
	if a.refs == 0 {
		a.q = r.sch.Open()
		a.q.SetPriority(a.priority)
		if !a.deadline.IsZero() {
			a.q.SetDeadline(a.deadline)
		}
		if a.stopped.Load() {
			// Stopped before the first borrow (cancel-before-start): the
			// handle opens pre-canceled so no step ever queues.
			a.q.Cancel()
		}
	}
	a.refs++
	q := a.q
	a.mu.Unlock()
	return q, func() {
		a.mu.Lock()
		a.refs--
		if a.refs == 0 {
			a.q.Close()
			a.q = nil
		}
		a.mu.Unlock()
	}
}

// Sched returns the shared comparison scheduler.
func (r *Runner) Sched() *sched.Scheduler { return r.sch }

// AsyncMode reports whether algorithms should drive free-running
// comparison chains instead of deterministic waves. Inline pools cannot
// overlap work, so Async degrades gracefully to deterministic there.
func (r *Runner) AsyncMode() bool { return r.params.Async && r.sch.Workers() > 1 }

// Tick advances the engine's latency clock by n batch rounds and
// attributes them to this runner's query.
func (r *Runner) Tick(n int) {
	r.eng.Tick(n)
	r.acct.rounds.Add(int64(n))
}

// DrawOne purchases a single microtask for (i, j), attributing its cost
// to this runner's query. It reports the sampled preference and whether
// the purchase was granted (stop latch, budget sub-cap, global cap and
// platform permitting).
func (r *Runner) DrawOne(i, j int) (float64, bool) {
	if r.acct.stopped.Load() {
		return 0, false
	}
	if r.acct.reserve(1) == 0 {
		r.Stop(ErrBudgetExhausted)
		return 0, false
	}
	v, ok := r.eng.DrawOne(i, j)
	if !ok {
		r.acct.refund(1)
		if c := r.acct.explain; c != nil {
			c.Refund(r.Phase(), i, j, 1)
		}
		return v, false
	}
	r.acct.tmc.Add(1)
	if c := r.acct.explain; c != nil {
		c.Charge(r.Phase(), i, j, 1)
	}
	return v, true
}

// draw purchases a batch for (i, j) and attributes exactly the charged
// count to this query — the engine reports it per call, because a view
// diff would misattribute cost when another query draws the same pair
// concurrently. A stopped query is declined outright; a query whose
// budget sub-cap runs dry gets the remainder, then stops with
// ErrBudgetExhausted on its next request. Reservations the engine did
// not honor (global cap, platform shortfall) are refunded to the
// sub-cap, so the sub-cap — like TMC itself — counts only delivered
// answers.
func (r *Runner) draw(i, j, n int) crowd.BagView {
	if r.acct.stopped.Load() {
		return r.eng.View(i, j)
	}
	granted := r.acct.reserve(n)
	if granted == 0 {
		if n > 0 {
			r.Stop(ErrBudgetExhausted)
		}
		return r.eng.View(i, j)
	}
	v, charged := r.eng.DrawN(i, j, granted)
	if charged != granted {
		r.acct.refund(granted - charged)
		if c := r.acct.explain; c != nil {
			c.Refund(r.Phase(), i, j, int64(granted-charged))
		}
	}
	if charged != 0 {
		r.acct.tmc.Add(int64(charged))
		if c := r.acct.explain; c != nil {
			c.Charge(r.Phase(), i, j, int64(charged))
		}
	}
	return v
}

// Draw purchases a batch of up to n preference microtasks for (i, j),
// attributing the charged cost to this runner's query. It is the
// budget-driven purchase path of algorithms that spend fixed workloads
// instead of running confidence-aware comparison processes (HYBRID).
func (r *Runner) Draw(i, j, n int) crowd.BagView { return r.draw(i, j, n) }

// Grade purchases one graded (absolute rating) microtask for item i,
// attributing its cost to this runner's query. It reports the rating and
// whether the purchase was granted.
func (r *Runner) Grade(i int) (float64, bool) {
	if r.acct.stopped.Load() {
		return 0, false
	}
	if r.acct.reserve(1) == 0 {
		r.Stop(ErrBudgetExhausted)
		return 0, false
	}
	v, ok := r.eng.Grade(i)
	if !ok {
		r.acct.refund(1)
		if c := r.acct.explain; c != nil {
			c.Refund(r.Phase(), i, -1, 1)
		}
		return v, false
	}
	r.acct.tmc.Add(1)
	if c := r.acct.explain; c != nil {
		c.ChargeGraded(r.Phase(), i)
	}
	return v, true
}

// QueryTMC returns the microtasks charged through this runner (this
// query), exact even while other queries share the engine.
func (r *Runner) QueryTMC() int64 { return r.acct.tmc.Load() }

// QueryRounds returns the latency rounds ticked through this runner.
func (r *Runner) QueryRounds() int64 { return r.acct.rounds.Load() }

// Rand returns the concurrency-safe control random source shared by
// every query on the engine. Control-flow randomness (shuffles, pivot
// picks) must come from here, never from Engine.Rand, once a session may
// run queries concurrently.
func (r *Runner) Rand() *crowd.ControlRand { return r.eng.Control() }

// execStep runs one blocking comparison step. While the query has a
// scheduler handle open, the step is routed through the pool so
// sequential Compare calls share fairly with other queries and count
// toward pool utilization; otherwise it runs directly. Only the query's
// control goroutine may reach here (never a pool task — tasks must not
// submit), and never with chain completions outstanding.
func (r *Runner) execStep(fn func()) {
	q := r.acct.handle()
	if q == nil {
		fn()
		return
	}
	q.Submit(sched.Task{Tag: -1, Run: fn})
	if tag := q.Next(); tag != -1 {
		panic("compare: execStep consumed a foreign completion; Compare must not run with chain tasks in flight")
	}
}

// Engine returns the underlying crowd engine.
func (r *Runner) Engine() *crowd.Engine { return r.eng }

// Err reports the platform failure that degraded the engine, or nil while
// it is healthy. Once non-nil, every comparison concludes best-effort on
// the evidence already purchased — exactly like an exhausted spending
// cap — and the caller should surface the partial result together with
// this error.
func (r *Runner) Err() error { return r.eng.Err() }

// PolicyName returns the name of the comparison policy in use ("student",
// "voi", ...) — the label comparison metrics, spans and committed
// judgments carry.
func (r *Runner) PolicyName() string { return r.policy.Name() }

// Params returns the execution parameters.
func (r *Runner) Params() Params { return r.params }

// Parallelism returns the resolved worker-pool bound for parallel
// comparison waves: Params.Parallelism, with 0 meaning GOMAXPROCS.
func (r *Runner) Parallelism() int {
	if p := r.params.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

func canonical(i, j int) ([2]int, bool) {
	if i < j {
		return [2]int{i, j}, false
	}
	return [2]int{j, i}, true
}

// Concluded reports the memoized outcome for (i, j), if any. With a
// judgment store attached, a pair missing from the memo consults the
// store once per session: a fresh stored verdict is served (and
// memoized) at zero TMC, exactly as if a previous query in this session
// had concluded the pair.
//
// Derived sub-phase runners never consult the store: a sub-phase runs
// under a reduced per-pair budget, so a stored full-budget verdict would
// flip outcomes a cold sub-phase concluded as ties — diverging the
// query's control flow. Re-buying the sub-phase's (cheap, reduced-budget)
// evidence from the same deterministic per-pair streams keeps a warm
// query's every comparison outcome — and hence its top-k — byte-identical
// to the cold run's.
func (r *Runner) Concluded(i, j int) (Outcome, bool) {
	k, flip := canonical(i, j)
	s := &r.memo.stripes[stripeOf(k)]
	s.mu.RLock()
	o, ok := s.m[k]
	s.mu.RUnlock()
	if !ok {
		if r.js != nil && !r.derived {
			if so, served := r.storeServe(k); served {
				if flip {
					so = so.Flip()
				}
				return so, true
			}
		}
		return Tie, false
	}
	if flip {
		o = o.Flip()
	}
	return o, true
}

// remember memoizes a conclusion. The first writer wins: a concluded
// outcome never changes afterwards, so concurrent readers always observe
// a stable verdict.
func (r *Runner) remember(i, j int, o Outcome) {
	k, flip := canonical(i, j)
	if flip {
		o = o.Flip()
	}
	s := &r.memo.stripes[stripeOf(k)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[[2]int]Outcome)
	}
	if _, ok := s.m[k]; !ok {
		s.m[k] = o
	}
	s.mu.Unlock()
}

// budgetLeft returns how many more samples the pair may consume.
func (r *Runner) budgetLeft(n int) int {
	if r.params.B <= 0 {
		return int(^uint(0) >> 1) // effectively unlimited
	}
	return r.params.B - n
}

// Compare runs the full comparison process COMP(o_i, o_j) sequentially:
// it keeps purchasing policy-chosen batches until the policy concludes or
// declines to buy, advancing the latency clock by one round per batch.
// Concluded pairs are memoized; calling Compare again costs nothing.
func (r *Runner) Compare(i, j int) Outcome {
	if o, ok := r.Concluded(i, j); ok {
		r.memoHit(i, j)
		return o
	}
	var st *compState
	if r.instrumented() {
		st = r.beginComp(i, j)
	}
	v := r.eng.View(i, j)
	verify := r.takeVerify(i, j)
	for {
		if need := r.policy.Bootstrap(v, r.params); need > 0 {
			// Cold start: the policy's bootstrap workload arrives Step at a
			// time, so the granted samples cost ceil(granted/Step) batch
			// rounds (Step stays the latency constant η even when the
			// policy sizes purchases itself). Rounds are counted from what
			// the engine actually granted: a spending cap may truncate the
			// draw, and the ungranted remainder never occupied a round
			// (nor must it be re-counted if the loop re-enters this
			// branch). A stale store prior that only partly covers the
			// cold start is verified here — the purchase is the reduced
			// batch.
			verify = false
			before := v.N
			r.execStep(func() { v = r.draw(i, j, need) })
			granted := v.N - before
			if granted == 0 {
				// A global spending cap ran dry: best-effort tie, not
				// memoized — the pair itself is not statistically spent.
				r.finishComp(st, v, Tie, false)
				return Tie
			}
			rounds := (granted + r.params.Step - 1) / r.params.Step
			r.Tick(rounds)
			r.observeRound(st, v, rounds)
		} else if verify {
			// A stale store prior already covers the whole cold start: buy
			// one reduced verification batch before trusting the stopping
			// rule on decayed evidence alone.
			verify = false
			if n := r.policy.Next(v, r.budgetLeft(v.N), r.params); n > 0 {
				before := v.N
				r.execStep(func() { v = r.draw(i, j, n) })
				if v.N == before {
					r.finishComp(st, v, Tie, false)
					return Tie
				}
				r.Tick(1)
				r.observeRound(st, v, 1)
			}
		}
		if o := r.policy.Test(v); o != Tie {
			r.remember(i, j, o)
			r.noteConclusion(i, j, o, false)
			r.finishComp(st, v, o, true)
			return o
		}
		n := r.policy.Next(v, r.budgetLeft(v.N), r.params)
		if n <= 0 {
			// The policy declines to buy: the budget ran dry, or an
			// adaptive policy judged the verdict unreachable within it.
			// Either way the pair concludes as a protocol-level tie.
			r.remember(i, j, Tie)
			r.noteConclusion(i, j, Tie, true)
			r.finishComp(st, v, Tie, true)
			return Tie
		}
		before := v.N
		r.execStep(func() { v = r.draw(i, j, n) })
		if v.N == before {
			// Spending cap exhausted mid-comparison: no round ran.
			r.finishComp(st, v, Tie, false)
			return Tie
		}
		r.Tick(1)
		r.observeRound(st, v, 1)
	}
}

// Advance performs one batch step of the comparison process for (i, j)
// without touching the latency clock: the first call purchases the
// policy's bootstrap workload (Algorithm 4's β ← I under the fixed
// schedule), subsequent calls one policy-sized batch. It returns the
// current outcome and whether the process is finished (concluded, budget
// exhausted, or the policy declined to keep buying). Callers running many
// pairs in parallel Tick the engine once per wave.
func (r *Runner) Advance(i, j int) (Outcome, bool) {
	if o, ok := r.Concluded(i, j); ok {
		r.memoHit(i, j)
		return o, true
	}
	var st *compState
	if r.instrumented() {
		st = r.compStateOf(i, j)
	}
	v := r.eng.View(i, j)
	// A stale store prior reaches here with its cold start (partly)
	// covered; the purchase below — the bootstrap remainder or one batch,
	// both reduced against a cold pair's full workload — is its
	// verification batch.
	r.takeVerify(i, j)
	n := r.policy.Bootstrap(v, r.params)
	if n <= 0 {
		n = r.policy.Next(v, r.budgetLeft(v.N), r.params)
	}
	if left := r.budgetLeft(v.N); n > left {
		n = left
	}
	if n > 0 {
		before := v.N
		v = r.draw(i, j, n)
		if v.N == before {
			// Global spending cap exhausted: report the pair finished
			// (best effort) without memoizing a statistical conclusion.
			o := r.policy.Test(v)
			if st != nil {
				r.finishComp(st, v, o, false)
				r.dropCompState(i, j)
			}
			return o, true
		}
		r.observeRound(st, v, 1)
	}
	if o := r.policy.Test(v); o != Tie {
		r.remember(i, j, o)
		r.noteConclusion(i, j, o, false)
		if st != nil {
			r.finishComp(st, v, o, true)
			r.dropCompState(i, j)
		}
		return o, true
	}
	if r.policy.Next(v, r.budgetLeft(v.N), r.params) <= 0 {
		// No further purchase is coming — the budget ran dry, or an
		// adaptive policy judged the verdict unreachable within it: the
		// pair concludes as a protocol-level tie.
		r.remember(i, j, Tie)
		r.noteConclusion(i, j, Tie, true)
		if st != nil {
			r.finishComp(st, v, Tie, true)
			r.dropCompState(i, j)
		}
		return Tie, true
	}
	return Tie, false
}

// TestOnly applies the policy to the samples already purchased for (i, j)
// without buying anything and without memoizing.
func (r *Runner) TestOnly(i, j int) Outcome {
	return r.policy.Test(r.eng.View(i, j))
}

// Leaning returns the direction currently suggested by the sample mean of
// (i, j), regardless of confidence: FirstWins if the mean (toward i) is
// positive, SecondWins if negative, Tie if zero or never sampled. It is the
// tie-breaking heuristic used when a budget-exhausted pair must still be
// placed in an order.
func (r *Runner) Leaning(i, j int) Outcome {
	v := r.eng.View(i, j)
	switch {
	case v.Mean > 0:
		return FirstWins
	case v.Mean < 0:
		return SecondWins
	default:
		return Tie
	}
}

// Workload returns the number of microtasks purchased so far for the pair.
func (r *Runner) Workload(i, j int) int { return r.eng.View(i, j).N }

// ForgetConclusions clears the outcome memo — from the session runner,
// including every per-policy side table — while keeping all purchased
// samples, letting a caller re-judge pairs under a different policy or
// budget against the same bags. It must not race with in-flight waves.
func (r *Runner) ForgetConclusions() {
	r.memo.clear()
}

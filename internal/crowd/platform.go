package crowd

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	qlog "crowdtopk/internal/obs/log"
)

// Task is one pairwise microtask to publish on a crowdsourcing platform:
// "compare item I with item J".
type Task struct {
	I, J int
}

// Answer is a worker's response to a published task: a preference in
// [-1, 1] oriented toward the task's I item.
type Answer struct {
	Task  Task
	Value float64
}

// Platform is the asynchronous interface real crowd markets expose:
// batches of microtasks are published, workers answer on their own
// schedule, and the requester collects the answers later. Post must not
// block on workers; Collect blocks until the batch is answered (or the
// platform gives up). Implementations must be safe for concurrent use on
// distinct batches: parallel comparison waves post and collect several
// pairs' batches at once, with exactly one collector per batch.
//
// Real markets misbehave: Collect may return fewer answers than were
// posted, duplicate answers, answers for tasks that were never posted, or
// values outside [-1, 1]. The PlatformOracle adapter validates and
// quarantines such answers, and the ResilientPlatform wrapper adds
// deadlines, retries and a circuit breaker on top of any Platform.
type Platform interface {
	// Post publishes the batch and returns a handle for collection.
	Post(tasks []Task) (batch int, err error)
	// Collect blocks until the batch is answered. It may return a partial
	// answer set together with a nil error (stragglers the platform gave
	// up on) or with a non-nil error (collection failed midway).
	Collect(batch int) ([]Answer, error)
}

// ContextPlatform is optionally implemented by platforms whose collection
// honors cancellation. The resilient layer uses it to enforce per-batch
// deadlines without leaking a blocked goroutine per timed-out collect.
type ContextPlatform interface {
	// CollectContext behaves like Collect but returns ctx.Err() promptly
	// once the context is done. A batch whose collection was cancelled
	// remains collectable later.
	CollectContext(ctx context.Context, batch int) ([]Answer, error)
}

// Closer is optionally implemented by platforms holding background
// resources (worker goroutines, connections). Closing cancels in-flight
// batches; Post and Collect fail with ErrPlatformClosed afterwards.
// It matches io.Closer.
type Closer interface {
	Close() error
}

// BatchOracle is implemented by oracles that can answer many microtasks
// for the same pair in one exchange — the fast path for simulated
// crowds, implemented by every dataset. The engine resolves an oracle's
// purchase kernel once (kernelOf): one Preferences call replaces
// len(dst) sequential Preference calls, so an oracle without a faster
// batch than that loop should not implement it. dst is a caller-owned
// scratch buffer, so implementations fill it rather than allocate.
//
// Contract: Preferences(rng, i, j, dst) must leave rng in exactly the
// state len(dst) sequential Preference(rng, i, j) calls would, and fill
// dst with exactly the values those calls would return. This is what lets
// the engine mix batch and scalar purchases of one pair (and replay audit
// logs) without perturbing the sample stream.
type BatchOracle interface {
	Preferences(rng *rand.Rand, i, j int, dst []float64)
}

// FallibleBatchOracle is the error-aware sibling of BatchOracle,
// implemented by oracles whose answers come from systems that can fail —
// above all PlatformOracle. PreferencesPartial fills dst with up to
// len(dst) validated preferences for the pair and returns how many were
// filled; filled may fall short of len(dst) when the backend lost tasks,
// and err is non-nil when the backend failed outright (the engine then
// latches into degraded mode and stops purchasing).
//
// kernelOf prefers this kernel over BatchOracle when both are available:
// it is the only way an oracle can decline part of a purchase without
// panicking, and the engine refunds every unfilled slot so the monetary
// accounting stays exact. Every engine purchase, DrawOne included, goes
// through the resolved kernel, so an oracle that implements this needs
// no BatchOracle beside it.
type FallibleBatchOracle interface {
	PreferencesPartial(rng *rand.Rand, i, j int, dst []float64) (filled int, err error)
}

// PlatformOracle adapts a Platform to the Oracle interface the engine
// consumes: each batch purchase posts the whole batch at once and
// collects it together, so a platform serving answers concurrently is
// exercised with real parallelism per batch.
//
// The adapter is the validation boundary of the system. Every collected
// answer is checked before it may enter a preference bag: its task must
// match the posted pair (in either orientation — flipped answers are
// re-oriented), and its value must be a real number in [-1, 1]. Answers
// failing validation are quarantined, counted, and recorded in the
// failure log; they never pollute the statistics. Platform errors are
// returned through the FallibleBatchOracle path — never panics — so the
// engine can degrade the query gracefully instead of crashing it.
type PlatformOracle struct {
	n        int
	platform Platform
	limit    int // retention bound for quarantined answers

	mu          sync.Mutex
	quarantined []Answer
	events      *failureLog          // bounded quarantine-event ring
	ins         *PlatformInstruments // metric bundle; nil = telemetry off
	log         *slog.Logger         // rate-limited quarantine reporting; discard when off
}

// NewPlatformOracle wraps a platform over n items. The oracle's failure
// log and quarantine store are bounded to DefaultFailureLogLimit entries;
// use WithResilience's FailureLogLimit to change the bound.
func NewPlatformOracle(n int, p Platform) *PlatformOracle {
	if n < 2 {
		panic(fmt.Sprintf("crowd: NewPlatformOracle requires n >= 2, got %d", n))
	}
	if p == nil {
		panic("crowd: NewPlatformOracle requires a platform")
	}
	return &PlatformOracle{
		n: n, platform: p,
		limit:  DefaultFailureLogLimit,
		events: newFailureLog(0),
		log:    qlog.Discard(),
	}
}

// WithResilience returns a platform oracle over the same item count whose
// platform is wrapped in a ResilientPlatform with the given policy. If
// the platform is already resilient it is returned unchanged. The
// policy's FailureLogLimit bounds the new oracle's own log too.
func (po *PlatformOracle) WithResilience(policy RetryPolicy) *PlatformOracle {
	if _, ok := po.platform.(*ResilientPlatform); ok {
		return po
	}
	out := NewPlatformOracle(po.n, NewResilientPlatform(po.platform, policy))
	out.events = newFailureLog(policy.FailureLogLimit)
	if policy.FailureLogLimit != 0 {
		out.limit = policy.FailureLogLimit
	}
	return out
}

// Instrument attaches the resilience metric bundle (nil detaches) and
// propagates it to the wrapped ResilientPlatform, when there is one. Call
// before concurrent use.
func (po *PlatformOracle) Instrument(ins *PlatformInstruments) {
	po.ins = ins
	if ins != nil {
		po.events.instrument(ins.FailuresDrop)
	} else {
		po.events.instrument(nil)
	}
	if rp, ok := po.platform.(*ResilientPlatform); ok {
		rp.Instrument(ins)
	}
}

// SetLogger wires structured logging for validation quarantines and — via
// the wrapped ResilientPlatform, when there is one — retry/breaker
// failure events. Both streams are rate-limited: a misbehaving platform
// emits failures in bursts and must not flood the log. Nil installs the
// discard logger, the default. Call before concurrent use.
func (po *PlatformOracle) SetLogger(lg *slog.Logger) {
	po.log = qlog.Limited(qlog.Component(lg, "platform"), "platform-quarantine", 1, 5)
	if rp, ok := po.platform.(*ResilientPlatform); ok {
		rp.SetLogger(lg)
	}
}

// Platform returns the wrapped platform.
func (po *PlatformOracle) Platform() Platform { return po.platform }

// NumItems implements Oracle.
func (po *PlatformOracle) NumItems() int { return po.n }

// ignoresStream declares that the adapter never reads the stream it is
// passed — the platform's workers answer — so the engine seeds none.
func (po *PlatformOracle) ignoresStream() bool { return true }

// Preference implements Oracle: one task posted, one answer awaited.
// It panics on platform failure — this scalar path exists only for
// direct use outside the engine; the engine always purchases through
// PreferencesPartial, which reports errors instead.
func (po *PlatformOracle) Preference(_ *rand.Rand, i, j int) float64 {
	var v [1]float64
	filled, err := po.PreferencesPartial(nil, i, j, v[:])
	if err != nil {
		panic(fmt.Sprintf("crowd: platform failure on pair (%d,%d): %v", i, j, err))
	}
	if filled == 0 {
		panic(fmt.Sprintf("crowd: platform returned no valid answer for pair (%d,%d)", i, j))
	}
	return v[0]
}

// PreferencesPartial implements FallibleBatchOracle: the batch is posted
// in one call, collected in one call, and every answer validated before
// it reaches the caller. Invalid answers (mis-paired tasks, NaN or
// out-of-range values, surplus duplicates) are quarantined and simply
// reduce the filled count — with a ResilientPlatform underneath, the
// missing tasks have already been re-posted and retried before the
// shortfall becomes visible here.
func (po *PlatformOracle) PreferencesPartial(_ *rand.Rand, i, j int, dst []float64) (int, error) {
	n := len(dst)
	if n == 0 {
		return 0, nil
	}
	tasks := make([]Task, n)
	for t := range tasks {
		tasks[t] = Task{I: i, J: j}
	}
	batch, err := po.platform.Post(tasks)
	if err != nil {
		return 0, fmt.Errorf("posting %d tasks for pair (%d,%d): %w", n, i, j, err)
	}
	answers, collectErr := po.platform.Collect(batch)

	filled := 0
	for _, a := range answers {
		if filled == n {
			// Surplus answers (platform duplicates): paid for n, keep n.
			po.quarantine(batch, a, "surplus answer")
			continue
		}
		v, ok := validPairAnswer(a, i, j)
		if !ok {
			po.quarantine(batch, a, "invalid answer")
			continue
		}
		dst[filled] = v
		filled++
	}
	if collectErr != nil {
		return filled, fmt.Errorf("collecting batch %d for pair (%d,%d): %w", batch, i, j, collectErr)
	}
	return filled, nil
}

// validPairAnswer validates one collected answer against the posted pair
// (i, j): the task must match the pair in either orientation (flipped
// answers are negated back) and the value must be a real number in
// [-1, 1]. The second result is false for answers that must not enter a
// preference bag.
func validPairAnswer(a Answer, i, j int) (float64, bool) {
	v := a.Value
	switch {
	case a.Task.I == i && a.Task.J == j:
		// canonical orientation
	case a.Task.I == j && a.Task.J == i:
		v = -v // platform may report in flipped orientation
	default:
		return 0, false // mis-paired: belongs to neither orientation
	}
	if math.IsNaN(v) || v < -1 || v > 1 {
		return 0, false
	}
	return v, true
}

// quarantine records an invalid answer and its failure event. The answer
// store honors the retention bound; the event goes through the bounded
// ring, which counts anything it evicts.
func (po *PlatformOracle) quarantine(batch int, a Answer, why string) {
	po.mu.Lock()
	if po.limit < 0 || len(po.quarantined) < po.limit {
		po.quarantined = append(po.quarantined, a)
	}
	po.mu.Unlock()
	po.events.append(FailureEvent{
		Batch: batch, Attempt: 1, Kind: "quarantine",
		Err: fmt.Sprintf("%s: task (%d,%d) value %v", why, a.Task.I, a.Task.J, a.Value),
	})
	po.ins.classify("quarantine")
	po.log.Warn("answer quarantined", "batch", batch, "pair",
		fmt.Sprintf("%d-%d", a.Task.I, a.Task.J), "why", why)
}

// Quarantined returns a copy of the answers rejected by validation, for
// audit and debugging. Retention is bounded like the failure log.
func (po *PlatformOracle) Quarantined() []Answer {
	po.mu.Lock()
	defer po.mu.Unlock()
	return append([]Answer(nil), po.quarantined...)
}

// Failures implements FailureReporter: the oracle's own quarantine events
// followed by the wrapped platform's failure log, when it keeps one. Both
// logs are bounded rings; DroppedFailures counts what they evicted.
func (po *PlatformOracle) Failures() []FailureEvent {
	out := po.events.snapshot()
	if fr, ok := po.platform.(FailureReporter); ok {
		out = append(out, fr.Failures()...)
	}
	return out
}

// DroppedFailures returns how many failure events the bounded logs (the
// oracle's own and the wrapped resilient platform's) evicted in total.
func (po *PlatformOracle) DroppedFailures() int64 {
	d := po.events.droppedCount()
	if rp, ok := po.platform.(*ResilientPlatform); ok {
		d += rp.DroppedFailures()
	}
	return d
}

// SimPlatform is an in-process Platform backed by a pool of worker
// goroutines answering from a base oracle — the test double for platform
// integrations, and a demonstration that the adapter tolerates real
// concurrency and out-of-order completion within a batch.
//
// SimPlatform supports cancellation: CollectContext returns promptly when
// its context is done (the batch stays collectable), and Close cancels
// all in-flight batches, stops their workers at task granularity, and
// releases every batch entry — no goroutine or map entry outlives the
// platform.
type SimPlatform struct {
	base    Oracle
	workers int

	mu      sync.Mutex
	nextID  int
	batches map[int]chan []Answer
	seed    int64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewSimPlatform returns a simulated platform with the given worker
// parallelism.
func NewSimPlatform(base Oracle, workers int, seed int64) *SimPlatform {
	if workers < 1 {
		panic(fmt.Sprintf("crowd: NewSimPlatform requires workers >= 1, got %d", workers))
	}
	return &SimPlatform{
		base:    base,
		workers: workers,
		batches: make(map[int]chan []Answer),
		seed:    seed,
		closed:  make(chan struct{}),
	}
}

// simRands recycles the simulated workers' generators. Re-seeding a
// pooled seededSource is O(1), where a fresh rand.NewSource fills its
// whole 607-word register (~12 µs) for the one answer it then draws.
var simRands = sync.Pool{New: func() any { return rand.New(newSeededSource(0)) }}

// simBatch is one posted batch being answered: its workers pull task
// indices from next, and the last one out delivers the answers.
type simBatch struct {
	tasks   []Task
	answers []Answer
	seed    int64
	next    atomic.Int64 // next task index to answer
	left    atomic.Int32 // workers still running
	done    chan []Answer
}

// Post implements Platform: it fans the batch out over min(workers,
// len(tasks)) goroutines and returns immediately. Task t is answered
// from its own stream, seeded seed+batch+t·7919, whichever worker takes
// it — so answers do not depend on the worker count or on scheduling.
func (sp *SimPlatform) Post(tasks []Task) (int, error) {
	if sp.isClosed() {
		return 0, ErrPlatformClosed
	}
	sp.mu.Lock()
	id := sp.nextID
	sp.nextID++
	b := &simBatch{
		tasks:   tasks,
		answers: make([]Answer, len(tasks)),
		seed:    sp.seed + int64(id),
		done:    make(chan []Answer, 1),
	}
	sp.batches[id] = b.done
	workers := min(sp.workers, len(tasks))
	if workers == 0 {
		b.done <- b.answers
	}
	b.left.Store(int32(workers))
	sp.wg.Add(workers)
	sp.mu.Unlock()

	for w := 0; w < workers; w++ {
		go sp.answer(b)
	}
	return id, nil
}

// answer is one simulated worker: it answers tasks until the batch runs
// out or the platform closes, and the last worker to stop delivers.
func (sp *SimPlatform) answer(b *simBatch) {
	defer sp.wg.Done()
	rng := simRands.Get().(*rand.Rand)
	// A close stops the workers at task granularity; unstarted tasks
	// stay zero-valued and are dropped below.
	for !sp.isClosed() {
		t := int(b.next.Add(1) - 1)
		if t >= len(b.tasks) {
			break
		}
		rng.Seed(b.seed + int64(t)*7919)
		b.answers[t] = Answer{
			Task:  b.tasks[t],
			Value: sp.base.Preference(rng, b.tasks[t].I, b.tasks[t].J),
		}
	}
	simRands.Put(rng)
	if b.left.Add(-1) > 0 {
		return
	}
	// Drop never-started tasks so a cancelled batch does not emit
	// zero-valued answers for work no worker performed.
	out := b.answers[:0]
	for t, a := range b.answers {
		if a.Task == b.tasks[t] {
			out = append(out, a)
		}
	}
	b.done <- out
}

// Collect implements Platform.
func (sp *SimPlatform) Collect(batch int) ([]Answer, error) {
	return sp.CollectContext(context.Background(), batch)
}

// CollectContext implements ContextPlatform: it returns once the batch is
// answered, the context is done, or the platform is closed. On context
// cancellation the batch remains registered and can be collected later.
func (sp *SimPlatform) CollectContext(ctx context.Context, batch int) ([]Answer, error) {
	sp.mu.Lock()
	done, ok := sp.batches[batch]
	sp.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("crowd: unknown or already collected batch %d", batch)
	}
	select {
	case answers := <-done:
		sp.mu.Lock()
		delete(sp.batches, batch)
		sp.mu.Unlock()
		return answers, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("crowd: collecting batch %d: %w (%w)", batch, ErrBatchTimeout, ctx.Err())
	case <-sp.closed:
		return nil, ErrPlatformClosed
	}
}

// Close implements Closer: it cancels in-flight batches, waits for their
// workers to stop, and releases every batch entry. Post and Collect fail
// with ErrPlatformClosed afterwards. Close is idempotent.
func (sp *SimPlatform) Close() error {
	sp.closeOnce.Do(func() {
		close(sp.closed)
		sp.wg.Wait()
		sp.mu.Lock()
		sp.batches = make(map[int]chan []Answer)
		sp.mu.Unlock()
	})
	return nil
}

func (sp *SimPlatform) isClosed() bool {
	select {
	case <-sp.closed:
		return true
	default:
		return false
	}
}

// PendingBatches returns the number of posted but uncollected batches —
// a leak diagnostic for tests.
func (sp *SimPlatform) PendingBatches() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.batches)
}

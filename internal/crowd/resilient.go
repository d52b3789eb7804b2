package crowd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	qlog "crowdtopk/internal/obs/log"
)

// RetryPolicy configures the resilient platform adapter: how long one
// collection attempt may take, how often a batch is retried, how the
// backoff between attempts grows, and when the circuit breaker opens.
type RetryPolicy struct {
	// MaxAttempts bounds post+collect cycles per batch (default 4). Each
	// attempt re-posts only the tasks still missing.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt (default 50ms);
	// it doubles per attempt up to MaxBackoff (default 2s). The actual
	// delay is jittered deterministically in [0.5, 1.0) of the nominal
	// value, from a stream seeded by JitterSeed and the batch id.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// CollectTimeout is the per-attempt deadline of one collection
	// (context-based). 0 disables the deadline — then a straggling batch
	// blocks forever, as with a bare platform.
	CollectTimeout time.Duration
	// FailureThreshold is how many consecutive batches must exhaust their
	// retries before the circuit breaker opens (default 3). An open
	// breaker fails every Post fast with ErrCircuitOpen — no more money
	// is sent to a platform that is down — until Reset is called.
	FailureThreshold int
	// JitterSeed roots the deterministic backoff jitter (default 1).
	JitterSeed int64
	// FailureLogLimit bounds the in-memory failure-event log: once full,
	// new events evict the oldest and the eviction count is reported via
	// DroppedFailures (and the telemetry drop counter). 0 means
	// DefaultFailureLogLimit; negative removes the bound.
	FailureLogLimit int
	// Sleep is the delay function, overridable so chaos tests run the
	// full retry machinery without wall-clock waits. nil means time.Sleep.
	Sleep func(time.Duration)
}

// withDefaults resolves zero fields to the defaults above.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 3
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// resBatch is the per-batch state of the resilient adapter: the expected
// task multiset, how many answers each of its pairs is still owed, the
// valid answers accepted so far, and the inner batch ids still awaiting
// collection.
type resBatch struct {
	tasks []Task
	// owed holds one entry per distinct pair of tasks, orientation-free,
	// built once at Post; short is the sum of its counts. A PlatformOracle
	// batch is one pair, so owed lives in owedBuf and lookups scan a
	// one-entry slice: a healthy batch builds no map.
	owed    []owedPair
	owedBuf [1]owedPair
	short   int
	answers []Answer
	pending []int // inner batch ids not yet successfully collected
	pendBuf [1]int
	// jitter is the backoff jitter stream, seeded from jitterSeed on the
	// first backoff: a healthy batch never backs off, so it never pays
	// for seeding one.
	jitter     *rand.Rand
	jitterSeed int64
	attempts   int
}

// owedPair counts a pair's tasks in the batch (total) and the answers it
// is still owed (n).
type owedPair struct {
	k        pairKey
	total, n int
}

// newResBatch copies the posted tasks and counts what each pair is owed.
func newResBatch(tasks []Task, jitterSeed int64) *resBatch {
	b := &resBatch{
		tasks:      append([]Task(nil), tasks...),
		answers:    make([]Answer, 0, len(tasks)),
		jitterSeed: jitterSeed,
		short:      len(tasks),
	}
	b.owed, b.pending = b.owedBuf[:0], b.pendBuf[:0]
	for _, t := range tasks {
		k := keyOf(t.I, t.J)
		if x := b.owedIndex(k); x >= 0 {
			b.owed[x].total++
			b.owed[x].n++
			continue
		}
		b.owed = append(b.owed, owedPair{k: k, total: 1, n: 1})
	}
	return b
}

// owedIndex returns the index of k in owed, or -1 when no task of the
// batch is for that pair.
func (b *resBatch) owedIndex(k pairKey) int {
	for x := range b.owed {
		if b.owed[x].k == k {
			return x
		}
	}
	return -1
}

// ResilientPlatform makes any Platform survivable: it enforces a
// per-attempt collection deadline, validates and deduplicates collected
// answers against the posted task multiset, re-posts only the tasks still
// missing, retries with exponential backoff and deterministic jitter, and
// opens a circuit breaker after too many consecutive batch failures so a
// dead platform stops consuming money immediately instead of timing out
// purchase after purchase.
//
// The adapter is transparent on the happy path: a healthy platform sees
// exactly one Post and one Collect per batch. It is safe for concurrent
// use on distinct batches, like the Platform contract requires.
type ResilientPlatform struct {
	inner  Platform
	cctx   ContextPlatform // inner's context-aware collection, if any
	policy RetryPolicy

	mu          sync.Mutex
	nextID      int
	batches     map[int]*resBatch
	consecFails int
	open        bool
	reposts     int64

	failures *failureLog          // bounded event ring, own lock
	ins      *PlatformInstruments // metric bundle; nil = telemetry off
	log      *slog.Logger         // rate-limited failure reporting; discard when off
}

// NewResilientPlatform wraps the platform with the given policy.
func NewResilientPlatform(inner Platform, policy RetryPolicy) *ResilientPlatform {
	if inner == nil {
		panic("crowd: NewResilientPlatform requires a platform")
	}
	rp := &ResilientPlatform{
		inner:   inner,
		policy:  policy.withDefaults(),
		batches: make(map[int]*resBatch),
		log:     qlog.Discard(),
	}
	rp.failures = newFailureLog(rp.policy.FailureLogLimit)
	rp.cctx, _ = inner.(ContextPlatform)
	return rp
}

// Instrument attaches the resilience metric bundle (nil detaches). Call
// before concurrent use; events observe either the old bundle or the new.
func (rp *ResilientPlatform) Instrument(ins *PlatformInstruments) {
	rp.ins = ins
	if ins != nil {
		rp.failures.instrument(ins.FailuresDrop)
	} else {
		rp.failures.instrument(nil)
	}
}

// Post implements Platform. A post rejected by the open circuit breaker
// costs nothing and fails fast with ErrCircuitOpen.
func (rp *ResilientPlatform) Post(tasks []Task) (int, error) {
	rp.mu.Lock()
	if rp.open {
		rp.mu.Unlock()
		rp.record(FailureEvent{
			Batch: -1, Attempt: 1, Kind: "breaker-open",
			Missing: len(tasks), Err: ErrCircuitOpen.Error(),
		})
		return 0, ErrCircuitOpen
	}
	id := rp.nextID
	rp.nextID++
	b := newResBatch(tasks, rp.policy.JitterSeed+int64(id)*0x9e37)
	rp.batches[id] = b
	rp.mu.Unlock()

	inner, err := rp.inner.Post(tasks)
	if err != nil {
		// The very first post failed; Collect will retry it from scratch.
		rp.record(FailureEvent{Batch: id, Attempt: 1, Kind: "post-error",
			Missing: len(tasks), Err: err.Error()})
		return id, nil
	}
	b.pending = append(b.pending, inner)
	return id, nil
}

// Collect implements Platform: it drives the batch's retry loop to
// completion. On success the full, validated answer set is returned. On
// exhaustion the answers gathered so far are returned together with an
// error wrapping ErrBatchIncomplete (or the final attempt's error), so
// callers can keep the partial evidence — every answer was paid for.
func (rp *ResilientPlatform) Collect(batch int) ([]Answer, error) {
	rp.mu.Lock()
	b, ok := rp.batches[batch]
	delete(rp.batches, batch)
	rp.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("crowd: unknown or already collected batch %d", batch)
	}

	var lastErr error
	for b.attempts < rp.policy.MaxAttempts {
		b.attempts++
		if b.attempts > 1 {
			d := rp.backoff(b)
			if pi := rp.ins; pi != nil {
				pi.BackoffNs.Add(int64(d))
			}
			rp.policy.Sleep(d)
		}

		// Ensure the missing tasks are in flight: the first attempt may
		// have to re-post after a failed Post, later attempts re-post only
		// the shortfall.
		if len(b.pending) == 0 && b.short > 0 {
			missing := b.missing()
			inner, err := rp.inner.Post(missing)
			if err != nil {
				lastErr = err
				rp.record(FailureEvent{Batch: batch, Attempt: b.attempts,
					Kind: "post-error", Missing: len(missing), Err: err.Error()})
				continue
			}
			rp.reportRepost()
			b.pending = append(b.pending, inner)
		}

		// Collect every in-flight inner batch of this attempt.
		stillPending := b.pending[:0]
		attemptErr := error(nil)
		for _, inner := range b.pending {
			answers, err := rp.collectInner(inner)
			if err != nil {
				attemptErr = err
				kind := "collect-error"
				if isTimeout(err) {
					kind = "timeout"
					// A timed-out inner batch may still complete later;
					// keep it pending so a retry can pick it up without
					// re-buying if the platform supports late collection.
					if rp.cctx != nil {
						stillPending = append(stillPending, inner)
					}
				}
				rp.record(FailureEvent{Batch: batch, Attempt: b.attempts,
					Kind: kind, Missing: b.short, Err: err.Error()})
				continue
			}
			rp.accept(batch, b, answers)
		}
		b.pending = stillPending

		if b.short == 0 {
			rp.settle(true)
			return b.answers, nil
		}
		missing := b.missing()
		if attemptErr == nil {
			// Clean collection, short batch: the platform silently lost
			// tasks. Record and retry the shortfall.
			rp.record(FailureEvent{Batch: batch, Attempt: b.attempts,
				Kind: "partial", Missing: len(missing)})
		} else {
			lastErr = attemptErr
		}
		// Re-post the shortfall for the next attempt. A straggling inner
		// batch may still be pending alongside the re-post; whichever
		// answers first fills the gap, and surplus answers from the other
		// are quarantined by accept — the engine is never double-charged.
		if b.attempts < rp.policy.MaxAttempts {
			inner, err := rp.inner.Post(missing)
			if err != nil {
				lastErr = err
				rp.record(FailureEvent{Batch: batch, Attempt: b.attempts,
					Kind: "post-error", Missing: len(missing), Err: err.Error()})
				continue
			}
			rp.reportRepost()
			b.pending = append(b.pending, inner)
		}
	}

	rp.settle(false)
	missing := b.short
	rp.record(FailureEvent{Batch: batch, Attempt: b.attempts, Kind: "exhausted",
		Missing: missing, Err: errText(lastErr)})
	err := fmt.Errorf("crowd: batch %d: %d of %d tasks unanswered after %d attempts: %w",
		batch, missing, len(b.tasks), b.attempts, ErrBatchIncomplete)
	if lastErr != nil {
		err = fmt.Errorf("%w (last error: %v)", err, lastErr)
	}
	return b.answers, err
}

// collectInner collects one inner batch under the per-attempt deadline.
func (rp *ResilientPlatform) collectInner(inner int) ([]Answer, error) {
	if rp.policy.CollectTimeout <= 0 {
		return rp.inner.Collect(inner)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rp.policy.CollectTimeout)
	defer cancel()
	if rp.cctx != nil {
		return rp.cctx.CollectContext(ctx, inner)
	}
	// Fallback for context-unaware platforms: collect on a goroutine and
	// abandon it at the deadline. The goroutine drains into a buffered
	// channel, so it terminates as soon as the inner Collect returns.
	type res struct {
		a   []Answer
		err error
	}
	ch := make(chan res, 1)
	go func() {
		a, err := rp.inner.Collect(inner)
		ch <- res{a, err}
	}()
	select {
	case r := <-ch:
		return r.a, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("crowd: collecting inner batch %d: %w", inner, ErrBatchTimeout)
	}
}

// accept merges valid answers into the batch, capped by what each pair
// is owed; surplus and mis-paired answers are quarantined as events.
func (rp *ResilientPlatform) accept(batch int, b *resBatch, answers []Answer) {
	for _, a := range answers {
		x := b.owedIndex(keyOf(a.Task.I, a.Task.J))
		if _, okv := validPairAnswer(a, a.Task.I, a.Task.J); !okv || x < 0 || a.Task.I == a.Task.J {
			rp.record(FailureEvent{Batch: batch, Attempt: b.attempts, Kind: "quarantine",
				Err: fmt.Sprintf("invalid answer: task (%d,%d) value %v", a.Task.I, a.Task.J, a.Value)})
			continue
		}
		if b.owed[x].n <= 0 {
			rp.record(FailureEvent{Batch: batch, Attempt: b.attempts, Kind: "quarantine",
				Err: fmt.Sprintf("surplus answer: task (%d,%d)", a.Task.I, a.Task.J)})
			continue
		}
		b.owed[x].n--
		b.short--
		b.answers = append(b.answers, a)
	}
}

// missing returns the tasks not yet covered by accepted answers, in task
// order: a pair's first total−n tasks count as covered, the rest are
// missing. It allocates only when something is owed — the retry path.
func (b *resBatch) missing() []Task {
	if b.short == 0 {
		return nil
	}
	covered := make([]int, len(b.owed))
	for x, o := range b.owed {
		covered[x] = o.total - o.n
	}
	out := make([]Task, 0, b.short)
	for _, t := range b.tasks {
		x := b.owedIndex(keyOf(t.I, t.J))
		if covered[x] > 0 {
			covered[x]--
			continue
		}
		out = append(out, t)
	}
	return out
}

// backoff returns the jittered exponential delay before the next attempt.
func (rp *ResilientPlatform) backoff(b *resBatch) time.Duration {
	d := rp.policy.BaseBackoff << uint(b.attempts-2)
	if d > rp.policy.MaxBackoff || d <= 0 {
		d = rp.policy.MaxBackoff
	}
	// Deterministic jitter in [0.5, 1.0): same seed, same batch, same
	// attempt — same delay, so fault schedules replay identically.
	if b.jitter == nil {
		b.jitter = rand.New(rand.NewSource(b.jitterSeed))
	}
	return time.Duration((0.5 + 0.5*b.jitter.Float64()) * float64(d))
}

// settle updates the circuit breaker after a batch completes: success
// closes the failure streak, failure lengthens it and may open the
// breaker.
func (rp *ResilientPlatform) settle(success bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if success {
		rp.consecFails = 0
		return
	}
	rp.consecFails++
	if rp.consecFails >= rp.policy.FailureThreshold && !rp.open {
		rp.open = true
		rp.failures.append(FailureEvent{
			Batch: -1, Kind: "breaker-open",
			Err: fmt.Sprintf("%d consecutive batch failures", rp.consecFails),
		})
		if pi := rp.ins; pi != nil {
			pi.FailureEvents.Inc()
			pi.BreakerOpens.Inc()
			pi.BreakerOpen.Set(1)
		}
	}
}

// BreakerOpen reports whether the circuit breaker is open.
func (rp *ResilientPlatform) BreakerOpen() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.open
}

// Reset closes the circuit breaker and zeroes the failure streak, e.g.
// after the operator confirmed the platform recovered.
func (rp *ResilientPlatform) Reset() {
	rp.mu.Lock()
	rp.open = false
	rp.consecFails = 0
	rp.mu.Unlock()
	if pi := rp.ins; pi != nil {
		pi.BreakerOpen.Set(0)
	}
}

// Failures implements FailureReporter. The log is a bounded ring: when
// more than the configured limit of events occurred, the oldest were
// evicted (see DroppedFailures).
func (rp *ResilientPlatform) Failures() []FailureEvent {
	return rp.failures.snapshot()
}

// DroppedFailures returns how many failure events the bounded log evicted.
func (rp *ResilientPlatform) DroppedFailures() int64 {
	return rp.failures.droppedCount()
}

// Reposts returns how many shortfall re-posts the adapter issued — the
// retry traffic a flaky platform caused.
func (rp *ResilientPlatform) Reposts() int64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.reposts
}

// Close implements Closer by closing the inner platform, when it can be
// closed.
func (rp *ResilientPlatform) Close() error {
	if c, ok := rp.inner.(Closer); ok {
		return c.Close()
	}
	return nil
}

// SetLogger wires structured logging of failure events (rate-limited —
// retry storms burst). Nil installs the discard logger, the default.
// Call before concurrent use.
func (rp *ResilientPlatform) SetLogger(lg *slog.Logger) {
	rp.log = qlog.Limited(qlog.Component(lg, "platform"), "platform-failure", 2, 10)
}

func (rp *ResilientPlatform) record(ev FailureEvent) {
	rp.failures.append(ev)
	rp.ins.classify(ev.Kind)
	rp.log.Warn("platform failure", "batch", ev.Batch, "attempt", ev.Attempt,
		"kind", ev.Kind, "missing", ev.Missing, "err", ev.Err)
}

func (rp *ResilientPlatform) reportRepost() {
	rp.mu.Lock()
	rp.reposts++
	rp.mu.Unlock()
	if pi := rp.ins; pi != nil {
		pi.Reposts.Inc()
	}
}

func isTimeout(err error) bool {
	return errors.Is(err, ErrBatchTimeout) || errors.Is(err, context.DeadlineExceeded)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

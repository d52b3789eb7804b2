// Package sched is the shared asynchronous comparison scheduler: one
// bounded worker pool that advances every in-flight comparison process —
// across pairs and across queries — one step at a time, delivering
// completions on per-query mailboxes.
//
// The scheduler replaces the per-algorithm wave pools of the earlier
// design. Algorithms become plan drivers: they submit COMP step tasks
// (tagged with a chain id and a latency round) and react to completions,
// so a decided pair immediately frees its worker for another pair — or for
// another query — instead of idling behind a wave barrier on the slowest
// straggler.
//
// Fairness is priority/deadline-weighted round-robin across open queries:
// each worker pickup serves the pending query with the highest priority
// (ties broken by the earliest deadline, then round-robin rotation), so a
// high-priority query overtakes its neighbors without starving equals —
// queries of one priority class still share the pool round-robin. Within
// a query, tasks run in submission order.
//
// A query may be canceled mid-flight: Cancel drops its pending tasks
// (their completions are delivered without running, so drivers never
// block on a dropped step) while tasks already on a worker run to
// completion — the drain half of cooperative cancellation.
//
// Determinism: with one worker the scheduler degenerates to inline
// execution — Submit runs the task synchronously on the caller's
// goroutine and queues the completion — which is byte-identical to the
// historical sequential execution. With more workers, execution order
// across chains is nondeterministic, but the engine's per-pair sample
// streams keep every chain's samples schedule-independent; wave-mode
// drivers restore full determinism with a drain barrier per round.
package sched

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	qlog "crowdtopk/internal/obs/log"
)

// Task is one schedulable step of a comparison process.
type Task struct {
	// Tag identifies the chain the step belongs to; it is echoed back by
	// Query.Next so the driver can route the completion.
	Tag int64
	// Round is the chain's latency round after this step completes.
	// Drivers use it for high-water latency ticking; the scheduler uses it
	// to detect straggler steals (a later-round task starting while an
	// earlier-round task of the same query is still running).
	Round int64
	// Run performs the step. It must not submit to the scheduler itself
	// (drivers submit follow-up steps from the completion loop), so tasks
	// can never deadlock the pool.
	Run func()
}

// queued is a Task in a query's pending queue.
type queued struct {
	Task
	enq time.Time // submit time, set only when instruments are wired
}

// Scheduler owns the worker pool. Workers are spawned when the first
// query opens and exit when the last closes, so idle sessions hold no
// goroutines. A Scheduler with workers <= 1 never spawns: Submit executes
// inline (sequential mode).
type Scheduler struct {
	workers int
	busyNs  atomic.Int64 // wall-clock ns workers spent inside Task.Run (instrumented only)
	tasks   atomic.Int64 // tasks executed (pool and inline)

	// ins is the pre-resolved metric bundle; nil when telemetry is off
	// (the disabled path costs one nil check per touch point).
	ins *Instruments

	// log reports the pool's rare lifecycle events (spawn, drain); drops
	// is its rate-limited sibling for cancel-time task drops, which can
	// arrive in bursts. Both discard when logging is off.
	log   *slog.Logger
	drops *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	queries []*Query // open queries, round-robin order
	rr      int      // next query to serve
	pending int      // total queued tasks across queries
	running int      // tasks currently inside Run
	live    int      // workers currently alive
}

// New returns a scheduler whose pool is bounded by workers. workers <= 1
// selects inline (sequential) execution.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, log: qlog.Discard(), drops: qlog.Discard()}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SetInstruments wires the metric bundle; nil disables instrumentation.
// Call before the scheduler is shared across goroutines.
func (s *Scheduler) SetInstruments(ins *Instruments) { s.ins = ins }

// SetLogger wires structured logging for the scheduler's rare events:
// pool spawn/drain and cancel-time task drops (rate-limited, since a mass
// cancellation drops queues in bursts). Nil installs the discard logger,
// the default. Call before the scheduler is shared across goroutines.
func (s *Scheduler) SetLogger(lg *slog.Logger) {
	s.log = qlog.Component(lg, "sched")
	s.drops = qlog.Limited(s.log, "sched-cancel", 1, 5)
}

// Workers returns the pool bound.
func (s *Scheduler) Workers() int { return s.workers }

// BusyNs returns the cumulative wall-clock nanoseconds pool workers spent
// executing tasks — the numerator of pool utilization
// (busy / (wall × workers)). It counts only while instruments are wired
// (SetInstruments), since timing every task costs two clock reads; an
// uninstrumented pool reads 0. Inline execution does not count.
func (s *Scheduler) BusyNs() int64 { return s.busyNs.Load() }

// Tasks returns how many tasks have been executed.
func (s *Scheduler) Tasks() int64 { return s.tasks.Load() }

// Query is one query's handle on the scheduler: a private pending queue
// feeding the shared pool and a mailbox receiving completions.
type Query struct {
	s       *Scheduler
	pending []queued
	head    int
	rounds  []int64 // rounds of this query's tasks currently running (instrumented only)
	closed  bool

	// priority and deadline weight the cross-query dequeue; both are
	// written under s.mu (SetPriority/SetDeadline) and read by pickLocked.
	priority int32
	deadline int64 // unix nanos; 0 = none

	canceled atomic.Bool

	dmu  sync.Mutex
	done []int64
	dpos int
	sig  chan struct{}
}

// SetPriority sets the query's scheduling weight: among queries with
// pending work, a higher-priority query is always served first. Equal
// priorities share the pool round-robin (the pre-priority fairness).
func (q *Query) SetPriority(p int32) {
	q.s.mu.Lock()
	q.priority = p
	q.s.mu.Unlock()
}

// SetDeadline declares when the query's results are due. Among queries of
// equal priority, the one with the earliest deadline is served first;
// queries without a deadline rank after any query that has one. The zero
// time clears the deadline.
func (q *Query) SetDeadline(t time.Time) {
	var d int64
	if !t.IsZero() {
		d = t.UnixNano()
	}
	q.s.mu.Lock()
	q.deadline = d
	q.s.mu.Unlock()
}

// Cancel drops every pending (not yet picked up) task of the query and
// delivers their completions immediately — without running them — so the
// driver's submit/next bookkeeping stays balanced while the queue drains
// promptly. Tasks already executing on a worker finish normally and
// deliver as usual. Subsequent Submits on a canceled query deliver their
// completion without running, in both pool and inline mode. Cancel is
// safe to call from any goroutine, multiple times.
//
// Cancel does not conclude anything by itself: callers pair it with a
// query-level stop latch that makes the dropped steps' work unnecessary
// (purchases declined, chains concluded best-effort by the driver).
func (q *Query) Cancel() {
	s := q.s
	if s.workers <= 1 {
		q.canceled.Store(true)
		return
	}
	s.mu.Lock()
	q.canceled.Store(true)
	var tags []int64
	for i := q.head; i < len(q.pending); i++ {
		tags = append(tags, q.pending[i].Tag)
	}
	s.pending -= len(q.pending) - q.head
	q.pending = q.pending[:0]
	q.head = 0
	if ins := s.ins; ins != nil {
		ins.QueueDepth.Set(int64(s.pending))
		ins.Dropped.Add(int64(len(tags)))
	}
	s.mu.Unlock()
	if len(tags) > 0 {
		s.drops.Debug("pending tasks dropped on cancel", "dropped", len(tags))
	}
	for _, tag := range tags {
		q.deliver(tag)
	}
}

// Canceled reports whether Cancel has been called.
func (q *Query) Canceled() bool { return q.canceled.Load() }

// Open registers a new query with the scheduler and (in pool mode) spawns
// the workers if none are alive. Close the handle when the query's last
// completion has been consumed.
func (s *Scheduler) Open() *Query {
	q := &Query{s: s, sig: make(chan struct{}, 1)}
	if s.workers <= 1 {
		return q
	}
	s.mu.Lock()
	s.queries = append(s.queries, q)
	spawned := s.live == 0
	for s.live < s.workers {
		s.live++
		go s.worker()
	}
	s.mu.Unlock()
	if spawned {
		s.log.Debug("worker pool started", "workers", s.workers)
	}
	return q
}

// Submit queues one task. In inline mode (workers <= 1) the task runs
// synchronously on the calling goroutine and its completion is queued
// before Submit returns — byte-identical to sequential execution.
// Submit must not be called after Close, nor concurrently with it.
func (q *Query) Submit(t Task) {
	s := q.s
	if s.workers <= 1 {
		if q.canceled.Load() {
			q.deliver(t.Tag)
			return
		}
		t.Run()
		s.tasks.Add(1)
		q.deliver(t.Tag)
		return
	}
	qt := queued{Task: t}
	if s.ins != nil {
		qt.enq = time.Now()
	}
	s.mu.Lock()
	if q.closed {
		s.mu.Unlock()
		panic("sched: Submit on a closed query")
	}
	if q.canceled.Load() {
		if ins := s.ins; ins != nil {
			ins.Dropped.Inc()
		}
		s.mu.Unlock()
		q.deliver(t.Tag)
		return
	}
	q.pending = append(q.pending, qt)
	s.pending++
	if ins := s.ins; ins != nil {
		ins.QueueDepth.Set(int64(s.pending))
	}
	s.mu.Unlock()
	s.cond.Signal()
}

// Next blocks until one of the query's submitted tasks has completed and
// returns its Tag. Each Submit produces exactly one Next delivery. Only
// the query's driver goroutine may call Next.
func (q *Query) Next() int64 {
	for {
		q.dmu.Lock()
		if q.dpos < len(q.done) {
			tag := q.done[q.dpos]
			q.dpos++
			if q.dpos == len(q.done) {
				q.done = q.done[:0]
				q.dpos = 0
			}
			q.dmu.Unlock()
			return tag
		}
		q.dmu.Unlock()
		<-q.sig
	}
}

// Drain consumes n completions, discarding the tags — the wave-barrier
// primitive for drivers that track results positionally.
func (q *Query) Drain(n int) {
	for i := 0; i < n; i++ {
		q.Next()
	}
}

// Close unregisters the query. Any still-pending tasks are dropped; the
// caller must have drained the completions of tasks it cares about. When
// the last query closes, the pool workers exit.
func (q *Query) Close() {
	s := q.s
	if s.workers <= 1 {
		return
	}
	s.mu.Lock()
	q.closed = true
	s.pending -= len(q.pending) - q.head
	q.pending = nil
	for i, o := range s.queries {
		if o == q {
			s.queries = append(s.queries[:i], s.queries[i+1:]...)
			if s.rr > i {
				s.rr--
			}
			break
		}
	}
	if ins := s.ins; ins != nil {
		ins.QueueDepth.Set(int64(s.pending))
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// deliver queues one completion and wakes the driver.
func (q *Query) deliver(tag int64) {
	q.dmu.Lock()
	q.done = append(q.done, tag)
	q.dmu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

// takeLocked pops the query's oldest pending task. Caller holds s.mu and
// has checked the queue is non-empty.
func (q *Query) takeLocked() queued {
	t := q.pending[q.head]
	q.pending[q.head] = queued{}
	q.head++
	if q.head == len(q.pending) {
		q.pending = q.pending[:0]
		q.head = 0
	}
	return t
}

// beatsLocked reports whether query a outranks query b for the next
// worker pickup: strictly higher priority wins; among equals, the
// earlier non-zero deadline wins. Caller holds s.mu.
func beatsLocked(a, b *Query) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.deadline != b.deadline {
		if a.deadline == 0 {
			return false
		}
		return b.deadline == 0 || a.deadline < b.deadline
	}
	return false
}

// pickLocked selects the next (query, task) pair across open queries:
// highest query priority first, earliest deadline among equals, and
// round-robin rotation as the final tie-break (the scan starts at s.rr
// and a strictly-better candidate is required to displace an earlier
// one, so equal-weight queries keep taking fair turns). Returns false
// when nothing is pending.
func (s *Scheduler) pickLocked() (*Query, queued, bool) {
	n := len(s.queries)
	best := -1
	for off := 0; off < n; off++ {
		i := (s.rr + off) % n
		q := s.queries[i]
		if q.head >= len(q.pending) {
			continue
		}
		if best < 0 || beatsLocked(q, s.queries[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, queued{}, false
	}
	q := s.queries[best]
	t := q.takeLocked()
	s.rr = (best + 1) % n
	return q, t, true
}

// worker is one pool goroutine: pick fairly, run, deliver, repeat; exit
// when no queries remain open.
func (s *Scheduler) worker() {
	s.mu.Lock()
	for {
		q, t, ok := s.pickLocked()
		if !ok {
			if len(s.queries) == 0 {
				s.live--
				drained := s.live == 0
				s.mu.Unlock()
				if drained {
					s.log.Debug("worker pool drained", "tasks", s.tasks.Load())
				}
				return
			}
			s.cond.Wait()
			continue
		}
		s.pending--
		s.running++
		if ins := s.ins; ins != nil {
			ins.QueueDepth.Set(int64(s.pending))
			ins.InFlight.Set(int64(s.running))
			wait := time.Since(t.enq).Nanoseconds()
			ins.QueueWait.Observe(wait)
			ins.QueueWaitNs.Add(wait)
			// A straggler steal: this task starts while an earlier-round
			// task of the same query is still running — the pool slot the
			// wave barrier would have left idle.
			for _, r := range q.rounds {
				if r < t.Round {
					ins.Steals.Inc()
					break
				}
			}
			q.rounds = append(q.rounds, t.Round)
		}
		s.mu.Unlock()

		if s.ins != nil {
			start := time.Now()
			t.Run()
			s.busyNs.Add(time.Since(start).Nanoseconds())
		} else {
			t.Run()
		}
		s.tasks.Add(1)

		// Bookkeeping strictly before delivery: the driver may resubmit
		// the chain's next round the moment it sees the completion, and
		// that follow-up must not observe this finished step as a running
		// earlier round (it would read as a phantom straggler steal).
		s.mu.Lock()
		s.running--
		if ins := s.ins; ins != nil {
			for i, r := range q.rounds {
				if r == t.Round {
					q.rounds = append(q.rounds[:i], q.rounds[i+1:]...)
					break
				}
			}
			ins.InFlight.Set(int64(s.running))
		}
		s.mu.Unlock()
		q.deliver(t.Tag)
		s.mu.Lock()
	}
}

package crowdtopk

import (
	"context"
	"fmt"
	"io"
	"sync"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/topk"
)

// TaskRecord is one purchased microtask in a session's audit log: the
// compared pair (J = -1 for graded tasks), the worker's answer, and the
// batch round it arrived in.
type TaskRecord = crowd.Record

// Session is a long-lived query context over one oracle. Unlike the
// one-shot Query, a session keeps every purchased judgment, so subsequent
// queries, judgments and partial rankings reuse the evidence already paid
// for (the paper's §5.3 reuse property, surfaced as API). A session can
// also record an audit log of every microtask for replay and offline
// analysis.
//
// A session is safe for concurrent use: multiple goroutines may call
// TopK (and Judge, Tiers, the accessors) at the same time. Concurrent
// queries share one crowd engine, one spending cap, one conclusion memo
// and one comparison scheduler, whose worker pool — bounded by
// Options.Parallelism (default GOMAXPROCS) — is divided fairly between
// the in-flight queries; each Result still reports the exact microtask
// count and rounds that its own query consumed. A single query at a
// fixed Seed yields identical answers, costs and rounds at any
// parallelism (in the default Deterministic scheduling mode); the split
// of shared evidence between queries that race each other is, of
// course, schedule-dependent.
type Session struct {
	opts   Options
	runner *compare.Runner

	// Close coordination: closed rejects new queries, closeCtx stops the
	// in-flight ones (each StartTopK registers an AfterFunc on it), and
	// inflight lets Close wait for their goroutines to finish. inflight.Add
	// happens under mu, strictly before closed flips, so Close's Wait can
	// never race a concurrent Add.
	mu          sync.Mutex
	closed      bool
	closeCtx    context.Context
	closeCancel context.CancelFunc
	inflight    sync.WaitGroup
}

// NewSession opens a session over the oracle with the given options
// (Options.K is ignored here; each TopK call has its own k).
func NewSession(o Oracle, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	opts.K = 1 // per-call parameter; keep option validation independent of it
	if err := opts.validate(o.NumItems()); err != nil {
		return nil, err
	}
	r, err := newRunner(o, opts)
	if err != nil {
		return nil, err
	}
	closeCtx, closeCancel := context.WithCancel(context.Background())
	return &Session{opts: opts, runner: r, closeCtx: closeCtx, closeCancel: closeCancel}, nil
}

// EnableAuditLog attaches an in-memory audit trail that records every
// microtask the session purchases from now on. A session has one trail:
// this replaces a trail set by SetAuditSink, and calling it again keeps
// the in-memory trail already attached.
func (s *Session) EnableAuditLog() {
	if s.memTrail() == nil {
		s.runner.Engine().SetLogSink(new(crowd.MemLog))
	}
}

// memTrail returns the attached in-memory trail, or nil.
func (s *Session) memTrail() *crowd.MemLog {
	m, _ := s.runner.Engine().LogSink().(*crowd.MemLog)
	return m
}

// AuditLog returns the in-memory trail's records in purchase order, or
// nil when no in-memory trail is attached — none at all, or a durable one
// set by SetAuditSink, which keeps nothing in memory. The slice is
// shared; do not modify.
func (s *Session) AuditLog() []TaskRecord { return s.memTrail().Log() }

// WriteAuditLog serializes the in-memory trail as JSON (null when there
// is none).
func (s *Session) WriteAuditLog(w io.Writer) error { return s.memTrail().WriteLog(w) }

// AuditLen returns how many microtask records the session has handed to
// its audit trail, in memory or durable alike. At quiescence it equals
// TMC when a trail was attached before the first purchase.
func (s *Session) AuditLen() int64 { return s.runner.Engine().Logged() }

// ReadAuditLog parses a JSON audit log written by WriteAuditLog.
func ReadAuditLog(r io.Reader) ([]TaskRecord, error) { return crowd.ReadLog(r) }

// ReplayOracle builds an Oracle over n items that serves the answers of a
// recorded audit log instead of asking a crowd: re-running a query against
// it spends no new (real) money. It panics when asked for judgments the
// log does not contain.
func ReplayOracle(n int, log []TaskRecord) Oracle { return crowd.NewReplay(n, log) }

// ResumedOracle replays a recorded audit log and falls through to a live
// oracle once the log runs dry — the checkpoint/resume primitive. Its
// LiveTasks method reports how many microtasks reached the live crowd,
// i.e. the real spend beyond the replayed checkpoint.
type ResumedOracle = crowd.ReplayThenLive

// ResumeOracle builds the checkpoint/resume oracle: re-driving a crashed
// query from its audit log replays every already-purchased judgment for
// free and buys only the demand beyond the checkpoint from the live
// oracle. Because a query's purchase pattern is deterministic for a fixed
// seed, a resumed run whose log covers the whole query spends nothing.
func ResumeOracle(log []TaskRecord, live Oracle) *ResumedOracle {
	return crowd.NewReplayThenLive(log, live)
}

// NumItems returns the size of the session's item space.
func (s *Session) NumItems() int { return s.runner.Engine().NumItems() }

// TMC returns the session's total monetary cost so far.
func (s *Session) TMC() int64 { return s.runner.Engine().TMC() }

// Err reports the platform failure that degraded the session, or nil
// while it is healthy. A degraded session stops purchasing: further
// queries and judgments conclude best-effort on the evidence already
// paid for, and TopK returns *PartialResultError.
func (s *Session) Err() error { return s.runner.Err() }

// PlatformFailures returns the failure log of the session's platform
// (timeouts, retries, quarantined answers, breaker events), or nil when
// the oracle is not platform-backed or nothing failed.
func (s *Session) PlatformFailures() []PlatformFailure {
	if fr, ok := s.runner.Engine().Oracle().(crowd.FailureReporter); ok {
		return fr.Failures()
	}
	return nil
}

// DroppedPlatformFailures reports how many failure events were evicted
// from the bounded failure log (see ResilienceOptions.FailureLogLimit) —
// the count by which PlatformFailures under-reports a long chaos run.
func (s *Session) DroppedPlatformFailures() int64 {
	if dr, ok := s.runner.Engine().Oracle().(interface{ DroppedFailures() int64 }); ok {
		return dr.DroppedFailures()
	}
	return 0
}

// Telemetry returns the telemetry bundle the session was opened with, nil
// when observability is off.
func (s *Session) Telemetry() *Telemetry { return s.opts.Telemetry }

// StoreStats reports the session's judgment-store traffic so far — hits,
// stale serves, misses, commits, and the store's current record count.
// The zero value is returned when the session has no store attached.
func (s *Session) StoreStats() JudgmentStoreStats { return s.runner.StoreStats() }

// Close shuts the session down: new queries are rejected with
// ErrSessionClosed, queries in flight are stopped (they stop purchasing,
// drain their comparison chains, and return best-effort partials wrapping
// ErrSessionClosed), and once every query goroutine has finished the
// underlying platform is closed when it supports closing. Close blocks
// until the drain completes and is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.closeCancel()
	}
	s.mu.Unlock()
	s.inflight.Wait()
	o := s.runner.Engine().Oracle()
	po, ok := o.(*crowd.PlatformOracle)
	if !ok {
		return nil
	}
	if c, ok := po.Platform().(crowd.Closer); ok {
		return c.Close()
	}
	return nil
}

// Rounds returns the session's latency clock in batch rounds.
func (s *Session) Rounds() int64 { return s.runner.Engine().Rounds() }

// TopK answers a top-k query within the session, reusing all previously
// purchased judgments. The result's TMC and Rounds are the *incremental*
// cost of this call, exact even while other TopK calls run concurrently:
// every query executes on its own fork of the session's runner, which
// meters purchases per query while sharing the engine, the spending cap,
// the conclusion memo and the scheduler's worker pool. (Result.Stats, by
// contrast, diffs the session-wide telemetry registry over the call's
// window, so its secondary counters include concurrent queries' traffic;
// its TMC and Rounds are overwritten with this query's exact values.)
func (s *Session) TopK(k int) (Result, error) {
	return s.TopKContext(context.Background(), k, QueryOptions{})
}

// Judge runs (or re-reads) one confidence-aware comparison within the
// session.
func (s *Session) Judge(i, j int) (Judgment, error) { return judge(s.runner, i, j) }

// Tiers infers a partial ranking of the given items from the confidence
// intervals of their preference means against the reference item, using
// only judgments already purchased in this session (zero cost). Tiers are
// returned best-first; consecutive tiers are separated at the session's
// confidence level, items within a tier are statistically
// indistinguishable on current evidence. This is the paper's §7
// "partial ranking from distinguishable intervals" extension.
func (s *Session) Tiers(items []int, ref int) ([][]int, error) {
	n := s.runner.Engine().NumItems()
	if ref < 0 || ref >= n {
		return nil, fmt.Errorf("crowdtopk: reference %d out of range [0,%d)", ref, n)
	}
	for _, o := range items {
		if o < 0 || o >= n {
			return nil, fmt.Errorf("crowdtopk: item %d out of range [0,%d)", o, n)
		}
	}
	return topk.IntervalGroups(s.runner.Engine(), items, ref, 1-s.opts.Confidence), nil
}

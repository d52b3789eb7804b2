// Package service is the HTTP/JSON query service over a crowdtopk
// Session: clients POST top-k queries (with per-query algorithm, budget
// sub-cap, priority and deadline), watch their progress live, cancel
// them, and collect best-effort results — while the service enforces
// admission control so a burst of queries degrades into 429 backpressure
// instead of an unbounded worker pile-up.
//
// The endpoints, in Go 1.22 method-pattern form:
//
//	POST   /queries             submit a query     → 202 (or 429 when full)
//	GET    /queries             list all queries
//	GET    /queries/{id}        one query's status (live TMC/rounds/phase)
//	DELETE /queries/{id}        cancel (queued or running)
//	GET    /queries/{id}/events SSE progress stream until completion
//	GET    /healthz             liveness + admission gauges
//	GET    /debug/accounting    global cost invariant, live
//	/metrics, /debug/vars, ...  the session Telemetry handler, when given
//
// Admission is two-stage: at most MaxInFlight queries run concurrently;
// the next MaxQueue wait in a priority queue (priority desc, arrival asc
// — consistent with the comparison scheduler's dequeue weighting); beyond
// that, POST returns 429 with a Retry-After hint. Canceling a queued
// query removes it lazily at dispatch.
package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk"
	qlog "crowdtopk/internal/obs/log"
	"crowdtopk/internal/obs/slo"
)

// Config assembles a Server. Session is required; everything else has a
// serviceable default.
type Config struct {
	// Session executes the queries. The server owns its lifecycle from
	// Shutdown on: queries in flight are stopped through it.
	Session *crowdtopk.Session
	// Telemetry, when non-nil, is mounted under /metrics, /debug/vars,
	// /trace and /debug/pprof/.
	Telemetry *crowdtopk.Telemetry
	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot (default 64).
	// A full queue is the 429 backpressure signal.
	MaxQueue int
	// AuditEnabled declares that the session records an audit log, so
	// /debug/accounting can check TMC == audit length (the caller enables
	// the log; the server cannot tell an empty log from a disabled one).
	AuditEnabled bool
	// EventInterval is the SSE progress sampling period (default 100ms).
	EventInterval time.Duration
	// Journal, when non-nil, records every query's accept and terminal
	// transition durably. Together with a persistent audit log it makes
	// the daemon crash-safe: Restore re-admits the queries that died in
	// flight and reinstates the finished ones' results.
	Journal Journal
	// SLO, when non-nil, enables burn-rate tracking over query latency
	// and session budget burn: alert states are served at /debug/slo, on
	// the dashboard, and — with Telemetry — as gauges in /metrics.
	SLO *slo.Objectives
	// Logger, when non-nil, receives structured service events (accepts,
	// rejections, completions, journal failures) as JSONL.
	Logger *qlog.Logger
}

// Server is the query service. Create with New, mount via Handler (it is
// an http.Handler), stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// slo is the burn-rate tracker (nil when Config.SLO is unset); log is
	// the service's bound structured logger (nil = off; every call site is
	// nil-safe). rej rate-limits admission-reject warnings so a client
	// retry storm cannot flood the log.
	slo *slo.Tracker
	log *qlog.Logger
	rej *qlog.Logger

	mu       sync.Mutex
	queries  map[string]*query
	order    []*query // insertion order, for GET /queries
	queue    admissionQueue
	queued   int // non-canceled entries in queue
	running  int
	nextID   int64
	nextSeq  int64
	closed   bool
	wake     chan struct{}
	shutdown chan struct{}
	wg       sync.WaitGroup

	// jerr latches the first journal-write failure for diagnostics; the
	// queries themselves keep running (losing a finish entry re-runs the
	// query on the next resume, which replay makes free).
	jmu  sync.Mutex
	jerr error
}

// query is one submitted top-k query moving through the service:
// queued → running → done, with canceled reachable from both live states.
type query struct {
	id       string
	req      Request
	accepted time.Time

	// claimed arbitrates the dispatch-vs-cancel race on a queued query:
	// exactly one of the dispatcher (to run it) and a canceler (to retire
	// it in place) wins the CAS and owns the state transition.
	claimed atomic.Bool

	mu       sync.Mutex
	state    string // "queued", "running", "done", "canceled"
	canceled bool
	handle   *crowdtopk.QueryHandle
	result   crowdtopk.Result
	err      error
	finished time.Time
	done     chan struct{} // closed when state reaches done/canceled

	// restored, when non-nil, is the terminal snapshot replayed from the
	// journal of a previous process: the query finished before the crash
	// and serves its recorded status verbatim instead of live state.
	restored *Status
}

// Request is the POST /queries body.
type Request struct {
	// K is the query parameter: how many top items to return.
	K int `json:"k"`
	// Algorithm optionally overrides the session default
	// ("spr", "tourtree", "heapsort", "quickselect", "pbr").
	Algorithm string `json:"algorithm,omitempty"`
	// Policy optionally overrides the session's comparison policy for
	// this query ("student", "voi", ...; the full list is
	// crowdtopk.PolicyNames). Empty keeps the session default.
	Policy string `json:"policy,omitempty"`
	// MaxCost is the per-query budget sub-cap in microtasks (0 = none).
	MaxCost int64 `json:"max_cost,omitempty"`
	// Priority weights both admission and the comparison scheduler.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS is the query's execution deadline, measured from the
	// moment it starts running (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Status is the JSON view of one query.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Priority  int    `json:"priority"`
	MaxCost   int64  `json:"max_cost,omitempty"`

	TMC    int64  `json:"tmc"`
	Rounds int64  `json:"rounds"`
	Phase  string `json:"phase,omitempty"`

	TopK []int `json:"top_k,omitempty"`
	// FinishedAtUnixNano orders completions across queries (0 while live).
	FinishedAtUnixNano int64  `json:"finished_at_unix_nano,omitempty"`
	Error              string `json:"error,omitempty"`
	Partial            bool   `json:"partial,omitempty"`
	BudgetExhausted    bool   `json:"budget_exhausted,omitempty"`
	Canceled           bool   `json:"canceled,omitempty"`
}

// Accounting is GET /debug/accounting: the global cost invariant read
// live. Balanced is only guaranteed at quiescence — while queries run,
// the three meters are sampled at slightly different instants.
type Accounting struct {
	SessionTMC  int64 `json:"session_tmc"`
	SumQueryTMC int64 `json:"sum_query_tmc"`
	AuditLen    int   `json:"audit_len"`
	AuditOn     bool  `json:"audit_on"`
	Balanced    bool  `json:"balanced"`
	Running     int   `json:"running"`
	Queued      int   `json:"queued"`

	// Judgment-store traffic (all zero without Options.JudgmentStore).
	// Store hits charge no TMC, so they never unbalance the invariant;
	// they explain why SessionTMC is lower than a cold run's would be.
	StoreHits    int64 `json:"store_hits,omitempty"`
	StoreStale   int64 `json:"store_stale,omitempty"`
	StoreMisses  int64 `json:"store_misses,omitempty"`
	StoreCommits int64 `json:"store_commits,omitempty"`
	StoreSize    int   `json:"store_size,omitempty"`
}

var validAlgorithms = map[string]bool{
	"": true, string(crowdtopk.SPR): true, string(crowdtopk.TourTree): true,
	string(crowdtopk.HeapSort): true, string(crowdtopk.QuickSelect): true,
	string(crowdtopk.PBR): true,
}

// New builds the server and starts its dispatcher.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("service: Config.Session is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.EventInterval <= 0 {
		cfg.EventInterval = 100 * time.Millisecond
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queries:  make(map[string]*query),
		wake:     make(chan struct{}, 1),
		shutdown: make(chan struct{}),
	}
	if cfg.SLO != nil {
		s.slo = slo.New(*cfg.SLO, nil)
	}
	if cfg.Logger != nil {
		s.log = cfg.Logger.With("component", "service")
		s.rej = s.log.Limited("admission-reject", 1, 5)
	}
	s.mux.HandleFunc("POST /queries", s.handleSubmit)
	s.mux.HandleFunc("GET /queries", s.handleList)
	s.mux.HandleFunc("GET /queries/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /queries/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /queries/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /queries/{id}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/accounting", s.handleAccounting)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	s.mux.HandleFunc("POST /debug/slo", s.handleSLOUpdate)
	s.mux.HandleFunc("GET /debug/dashboard", s.handleDashboard)
	if cfg.Telemetry != nil {
		// /metrics refreshes the SLO gauges before delegating, so every
		// scrape carries current burn rates without a sampler goroutine.
		th := cfg.Telemetry.Handler()
		s.mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.syncSLO()
			th.ServeHTTP(w, r)
		}))
		s.mux.Handle("/debug/vars", th)
		s.mux.Handle("/trace", th)
		s.mux.Handle("/debug/pprof/", th)
	}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes *Server an http.Handler directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admission, cancels every queued and running query, and
// waits (up to ctx) for the drain. The session itself is left to the
// caller to Close — its own drain is then a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.shutdown)
		s.log.Info("shutting down", "running", s.running, "queued", s.queued)
	}
	var toCancel []*query
	for _, q := range s.queries {
		toCancel = append(toCancel, q)
	}
	s.mu.Unlock()
	for _, q := range toCancel {
		s.cancelQuery(q)
	}
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dispatch is the admission loop: it moves queries from the priority
// queue into execution slots, skipping entries canceled while queued.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var next *query
		for s.running < s.cfg.MaxInFlight && s.queue.Len() > 0 {
			q := heap.Pop(&s.queue).(*admitted).q
			if !q.claimed.CompareAndSwap(false, true) {
				continue // canceled while queued; the canceler retired it
			}
			s.queued--
			s.running++
			next = q
			break
		}
		s.mu.Unlock()
		if next != nil {
			s.wg.Add(1)
			go s.run(next)
			continue
		}
		select {
		case <-s.wake:
		case <-s.shutdown:
			return
		}
	}
}

// run executes one admitted query to completion on the session.
func (s *Server) run(q *query) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.kick()
	}()
	started := time.Now()
	s.log.Debug("query dispatched", "query", q.id, "k", q.req.K,
		"algorithm", q.req.Algorithm, "priority", q.req.Priority)

	ctx := context.Background()
	var cancelTimeout context.CancelFunc
	if q.req.TimeoutMS > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, time.Duration(q.req.TimeoutMS)*time.Millisecond)
		defer cancelTimeout()
	}

	h, err := s.cfg.Session.StartTopK(ctx, q.req.K, crowdtopk.QueryOptions{
		Algorithm: crowdtopk.Algorithm(q.req.Algorithm),
		Policy:    crowdtopk.PolicyName(q.req.Policy),
		MaxCost:   q.req.MaxCost,
		Priority:  q.req.Priority,
	})
	if err != nil {
		q.mu.Lock()
		q.state = "done"
		q.err = err
		q.finished = time.Now()
		close(q.done)
		q.mu.Unlock()
		s.log.Error("query failed to start", "query", q.id, "err", err)
		s.journalFinish(q)
		return
	}

	q.mu.Lock()
	wasCanceled := q.canceled
	q.state = "running"
	q.handle = h
	q.mu.Unlock()
	if wasCanceled {
		// DELETE raced admission: the cancel mark landed before the handle
		// existed, so apply it now — the query still returns a well-formed
		// partial with exact spend.
		h.Cancel()
	}

	res, rerr := h.Wait()
	wall := time.Since(started)
	q.mu.Lock()
	q.state = "done"
	if q.canceled {
		q.state = "canceled"
	}
	state := q.state
	q.result = res
	q.err = rerr
	q.finished = time.Now()
	close(q.done)
	q.mu.Unlock()
	// Feed the SLO tracker: one latency observation per finished query,
	// and the session spend meter synced so budget burn reflects this
	// query's purchases even if nobody scrapes between completions.
	s.slo.ObserveQuery(wall)
	s.slo.SyncSpend(s.cfg.Session.TMC())
	s.log.Info("query finished", "query", q.id, "state", state,
		"tmc", res.TMC, "rounds", res.Rounds, "wall", wall, "err", rerr)
	s.journalFinish(q)
}

// journalFinish records a query's terminal snapshot, best-effort: the
// query has already finished, so a write failure is latched (JournalErr)
// rather than undoing reality. On the next resume the entry's absence
// re-admits the query, and replay answers it from history for free.
func (s *Server) journalFinish(q *query) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Finished(q.status()); err != nil {
		s.journalFail(err)
	}
}

func (s *Server) journalFail(err error) {
	s.log.Error("journal write failed", "err", err)
	s.jmu.Lock()
	if s.jerr == nil {
		s.jerr = err
	}
	s.jmu.Unlock()
}

// JournalErr returns the first journal-write failure, if any.
func (s *Server) JournalErr() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.jerr
}

// kick nudges the dispatcher without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if n := s.cfg.Session.NumItems(); req.K < 1 || req.K > n {
		httpError(w, http.StatusBadRequest, "k=%d out of range [1,%d]", req.K, n)
		return
	}
	if !validAlgorithms[req.Algorithm] {
		httpError(w, http.StatusBadRequest, "unknown algorithm %q", req.Algorithm)
		return
	}
	pol, err := s.cfg.Session.ResolvePolicy(crowdtopk.PolicyName(req.Policy))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Policy != "" {
		req.Policy = string(pol) // "fixed" is recorded as "student"
	}
	if req.MaxCost < 0 {
		httpError(w, http.StatusBadRequest, "max_cost must be >= 0")
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rej.Warn("admission rejected: queue full",
			"queued", s.cfg.MaxQueue, "running", s.cfg.MaxInFlight)
		// The client's politeness hint: the queue drains one query at a
		// time, so "soon" is the honest estimate.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d queued, %d running)",
			s.cfg.MaxQueue, s.cfg.MaxInFlight)
		return
	}
	s.nextID++
	s.nextSeq++
	q := &query{
		id:       fmt.Sprintf("q%d", s.nextID),
		req:      req,
		accepted: time.Now(),
		state:    "queued",
		done:     make(chan struct{}),
	}
	if s.cfg.Journal != nil {
		// Journal before admitting: an accepted query the journal missed
		// would silently vanish on resume, which is the one lie a durable
		// service must not tell. Refusing admission is honest.
		if err := s.cfg.Journal.Accepted(q.id, req); err != nil {
			s.nextID--
			s.nextSeq--
			s.mu.Unlock()
			s.journalFail(err)
			httpError(w, http.StatusInternalServerError, "journal write failed: %v", err)
			return
		}
	}
	s.queries[q.id] = q
	s.order = append(s.order, q)
	heap.Push(&s.queue, &admitted{q: q, seq: s.nextSeq})
	s.queued++
	s.mu.Unlock()
	s.log.Debug("query accepted", "query", q.id, "k", req.K,
		"algorithm", req.Algorithm, "max_cost", req.MaxCost, "priority", req.Priority)
	s.kick()

	w.Header().Set("Location", "/queries/"+q.id)
	writeJSON(w, http.StatusAccepted, q.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, q := range s.order {
		out = append(out, q.status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	q := s.lookup(w, r)
	if q == nil {
		return
	}
	writeJSON(w, http.StatusOK, q.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	q := s.lookup(w, r)
	if q == nil {
		return
	}
	q.mu.Lock()
	terminal := q.state == "done" || q.state == "canceled"
	q.mu.Unlock()
	if terminal {
		// Canceling a finished query is a conflict, not a success: the
		// client gets the terminal state it raced against, unchanged.
		writeJSON(w, http.StatusConflict, q.status())
		return
	}
	s.cancelQuery(q)
	s.log.Debug("query canceled", "query", q.id)
	writeJSON(w, http.StatusOK, q.status())
}

// cancelQuery cancels a query in any live state: queued entries are
// marked (and lazily skipped at dispatch), running ones are stopped
// through their handle, finished ones are left alone.
func (s *Server) cancelQuery(q *query) {
	q.mu.Lock()
	if q.state == "done" || q.state == "canceled" || q.canceled {
		q.mu.Unlock()
		return
	}
	q.canceled = true
	h := q.handle
	// Winning the claim means the dispatcher has not (and now cannot)
	// start this query: retire it in place. Losing it means the query is
	// being (or has been) started: stop it through the handle — run()
	// applies the mark itself when the handle is not born yet.
	if q.claimed.CompareAndSwap(false, true) {
		q.state = "canceled"
		q.err = context.Canceled
		q.finished = time.Now()
		close(q.done)
		q.mu.Unlock()
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.journalFinish(q)
		s.kick()
		return
	}
	q.mu.Unlock()
	if h != nil {
		h.Cancel()
	}
}

// handleEvents streams SSE progress samples until the query finishes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := s.lookup(w, r)
	if q == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string) {
		data, _ := json.Marshal(q.status())
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	emit("progress")
	tick := time.NewTicker(s.cfg.EventInterval)
	defer tick.Stop()
	for {
		select {
		case <-q.done:
			emit("done")
			return
		case <-tick.C:
			emit("progress")
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := map[string]any{
		"status":       "ok",
		"running":      s.running,
		"queued":       s.queued,
		"max_inflight": s.cfg.MaxInFlight,
		"max_queue":    s.cfg.MaxQueue,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAccounting(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.accounting())
}

// accounting reads the global cost invariant: the session meter, the sum
// of per-query meters, and the audit log must agree at quiescence.
func (s *Server) accounting() Accounting {
	s.mu.Lock()
	var sum int64
	running, queued := s.running, s.queued
	for _, q := range s.order {
		sum += q.tmc()
	}
	s.mu.Unlock()
	sess := s.cfg.Session
	acc := Accounting{
		SessionTMC:  sess.TMC(),
		SumQueryTMC: sum,
		AuditLen:    len(sess.AuditLog()),
		Running:     running,
		Queued:      queued,
	}
	acc.AuditOn = s.cfg.AuditEnabled
	acc.Balanced = acc.SessionTMC == acc.SumQueryTMC &&
		(!acc.AuditOn || int64(acc.AuditLen) == acc.SessionTMC)
	ss := sess.StoreStats()
	acc.StoreHits, acc.StoreStale = ss.Hits, ss.Stale
	acc.StoreMisses, acc.StoreCommits = ss.Misses, ss.Commits
	acc.StoreSize = ss.Size
	return acc
}

// lookup resolves {id} or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *query {
	id := r.PathValue("id")
	s.mu.Lock()
	q := s.queries[id]
	s.mu.Unlock()
	if q == nil {
		httpError(w, http.StatusNotFound, "no query %q", id)
	}
	return q
}

// status snapshots a query for JSON.
func (q *query) status() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.restored != nil {
		return *q.restored
	}
	st := Status{
		ID: q.id, State: q.state, K: q.req.K, Algorithm: q.req.Algorithm,
		Policy: q.req.Policy, Priority: q.req.Priority, MaxCost: q.req.MaxCost,
		Canceled: q.canceled,
	}
	if h := q.handle; h != nil {
		st.TMC, st.Rounds, st.Phase = h.TMC(), h.Rounds(), h.Phase()
		if st.Algorithm == "" {
			st.Algorithm = string(h.Algorithm())
		}
		if st.Policy == "" {
			st.Policy = string(h.Policy())
		}
	}
	if q.state == "done" || q.state == "canceled" {
		st.TopK = q.result.TopK
		st.TMC, st.Rounds = q.result.TMC, q.result.Rounds
		st.Phase = ""
		st.FinishedAtUnixNano = q.finished.UnixNano()
		if q.err != nil {
			st.Error = q.err.Error()
			var partial *crowdtopk.PartialResultError
			st.Partial = errors.As(q.err, &partial)
			st.BudgetExhausted = errors.Is(q.err, crowdtopk.ErrBudgetExhausted)
		}
	}
	return st
}

func (q *query) tmc() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.restored != nil {
		return q.restored.TMC
	}
	if q.state == "done" || q.state == "canceled" {
		return q.result.TMC
	}
	if q.handle != nil {
		return q.handle.TMC()
	}
	return 0
}

// admitted is one queue entry; seq breaks priority ties by arrival.
type admitted struct {
	q   *query
	seq int64
}

// admissionQueue is a max-heap by (priority, then earliest arrival) —
// the service-level mirror of the comparison scheduler's dequeue order.
type admissionQueue []*admitted

func (a admissionQueue) Len() int { return len(a) }
func (a admissionQueue) Less(i, j int) bool {
	if a[i].q.req.Priority != a[j].q.req.Priority {
		return a[i].q.req.Priority > a[j].q.req.Priority
	}
	return a[i].seq < a[j].seq
}
func (a admissionQueue) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *admissionQueue) Push(x any)   { *a = append(*a, x.(*admitted)) }
func (a *admissionQueue) Pop() any {
	old := *a
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*a = old[:n-1]
	return x
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  strconv.Itoa(code),
	})
}

package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"crowdtopk"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jstore"
	"crowdtopk/internal/service"
)

// Boundary timers for the traced run. Each wrapper times one interface
// the benchmark itself hands to the program, and forwards every optional
// interface the wrapped value implements — and no other — because the
// program picks fast paths and cleanup by type assertion (the engine's
// batch draw, the resilient layer's cancellable collect, Session.Close's
// platform shutdown). Each wraps one known interface set, asserted when
// the wrapper is built and checked against the real values by a test. No wrapper goes around a comparison policy: policy
// names key the conclusion memo and the store's trust rule.

// timer accumulates calls, units of work and busy nanoseconds at one
// boundary. Safe for concurrent use.
type timer struct {
	calls, units, ns atomic.Int64
}

func (t *timer) since(start time.Time, units int) {
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.units.Add(int64(units))
}

func (t *timer) reset() {
	t.calls.Store(0)
	t.units.Store(0)
	t.ns.Store(0)
}

// meanUS is the mean busy time per call in microseconds.
func (t *timer) meanUS() float64 {
	return ratio(float64(t.ns.Load())/1e3, float64(t.calls.Load()))
}

// datasetOracle is the interface set every dataset the workloads wrap
// implements (Latent, Histogram and Subset alike): the answer kernels
// plus the truth. None is a FallibleBatchOracle; TestWrappersKeepRealInterfaces
// fails if that changes.
type datasetOracle interface {
	crowd.Oracle
	crowd.BatchOracle
	crowd.Grader
	crowd.TruthOracle
}

// oracle wraps a dataset, timing every answer it produces. The truth
// methods are evaluation-only (never on the query path) and go untimed.
type oracle struct {
	inner datasetOracle
	t     *timer
}

// wrapOracle returns d behind a timer. It panics if d lacks an interface
// of datasetOracle, which would make the wrapper claim one d does not have.
func wrapOracle(d crowdtopk.Dataset, t *timer) crowdtopk.Oracle {
	return &oracle{d.(datasetOracle), t}
}

func (o *oracle) NumItems() int                           { return o.inner.NumItems() }
func (o *oracle) TrueRank(i int) int                      { return o.inner.TrueRank(i) }
func (o *oracle) PairMoments(i, j int) (float64, float64) { return o.inner.PairMoments(i, j) }

func (o *oracle) Preference(rng *rand.Rand, i, j int) float64 {
	start := time.Now()
	v := o.inner.Preference(rng, i, j)
	o.t.since(start, 1)
	return v
}

func (o *oracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	start := time.Now()
	o.inner.Preferences(rng, i, j, dst)
	o.t.since(start, len(dst))
}

func (o *oracle) Grade(rng *rand.Rand, i int) float64 {
	start := time.Now()
	v := o.inner.Grade(rng, i)
	o.t.since(start, 1)
	return v
}

// platformTimers are the crowd platform adapter's boundary timers.
type platformTimers struct {
	post, collect timer
}

// simPlatform is the interface set of the simulated crowd platform: the
// resilient layer's cancellable collect and Session.Close's shutdown.
type simPlatform interface {
	crowd.Platform
	crowd.ContextPlatform
	crowd.Closer
}

// platform wraps a crowd platform, timing Post and the collect wait.
type platform struct {
	inner simPlatform
	t     *platformTimers
}

// wrapPlatform returns p behind timers. It panics if p lacks an interface
// of simPlatform.
func wrapPlatform(p crowdtopk.Platform, t *platformTimers) crowdtopk.Platform {
	return &platform{p.(simPlatform), t}
}

func (p *platform) Post(tasks []crowd.Task) (int, error) {
	start := time.Now()
	b, err := p.inner.Post(tasks)
	p.t.post.since(start, len(tasks))
	return b, err
}

func (p *platform) Collect(batch int) ([]crowd.Answer, error) {
	start := time.Now()
	a, err := p.inner.Collect(batch)
	p.t.collect.since(start, len(a))
	return a, err
}

func (p *platform) CollectContext(ctx context.Context, batch int) ([]crowd.Answer, error) {
	start := time.Now()
	a, err := p.inner.CollectContext(ctx, batch)
	p.t.collect.since(start, len(a))
	return a, err
}

func (p *platform) Close() error { return p.inner.Close() }

// storeTimers are the judgment store's boundary timers.
type storeTimers struct {
	lookup, commit timer
}

// store wraps a judgment store, timing lookups and commits.
type store struct {
	inner jstore.Store
	t     *storeTimers
}

func (s *store) Lookup(lo, hi int) (jstore.Record, bool) {
	start := time.Now()
	r, ok := s.inner.Lookup(lo, hi)
	s.t.lookup.since(start, 1)
	return r, ok
}

func (s *store) Commit(r jstore.Record) bool {
	start := time.Now()
	grew := s.inner.Commit(r)
	s.t.commit.since(start, 1)
	return grew
}

func (s *store) Snapshot() []jstore.Record { return s.inner.Snapshot() }
func (s *store) Len() int                  { return s.inner.Len() }

// sink wraps the audit log's record sink, timing each append.
type sink struct {
	inner crowdtopk.TaskRecordSink
	t     *timer
}

func (s *sink) Record(recs []crowdtopk.TaskRecord) {
	start := time.Now()
	s.inner.Record(recs)
	s.t.since(start, len(recs))
}

// journal wraps the service's query journal, timing both transitions.
type journal struct {
	inner service.Journal
	t     *timer
}

func (j *journal) Accepted(id string, req service.Request) error {
	start := time.Now()
	err := j.inner.Accepted(id, req)
	j.t.since(start, 1)
	return err
}

func (j *journal) Finished(st service.Status) error {
	start := time.Now()
	err := j.inner.Finished(st)
	j.t.since(start, 1)
	return err
}

// handlerTimers time the service's HTTP handler per route.
type handlerTimers struct {
	post, list timer
}

// timeHandler wraps the service handler, timing POST /queries and
// GET /queries; other routes pass through untimed.
func timeHandler(h http.Handler, t *handlerTimers) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tm *timer
		if r.URL.Path == "/queries" {
			switch r.Method {
			case http.MethodPost:
				tm = &t.post
			case http.MethodGet:
				tm = &t.list
			}
		}
		if tm == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tm.since(start, 1)
	})
}

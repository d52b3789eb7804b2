package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdtopk"
	"crowdtopk/internal/obs/slo"
)

// gateOracle blocks every judgment until released, so tests can hold
// queries mid-flight deterministically (admission, cancel, SSE) without
// sleeping.
type gateOracle struct {
	crowdtopk.Oracle
	hold    chan struct{} // closed to release
	served  atomic.Int64
	started chan struct{} // closed on first judgment
	once    atomic.Bool
}

func (g *gateOracle) Preference(rng *rand.Rand, i, j int) float64 {
	if g.once.CompareAndSwap(false, true) {
		close(g.started)
	}
	if g.hold != nil {
		<-g.hold
	}
	g.served.Add(1)
	return g.Oracle.Preference(rng, i, j)
}

func newTestServer(t *testing.T, oracle crowdtopk.Oracle, cfg Config) (*Server, *httptest.Server, *crowdtopk.Session) {
	t.Helper()
	tel := crowdtopk.NewTelemetry()
	sess, err := crowdtopk.NewSession(oracle, crowdtopk.Options{
		Algorithm:   crowdtopk.SPR,
		Confidence:  0.9,
		Budget:      25,
		MinWorkload: 10,
		Scheduling:  crowdtopk.Async,
		Parallelism: 4,
		Seed:        3,
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAuditLog()
	cfg.Session = sess
	cfg.Telemetry = tel
	cfg.AuditEnabled = true
	if cfg.EventInterval == 0 {
		cfg.EventInterval = 5 * time.Millisecond
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = sess.Close()
	})
	return srv, hs, sess
}

func postQuery(t *testing.T, base string, req Request) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/queries/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, base, id)
		if st.State == "done" || st.State == "canceled" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck in state %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryLifecycle walks one query through submit → status → result
// and checks the live endpoints around it.
func TestQueryLifecycle(t *testing.T) {
	_, hs, sess := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	st, code := postQuery(t, hs.URL, Request{K: 3, Algorithm: "spr", Priority: 2})
	if code != http.StatusAccepted {
		t.Fatalf("POST /queries: status %d", code)
	}
	if st.ID == "" || (st.State != "queued" && st.State != "running") {
		t.Fatalf("unexpected accept response: %+v", st)
	}
	final := waitDone(t, hs.URL, st.ID)
	if final.State != "done" || len(final.TopK) != 3 || final.Error != "" {
		t.Fatalf("unexpected final state: %+v", final)
	}
	if final.TMC <= 0 {
		t.Fatalf("finished query reports TMC %d", final.TMC)
	}
	if got := sess.TMC(); got != final.TMC {
		t.Fatalf("accounting: query TMC %d != session TMC %d", final.TMC, got)
	}

	// /metrics is live and carries the engine counters.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "crowdtopk_tmc_total") {
		t.Fatalf("/metrics missing engine counters:\n%s", buf.String())
	}

	// /debug/accounting balances at quiescence.
	aresp, err := http.Get(hs.URL + "/debug/accounting")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var acc Accounting
	if err := json.NewDecoder(aresp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if !acc.Balanced {
		t.Fatalf("accounting unbalanced at quiescence: %+v", acc)
	}
}

// TestValidation pins the 400 family.
func TestValidation(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(20, 0.3, 7), Config{})
	if _, code := postQuery(t, hs.URL, Request{K: 0}); code != http.StatusBadRequest {
		t.Fatalf("k=0: status %d, want 400", code)
	}
	if _, code := postQuery(t, hs.URL, Request{K: 99}); code != http.StatusBadRequest {
		t.Fatalf("k>n: status %d, want 400", code)
	}
	if _, code := postQuery(t, hs.URL, Request{K: 3, Algorithm: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("bad algorithm: status %d, want 400", code)
	}
	if _, code := postQuery(t, hs.URL, Request{K: 3, Policy: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d, want 400", code)
	}
	resp, err := http.Get(hs.URL + "/queries/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing id: status %d, want 404", resp.StatusCode)
	}
}

// TestPerQueryPolicyOverride runs one query under the adaptive VoI
// policy and checks the name is reported everywhere the API surfaces it:
// the status, the explain view, and the policy-labeled metrics — while a
// sibling query on the same session stays on the session default.
func TestPerQueryPolicyOverride(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	st, code := postQuery(t, hs.URL, Request{K: 3, Policy: "voi"})
	if code != http.StatusAccepted {
		t.Fatalf("POST /queries: status %d", code)
	}
	if st.Policy != "voi" {
		t.Fatalf("accept response policy %q, want voi", st.Policy)
	}
	final := waitDone(t, hs.URL, st.ID)
	if final.State != "done" || final.Policy != "voi" || len(final.TopK) != 3 {
		t.Fatalf("unexpected final state: %+v", final)
	}

	st2, _ := postQuery(t, hs.URL, Request{K: 3})
	if f2 := waitDone(t, hs.URL, st2.ID); f2.Policy != "student" {
		t.Fatalf("default query policy %q, want student", f2.Policy)
	}

	eresp, err := http.Get(hs.URL + "/queries/" + st.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var ex ExplainResponse
	if err := json.NewDecoder(eresp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if ex.Policy != "voi" {
		t.Fatalf("/explain policy %q, want voi", ex.Policy)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		`crowdtopk_comparisons_total{policy="voi"}`,
		`crowdtopk_comparisons_total{policy="student"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// postRaw POSTs a query and returns the status code and raw body.
func postRaw(t *testing.T, base string, req Request) (int, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// Every policy name, and "fixed" (the older name of student), is
// admitted and answers; an unknown name is refused at admission with the
// canonical list.
func TestPolicyAdmission(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	for _, name := range append(crowdtopk.PolicyNames(), "fixed") {
		st, code := postQuery(t, hs.URL, Request{K: 3, Policy: name})
		if code != http.StatusAccepted {
			t.Fatalf("policy %q: status %d, want 202", name, code)
		}
		want := name
		if name == "fixed" {
			want = "student"
		}
		if f := waitDone(t, hs.URL, st.ID); f.State != "done" || f.Error != "" || f.Policy != want || len(f.TopK) != 3 {
			t.Errorf("policy %q: final %+v, want done under %q with 3 items", name, f, want)
		}
	}
	code, body := postRaw(t, hs.URL, Request{K: 3, Policy: "bogus"})
	if want := "available: " + strings.Join(crowdtopk.PolicyNames(), ", "); code != http.StatusBadRequest || !strings.Contains(body, want) {
		t.Errorf("bogus policy: %d %q, want 400 listing %q", code, body, want)
	}
}

// A per-request override the session's confidence cannot support (the
// one-sided rule needs confidence > 0.5) is refused at admission, and the
// daemon keeps serving.
func TestPolicyAdmissionRefusesUnrunnableOverride(t *testing.T) {
	sess, err := crowdtopk.NewSession(crowdtopk.SyntheticDataset(20, 0.3, 7), crowdtopk.Options{
		Confidence: 0.5, Budget: 25, MinWorkload: 10, Parallelism: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Session: sess})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = sess.Close()
	})
	code, body := postRaw(t, hs.URL, Request{K: 3, Policy: "student-onesided"})
	if code != http.StatusBadRequest || !strings.Contains(body, "confidence above 0.5") {
		t.Fatalf("one-sided at confidence 0.5: %d %q, want 400", code, body)
	}
	st, code := postQuery(t, hs.URL, Request{K: 3})
	if code != http.StatusAccepted {
		t.Fatalf("follow-up query: status %d, want 202", code)
	}
	if f := waitDone(t, hs.URL, st.ID); f.State != "done" || len(f.TopK) != 3 {
		t.Fatalf("follow-up query: %+v", f)
	}
}

// TestSLOReconfigureEndpoint drives POST /debug/slo: live objectives
// are updated (and echoed on the next GET), invalid ones bounce with
// 400 leaving the tracker untouched, and a server without SLO tracking
// answers 409.
func TestSLOReconfigureEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(20, 0.3, 7), Config{
		SLO: &slo.Objectives{
			LatencyTarget: time.Second, LatencyGoal: 0.95,
			Budget: 10000, BudgetHorizon: time.Hour,
		},
	})
	getSLO := func() SLOResponse {
		t.Helper()
		resp, err := http.Get(hs.URL + "/debug/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SLOResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	postSLO := func(body string) (SLOResponse, int) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/debug/slo", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SLOResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}

	if got := getSLO(); !got.Enabled || got.Objectives == nil || got.Objectives.Budget != 10000 {
		t.Fatalf("initial GET /debug/slo = %+v", got)
	}

	upd, code := postSLO(`{"latency_target_ms":500,"latency_goal":0.9,"budget":5000,"budget_horizon_s":1800}`)
	if code != http.StatusOK {
		t.Fatalf("POST /debug/slo: status %d", code)
	}
	if upd.Objectives.Budget != 5000 || upd.Objectives.LatencyTargetMS != 500 || upd.Objectives.BudgetHorizonS != 1800 {
		t.Fatalf("reconfigure echo = %+v", upd.Objectives)
	}
	if got := getSLO(); got.Objectives.Budget != 5000 || got.Objectives.LatencyGoal != 0.9 {
		t.Fatalf("GET after reconfigure = %+v", got.Objectives)
	}

	if _, code := postSLO(`{"budget":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative budget: status %d, want 400", code)
	}
	if _, code := postSLO(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", code)
	}
	if got := getSLO(); got.Objectives.Budget != 5000 {
		t.Fatalf("rejected update mutated objectives: %+v", got.Objectives)
	}

	// A server booted without objectives has no tracker to reconfigure.
	_, hs2, _ := newTestServer(t, crowdtopk.SyntheticDataset(20, 0.3, 7), Config{})
	resp, err := http.Post(hs2.URL+"/debug/slo", "application/json", strings.NewReader(`{"budget":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("disabled SLO reconfigure: status %d, want 409", resp.StatusCode)
	}
}

// TestAdmissionBackpressure fills one execution slot and a one-deep
// queue with gated queries, then requires the next submission to bounce
// with 429 and a Retry-After hint.
func TestAdmissionBackpressure(t *testing.T) {
	g := &gateOracle{
		Oracle:  crowdtopk.SyntheticDataset(30, 0.3, 7),
		hold:    make(chan struct{}),
		started: make(chan struct{}),
	}
	_, hs, _ := newTestServer(t, g, Config{MaxInFlight: 1, MaxQueue: 1})

	first, code := postQuery(t, hs.URL, Request{K: 3})
	if code != http.StatusAccepted {
		t.Fatalf("first query: status %d", code)
	}
	<-g.started // the slot is provably occupied
	if _, code := postQuery(t, hs.URL, Request{K: 3}); code != http.StatusAccepted {
		t.Fatalf("queued query: status %d", code)
	}
	body, _ := json.Marshal(Request{K: 3})
	resp, err := http.Post(hs.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity query: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(g.hold) // release the workers; everything drains
	waitDone(t, hs.URL, first.ID)
}

// TestCancelRunning cancels a gated (provably mid-flight) query via
// DELETE and requires a canceled partial with exact spend.
func TestCancelRunning(t *testing.T) {
	g := &gateOracle{
		Oracle:  crowdtopk.SyntheticDataset(30, 0.3, 7),
		hold:    make(chan struct{}),
		started: make(chan struct{}),
	}
	_, hs, sess := newTestServer(t, g, Config{})
	st, _ := postQuery(t, hs.URL, Request{K: 3})
	<-g.started

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/queries/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(g.hold)

	final := waitDone(t, hs.URL, st.ID)
	if !final.Canceled {
		t.Fatalf("canceled query not marked canceled: %+v", final)
	}
	if len(final.TopK) != 3 {
		t.Fatalf("canceled query returned %d items, want best-effort 3", len(final.TopK))
	}
	if got := sess.TMC(); got != final.TMC {
		t.Fatalf("accounting after cancel: query TMC %d != session TMC %d", final.TMC, got)
	}
}

// TestCancelQueued cancels a query that never got an execution slot; it
// must retire with zero spend and free its queue entry.
func TestCancelQueued(t *testing.T) {
	g := &gateOracle{
		Oracle:  crowdtopk.SyntheticDataset(30, 0.3, 7),
		hold:    make(chan struct{}),
		started: make(chan struct{}),
	}
	srv, hs, _ := newTestServer(t, g, Config{MaxInFlight: 1, MaxQueue: 2})
	first, _ := postQuery(t, hs.URL, Request{K: 3})
	<-g.started
	queued, _ := postQuery(t, hs.URL, Request{K: 3})

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/queries/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := getStatus(t, hs.URL, queued.ID)
	if final.State != "canceled" || final.TMC != 0 {
		t.Fatalf("canceled queued query: %+v", final)
	}
	srv.mu.Lock()
	q := srv.queued
	srv.mu.Unlock()
	if q != 0 {
		t.Fatalf("queue still counts %d entries after cancel", q)
	}
	close(g.hold)
	waitDone(t, hs.URL, first.ID)
}

// TestCancelCompletedConflicts deletes a query that already finished:
// the cancel must be rejected with 409 Conflict carrying the terminal
// state, and must not disturb the stored result.
func TestCancelCompletedConflicts(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	st, _ := postQuery(t, hs.URL, Request{K: 3})
	done := waitDone(t, hs.URL, st.ID)
	if done.State != "done" {
		t.Fatalf("query finished in state %q, want done", done.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/queries/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on completed query: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	var body Status
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.State != "done" || body.Canceled {
		t.Fatalf("409 body should carry the terminal state, got %+v", body)
	}

	after := getStatus(t, hs.URL, st.ID)
	if after.State != "done" || after.Canceled || len(after.TopK) != len(done.TopK) {
		t.Fatalf("completed query mutated by rejected cancel: %+v", after)
	}
}

// TestPriorityAdmission starves the single execution slot, queues a
// low-priority and then a high-priority query, and requires the
// high-priority one to be dispatched first when the slot frees.
func TestPriorityAdmission(t *testing.T) {
	g := &gateOracle{
		Oracle:  crowdtopk.SyntheticDataset(30, 0.3, 7),
		hold:    make(chan struct{}),
		started: make(chan struct{}),
	}
	_, hs, _ := newTestServer(t, g, Config{MaxInFlight: 1, MaxQueue: 8})
	first, _ := postQuery(t, hs.URL, Request{K: 3})
	<-g.started
	low, _ := postQuery(t, hs.URL, Request{K: 3, Priority: 0})
	high, _ := postQuery(t, hs.URL, Request{K: 3, Priority: 9})

	close(g.hold)
	// One slot serializes everything: admission order IS completion
	// order. The high-priority late arrival must finish before the
	// low-priority query that was queued ahead of it.
	waitDone(t, hs.URL, first.ID)
	hiDone := waitDone(t, hs.URL, high.ID)
	loDone := waitDone(t, hs.URL, low.ID)
	if hiDone.FinishedAtUnixNano >= loDone.FinishedAtUnixNano {
		t.Fatalf("priority inversion: high finished at %d, low at %d",
			hiDone.FinishedAtUnixNano, loDone.FinishedAtUnixNano)
	}
}

// TestEventsStream reads the SSE endpoint end to end: at least one
// progress event and a final done event carrying the result.
func TestEventsStream(t *testing.T) {
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	st, _ := postQuery(t, hs.URL, Request{K: 3})

	resp, err := http.Get(hs.URL + "/queries/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var progress, done int
	var last Status
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: progress":
			progress++
		case line == "event: done":
			done++
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &last); err != nil {
				t.Fatalf("bad event payload: %v in %q", err, line)
			}
		}
		if done > 0 && last.State != "" && (last.State == "done" || last.State == "canceled") {
			break
		}
	}
	if progress == 0 || done == 0 {
		t.Fatalf("stream carried %d progress / %d done events", progress, done)
	}
	if last.State != "done" || len(last.TopK) != 3 {
		t.Fatalf("final event payload: %+v", last)
	}
}

// TestConcurrentServiceLoad pushes a burst of queries with mixed
// priorities and budgets through the HTTP surface and checks the global
// ledger via /debug/accounting.
func TestConcurrentServiceLoad(t *testing.T) {
	queries := 24
	if testing.Short() {
		queries = 8
	}
	_, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{MaxInFlight: 6, MaxQueue: 64})
	ids := make([]string, 0, queries)
	for i := 0; i < queries; i++ {
		st, code := postQuery(t, hs.URL, Request{
			K:        3,
			Priority: i % 3,
			MaxCost:  int64((i % 4) * 50), // 0 means uncapped
		})
		if code != http.StatusAccepted {
			t.Fatalf("query %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st := waitDone(t, hs.URL, id)
		if len(st.TopK) != 3 {
			t.Fatalf("query %s: %d items (state %s, err %q)", id, len(st.TopK), st.State, st.Error)
		}
		if st.MaxCost > 0 && st.TMC > st.MaxCost {
			t.Fatalf("query %s overdrew: %d over %d", id, st.TMC, st.MaxCost)
		}
	}
	resp, err := http.Get(hs.URL + "/debug/accounting")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc Accounting
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if !acc.Balanced {
		t.Fatalf("ledger unbalanced after burst: %+v", acc)
	}
	if acc.SessionTMC == 0 {
		t.Fatal("burst spent nothing; test is vacuous")
	}
}

// TestShutdownDrains stops the server with queries in flight: Shutdown
// must cancel them, drain, and leave the ledger balanced.
func TestShutdownDrains(t *testing.T) {
	g := &gateOracle{
		Oracle:  crowdtopk.SyntheticDataset(30, 0.3, 7),
		started: make(chan struct{}),
	}
	srv, hs, sess := newTestServer(t, g, Config{MaxInFlight: 2, MaxQueue: 8})
	for i := 0; i < 5; i++ {
		if _, code := postQuery(t, hs.URL, Request{K: 3}); code != http.StatusAccepted {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After the drain every query is finished and POST is refused.
	srv.mu.Lock()
	running := srv.running
	srv.mu.Unlock()
	if running != 0 {
		t.Fatalf("%d queries still running after Shutdown", running)
	}
	body, _ := json.Marshal(Request{K: 3})
	resp, err := http.Post(hs.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after shutdown: status %d, want 503", resp.StatusCode)
	}
	acc := srv.accounting()
	if !acc.Balanced {
		t.Fatalf("ledger unbalanced after shutdown: %+v", acc)
	}
	_ = sess.Close()
}

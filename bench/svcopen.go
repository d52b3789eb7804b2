package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crowdtopk"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/service"
)

// svc-open: an open loop against the HTTP service wired the way
// cmd/topkd ships it — one shared Session with async scheduling,
// Telemetry on and default Resilience, the simulated crowd platform
// behind WrapPlatform, a durable audit log with interval sync and a
// queries.jsonl journal. Requests are due on a seeded schedule at one
// fixed rate below capacity, sent over one client connection; a second
// connection polls GET /queries. This is the only workload with a
// queue: service admission, concurrent forks sharing one conclusion
// memo, sched's cross-query dequeue, the platform adapter and audit-log
// writes do the work.

const (
	svcItems     = 40
	svcNoise     = 0.3
	svcWorkers   = 8 // topkd -workers default
	svcRate      = 10.0
	svcPoll      = time.Second
	svcDrain     = 60 * time.Second
	svcSetupReps = 3
	svcDataSeed  = 1
)

// svcTimers are the boundary timers of the traced run.
type svcTimers struct {
	platform platformTimers
	sink     timer
	journal  timer
	handler  handlerTimers
}

// reset zeroes the timers, so the traced window excludes the warm-up.
func (t *svcTimers) reset() {
	for _, tm := range []*timer{&t.platform.post, &t.platform.collect, &t.sink, &t.journal, &t.handler.post, &t.handler.list} {
		tm.reset()
	}
}

// svcServer is one running service with everything it owns.
type svcServer struct {
	dir     string
	data    crowdtopk.Dataset
	tel     *crowdtopk.Telemetry
	sess    *crowdtopk.Session
	alog    *crowdtopk.AuditLog
	journal *service.FileJournal
	srv     *service.Server
	hs      *http.Server
	served  chan error
	url     string

	stopOnce sync.Once
	stopErr  error
}

// startSvc boots the service in a fresh directory under root, reporting
// to tel. t, when non-nil, puts the platform, audit sink, journal and
// handler behind boundary timers.
func startSvc(root string, tel *crowdtopk.Telemetry, t *svcTimers) (_ *svcServer, err error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	// The catalogue is the daemon's configuration, fixed like topkd's
	// -seed default; the run's seed drives the traffic.
	s := &svcServer{dir: dir, data: crowdtopk.SyntheticDataset(svcItems, svcNoise, svcDataSeed)}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	s.tel = tel
	var p crowdtopk.Platform = crowdtopk.SimulatedPlatform(s.data, svcWorkers, svcDataSeed+2)
	if t != nil {
		p = wrapPlatform(p, &t.platform)
	}
	// The same session options cmd/topkd builds from its flag defaults.
	opts := crowdtopk.Options{
		Algorithm: crowdtopk.SPR, Policy: crowdtopk.FixedPolicy,
		Confidence: 0.95, Budget: 500,
		Scheduling: crowdtopk.Async, Seed: svcDataSeed + 1,
		Telemetry: s.tel, Resilience: &crowdtopk.ResilienceOptions{},
	}
	if s.alog, err = crowdtopk.OpenAuditLog(filepath.Join(dir, "audit"), crowdtopk.AuditLogOptions{Sync: crowdtopk.AuditSyncInterval}); err != nil {
		return nil, err
	}
	if s.journal, _, err = service.OpenFileJournal(filepath.Join(dir, "audit", "queries.jsonl")); err != nil {
		return nil, err
	}
	if s.sess, err = crowdtopk.NewSession(crowdtopk.WrapPlatform(s.data.NumItems(), p), opts); err != nil {
		return nil, err
	}
	s.sess.EnableAuditLog()
	var sk crowdtopk.TaskRecordSink = s.alog
	var jr service.Journal = s.journal
	if t != nil {
		sk, jr = &sink{sk, &t.sink}, &journal{jr, &t.journal}
	}
	s.sess.SetAuditSink(sk)
	s.srv = service.New(service.Config{
		Session: s.sess, Telemetry: s.tel, MaxInFlight: 8, MaxQueue: 64,
		AuditEnabled: true, Journal: jr,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := s.srv.Handler()
	if t != nil {
		h = timeHandler(h, &t.handler)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// stop drains and closes everything the server owns, in topkd's order,
// and returns the errors. Only the first call does the work.
func (s *svcServer) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.shutdown() })
	return s.stopErr
}

func (s *svcServer) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.sess != nil {
		errs = append(errs, s.sess.Close())
	}
	if s.alog != nil {
		errs = append(errs, s.alog.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.JournalErr())
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
	}
	return errors.Join(errs...)
}

// svcReq is one scheduled request.
type svcReq struct {
	due time.Duration
	req service.Request
}

// svcSchedule draws the seeded open-loop schedule: rate × seconds
// requests from svcBlock, each block in its own seeded order, one due
// every 1/rate seconds with a seeded jitter of up to ±40% of the gap.
func svcSchedule(seed int64, seconds float64) []svcReq {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(svcRate*seconds+0.5))
	var reqs []service.Request
	for b := 0; len(reqs) < n; b++ {
		block := svcBlock(b)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	gap := float64(time.Second) / svcRate
	out := make([]svcReq, n)
	for i := range out {
		due := time.Duration((float64(i) + 0.8*(rng.Float64()-0.5)) * gap)
		out[i] = svcReq{due: max(0, due), req: reqs[i]}
	}
	return out
}

// svcBlock is block b of the service request mix: one request per
// algorithm × policy × k combination. Priorities and max_cost sub-caps
// rotate over the combinations by block number, a quarter of the
// requests carrying a cap. So every stretch of a run asks for the same
// work and the seed moves only the order (and, open-loop, the
// instants): that keeps the run-to-run spread of the latency metrics
// down.
func svcBlock(b int) []service.Request {
	block := svcCombos()
	for i := range block {
		slot := (i + b) % len(block)
		block[i].Priority = []int{0, 0, 1, 3}[slot%4]
		if slot%4 == 1 {
			block[i].MaxCost = 300 + 900*int64(slot/4%4)
		}
	}
	return block
}

// svcCombos is one request per algorithm × policy × k. PAC is left out
// of the service mix: with quickselect its cost swings tenfold with the
// session's pivot draws, which alone decided the p90 of a run; lib-cold
// measures it.
func svcCombos() []service.Request {
	var out []service.Request
	for _, alg := range libAlgorithms {
		for _, pol := range []string{"fixed", "voi"} {
			for _, k := range libKs {
				out = append(out, service.Request{K: k, Algorithm: string(alg), Policy: pol})
			}
		}
	}
	return out
}

// svcWarmUp sends two queries per algorithm × policy × k and waits for
// all of them, so the measured window starts on a session past its
// first, coldest queries — a running daemon's state, not a fresh boot's.
func svcWarmUp(s *svcServer) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, r := range append(svcCombos(), svcCombos()...) {
		body, _ := json.Marshal(r)
		resp, err := c.Post(s.url+"/queries", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("warm-up: POST /queries: status %d", resp.StatusCode)
		}
	}
	deadline := time.Now().Add(svcDrain)
	for {
		list, err := listQueries(c, s.url)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		live := 0
		for _, st := range list {
			if st.State == "queued" || st.State == "running" {
				live++
			}
		}
		if live == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d queries still live after %v", live, svcDrain)
		}
		time.Sleep(svcPoll / 4)
	}
}

// svcPhase is one measured window of the open loop.
type svcPhase struct {
	latMS    []float64
	lagMS    []float64
	done     int
	refused  int
	elapsed  time.Duration // first due to last completion
	final    []service.Status
	queued   []float64 // per poll
	running  []float64
	accepted map[string]svcReq
}

// newClient is one HTTP client pinned to a single connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// runSvcPhase sends the schedule open-loop and polls until every
// accepted query is terminal. Latency is finished_at minus the instant
// the request was due, so a stall also delays every later request.
func runSvcPhase(rep *report, s *svcServer, sched []svcReq) (svcPhase, error) {
	ph := svcPhase{accepted: map[string]svcReq{}}
	post, poll := newClient(), newClient()
	defer post.CloseIdleConnections()
	defer poll.CloseIdleConnections()
	type sent struct {
		id   string
		req  svcReq
		code int
		lag  time.Duration
		err  error
	}
	sentc := make(chan sent, len(sched)) // one slot per request: the generator never blocks
	t0 := time.Now().Add(50 * time.Millisecond)
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for range sentc { // wait for the generator to exit
		}
	}()
	go func() {
		defer close(sentc)
		for _, r := range sched {
			select {
			case <-time.After(time.Until(t0.Add(r.due))):
			case <-stop:
				return
			}
			lag := time.Since(t0.Add(r.due))
			body, _ := json.Marshal(r.req)
			resp, err := post.Post(s.url+"/queries", "application/json", bytes.NewReader(body))
			out := sent{req: r, lag: lag, err: err}
			if err == nil {
				out.code = resp.StatusCode
				var st service.Status
				if resp.StatusCode == http.StatusAccepted {
					out.err = json.NewDecoder(resp.Body).Decode(&st)
					out.id = st.ID
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			sentc <- out
		}
	}()

	deadline := t0.Add(sched[len(sched)-1].due + svcDrain)
	generating := true
	collect := func() {
		for generating {
			select {
			case r, ok := <-sentc:
				if !ok {
					generating = false
					return
				}
				rep.attempted++
				ph.lagMS = append(ph.lagMS, float64(r.lag)/1e6)
				switch {
				case r.err != nil:
					rep.fail("POST /queries: %v", r.err)
				case r.code == http.StatusTooManyRequests:
					ph.refused++
					rep.fail("POST /queries refused with 429")
				case r.code != http.StatusAccepted:
					rep.fail("POST /queries: status %d", r.code)
				default:
					ph.accepted[r.id] = r.req
				}
			default:
				return
			}
		}
	}
	for {
		collect()
		time.Sleep(svcPoll)
		list, err := listQueries(poll, s.url)
		if err != nil {
			return ph, err
		}
		var q, run, terminal float64
		for _, st := range list {
			switch st.State {
			case "queued":
				q++
			case "running":
				run++
			default:
				if _, ok := ph.accepted[st.ID]; ok {
					terminal++
				}
			}
		}
		ph.queued, ph.running = append(ph.queued, q), append(ph.running, run)
		if !generating && int(terminal) == len(ph.accepted) {
			ph.final = list
			break
		}
		if time.Now().After(deadline) {
			ph.final = list
			rep.fail("%d queries still live %v after the last was due", len(ph.accepted)-int(terminal), svcDrain)
			break
		}
	}
	var last time.Time
	ph.latMS, last = openLoopLatencies(t0, ph.accepted, ph.final)
	ph.done = len(ph.latMS)
	ph.elapsed = last.Sub(t0)
	return ph, nil
}

// openLoopLatencies returns each finished query's latency in ms,
// measured from the instant its request was due (t0 + due), not from
// when it was sent or admitted, and the last completion instant.
func openLoopLatencies(t0 time.Time, accepted map[string]svcReq, final []service.Status) ([]float64, time.Time) {
	var lat []float64
	last := t0
	for _, st := range final {
		r, ok := accepted[st.ID]
		if !ok || st.FinishedAtUnixNano == 0 {
			continue
		}
		fin := time.Unix(0, st.FinishedAtUnixNano)
		lat = append(lat, float64(fin.Sub(t0.Add(r.due)))/1e6)
		if fin.After(last) {
			last = fin
		}
	}
	return lat, last
}

func listQueries(c *http.Client, url string) ([]service.Status, error) {
	resp, err := c.Get(url + "/queries")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list []service.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /queries: %w", err)
	}
	return list, nil
}

// checkSvc stops the server and holds the run to the service contracts:
// every query terminal; none over its max_cost; after shutdown Σ
// per-query TMC == session TMC == audit-log length, and the audit log
// verifies. Per-query TMC is not compared with any reference: concurrent
// forks share the conclusion memo, so who pays for a pair is a race.
func checkSvc(rep *report, s *svcServer, ph svcPhase) error {
	if err := s.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	var l ledger
	measured := 0
	for _, st := range ph.final { // warm-up queries included: they spent too
		if _, ok := ph.accepted[st.ID]; ok {
			measured++
		}
		l.queryTMC = append(l.queryTMC, st.TMC)
		switch {
		case st.State != "done":
			rep.fail("query %s ended %q: %s", st.ID, st.State, st.Error)
		case st.Error != "" && !st.BudgetExhausted:
			rep.fail("query %s failed: %s", st.ID, st.Error)
		default:
			if err := validTopK(st.TopK, st.K, s.data.NumItems()); err != nil {
				rep.fail("query %s: %v", st.ID, err)
			}
		}
		if st.MaxCost > 0 && st.TMC > st.MaxCost {
			rep.fail("query %s spent %d over its max_cost %d", st.ID, st.TMC, st.MaxCost)
		}
	}
	if measured != len(ph.accepted) {
		rep.fail("GET /queries listed %d of %d accepted queries", measured, len(ph.accepted))
	}
	dir := filepath.Join(s.dir, "audit")
	recs, err := crowdtopk.LoadAuditLog(dir)
	if err != nil {
		return fmt.Errorf("load audit log: %w", err)
	}
	l.sessionTMC, l.auditLen = s.sess.TMC(), int64(len(recs))
	if err := l.reconcile(); err != nil {
		rep.fail("%v", err)
	}
	v, err := crowdtopk.VerifyAuditLog(dir)
	if err != nil {
		return fmt.Errorf("verify audit log: %w", err)
	}
	if !v.OK {
		rep.fail("audit log fails verification at %s", v.FirstBad)
	}
	return nil
}

func runSvcOpen(cfg runConfig) (*report, error) {
	rep := newReport()
	sched := svcSchedule(cfg.seed, cfg.seconds)
	s, setupS, err := setupMedian(svcSetupReps, func() (*svcServer, error) {
		return startWarmSvc(cfg.tmp, nil)
	}, func(s *svcServer) { s.stop() })
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	ph, err := runSvcPhase(rep, s, sched)
	peakRSS := rss.peak()
	var tot svcTotals
	if err = errors.Join(err, tot.add(rep, s, ph, false)); err != nil {
		s.stop()
		return nil, err
	}
	svcEndToEnd(rep, "svc-open", tot, setupS, peakRSS)
	if len(ph.lagMS) > 0 {
		rep.note("svc-open: generator lag p99 %.3f ms", percentile(ph.lagMS, 99))
	}
	if !cfg.trace {
		return rep, nil
	}

	var t svcTimers
	s, err = startWarmSvc(cfg.tmp, &t)
	if err != nil {
		return nil, err
	}
	t.reset()
	before := s.tel.Obs().Registry().Snapshot()
	rt := readRuntime()
	prof, err := startCPUProfile()
	if err != nil {
		s.stop()
		return nil, err
	}
	tph, err := runSvcPhase(rep, s, sched)
	shares, perr := prof.stop()
	var ttot svcTotals
	if err = errors.Join(err, perr, ttot.add(rep, s, tph, true)); err != nil {
		s.stop()
		return nil, err
	}
	svcLayers(rep.layer, &t, ttot, s.tel, before, rt, shares)
	traceOverhead(rep, tot.qps(), ttot.qps())
	return rep, nil
}

// startWarmSvc boots a service with its own Telemetry, as topkd does,
// and warms it up.
func startWarmSvc(root string, t *svcTimers) (*svcServer, error) {
	s, err := startSvc(root, crowdtopk.NewTelemetry(), t)
	if err != nil {
		return nil, err
	}
	if err := svcWarmUp(s); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// svcTotals accumulates the measured phases of one or more servers.
type svcTotals struct {
	latMS, lagMS, queued, running []float64
	done, accepted, refused       int
	elapsed                       time.Duration
	tmc, rounds, ndcg             float64 // sums over done queries
	auditBytes, auditRecords      int64   // traced runs only
}

// add folds one server's phase into the totals, then stops the server
// and runs the output checks. A traced run also measures the audit log's
// size per record, before shutdown folds its segments into a checkpoint.
func (tot *svcTotals) add(rep *report, s *svcServer, ph svcPhase, traced bool) error {
	tot.latMS = append(tot.latMS, ph.latMS...)
	tot.lagMS = append(tot.lagMS, ph.lagMS...)
	tot.queued = append(tot.queued, ph.queued...)
	tot.running = append(tot.running, ph.running...)
	tot.done += ph.done
	tot.accepted += len(ph.accepted)
	tot.refused += ph.refused
	tot.elapsed += ph.elapsed
	for _, st := range ph.final {
		if _, ok := ph.accepted[st.ID]; ok && st.State == "done" {
			tot.tmc += float64(st.TMC)
			tot.rounds += float64(st.Rounds)
			tot.ndcg += crowdtopk.Evaluate(s.data, st.TopK).NDCG
		}
	}
	if traced {
		if err := s.alog.Flush(); err != nil {
			return err
		}
		tot.auditBytes += dirBytes(filepath.Join(s.dir, "audit"))
		tot.auditRecords += s.alog.Total()
	}
	return checkSvc(rep, s, ph)
}

func (tot svcTotals) qps() float64 { return ratio(float64(tot.done), tot.elapsed.Seconds()) }

// svcEndToEnd fills the end-to-end metrics of a service workload.
func svcEndToEnd(rep *report, name string, tot svcTotals, setupS, peakRSS float64) {
	e := rep.e2e
	e["setup_s"] = setupS
	e["peak_rss_mb"] = peakRSS
	latencyMetrics(rep, tot.latMS, tot.qps())
	n := float64(tot.done)
	e["tmc_per_query"] = ratio(tot.tmc, n)
	e["rounds_per_query"] = ratio(tot.rounds, n)
	e["ndcg"] = ratio(tot.ndcg, n)
	rep.note("%s: %d requests accepted, %d done, %d refused in %.2fs measured", name, tot.accepted, tot.done, tot.refused, tot.elapsed.Seconds())
}

// svcLayers fills the per-layer split of a traced service run.
func svcLayers(l map[string]float64, t *svcTimers, tot svcTotals, tel *crowdtopk.Telemetry, before obs.Snapshot, rt runtimeSample, shares map[string]float64) {
	runtimeLayer(l, rt, tot.done)
	cpuLayer(l, shares)
	telemetryLayer(l, tel, before, tot.done)
	l["crowd.platform_batches"] = float64(t.platform.post.calls.Load())
	l["crowd.platform_post_us"] = t.platform.post.meanUS()
	l["crowd.platform_collect_wait_us"] = t.platform.collect.meanUS()
	l["auditlog.records"] = float64(t.sink.units.Load())
	l["auditlog.append_ns_per_record"] = ratio(float64(t.sink.ns.Load()), float64(t.sink.units.Load()))
	l["auditlog.bytes_per_record"] = ratio(float64(tot.auditBytes), float64(tot.auditRecords))
	l["service.post_us"] = t.handler.post.meanUS()
	l["service.list_us"] = t.handler.list.meanUS()
	l["service.journal_us"] = t.journal.meanUS()
	l["service.refused"] = float64(tot.refused)
	if len(tot.queued) > 0 { // the open loop's poller samples the queue
		l["service.queued_mean"] = mean(tot.queued)
		l["service.running_mean"] = mean(tot.running)
	}
	if len(tot.lagMS) > 0 {
		l["loadgen.gen_lag_ms"] = percentile(tot.lagMS, 99)
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && !strings.HasSuffix(path, "queries.jsonl") {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

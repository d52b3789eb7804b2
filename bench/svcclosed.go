package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"crowdtopk"
	"crowdtopk/internal/service"
)

// svc-closed: a closed loop with one client against the service wired
// as svc-open's (cmd/topkd's wiring: shared async Session, Telemetry,
// SimulatedPlatform behind WrapPlatform, durable audit log, journal). The
// client POSTs a request, follows GET /queries/{id}/events until the
// query is done, and only then sends the next, so no two queries compete
// for the CPU. Latency is POST → finished_at.
//
// The run is a series of epochs, each on a freshly booted service that
// answers one block of the request mix from a cold conclusion memo. One long-lived session would not do: its memo keeps filling, so
// each query gets cheaper and faster the longer a run lasts, and a
// faster host would also be charged less money per query. Every epoch
// asks for the same work from the same state, so the figures do not
// depend on how many epochs fit in the run. Service admission and
// handlers, the memo, the platform adapter and audit-log and journal
// writes do the work.

const svcEpochBlocks = 1

var errRefused = errors.New("refused with 429")

func runSvcClosed(cfg runConfig) (*report, error) {
	rep := newReport()
	tel := crowdtopk.NewTelemetry()
	_, setupS, err := setupMedian(svcSetupReps, func() (struct{}, error) {
		return struct{}{}, svcClosedWarmUp(cfg, tel)
	}, nil)
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	tot, boots, err := svcEpochs(rep, cfg, tel, nil)
	peakRSS := rss.peak()
	if err != nil {
		return nil, err
	}
	svcEndToEnd(rep, "svc-closed", tot, setupS, peakRSS)
	rep.note("svc-closed: %d epochs of %d requests, boot median %.2f ms", len(boots), len(svcCombos()), 1e3*median(boots))
	if !cfg.trace {
		return rep, nil
	}
	var t svcTimers
	tel = crowdtopk.NewTelemetry()
	before := tel.Obs().Registry().Snapshot()
	rt := readRuntime()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	ttot, _, err := svcEpochs(rep, cfg, tel, &t)
	shares, perr := prof.stop()
	if err = errors.Join(err, perr); err != nil {
		return nil, err
	}
	svcLayers(rep.layer, &t, ttot, tel, before, rt, shares)
	traceOverhead(rep, tot.qps(), ttot.qps())
	return rep, nil
}

// svcClosedWarmUp is the set-up: it boots a service, answers one block
// of the mix from cold, and shuts it down, so the process's heap and
// stacks have grown before the measured epochs. A single boot takes a
// few milliseconds and its time swings by half from run to run with the
// file system's sync latency, too little and too unsteady to time alone.
func svcClosedWarmUp(cfg runConfig, tel *crowdtopk.Telemetry) error {
	s, err := startSvc(cfg.tmp, tel, nil)
	if err != nil {
		return err
	}
	scratch := newReport()
	ph, err := runSvcClosedPhase(scratch, s, svcEpoch(svcOrder(cfg.seed), 0))
	if err = errors.Join(err, s.stop(), os.RemoveAll(s.dir)); err != nil {
		return err
	}
	if len(scratch.problems) > 0 || ph.done != len(svcCombos()) {
		return fmt.Errorf("warm-up: %d of %d queries done: %v", ph.done, len(svcCombos()), scratch.problems)
	}
	return nil
}

// svcEpochs runs whole epochs until their measured phases add up to the
// run's seconds, and returns the totals and each boot's time. Boot,
// shutdown and the output checks fall between the measured phases.
func svcEpochs(rep *report, cfg runConfig, tel *crowdtopk.Telemetry, t *svcTimers) (svcTotals, []float64, error) {
	perm := svcOrder(cfg.seed)
	var tot svcTotals
	var boots []float64
	for e := 0; e == 0 || tot.elapsed.Seconds() < cfg.seconds; e++ {
		start := time.Now()
		s, err := startSvc(cfg.tmp, tel, t)
		if err != nil {
			return tot, boots, err
		}
		boots = append(boots, time.Since(start).Seconds())
		ph, err := runSvcClosedPhase(rep, s, svcEpoch(perm, e))
		if err = errors.Join(err, tot.add(rep, s, ph, t != nil)); err != nil {
			s.stop()
			return tot, boots, err
		}
		if err := os.RemoveAll(s.dir); err != nil {
			return tot, boots, err
		}
	}
	return tot, boots, nil
}

// svcOrder is the seeded order of the request types in an epoch.
func svcOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(svcCombos()))
}

// svcEpoch is epoch e's requests: block e of the mix in the order perm,
// rotated by e places. Over len(perm) epochs every request type is sent
// once at every position. A cold memo makes a query's cost depend on
// its position in the epoch, so without the rotation the latency median
// moved with how often the seed put an expensive type first.
func svcEpoch(perm []int, e int) []service.Request {
	block := svcBlock(e)
	out := make([]service.Request, len(block))
	for i := range out {
		out[i] = block[perm[(i+e)%len(perm)]]
	}
	return out
}

// runSvcClosedPhase sends reqs one at a time, each after the previous
// one finished. Each request's due instant is when it was sent, so
// openLoopLatencies measures POST → finished.
func runSvcClosedPhase(rep *report, s *svcServer, reqs []service.Request) (svcPhase, error) {
	ph := svcPhase{accepted: map[string]svcReq{}}
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := time.Now()
	for _, req := range reqs {
		rep.attempted++
		due := time.Since(t0)
		id, err := submitAndFollow(c, s.url, req)
		switch {
		case errors.Is(err, errRefused):
			ph.refused++
			rep.fail("POST /queries %v", err)
		case err != nil:
			rep.fail("%v", err)
		default:
			ph.accepted[id] = svcReq{due: due, req: req}
		}
	}
	final, err := listQueries(c, s.url)
	if err != nil {
		return ph, err
	}
	var last time.Time
	ph.final = final
	ph.latMS, last = openLoopLatencies(t0, ph.accepted, final)
	ph.done = len(ph.latMS)
	ph.elapsed = last.Sub(t0)
	return ph, nil
}

// submitAndFollow POSTs one request and reads its event stream until the
// done event, returning the query's id.
func submitAndFollow(c *http.Client, url string, req service.Request) (string, error) {
	body, _ := json.Marshal(req)
	resp, err := c.Post(url+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("POST /queries: %w", err)
	}
	var st service.Status
	switch resp.StatusCode {
	case http.StatusAccepted:
		err = json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusTooManyRequests:
		err = errRefused
	default:
		err = fmt.Errorf("POST /queries: status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	resp, err = c.Get(url + "/queries/" + st.ID + "/events")
	if err != nil {
		return "", fmt.Errorf("GET /queries/%s/events: %w", st.ID, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			io.Copy(io.Discard, resp.Body)
			return st.ID, nil
		}
	}
	return "", fmt.Errorf("GET /queries/%s/events: stream ended before done (%v)", st.ID, sc.Err())
}

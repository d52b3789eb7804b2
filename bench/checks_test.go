package main

import (
	"testing"
	"time"

	"crowdtopk/internal/service"
)

// TestReconcileRejectsUnbalancedLedger doctors a balanced ledger in each
// leg and expects the reconciliation check to fail.
func TestReconcileRejectsUnbalancedLedger(t *testing.T) {
	ok := ledger{queryTMC: []int64{30, 60, 0}, sessionTMC: 90, auditLen: 90}
	if err := ok.reconcile(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	noAudit := ledger{queryTMC: []int64{30, 60}, sessionTMC: 90, auditLen: -1}
	if err := noAudit.reconcile(); err != nil {
		t.Fatalf("balanced ledger without audit log rejected: %v", err)
	}
	doctored := []ledger{
		{queryTMC: []int64{30, 61, 0}, sessionTMC: 90, auditLen: 90}, // a query overstates
		{queryTMC: []int64{30, 60}, sessionTMC: 91, auditLen: 91},    // the session overstates
		{queryTMC: []int64{30, 60}, sessionTMC: 90, auditLen: 89},    // a record went missing
		{queryTMC: []int64{30, 60}, sessionTMC: 89, auditLen: -1},
	}
	for i, l := range doctored {
		if err := l.reconcile(); err == nil {
			t.Errorf("doctored ledger %d %+v passed reconciliation", i, l)
		}
	}
}

func TestValidTopK(t *testing.T) {
	if err := validTopK([]int{3, 0, 7}, 3, 8); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	for _, bad := range [][]int{{3, 0}, {3, 0, 8}, {3, 3, 1}, {-1, 0, 1}} {
		if err := validTopK(bad, 3, 8); err == nil {
			t.Errorf("answer %v accepted", bad)
		}
	}
}

// TestOpenLoopLatencyFromDueTime stalls a simulated server for a second:
// every request due during the stall finishes after it, so each one's
// latency must count the stall from its own due time — later requests
// are not timed from when the server got round to them.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	accepted := map[string]svcReq{}
	var final []service.Status
	for i, id := range []string{"q1", "q2", "q3", "q4"} {
		due := time.Duration(i) * 100 * time.Millisecond
		accepted[id] = svcReq{due: due}
		// The server stalls until t0+1s, then finishes one query per ms.
		fin := t0.Add(time.Second + time.Duration(i)*time.Millisecond)
		final = append(final, service.Status{ID: id, State: "done", FinishedAtUnixNano: fin.UnixNano()})
	}
	final = append(final, service.Status{ID: "q9", State: "done", FinishedAtUnixNano: t0.UnixNano()}) // not ours
	lat, last := openLoopLatencies(t0, accepted, final)
	want := []float64{1000, 901, 802, 703}
	if len(lat) != len(want) {
		t.Fatalf("got %d latencies, want %d", len(lat), len(want))
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("request %d: latency %g ms, want %g ms from its due time", i, lat[i], want[i])
		}
	}
	if got := last.Sub(t0); got != time.Second+3*time.Millisecond {
		t.Errorf("last completion %v after start", got)
	}
}

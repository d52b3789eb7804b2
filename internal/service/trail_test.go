package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crowdtopk"
)

// TestAccountingAuditLenPerTrail checks /debug/accounting's audit_len
// against session TMC on each kind of audit trail topkd attaches: the
// in-memory trail (no -audit-dir), a durable log, and a durable log
// behind the resume sink after a partial history (-resume). audit_len
// counts the records handed to the trail, so it balances on all three,
// and each durable directory holds exactly what the trail passed on.
func TestAccountingAuditLenPerTrail(t *testing.T) {
	data := crowdtopk.SyntheticDataset(24, 0.3, 8)
	opts := crowdtopk.Options{
		Algorithm: crowdtopk.SPR, Budget: 60, MinWorkload: 10, BatchSize: 10,
		Seed: 5, Confidence: 0.95, Parallelism: 2,
	}
	ks := []int{4, 3, 5}

	// A crashed run's history: the first query's records, cut to 60%.
	histDir := t.TempDir()
	hist, err := crowdtopk.NewSession(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	halog, err := crowdtopk.OpenAuditLog(histDir, crowdtopk.AuditLogOptions{Sync: crowdtopk.AuditSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	hist.SetAuditSink(halog)
	if _, err := hist.TopK(ks[0]); err != nil {
		t.Fatal(err)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	if err := halog.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := crowdtopk.LoadAuditLog(histDir)
	if err != nil {
		t.Fatal(err)
	}
	cut := all[:len(all)*6/10]

	for _, trail := range []string{"memory", "durable", "resume"} {
		t.Run(trail, func(t *testing.T) {
			var oracle crowdtopk.Oracle = data
			var resumed *crowdtopk.ResumedOracle
			if trail == "resume" {
				resumed = crowdtopk.ResumeOracle(cut, data)
				oracle = resumed
			}
			sess, err := crowdtopk.NewSession(oracle, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var alog *crowdtopk.AuditLog
			if trail == "memory" {
				sess.EnableAuditLog()
			} else {
				if alog, err = crowdtopk.OpenAuditLog(dir, crowdtopk.AuditLogOptions{Sync: crowdtopk.AuditSyncOff}); err != nil {
					t.Fatal(err)
				}
				if resumed != nil {
					sess.SetAuditSink(crowdtopk.NewAuditResumeSink(alog, cut))
				} else {
					sess.SetAuditSink(alog)
				}
			}
			srv := New(Config{Session: sess, AuditEnabled: true})
			hs := httptest.NewServer(srv)
			for _, k := range ks {
				st, code := postQuery(t, hs.URL, Request{K: k})
				if code != http.StatusAccepted {
					t.Fatalf("POST k=%d: status %d", k, code)
				}
				waitDone(t, hs.URL, st.ID)
			}
			acc := srv.accounting()
			if !acc.Balanced || !acc.AuditOn || int64(acc.AuditLen) != acc.SessionTMC || acc.SessionTMC == 0 {
				t.Fatalf("accounting %+v: want balanced with audit_len == session_tmc > 0", acc)
			}
			if mem := sess.AuditLog(); (trail == "memory") != (mem != nil) {
				t.Fatalf("in-memory records: %d on a %s trail", len(mem), trail)
			}
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if alog == nil {
				return
			}
			if err := alog.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := crowdtopk.LoadAuditLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := acc.SessionTMC
			if resumed != nil {
				// The replayed prefix is free and already on disk: the new
				// directory holds exactly the live purchases.
				if got := resumed.ReplayedServed(); got != int64(len(cut)) {
					t.Fatalf("replay served %d of %d surviving records", got, len(cut))
				}
				want = resumed.LiveTasks()
				if want == 0 {
					t.Fatal("the resumed session bought nothing live; the cut did not bite")
				}
				if want+int64(len(cut)) != acc.SessionTMC {
					t.Fatalf("TMC %d != %d replayed + %d live", acc.SessionTMC, len(cut), want)
				}
			}
			if int64(len(recs)) != want {
				t.Fatalf("directory holds %d records, want %d", len(recs), want)
			}
		})
	}
}

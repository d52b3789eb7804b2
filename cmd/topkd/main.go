// Command topkd serves crowdsourced top-k queries over HTTP: a
// multi-query daemon over one long-lived Session, with per-query
// algorithm selection, budget sub-caps, priorities and deadlines,
// admission control (429 backpressure), live progress streams, and the
// full telemetry surface.
//
// Boot it against the synthetic dataset (optionally through a faulty
// simulated crowd platform) and talk JSON:
//
//	topkd -addr :8080 -n 200 -workers 8 &
//	curl -s localhost:8080/queries -d '{"k":5,"algorithm":"spr","max_cost":2000,"priority":3}'
//	curl -s localhost:8080/queries/q1
//	curl -s localhost:8080/queries/q1/events      # SSE progress
//	curl -s -X DELETE localhost:8080/queries/q1   # cancel
//	curl -s localhost:8080/metrics                # Prometheus
//	curl -s localhost:8080/debug/accounting       # cost invariant
//
// SIGINT/SIGTERM shuts down gracefully: admission stops, in-flight
// queries are canceled and drain into best-effort partials, the session
// closes.
//
// With -audit-dir the daemon is crash-safe: every purchased microtask
// streams into a segmented, tamper-evident audit log and every query's
// accept/finish transition into a journal in the same directory. After a
// crash (even kill -9), restart with -resume: finished queries come back
// with their recorded results, in-flight ones are re-admitted and
// replayed from the log — zero re-bought microtasks for work that
// reached disk. -verify-audit audits a directory's integrity and exits.
//
// Observability: every query's spend is attributed pair by pair on
// GET /queries/{id}/explain, burn-rate SLO alerting is served on
// /debug/slo and as /metrics gauges (enable with -slo-latency and/or
// -total-budget), a live ops dashboard on /debug/dashboard, and
// diagnostics stream as structured JSONL (-log-level, -log-out).
// -trace-out and -stats-out dump the span trace and cumulative stats at
// shutdown, like topkquery.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crowdtopk"
	qlog "crowdtopk/internal/obs/log"
	"crowdtopk/internal/obs/slo"
	"crowdtopk/internal/service"
)

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		n     = flag.Int("n", 200, "item count of the synthetic dataset")
		noise = flag.Float64("noise", 0.3, "worker noise of the synthetic dataset")
		seed  = flag.Int64("seed", 1, "random seed")
		conf  = flag.Float64("confidence", 0.95, "per-comparison confidence level")
		budgt = flag.Int("budget", 500, "per-pair microtask budget (-1 = unlimited)")
		pol   = flag.String("policy", string(crowdtopk.Student), "default comparison policy ("+strings.Join(crowdtopk.PolicyNames(), ", ")+"; \"fixed\" is an older name for student); per-query override via the request's \"policy\" field")
		total = flag.Int64("total-budget", 0, "session-wide spending cap in microtasks (0 = unlimited)")
		par   = flag.Int("parallelism", 0, "comparison worker pool (0 = GOMAXPROCS)")

		inflight = flag.Int("max-inflight", 8, "queries executing concurrently")
		queueCap = flag.Int("max-queue", 64, "queries waiting for a slot before 429")

		storePath = flag.String("store", "", "persistent judgment store (JSONL file); warm-starts queries from concluded comparisons of earlier runs")
		storeTTL  = flag.Duration("store-ttl", 0, "age past which stored judgments are re-verified with decayed evidence (0 = never expire)")

		auditDir  = flag.String("audit-dir", "", "persistent audit-log directory (segmented, tamper-evident); enables crash recovery")
		auditSync = flag.String("audit-sync", "interval", "audit fsync policy: always, interval or off")
		resume    = flag.Bool("resume", false, "replay the audit log and query journal in -audit-dir: reinstate finished queries, re-admit and replay in-flight ones")
		verify    = flag.Bool("verify-audit", false, "audit -audit-dir for tampering or corruption, print the report and exit")

		platform   = flag.Bool("platform", true, "run through the simulated crowd platform (false = direct dataset oracle)")
		workers    = flag.Int("workers", 8, "simulated platform worker pool")
		faultDrop  = flag.Float64("fault-drop", 0, "chaos: per-answer drop probability")
		faultErr   = flag.Float64("fault-error", 0, "chaos: per-batch transient error probability")
		faultAfter = flag.Int("fault-after", 0, "chaos: platform fails permanently after this many posted batches (0 = never)")

		logLevel = flag.String("log-level", "info", "structured log verbosity: debug, info, warn, error or off")
		logOut   = flag.String("log-out", "stderr", "structured JSONL log destination: stderr, stdout or a file path (appended)")
		traceOut = flag.String("trace-out", "", "write the session's span trace as replayable JSONL to this file at shutdown")
		statsOut = flag.String("stats-out", "", "write the session's cumulative stats as JSON to this file at shutdown (- for stdout)")

		sloLatency = flag.Duration("slo-latency", 0, "latency SLO: per-query wall-clock target; enables burn-rate alerting on /debug/slo and /metrics (0 = off)")
		sloGoal    = flag.Float64("slo-latency-goal", 0.95, "latency SLO: fraction of queries that must finish within -slo-latency")
		sloHorizon = flag.Duration("slo-horizon", time.Hour, "budget SLO: -total-budget is meant to last this long; spending faster raises the burn rate past 1")
	)
	flag.Parse()

	sessPolicy, err := crowdtopk.ResolvePolicy(crowdtopk.PolicyName(*pol), *conf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topkd: -policy:", err)
		os.Exit(2)
	}

	lg, lgClose, err := openLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topkd:", err)
		os.Exit(2)
	}
	if lgClose != nil {
		defer lgClose()
	}
	dlg := lg.With("component", "topkd")
	// fatal routes terminal errors through the structured log when it is
	// enabled and falls back to a plain stderr line when it is not, so
	// startup failures are never silent.
	fatal := func(code int, err error) {
		if dlg.Enabled(qlog.LevelError) {
			dlg.Error("fatal", "err", err)
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}

	if *verify {
		if *auditDir == "" {
			fatal(2, fmt.Errorf("topkd: -verify-audit requires -audit-dir"))
		}
		rep, err := crowdtopk.VerifyAuditLog(*auditDir)
		if err != nil {
			fatal(2, err)
		}
		for _, el := range rep.Elements {
			status := "ok"
			if !el.OK {
				status = "BAD: " + el.Detail
			}
			fmt.Printf("topkd: verify %-24s %6d records  %s\n", el.File, el.Records, status)
		}
		for _, note := range rep.Notes {
			fmt.Printf("topkd: verify note: %s\n", note)
		}
		if !rep.OK {
			fmt.Printf("topkd: verify FAILED — first damaged file: %s\n", rep.FirstBad)
			os.Exit(1)
		}
		fmt.Printf("topkd: verify OK — %d records intact\n", rep.Records)
		return
	}

	data := crowdtopk.SyntheticDataset(*n, *noise, *seed)
	tel := crowdtopk.NewTelemetry()
	opts := crowdtopk.Options{
		Algorithm:   crowdtopk.SPR,
		Policy:      sessPolicy,
		Confidence:  *conf,
		Budget:      *budgt,
		TotalBudget: *total,
		Parallelism: *par,
		Scheduling:  crowdtopk.Async, // free-running chains: queries share the pool live
		Seed:        *seed + 1,
		Telemetry:   tel,
	}

	var store *crowdtopk.FileJudgmentStore
	if *storePath != "" {
		s, err := crowdtopk.OpenFileJudgmentStore(*storePath)
		if err != nil {
			fatal(1, err)
		}
		store = s
		opts.JudgmentStore = store
		opts.JudgmentTTL = *storeTTL
		fmt.Printf("topkd: judgment store %s (%d records)\n", store.Path(), store.Len())
	}

	oracle := crowdtopk.Oracle(data)
	if *platform {
		var p crowdtopk.Platform = crowdtopk.SimulatedPlatform(data, *workers, *seed+2)
		if *faultDrop > 0 || *faultErr > 0 || *faultAfter > 0 {
			p = crowdtopk.InjectFaults(p, crowdtopk.FaultSchedule{
				Seed:           *seed + 3,
				Drop:           *faultDrop,
				PostError:      *faultErr,
				CollectError:   *faultErr,
				FailAfterPosts: *faultAfter,
			})
		}
		if *auditDir != "" && *resume {
			// The resume oracle will sit in front; resilience must wrap the
			// platform underneath it (the session only auto-applies
			// Options.Resilience to a bare platform oracle).
			oracle = crowdtopk.WrapPlatformResilient(data.NumItems(), p, crowdtopk.ResilienceOptions{})
		} else {
			oracle = crowdtopk.WrapPlatform(data.NumItems(), p)
			opts.Resilience = &crowdtopk.ResilienceOptions{}
		}
	}

	// Persistent audit log: load prior history when resuming, open the
	// directory for writing, and front the live oracle with replay so
	// logged work is never re-bought.
	var (
		alog    *crowdtopk.AuditLog
		resumed *crowdtopk.ResumedOracle
		prior   []crowdtopk.TaskRecord
		journal *service.FileJournal
		jentry  []service.JournalEntry
	)
	if *auditDir != "" {
		policy, err := crowdtopk.ParseAuditSyncPolicy(*auditSync)
		if err != nil {
			fatal(2, err)
		}
		if *resume {
			if _, err := os.Stat(*auditDir); err == nil {
				prior, err = crowdtopk.LoadAuditLog(*auditDir)
				if err != nil {
					fatal(1, err)
				}
			} else if !os.IsNotExist(err) {
				fatal(1, err)
			}
			if len(prior) > 0 {
				resumed = crowdtopk.ResumeOracle(prior, oracle)
				oracle = resumed
			}
		}
		alog, err = crowdtopk.OpenAuditLog(*auditDir, crowdtopk.AuditLogOptions{Sync: policy})
		if err != nil {
			fatal(1, err)
		}
		journal, jentry, err = service.OpenFileJournal(filepath.Join(*auditDir, "queries.jsonl"))
		if err != nil {
			fatal(1, err)
		}
		if !*resume && (len(jentry) > 0 || alog.Total() > 0) {
			dlg.Warn("audit directory holds data from a previous run; start with -resume to replay it",
				"dir", *auditDir, "records", alog.Total(), "journal_entries", len(jentry))
		}
		fmt.Printf("topkd: audit log %s (%d records on disk, sync=%s)\n", *auditDir, alog.Total(), *auditSync)
	}

	sess, err := crowdtopk.NewSession(oracle, opts)
	if err != nil {
		fatal(1, err)
	}
	sess.SetLogger(lg)
	sess.EnableAuditLog()
	if alog != nil {
		if resumed != nil {
			// The resumed engine re-logs replayed draws; the sink skips each
			// pair's already-persisted prefix so the directory grows by
			// exactly the live purchases.
			sess.SetAuditSink(crowdtopk.NewAuditResumeSink(alog, prior))
		} else {
			sess.SetAuditSink(alog)
		}
	}

	cfg := service.Config{
		Session:      sess,
		Telemetry:    tel,
		MaxInFlight:  *inflight,
		MaxQueue:     *queueCap,
		AuditEnabled: true,
		Logger:       lg,
	}
	if *sloLatency > 0 || *total > 0 {
		cfg.SLO = &slo.Objectives{
			LatencyTarget: *sloLatency,
			LatencyGoal:   *sloGoal,
			Budget:        *total,
			BudgetHorizon: *sloHorizon,
		}
	}
	if journal != nil {
		cfg.Journal = journal
	}
	srv := service.New(cfg)
	if *resume && len(jentry) > 0 {
		pending, finished := srv.Restore(jentry)
		fmt.Printf("topkd: restore — %d finished queries reinstated, %d in-flight re-admitted (replaying %d recorded microtasks)\n",
			finished, pending, len(prior))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(1, err)
	}
	hs := &http.Server{Handler: srv}
	fmt.Printf("topkd: serving %d items on http://%s (POST /queries)\n", data.NumItems(), ln.Addr())
	dlg.Info("serving", "addr", ln.Addr().String(), "items", data.NumItems(),
		"max_inflight", *inflight, "max_queue", *queueCap, "slo", cfg.SLO != nil)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("topkd: %v — draining\n", s)
		dlg.Info("signal received — draining", "signal", s.String())
	case err := <-errc:
		fatal(1, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		dlg.Error("drain", "err", err)
	}
	if err := sess.Close(); err != nil {
		dlg.Error("session close", "err", err)
	}
	if store != nil {
		ss := sess.StoreStats()
		fmt.Printf("topkd: store — %d hits, %d stale, %d misses, %d commits, %d records\n",
			ss.Hits, ss.Stale, ss.Misses, ss.Commits, store.Len())
		if err := store.Close(); err != nil {
			dlg.Error("store close", "err", err)
		}
	}
	if alog != nil {
		// The session has quiesced: flush the commit queue, write the
		// final checkpoint and seal the directory before reporting.
		if err := alog.Close(); err != nil {
			dlg.Error("audit close", "err", err)
		}
		if resumed != nil {
			fmt.Printf("topkd: resume accounting — %d replayed free, %d live purchases, tmc %d\n",
				resumed.ReplayedServed(), resumed.LiveTasks(), sess.TMC())
		}
		fmt.Printf("topkd: audit — %d records on disk (%d appended this run), final checkpoint written\n",
			alog.Total(), alog.Appended())
	}
	if journal != nil {
		if err := srv.JournalErr(); err != nil {
			dlg.Error("journal", "err", err)
		}
		if err := journal.Close(); err != nil {
			dlg.Error("journal close", "err", err)
		}
	}
	if *traceOut != "" {
		if err := dumpTrace(tel, *traceOut); err != nil {
			dlg.Error("trace dump", "err", err)
		} else {
			fmt.Printf("topkd: trace file %s\n", *traceOut)
			if d := tel.TraceDropped(); d > 0 {
				dlg.Warn("trace truncated: the tracer keeps only its newest spans", "dropped", d)
			}
		}
	}
	if *statsOut != "" {
		if err := dumpStats(tel, *statsOut); err != nil {
			dlg.Error("stats dump", "err", err)
		} else if *statsOut != "-" {
			fmt.Printf("topkd: stats file %s\n", *statsOut)
		}
	}
	fmt.Printf("topkd: done — session spent %d microtasks over %d rounds\n", sess.TMC(), sess.Rounds())
	dlg.Info("done", "tmc", sess.TMC(), "rounds", sess.Rounds())
}

// openLogger builds the daemon's structured logger from the -log-out and
// -log-level flags. The returned closer is non-nil when the sink is a
// file the caller must close at exit.
func openLogger(out, level string) (*crowdtopk.Logger, func(), error) {
	var w io.Writer
	var closer func()
	switch out {
	case "", "stderr":
		w = os.Stderr
	case "stdout":
		w = os.Stdout
	default:
		f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		w = f
		closer = func() { _ = f.Close() }
	}
	lg, err := crowdtopk.NewLogger(w, level)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, nil, err
	}
	return lg, closer, nil
}

// dumpTrace writes the session's replayable span trace (same format as
// topkquery's -trace-out).
func dumpTrace(tel *crowdtopk.Telemetry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpStats writes the bundle's cumulative QueryStats as indented JSON;
// "-" selects stdout (same contract as topkquery's -stats-out).
func dumpStats(tel *crowdtopk.Telemetry, path string) error {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tel.Stats())
}

// The audit-log overhead bench answers the durability tax question: how
// much query wall time does streaming every purchased microtask into the
// persistent audit log cost? It runs the same deterministic query (see
// ab.go) in three modes — no log, the batched default (bounded commit
// queue, interval fsync), and fsync-always — and gates the batched mode
// at logBenchMaxOverhead over no-log, best rep against best rep. The
// fsync-always column is reported but not gated: paying a sync per batch
// is a policy choice, not a regression.
//
// Its check hook requires each logging rep's directory to hold exactly
// TMC records and pass Verify.
package main

import (
	"fmt"
	"os"
	"time"

	"crowdtopk"
)

const (
	logBenchReps        = 7
	logBenchMaxOverhead = 0.05
)

// logBenchSync maps a bench mode onto the audit log's fsync policy; the
// off mode has no audit log at all.
var logBenchSync = map[string]crowdtopk.AuditSyncPolicy{
	"off":          "",
	"batched":      crowdtopk.AuditSyncInterval,
	"fsync-always": crowdtopk.AuditSyncAlways,
}

// runLogBenchOnce executes the fixed query once, logging into dir when
// sync is set, and returns the result plus the TopK wall time. The query
// runs through the simulated crowd platform — the deployment shape topkd
// actually logs in — so the overhead ratio is taken against realistic
// per-microtask cost, not against a bare in-memory table lookup. The
// platform seeds each batch by its post id and each answer by its task
// index, so a single comparison chain stays bit-identical across reps.
func runLogBenchOnce(rep *abReport, dir string, sync crowdtopk.AuditSyncPolicy) (crowdtopk.Result, int64, error) {
	d := crowdtopk.SyntheticDataset(rep.Items, rep.Noise, 70)
	oracle := crowdtopk.WrapPlatformResilient(d.NumItems(),
		crowdtopk.SimulatedPlatform(d, 8, 71), crowdtopk.ResilienceOptions{})
	sess, err := crowdtopk.NewSession(oracle, crowdtopk.Options{
		Budget: rep.Budget, Seed: rep.Seed, Confidence: rep.Confidence,
		Parallelism: 1, // one comparison chain: TMC must be bit-identical across reps
	})
	if err != nil {
		return crowdtopk.Result{}, 0, err
	}
	defer sess.Close()
	// Each mode mirrors topkd: "off" keeps the in-memory trail topkd
	// keeps without -audit-dir, and a durable mode's SetAuditSink replaces
	// it, as topkd attaches only the durable trail with -audit-dir.
	sess.EnableAuditLog()
	var alog *crowdtopk.AuditLog
	if sync != "" {
		alog, err = crowdtopk.OpenAuditLog(dir, crowdtopk.AuditLogOptions{Sync: sync})
		if err != nil {
			return crowdtopk.Result{}, 0, err
		}
		sess.SetAuditSink(alog)
	}
	start := time.Now()
	res, err := sess.TopK(rep.K)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return crowdtopk.Result{}, 0, err
	}
	if alog != nil {
		// Close flushes the commit queue and writes the final checkpoint;
		// a dropped record would surface as a short directory in the check.
		if err := alog.Close(); err != nil {
			return crowdtopk.Result{}, 0, err
		}
	}
	return res, wall, nil
}

// logBench returns the durability-tax bench.
func logBench() abBench {
	rep := &abReport{
		Items: 60, Noise: 0.25, Seed: 75, K: 8, Budget: 400, Confidence: 0.95,
		Reps: logBenchReps, MaxOverhead: logBenchMaxOverhead,
	}
	// dir is the run in flight's directory: run creates it, and check (the
	// driver calls it right after each successful run) removes it.
	var dir string
	return abBench{
		name:   "log-bench",
		report: rep,
		modes:  []string{"off", "batched", "fsync-always"},
		gated:  "batched",
		run: func(mode string) (crowdtopk.Result, int64, error) {
			var err error
			if dir, err = os.MkdirTemp("", "logbench-"); err != nil {
				return crowdtopk.Result{}, 0, err
			}
			res, wall, err := runLogBenchOnce(rep, dir, logBenchSync[mode])
			if err != nil {
				os.RemoveAll(dir)
			}
			return res, wall, err
		},
		check: func(mode string, res crowdtopk.Result, m *abMode) error {
			defer os.RemoveAll(dir)
			if logBenchSync[mode] == "" {
				return nil
			}
			// Completeness gate: every purchased microtask reached disk.
			got, err := crowdtopk.LoadAuditLog(dir)
			if err != nil {
				return fmt.Errorf("reloading log: %w", err)
			}
			if int64(len(got)) != res.TMC {
				return fmt.Errorf("directory holds %d records, query spent %d", len(got), res.TMC)
			}
			vr, err := crowdtopk.VerifyAuditLog(dir)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			if !vr.OK {
				return fmt.Errorf("directory fails verification: first bad %s", vr.FirstBad)
			}
			m.Records = int64(len(got))
			return nil
		},
	}
}

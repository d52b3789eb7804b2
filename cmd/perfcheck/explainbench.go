// The attribution overhead bench answers the explainability tax
// question: how much query wall time does per-pair cost attribution plus
// structured logging cost when switched on? It runs the same
// deterministic query (see ab.go) in two modes — observability off, and
// QueryOptions.Explain with a debug-level structured logger wired
// through the session — and gates the enabled mode at
// explainBenchMaxOverhead over off, best rep against best rep.
//
// Its check hook requires every enabled rep's attribution tree to sum to
// exactly the query's Result.TMC — the reconciliation invariant under a
// stopwatch.
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"crowdtopk"
)

const (
	explainBenchReps        = 7
	explainBenchMaxOverhead = 0.03
)

// runExplainBenchOnce executes the fixed query once. With enabled set,
// per-pair attribution records every charge and a debug-level structured
// logger is wired through the session's execution stack; the logger
// writes to io.Discard so the measurement isolates the observability
// bookkeeping, not disk throughput. Returns the result, the attribution
// tree (empty when off) and the wall time.
func runExplainBenchOnce(rep *abReport, enabled bool) (crowdtopk.Result, *crowdtopk.CostTree, int64, error) {
	d := crowdtopk.SyntheticDataset(rep.Items, rep.Noise, 80)
	oracle := crowdtopk.WrapPlatformResilient(d.NumItems(),
		crowdtopk.SimulatedPlatform(d, 8, 81), crowdtopk.ResilienceOptions{})
	sess, err := crowdtopk.NewSession(oracle, crowdtopk.Options{
		Budget: rep.Budget, Seed: rep.Seed, Confidence: rep.Confidence,
		Parallelism: 1, // one comparison chain: TMC must be bit-identical across reps
	})
	if err != nil {
		return crowdtopk.Result{}, nil, 0, err
	}
	defer sess.Close()
	qo := crowdtopk.QueryOptions{}
	if enabled {
		lg, err := crowdtopk.NewLogger(io.Discard, "debug")
		if err != nil {
			return crowdtopk.Result{}, nil, 0, err
		}
		sess.SetLogger(lg)
		qo.Explain = true
	}
	start := time.Now()
	h, err := sess.StartTopK(context.Background(), rep.K, qo)
	if err != nil {
		return crowdtopk.Result{}, nil, 0, err
	}
	res, err := h.Wait()
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return crowdtopk.Result{}, nil, 0, err
	}
	return res, h.Explain(), wall, nil
}

// explainBench returns the explainability-tax bench.
func explainBench() abBench {
	rep := &abReport{
		Items: 60, Noise: 0.25, Seed: 85, K: 8, Budget: 400, Confidence: 0.95,
		Reps: explainBenchReps, MaxOverhead: explainBenchMaxOverhead,
	}
	// tree is the attribution tree of the run in flight, handed from run
	// to the check hook the driver calls right after it.
	var tree *crowdtopk.CostTree
	return abBench{
		name:   "explain-bench",
		report: rep,
		modes:  []string{"off", "explain+log"},
		gated:  "explain+log",
		run: func(mode string) (crowdtopk.Result, int64, error) {
			res, t, wall, err := runExplainBenchOnce(rep, mode != "off")
			tree = t
			return res, wall, err
		},
		check: func(mode string, res crowdtopk.Result, m *abMode) error {
			if mode == "off" {
				return nil
			}
			// Reconciliation gate: the tree sums to the meter, exactly.
			if tree.TMC != res.TMC {
				return fmt.Errorf("attributed %d != Result.TMC %d", tree.TMC, res.TMC)
			}
			m.Leaves = tree.Pairs
			return nil
		},
	}
}

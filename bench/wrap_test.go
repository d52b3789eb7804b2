package main

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"crowdtopk"
	"crowdtopk/internal/crowd"
)

// oracleInterfaces reports which optional oracle interfaces o implements.
func oracleInterfaces(o crowd.Oracle) [4]bool {
	_, b := o.(crowd.BatchOracle)
	_, f := o.(crowd.FallibleBatchOracle)
	_, g := o.(crowd.Grader)
	_, t := o.(crowd.TruthOracle)
	return [4]bool{b, f, g, t}
}

func platformInterfaces(p crowd.Platform) [2]bool {
	_, c := p.(crowd.ContextPlatform)
	_, cl := p.(crowd.Closer)
	return [2]bool{c, cl}
}

// TestWrappersKeepRealInterfaces wraps the values the workloads wrap and
// checks nothing the program type-asserts on is lost or gained, and that
// every call reaches the wrapped value and is counted.
func TestWrappersKeepRealInterfaces(t *testing.T) {
	syn := crowdtopk.SyntheticDataset(30, 0.3, 1)
	for _, d := range []crowdtopk.Dataset{syn, crowdtopk.IMDbDataset(1), crowdtopk.SubsetDataset(syn, []int{3, 1, 4, 5})} {
		var tm timer
		w := wrapOracle(d, &tm)
		if got, want := oracleInterfaces(w), oracleInterfaces(d); got != want {
			t.Errorf("%T: wrapper implements %v, dataset %v", d, got, want)
			continue
		}
		a, b := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		want, got := make([]float64, 4), make([]float64, 4)
		d.(crowd.BatchOracle).Preferences(a, 0, 1, want)
		w.(crowd.BatchOracle).Preferences(b, 0, 1, got)
		if !reflect.DeepEqual(got, want) ||
			w.Preference(b, 1, 2) != d.Preference(a, 1, 2) ||
			w.(crowd.Grader).Grade(b, 2) != d.(crowd.Grader).Grade(a, 2) ||
			w.NumItems() != d.NumItems() || w.(crowd.TruthOracle).TrueRank(1) != d.TrueRank(1) {
			t.Errorf("%T: wrapper answers differ from the dataset's", d)
		}
		if tm.calls.Load() != 3 || tm.units.Load() != 6 {
			t.Errorf("%T: timer counted %d calls %d answers, want 3 and 6", d, tm.calls.Load(), tm.units.Load())
		}
	}
	p := crowdtopk.SimulatedPlatform(syn, 2, 1)
	var pt platformTimers
	w := wrapPlatform(p, &pt)
	if got, want := platformInterfaces(w), platformInterfaces(p); got != want || !got[0] || !got[1] {
		t.Errorf("simulated platform: wrapper implements %v, platform %v", got, want)
	}
	batch, err := w.Post([]crowd.Task{{I: 0, J: 1}, {I: 2, J: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := w.(crowd.ContextPlatform).CollectContext(context.Background(), batch); err != nil || len(ans) != 2 {
		t.Errorf("collect: %d answers, %v", len(ans), err)
	}
	if pt.post.units.Load() != 2 || pt.collect.units.Load() != 2 {
		t.Errorf("platform timers counted %d posted, %d collected, want 2 and 2", pt.post.units.Load(), pt.collect.units.Load())
	}
	if err := w.(crowd.Closer).Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestTracedLibColdAnswersMatchUntraced runs a small lib-cold mix with
// and without the boundary timers and Telemetry, and requires the same
// (TopK, TMC, Rounds) per query. Parallelism 1 covers every policy; the
// workload's own parallelism covers the fixed policy, the only one whose
// parallel determinism a passing test covers.
func TestTracedLibColdAnswersMatchUntraced(t *testing.T) {
	ds := crowdtopk.SyntheticDataset(40, 0.3, 7)
	var mix []libQuery
	for _, alg := range libAlgorithms {
		for _, pol := range policies {
			for _, par := range []int{1, 4} {
				if par > 1 && pol != "fixed" {
					continue
				}
				mix = append(mix, libQuery{ds: ds, opts: crowdtopk.Options{
					K: 4, Algorithm: alg, Policy: crowdtopk.PolicyName(pol), Parallelism: par, Seed: 3,
				}})
			}
		}
	}
	rep := newReport()
	plain := runLibPhase(rep, mix, 0, nil, nil)
	var tm timer
	traced := runLibPhase(rep, mix, 0, func(d crowdtopk.Dataset) crowdtopk.Oracle { return wrapOracle(d, &tm) }, crowdtopk.NewTelemetry())
	if len(rep.problems) > 0 {
		t.Fatalf("queries failed: %v", rep.problems)
	}
	for i, q := range mix {
		a, b := plain.first[i], traced.first[i]
		if !sameAnswer(a, b) {
			t.Errorf("%v p=%d: untraced %v tmc %d rounds %d, traced %v tmc %d rounds %d",
				q, q.opts.Parallelism, a.TopK, a.TMC, a.Rounds, b.TopK, b.TMC, b.Rounds)
		}
	}
	if tm.units.Load() == 0 {
		t.Error("the traced run timed no oracle answers")
	}
}

package crowdtopk

import (
	"context"
	"reflect"
	"testing"
)

// allEstimators is the full legacy estimator roster whose fixed-schedule
// policies must stay behaviourally unchanged at the public-API layer.
var allEstimators = []PolicyName{
	Student, StudentOneSided, Stein, HoeffdingBinary, HoeffdingPreference,
}

// TestPolicyLayerCrossLayerEquivalence is the full-stack leg of the
// refactor's equivalence suite (the compare-level leg diffs Runner
// against the embedded pre-refactor loop). For every legacy estimator ×
// both scheduling modes × parallelism {1, 8} it runs a complete query
// through Session/TopK and pins the policy layer's no-regression
// contract:
//
//   - the policy named per query on a default session is byte-identical
//     to the same policy named by the session — for Student spelled
//     "fixed" per query on a session that leaves Policy zero, so both
//     legacy spellings reach the default path, not a fork;
//   - deterministic mode stays byte-identical across parallelism —
//     Result, phase breakdown and the microtask audit log;
//   - async mode keeps its documented semantics: the same answer set,
//     with only ordering and round accounting free to differ.
//
// Run under -race this also certifies the policy plumbing race-clean.
func TestPolicyLayerCrossLayerEquivalence(t *testing.T) {
	d := SyntheticDataset(24, 0.25, 141)
	const k = 4

	// ranUnder is the policy a query runs under: the per-query one if named,
	// else the session's, with both legacy spellings of Student resolved.
	ranUnder := func(sessPol, qPol PolicyName) PolicyName {
		if qPol == "" {
			qPol = sessPol
		}
		if qPol == "" || qPol == FixedPolicy {
			return Student
		}
		return qPol
	}

	// run answers one query under sessPol, or under qPol named per query
	// when qPol is set.
	run := func(t *testing.T, sessPol, qPol PolicyName, mode SchedulingMode, parallelism int) (Result, []TaskRecord) {
		t.Helper()
		s, err := NewSession(d, Options{
			Policy:      sessPol,
			Confidence:  0.95,
			Budget:      200,
			Seed:        142,
			Parallelism: parallelism,
			Scheduling:  mode,
		})
		if err != nil {
			t.Fatalf("session (policy %q, mode %s, p %d): %v", sessPol, mode, parallelism, err)
		}
		defer s.Close()
		s.EnableAuditLog()
		h, err := s.StartTopK(context.Background(), k, QueryOptions{Policy: qPol})
		if err != nil {
			t.Fatalf("StartTopK (policy %q/%q, mode %s, p %d): %v", sessPol, qPol, mode, parallelism, err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("TopK (policy %q/%q, mode %s, p %d): %v", sessPol, qPol, mode, parallelism, err)
		}
		if h.Policy() != ranUnder(sessPol, qPol) {
			t.Fatalf("query ran under %q, want %q", h.Policy(), ranUnder(sessPol, qPol))
		}
		log := append([]TaskRecord(nil), s.AuditLog()...)
		return res, log
	}

	for _, est := range allEstimators {
		for _, mode := range []SchedulingMode{Deterministic, Async} {
			t.Run(string(est)+"/"+string(mode), func(t *testing.T) {
				seqRes, seqLog := run(t, est, "", mode, 1)
				parRes, parLog := run(t, est, "", mode, 8)
				perQuery := est
				if est == Student {
					perQuery = FixedPolicy
				}
				expRes, expLog := run(t, "", perQuery, mode, 1)

				if seqRes.TMC <= 0 || len(seqLog) == 0 {
					t.Fatalf("vacuous run: tmc %d, %d audit records", seqRes.TMC, len(seqLog))
				}
				// Per-query policy == session policy, byte for byte.
				if !reflect.DeepEqual(seqRes, expRes) {
					t.Errorf("per-query %q diverged from the session policy\n session:   %+v\n per query: %+v", perQuery, seqRes, expRes)
				}
				if !reflect.DeepEqual(seqLog, expLog) {
					t.Errorf("per-query %q audit log diverged from the session policy (%d vs %d records)",
						perQuery, len(expLog), len(seqLog))
				}

				switch mode {
				case Deterministic:
					// Wave lockstep: parallelism must not leak into the
					// answer, the accounting or the purchase history.
					if !reflect.DeepEqual(seqRes, parRes) {
						t.Errorf("deterministic results diverged across parallelism\n p=1: %+v\n p=8: %+v", seqRes, parRes)
					}
					if !reflect.DeepEqual(seqLog, parLog) {
						t.Errorf("deterministic audit logs diverged across parallelism (%d vs %d records)",
							len(seqLog), len(parLog))
					}
				case Async:
					// Free-running chains: answer set invariant, ordering
					// and round accounting free.
					if !sameSet(seqRes.TopK, parRes.TopK) {
						t.Errorf("async answer set changed with parallelism: p=1 %v, p=8 %v", seqRes.TopK, parRes.TopK)
					}
					if parRes.TMC <= 0 || parRes.Rounds <= 0 {
						t.Errorf("async p=8: empty cost accounting (tmc %d, rounds %d)", parRes.TMC, parRes.Rounds)
					}
				}
			})
		}
	}
}

package topk

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

// chaosPolicy retries aggressively but never sleeps on the wall clock, so
// chaos runs exercise the full resilience machinery at test speed.
func chaosPolicy(maxAttempts int, timeout time.Duration) crowd.RetryPolicy {
	return crowd.RetryPolicy{
		MaxAttempts:      maxAttempts,
		FailureThreshold: 1 << 30, // chaos tests study retries, not the breaker
		CollectTimeout:   timeout,
		Sleep:            func(time.Duration) {},
	}
}

// chaosStack builds the full platform path: synthetic dataset → simulated
// workers → seeded fault injection → resilience layer → validation →
// engine, with audit logging on.
func chaosStack(n int, seed int64, cfg crowd.FaultConfig, policy crowd.RetryPolicy, parallelism int) (*compare.Runner, dataset.Source, *crowd.FaultyPlatform) {
	src := dataset.NewSynthetic(n, 0.2, seed)
	fp := crowd.NewFaultyPlatform(crowd.NewSimPlatform(src, 4, seed+1), cfg)
	po := crowd.NewPlatformOracle(n, fp).WithResilience(policy)
	eng := crowd.NewEngine(po, rand.New(rand.NewSource(seed+2)))
	eng.SetLogSink(new(crowd.MemLog))
	r := compare.NewRunner(eng, compare.NewStudent(0.05), compare.Params{
		B: 200, I: 10, Step: 10, Parallelism: parallelism,
	})
	return r, src, fp
}

// checkChaosInvariants asserts what must hold under ANY fault schedule:
// the query returns exactly k items, never panics (implied by arriving
// here), and the monetary accounting is exact — TMC equals the audit-log
// length, i.e. every charged microtask is an accepted, logged answer even
// under drops, duplicates, timeouts, re-posts and permanent failure.
func checkChaosInvariants(t *testing.T, r *compare.Runner, res Result, k int) {
	t.Helper()
	if len(res.TopK) != k {
		t.Fatalf("returned %d items, want %d", len(res.TopK), k)
	}
	e := r.Engine()
	if n := len(trail(e)); e.TMC() != int64(n) {
		t.Fatalf("accounting drift: TMC %d != %d logged microtasks", e.TMC(), n)
	}
	if e.TMC() != e.PairwiseTasks()+e.GradedTasks() {
		t.Fatalf("TMC %d != pairwise %d + graded %d", e.TMC(), e.PairwiseTasks(), e.GradedTasks())
	}
}

// trail returns the records of the engine's in-memory audit trail.
func trail(e *crowd.Engine) []crowd.Record { return e.LogSink().(*crowd.MemLog).Log() }

func reportRecall(t *testing.T, name string, got []int, src dataset.Source, k int) int {
	t.Helper()
	hits := overlap(got, dataset.TopK(src, k))
	t.Logf("%s: recall@%d = %d/%d (TopK %v)", name, k, hits, k, got)
	return hits
}

func TestChaosDropHeavy(t *testing.T) {
	const n, k = 20, 5
	r, src, fp := chaosStack(n, 101, crowd.FaultConfig{Seed: 11, Drop: 0.25, Duplicate: 0.1},
		chaosPolicy(6, 0), 4)
	res := Run(NewSPR(), r, k)
	checkChaosInvariants(t, r, res, k)
	hits := reportRecall(t, "drop-heavy", res.TopK, src, k)
	if fp.Injected() == 0 {
		t.Error("fault schedule fired nothing; the test exercised no chaos")
	}
	if res.Err == nil && hits < k-1 {
		t.Errorf("healthy completion with recall %d/%d", hits, k)
	}
}

func TestChaosStragglerHeavy(t *testing.T) {
	const n, k = 12, 3
	r, src, _ := chaosStack(n, 103, crowd.FaultConfig{Seed: 13, Straggle: 0.2},
		chaosPolicy(6, 5*time.Millisecond), 4)
	res := Run(NewSPR(), r, k)
	checkChaosInvariants(t, r, res, k)
	hits := reportRecall(t, "straggler-heavy", res.TopK, src, k)
	if res.Err == nil && hits < k-1 {
		t.Errorf("healthy completion with recall %d/%d", hits, k)
	}
}

func TestChaosTransientErrorBursts(t *testing.T) {
	const n, k = 20, 5
	r, src, fp := chaosStack(n, 105, crowd.FaultConfig{Seed: 17, PostError: 0.2, CollectError: 0.2},
		chaosPolicy(6, 0), 4)
	res := Run(NewSPR(), r, k)
	checkChaosInvariants(t, r, res, k)
	hits := reportRecall(t, "transient-bursts", res.TopK, src, k)
	if fp.Injected() == 0 {
		t.Error("fault schedule fired nothing")
	}
	if res.Err == nil && hits < k-1 {
		t.Errorf("healthy completion with recall %d/%d", hits, k)
	}
}

func TestChaosEverythingAtOnce(t *testing.T) {
	// All fault classes firing together, across every algorithm: nothing
	// may panic and the accounting must stay exact.
	cfg := crowd.FaultConfig{
		Seed: 19, Drop: 0.15, Duplicate: 0.1, Flip: 0.2, Mispair: 0.05,
		Malformed: 0.05, PostError: 0.1, CollectError: 0.1,
	}
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			const n, k = 12, 3
			r, src, _ := chaosStack(n, 107, cfg, chaosPolicy(6, 0), 4)
			res := Run(alg, r, k)
			checkChaosInvariants(t, r, res, k)
			reportRecall(t, alg.Name(), res.TopK, src, k)
		})
	}
}

func TestChaosPermanentFailureMidQuery(t *testing.T) {
	// The market goes down for good mid-query: SPR must still return k
	// items (best effort from the evidence bought before the cliff),
	// report the failure through Result.Err, and keep the spend exact.
	const n, k = 20, 5
	r, src, fp := chaosStack(n, 109, crowd.FaultConfig{Seed: 23, FailAfterPosts: 25},
		chaosPolicy(3, 0), 4)
	res := Run(NewSPR(), r, k)
	checkChaosInvariants(t, r, res, k)
	if res.Err == nil {
		t.Fatal("permanent platform failure not reported through Result.Err")
	}
	if r.Err() == nil {
		t.Fatal("runner does not expose the degradation")
	}
	if fp.Posts() != 25 {
		t.Errorf("platform saw %d posts, want the cliff at 25", fp.Posts())
	}
	if res.TMC == 0 {
		t.Error("no evidence purchased before the cliff; FailAfterPosts too low for this test")
	}
	reportRecall(t, "permanent-failure", res.TopK, src, k)
}

func TestChaosAuditLogByteIdentical(t *testing.T) {
	// Same fault schedule, same seeds, sequential execution: two runs must
	// produce byte-identical audit logs — the property that makes chaos
	// failures replayable.
	runLog := func() []byte {
		r, _, _ := chaosStack(16, 111, crowd.FaultConfig{
			Seed: 29, Drop: 0.2, Duplicate: 0.1, Flip: 0.2, Malformed: 0.1,
		}, chaosPolicy(6, 0), 1)
		res := Run(NewSPR(), r, 4)
		checkChaosInvariants(t, r, res, 4)
		var buf bytes.Buffer
		if err := r.Engine().LogSink().(*crowd.MemLog).WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runLog(), runLog()
	if !bytes.Equal(a, b) {
		t.Errorf("audit logs differ across identical chaos runs (%d vs %d bytes)", len(a), len(b))
	}
}

func TestChaosCheckpointResume(t *testing.T) {
	// Crash-resume drill: record a healthy run's audit log, then re-drive
	// the same query through ReplayThenLive — the resumed run must buy
	// nothing and return the same answer.
	const n, k = 16, 4
	src := dataset.NewSynthetic(n, 0.2, 113)
	eng := crowd.NewEngine(src, rand.New(rand.NewSource(7)))
	log := new(crowd.MemLog)
	eng.SetLogSink(log)
	r := compare.NewRunner(eng, compare.NewStudent(0.05), compare.Params{B: 200, I: 10, Step: 10, Parallelism: 1})
	first := Run(NewSPR(), r, k)

	rl := crowd.NewReplayThenLive(log.Log(), src)
	eng2 := crowd.NewEngine(rl, rand.New(rand.NewSource(7)))
	r2 := compare.NewRunner(eng2, compare.NewStudent(0.05), compare.Params{B: 200, I: 10, Step: 10, Parallelism: 1})
	second := Run(NewSPR(), r2, k)

	if rl.LiveTasks() != 0 {
		t.Errorf("resume bought %d live microtasks, want 0 — the log covers the whole query", rl.LiveTasks())
	}
	if len(first.TopK) != len(second.TopK) {
		t.Fatalf("resume changed the answer size: %v vs %v", second.TopK, first.TopK)
	}
	for i := range first.TopK {
		if first.TopK[i] != second.TopK[i] {
			t.Fatalf("resume changed the answer: %v vs %v", second.TopK, first.TopK)
		}
	}
}

// FuzzFaultSchedule drives a small query through randomized fault
// schedules: whatever the platform throws at it, the query must return
// exactly k items without panicking and with exact spend accounting.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(20), uint8(40), uint8(10), uint8(10), uint8(30), uint8(30), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(12))
	f.Add(int64(3), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, drop, dup, flip, mispair, malformed, postE, collectE, failAfter uint8) {
		// Scale byte inputs to probabilities bounded away from 1 so runs
		// terminate quickly; FailAfterPosts 0 disables the cliff.
		p := func(b uint8) float64 { return float64(b) / 255 * 0.4 }
		cfg := crowd.FaultConfig{
			Seed: seed, Drop: p(drop), Duplicate: p(dup), Flip: p(flip),
			Mispair: p(mispair), Malformed: p(malformed),
			PostError: p(postE), CollectError: p(collectE),
			FailAfterPosts: int(failAfter % 40),
		}
		const n, k = 10, 3
		r, _, _ := chaosStack(n, 1000+seed, cfg, chaosPolicy(3, 0), 2)
		res := Run(NewSPR(), r, k)
		if len(res.TopK) != k {
			t.Fatalf("returned %d items, want %d", len(res.TopK), k)
		}
		e := r.Engine()
		if n := len(trail(e)); e.TMC() != int64(n) {
			t.Fatalf("accounting drift: TMC %d != %d logged microtasks", e.TMC(), n)
		}
	})
}

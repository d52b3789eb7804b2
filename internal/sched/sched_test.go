package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdtopk/internal/obs"
)

// TestInlineModeRunsSynchronously: with one worker, Submit executes the
// task on the calling goroutine before returning, and completions arrive
// in submission order — the sequential-determinism contract.
func TestInlineModeRunsSynchronously(t *testing.T) {
	s := New(1)
	q := s.Open()
	defer q.Close()
	var order []int64
	for tag := int64(0); tag < 5; tag++ {
		tg := tag
		q.Submit(Task{Tag: tg, Run: func() { order = append(order, tg) }})
	}
	for i := int64(0); i < 5; i++ {
		if got := q.Next(); got != i {
			t.Fatalf("completion %d: got tag %d", i, got)
		}
	}
	for i, tg := range order {
		if tg != int64(i) {
			t.Fatalf("inline execution out of order: %v", order)
		}
	}
	if s.Tasks() != 5 {
		t.Fatalf("Tasks() = %d, want 5", s.Tasks())
	}
}

// TestPoolDeliversEveryCompletion: every Submit yields exactly one Next,
// regardless of pool interleaving.
func TestPoolDeliversEveryCompletion(t *testing.T) {
	s := New(4)
	q := s.Open()
	defer q.Close()
	const n = 200
	var ran atomic.Int64
	for tag := int64(0); tag < n; tag++ {
		q.Submit(Task{Tag: tag, Run: func() { ran.Add(1) }})
	}
	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		tag := q.Next()
		if seen[tag] {
			t.Fatalf("tag %d delivered twice", tag)
		}
		seen[tag] = true
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
}

// TestRoundRobinFairness: two queries submitting together both finish;
// the narrow query is not starved behind the wide one.
func TestRoundRobinFairness(t *testing.T) {
	s := New(2)
	qa, qb := s.Open(), s.Open()
	defer qa.Close()
	defer qb.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 100; i++ {
			qa.Submit(Task{Tag: i, Run: func() { time.Sleep(time.Microsecond) }})
		}
		qa.Drain(100)
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); i < 5; i++ {
			qb.Submit(Task{Tag: i, Run: func() {}})
			qb.Next()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("queries did not complete; scheduler starved or deadlocked")
	}
}

// TestWorkerLifecycle: workers exist only while a query is open, so idle
// sessions hold no goroutines; reopening respawns them.
func TestWorkerLifecycle(t *testing.T) {
	s := New(4)
	for round := 0; round < 3; round++ {
		q := s.Open()
		q.Submit(Task{Tag: 1, Run: func() {}})
		q.Next()
		q.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			live := s.live
			s.mu.Unlock()
			if live == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d workers still alive after last query closed", round, live)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestStragglerStealCounter: one slow chain plus fast later-round chains
// must record steals — the pool kept working past the straggler.
func TestStragglerStealCounter(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(4)
	s.SetInstruments(NewInstruments(reg))
	q := s.Open()
	defer q.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	q.Submit(Task{Tag: 0, Round: 1, Run: func() { close(started); <-release }})
	<-started // the straggler is provably running, not merely queued
	for tag := int64(1); tag <= 8; tag++ {
		q.Submit(Task{Tag: tag, Round: 2, Run: func() {}})
	}
	q.Drain(8)
	close(release)
	q.Next()
	if got := reg.Counter(obs.MSchedSteals).Value(); got == 0 {
		t.Fatal("no straggler steals recorded despite round-2 tasks passing a running round-1 task")
	}
}

// TestStealCountsExactlyOne: with instruments wired, a later-round task
// that starts while an earlier round is running counts exactly one
// steal. A same-round task beside the straggler, and a later-round task
// that starts after the straggler finished, count none.
func TestStealCountsExactlyOne(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(2)
	s.SetInstruments(NewInstruments(reg))
	q := s.Open()
	defer q.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	q.Submit(Task{Tag: 0, Round: 1, Run: func() { close(started); <-release }})
	<-started
	q.Submit(Task{Tag: 1, Round: 1, Run: func() {}}) // same round: no steal
	q.Next()
	q.Submit(Task{Tag: 2, Round: 2, Run: func() {}}) // passes the running round 1
	q.Next()
	close(release)
	q.Next()
	q.Submit(Task{Tag: 3, Round: 3, Run: func() {}}) // round 1 is done: no steal
	q.Next()
	if got := reg.Counter(obs.MSchedSteals).Value(); got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
}

// TestUninstrumentedPoolKeepsNoRounds: only the Steals counter reads the
// running-round list, so a pool without instruments never fills it.
func TestUninstrumentedPoolKeepsNoRounds(t *testing.T) {
	s := New(2)
	q := s.Open()
	defer q.Close()
	running := -1
	q.Submit(Task{Tag: 0, Round: 1, Run: func() {
		s.mu.Lock()
		running = len(q.rounds)
		s.mu.Unlock()
	}})
	q.Next()
	if running != 0 {
		t.Fatalf("running rounds seen from inside a task = %d, want 0 without instruments", running)
	}
}

// TestDisabledInstrumentsAllocFree: with instruments off, the pool path
// allocates nothing per task beyond the caller's own closure. This is the
// scheduler's extension of the repo's disabled-telemetry alloc-regression
// suite.
func TestDisabledInstrumentsAllocFree(t *testing.T) {
	s := New(1) // inline: measures the Submit/Next bookkeeping itself
	q := s.Open()
	defer q.Close()
	task := Task{Tag: 7, Run: func() {}}
	// Warm up the pending/done slices so steady state is measured.
	for i := 0; i < 4; i++ {
		q.Submit(task)
		q.Next()
	}
	avg := testing.AllocsPerRun(100, func() {
		q.Submit(task)
		q.Next()
	})
	if avg > 0 {
		t.Fatalf("disabled-instrument Submit+Next allocates %.1f per task, want 0", avg)
	}
}

// TestCrossQueryPriorityDequeue pins the cross-query dequeue order: with
// one worker serializing the backlog, every task of a higher-priority
// query runs before any task of a lower-priority query — even when the
// low-priority tasks were submitted first.
func TestCrossQueryPriorityDequeue(t *testing.T) {
	s := New(2)
	qGate, qHi, qLo := s.Open(), s.Open(), s.Open()
	defer qGate.Close()
	defer qHi.Close()
	defer qLo.Close()

	// Hold both workers so the backlog builds before anything is picked;
	// release only one, so a single worker serializes the dequeue.
	g1, g2 := make(chan struct{}), make(chan struct{})
	started := make(chan struct{}, 2)
	qGate.Submit(Task{Tag: 0, Run: func() { started <- struct{}{}; <-g1 }})
	qGate.Submit(Task{Tag: 1, Run: func() { started <- struct{}{}; <-g2 }})
	<-started
	<-started

	qHi.SetPriority(5)
	var mu sync.Mutex
	var order []string
	record := func(label string) func() {
		return func() { mu.Lock(); order = append(order, label); mu.Unlock() }
	}
	// Low-priority work enters the queue first and must still lose.
	for tag := int64(0); tag < 5; tag++ {
		qLo.Submit(Task{Tag: tag, Run: record("lo")})
	}
	for tag := int64(0); tag < 5; tag++ {
		qHi.Submit(Task{Tag: tag, Run: record("hi")})
	}

	close(g2)
	qHi.Drain(5)
	qLo.Drain(5)
	close(g1)
	qGate.Drain(2)

	for i, label := range order {
		want := "hi"
		if i >= 5 {
			want = "lo"
		}
		if label != want {
			t.Fatalf("dequeue order %v: position %d is %q, want %q", order, i, label, want)
		}
	}
}

// TestDeadlineOrdersEqualPriority: among equal-priority queries, the one
// with the earliest deadline is served first, and a query without a
// deadline ranks after any query that has one.
func TestDeadlineOrdersEqualPriority(t *testing.T) {
	s := New(2)
	qGate := s.Open()
	qFar, qNear, qNone := s.Open(), s.Open(), s.Open()
	defer qGate.Close()
	defer qFar.Close()
	defer qNear.Close()
	defer qNone.Close()

	g1, g2 := make(chan struct{}), make(chan struct{})
	started := make(chan struct{}, 2)
	qGate.Submit(Task{Tag: 0, Run: func() { started <- struct{}{}; <-g1 }})
	qGate.Submit(Task{Tag: 1, Run: func() { started <- struct{}{}; <-g2 }})
	<-started
	<-started

	now := time.Now()
	qFar.SetDeadline(now.Add(time.Hour))
	qNear.SetDeadline(now.Add(time.Minute))

	var mu sync.Mutex
	var order []string
	record := func(label string) func() {
		return func() { mu.Lock(); order = append(order, label); mu.Unlock() }
	}
	// Submission order is deliberately worst-case for the expectation.
	for tag := int64(0); tag < 3; tag++ {
		qNone.Submit(Task{Tag: tag, Run: record("none")})
		qFar.Submit(Task{Tag: tag, Run: record("far")})
		qNear.Submit(Task{Tag: tag, Run: record("near")})
	}

	close(g2)
	qNear.Drain(3)
	qFar.Drain(3)
	qNone.Drain(3)
	close(g1)
	qGate.Drain(2)

	want := []string{"near", "near", "near", "far", "far", "far", "none", "none", "none"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// TestCancelDropsPendingWithoutRunning: Cancel drops every queued task —
// none of them executes, yet every tag is still delivered so the driver's
// submit/next bookkeeping stays balanced — and the drop counter records
// them. Post-cancel submissions short-circuit the same way.
func TestCancelDropsPendingWithoutRunning(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(2)
	s.SetInstruments(NewInstruments(reg))
	qGate := s.Open()
	q := s.Open()
	defer qGate.Close()
	defer q.Close()

	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	hold := func() { started <- struct{}{}; <-gate }
	qGate.Submit(Task{Tag: 0, Run: hold})
	qGate.Submit(Task{Tag: 1, Run: hold})
	<-started
	<-started

	const n = 6
	var ran atomic.Int64
	for tag := int64(0); tag < n; tag++ {
		q.Submit(Task{Tag: tag, Run: func() { ran.Add(1) }})
	}
	q.Cancel()

	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		tag := q.Next()
		if seen[tag] {
			t.Fatalf("tag %d delivered twice", tag)
		}
		seen[tag] = true
	}
	if ran.Load() != 0 {
		t.Fatalf("%d dropped tasks ran anyway", ran.Load())
	}
	if got := reg.Counter(obs.MSchedDropped).Value(); got != n {
		t.Fatalf("dropped counter = %d, want %d", got, n)
	}

	// A submit after Cancel is dropped the same way: delivered, not run.
	q.Submit(Task{Tag: 99, Run: func() { ran.Add(1) }})
	if tag := q.Next(); tag != 99 {
		t.Fatalf("post-cancel completion tag = %d, want 99", tag)
	}
	if ran.Load() != 0 {
		t.Fatal("post-cancel submission ran anyway")
	}
	if got := reg.Counter(obs.MSchedDropped).Value(); got != n+1 {
		t.Fatalf("dropped counter = %d, want %d", got, n+1)
	}

	close(gate)
	qGate.Drain(2)
}

// TestCancelInlineMode: in inline mode the same contract holds without a
// pool — post-cancel submissions deliver their tag unrun.
func TestCancelInlineMode(t *testing.T) {
	s := New(1)
	q := s.Open()
	defer q.Close()
	q.Cancel()
	if !q.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	var ran atomic.Int64
	q.Submit(Task{Tag: 3, Run: func() { ran.Add(1) }})
	if tag := q.Next(); tag != 3 {
		t.Fatalf("completion tag = %d, want 3", tag)
	}
	if ran.Load() != 0 {
		t.Fatal("canceled inline submission ran anyway")
	}
}

// TestBusyNsTracksPoolWork: with instruments wired, pool utilization
// accounting accumulates the wall-clock time spent inside tasks; without
// them the pool does not time its tasks at all.
func TestBusyNsTracksPoolWork(t *testing.T) {
	run := func(s *Scheduler) {
		q := s.Open()
		defer q.Close()
		for tag := int64(0); tag < 4; tag++ {
			q.Submit(Task{Tag: tag, Run: func() { time.Sleep(2 * time.Millisecond) }})
		}
		q.Drain(4)
	}
	s := New(2)
	s.SetInstruments(NewInstruments(obs.NewRegistry()))
	run(s)
	if got := s.BusyNs(); got < (4 * time.Millisecond).Nanoseconds() {
		t.Fatalf("BusyNs = %d, want at least 4ms of tracked work", got)
	}
	bare := New(2)
	run(bare)
	if got := bare.BusyNs(); got != 0 {
		t.Fatalf("uninstrumented BusyNs = %d, want 0", got)
	}
	if got := bare.Tasks(); got != 4 {
		t.Fatalf("uninstrumented Tasks = %d, want 4", got)
	}
}

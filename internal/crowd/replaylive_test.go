package crowd

import (
	"math/rand"
	"testing"
)

func TestReplayThenLiveFullLogSpendsNothing(t *testing.T) {
	// Record a run, then resume it from the complete log: every demand is
	// covered by the checkpoint, so zero microtasks reach the live oracle
	// and the resumed bags match the originals exactly.
	e := newTestEngine(8, 50)
	enableLog(e)
	v1 := e.Draw(1, 4, 60)
	w1 := e.Draw(5, 2, 25)
	g1, _ := e.Grade(3)

	rl := NewReplayThenLive(logOf(e), gaussOracle{n: 8, sigma: 0.2})
	e2 := NewEngine(rl, rand.New(rand.NewSource(99)))
	v2 := e2.Draw(1, 4, 60)
	w2 := e2.Draw(5, 2, 25)
	g2, _ := e2.Grade(3)

	if v1 != v2 || w1 != w2 {
		t.Errorf("resumed bags differ: %+v vs %+v, %+v vs %+v", v2, v1, w2, w1)
	}
	if g1 != g2 {
		t.Errorf("resumed grade %v != recorded %v", g2, g1)
	}
	if n := rl.LiveTasks(); n != 0 {
		t.Errorf("full-log resume bought %d live tasks, want 0", n)
	}
}

func TestReplayThenLivePartialLogBuysOnlyTheRemainder(t *testing.T) {
	e := newTestEngine(8, 51)
	enableLog(e)
	e.Draw(0, 3, 40)

	// Truncate the checkpoint: only the first 25 judgments survived.
	log := logOf(e)[:25]
	rl := NewReplayThenLive(log, gaussOracle{n: 8, sigma: 0.2})
	e2 := NewEngine(rl, rand.New(rand.NewSource(100)))
	v := e2.Draw(0, 3, 40)
	if v.N != 40 {
		t.Fatalf("resumed bag has %d samples, want 40", v.N)
	}
	if n := rl.LiveTasks(); n != 15 {
		t.Errorf("live spend = %d, want exactly the 15 missing", n)
	}
	if r := rl.ReplayedRemaining(0, 3); r != 0 {
		t.Errorf("checkpoint not fully consumed: %d answers left", r)
	}
}

func TestReplayThenLiveScalarPath(t *testing.T) {
	e := newTestEngine(6, 52)
	enableLog(e)
	e.Draw(2, 5, 2)

	rl := NewReplayThenLive(logOf(e), gaussOracle{n: 6, sigma: 0.2})
	rng := rand.New(rand.NewSource(5))
	rl.Preference(rng, 2, 5)
	rl.Preference(rng, 2, 5)
	if n := rl.LiveTasks(); n != 0 {
		t.Fatalf("replayed scalar calls bought %d live tasks", n)
	}
	// Third call exceeds the checkpoint and must hit the live oracle.
	rl.Preference(rng, 2, 5)
	if n := rl.LiveTasks(); n != 1 {
		t.Errorf("live spend = %d, want 1", n)
	}
}

func TestReplayThenLiveRequiresLiveOracle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil live oracle accepted")
		}
	}()
	NewReplayThenLive(nil, nil)
}

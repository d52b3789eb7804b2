package crowd

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// captureSink copies every batch it receives (the slice is only valid
// during the call) and remembers the batch boundaries.
type captureSink struct {
	recs    []Record
	batches int
}

func (c *captureSink) Record(recs []Record) {
	c.recs = append(c.recs, recs...)
	c.batches++
}

func TestLogSinkStreamsEveryRecord(t *testing.T) {
	buy := func(e *Engine) {
		e.Draw(1, 4, 30)
		e.Draw(5, 2, 12)
		e.Grade(3)
	}
	ref := newTestEngine(8, 31)
	mem := enableLog(ref)
	buy(ref)
	e := newTestEngine(8, 31)
	sink := &captureSink{}
	e.SetLogSink(sink)
	buy(e)

	if !reflect.DeepEqual(sink.recs, mem.Log()) {
		t.Fatalf("sink saw\n%v\nthe in-memory trail holds\n%v", sink.recs, mem.Log())
	}
	if int64(len(sink.recs)) != e.TMC() || e.Logged() != e.TMC() {
		t.Fatalf("sink holds %d records, Logged %d, TMC %d", len(sink.recs), e.Logged(), e.TMC())
	}
	if logOf(e) != nil {
		t.Fatal("the engine kept an in-memory trail beside the sink")
	}

	// A new trail replaces the old one; detaching stops the stream and
	// the count.
	seen := len(sink.recs)
	next := enableLog(e)
	e.Draw(0, 7, 5)
	e.SetLogSink(nil)
	e.Draw(0, 7, 5)
	if len(sink.recs) != seen {
		t.Fatalf("replaced sink still received records")
	}
	if len(next.Log()) != 5 || e.LogSink() != nil {
		t.Fatalf("replacing trail holds %d records, want 5", len(next.Log()))
	}
	if e.Logged() != int64(seen)+5 {
		t.Fatalf("Logged = %d, want %d: a detached engine counts nothing", e.Logged(), seen+5)
	}
}

func TestLogSinkChargedTasksOnlyOnShortfall(t *testing.T) {
	// Under a failing oracle only delivered answers are charged; the sink
	// must see exactly those, never the refunded slots.
	e := NewEngine(&brittleOracle{n: 5, supply: 20}, rand.New(rand.NewSource(7)))
	sink := &captureSink{}
	e.SetLogSink(sink)
	e.Draw(0, 1, 50)
	if len(sink.recs) != 20 {
		t.Fatalf("sink saw %d records, want the 20 delivered", len(sink.recs))
	}
	if int64(len(sink.recs)) != e.TMC() {
		t.Fatalf("sink records %d != TMC %d", len(sink.recs), e.TMC())
	}
}

func TestReplayThenLivePartialDeliversReplayedPrefix(t *testing.T) {
	// Record 25 judgments for one pair, then resume against a live oracle
	// that can only supply 5 more before failing: the replayed prefix must
	// arrive in full — history is already paid for and cannot fail — and
	// only the shortfall is the live oracle's.
	e := newTestEngine(8, 53)
	enableLog(e)
	e.Draw(0, 3, 40)
	log := logOf(e)[:25]

	rl := NewReplayThenLive(log, &brittleOracle{n: 8, supply: 5})
	rng := rand.New(rand.NewSource(9))
	dst := make([]float64, 40)
	filled, err := rl.PreferencesPartial(rng, 0, 3, dst)
	if filled != 30 {
		t.Fatalf("filled = %d, want 25 replayed + 5 live", filled)
	}
	if !errors.Is(err, errMarketDown) {
		t.Fatalf("err = %v, want the live oracle's failure", err)
	}
	if got := rl.ReplayedServed(); got != 25 {
		t.Fatalf("ReplayedServed = %d, want 25", got)
	}
	if got := rl.LiveTasks(); got != 5 {
		t.Fatalf("LiveTasks = %d, want 5 — replayed answers are free", got)
	}

	// Replay exhausted, live dead: nothing arrives, error persists.
	filled, err = rl.PreferencesPartial(rng, 0, 3, dst[:4])
	if filled != 0 || err == nil {
		t.Fatalf("after exhaustion: filled=%d err=%v, want 0 and an error", filled, err)
	}
}

func TestReplayThenLivePartialFullyReplayed(t *testing.T) {
	e := newTestEngine(6, 54)
	enableLog(e)
	e.Draw(2, 5, 10)

	rl := NewReplayThenLive(logOf(e), &brittleOracle{n: 6, supply: 0})
	dst := make([]float64, 10)
	filled, err := rl.PreferencesPartial(rand.New(rand.NewSource(1)), 2, 5, dst)
	if filled != 10 || err != nil {
		t.Fatalf("filled=%d err=%v, want all 10 from replay with no error", filled, err)
	}
	if rl.LiveTasks() != 0 {
		t.Fatalf("full replay touched the live oracle: %d tasks", rl.LiveTasks())
	}
	if rl.ReplayedServed() != 10 {
		t.Fatalf("ReplayedServed = %d, want 10", rl.ReplayedServed())
	}
}

func TestHoldLogReleasesInHoldOrder(t *testing.T) {
	held := [][2]int{{4, 5}, {0, 1}, {3, 2}}
	// want is the log a sequential run makes: the unheld pair first (it
	// is logged at purchase), then each held pair's purchases in turn.
	seq := newTestEngine(8, 61)
	enableLog(seq)
	seq.Draw(6, 7, 3)
	for _, pr := range held {
		seq.Draw(pr[0], pr[1], 5)
		seq.DrawOne(pr[1], pr[0])
	}
	want := logOf(seq)

	for rep := 0; rep < 20; rep++ {
		e := newTestEngine(8, 61)
		sink := &captureSink{}
		e.SetLogSink(sink)
		h := e.HoldLog(len(held), func(idx int) (int, int) { return held[idx][0], held[idx][1] })
		var wg sync.WaitGroup
		for idx := len(held) - 1; idx >= 0; idx-- {
			pr := held[idx]
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Draw(pr[0], pr[1], 5)
				e.DrawOne(pr[1], pr[0])
			}()
		}
		wg.Wait()
		e.Draw(6, 7, 3)
		if got := len(sink.recs); got != 3 || e.Logged() != 3 {
			t.Fatalf("rep %d: %d records (Logged %d) reached the sink before Release, want only the 3 unheld", rep, got, e.Logged())
		}
		h.Release()
		if e.Logged() != e.TMC() {
			t.Fatalf("rep %d: Logged %d after Release, TMC %d", rep, e.Logged(), e.TMC())
		}
		if !reflect.DeepEqual(sink.recs, want) {
			t.Fatalf("rep %d: sink saw\n%v\nwant\n%v", rep, sink.recs, want)
		}
	}
}

func TestHoldLogNestedAndDisabled(t *testing.T) {
	e := newTestEngine(4, 62)
	pair01 := func(int) (int, int) { return 0, 1 }
	if h := e.HoldLog(1, pair01); h != nil {
		t.Fatalf("HoldLog without a trail returned %v, want nil", h)
	}
	var none *HeldLog
	none.Release() // a nil holder is a no-op

	enableLog(e)
	outer := e.HoldLog(1, pair01)
	inner := e.HoldLog(1, func(int) (int, int) { return 1, 0 })
	e.Draw(0, 1, 4)
	inner.Release()
	if got := len(logOf(e)); got != 0 {
		t.Fatalf("pair still held by the outer holder logged %d records", got)
	}
	outer.Release()
	if got := len(logOf(e)); got != 4 {
		t.Fatalf("log holds %d records after the last Release, want 4", got)
	}
	e.Draw(0, 1, 2)
	if got := len(logOf(e)); got != 6 {
		t.Fatalf("released pair logged %d records, want 6", got)
	}
}

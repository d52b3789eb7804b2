package crowd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// enableLog attaches a fresh in-memory trail to e and returns it.
func enableLog(e *Engine) *MemLog {
	m := new(MemLog)
	e.SetLogSink(m)
	return m
}

// logOf returns the records of e's in-memory trail (nil without one).
func logOf(e *Engine) []Record {
	m, _ := e.LogSink().(*MemLog)
	return m.Log()
}

func TestLogDisabledByDefault(t *testing.T) {
	e := newTestEngine(5, 41)
	e.Draw(0, 1, 10)
	if got := logOf(e); len(got) != 0 {
		t.Errorf("log has %d records without a trail", len(got))
	}
}

func TestLogRecordsEveryMicrotask(t *testing.T) {
	e := newTestEngine(5, 42)
	enableLog(e)
	e.Draw(0, 1, 10)
	e.Tick(1)
	e.DrawOne(2, 1)
	e.Grade(3)
	log := logOf(e)
	if len(log) != 12 {
		t.Fatalf("log has %d records, want 12", len(log))
	}
	if int64(len(log)) != e.TMC() {
		t.Errorf("log length %d != TMC %d", len(log), e.TMC())
	}
	// The first 10 records are pair (0,1) at round 0.
	for _, r := range log[:10] {
		if r.I != 0 || r.J != 1 || r.Round != 0 || r.IsGraded() {
			t.Fatalf("unexpected record %+v", r)
		}
	}
	// The DrawOne happened after the tick and is stored canonically.
	if r := log[10]; r.I != 1 || r.J != 2 || r.Round != 1 {
		t.Errorf("DrawOne record %+v", r)
	}
	// The graded task marks J = -1.
	if r := log[11]; !r.IsGraded() || r.I != 3 {
		t.Errorf("grade record %+v", r)
	}
}

func TestLogRoundTripJSON(t *testing.T) {
	e := newTestEngine(6, 43)
	enableLog(e)
	e.Draw(0, 5, 7)
	e.Grade(2)

	var buf bytes.Buffer
	if err := e.LogSink().(*MemLog).WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(logOf(e)) {
		t.Fatalf("round trip changed length: %d vs %d", len(back), len(logOf(e)))
	}
	for i := range back {
		if back[i] != logOf(e)[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, back[i], logOf(e)[i])
		}
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadLogRejectsCorruptInput(t *testing.T) {
	// Audit logs are untrusted: crashes truncate them, storage corrupts
	// them. Every malformed shape must be rejected, never replayed.
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"valid empty", `[]`, true},
		{"valid pairwise", `[{"round":0,"i":0,"j":1,"value":0.5}]`, true},
		{"valid graded", `[{"round":2,"i":3,"j":-1,"value":4.2}]`, true},
		{"valid boundary values", `[{"round":0,"i":0,"j":1,"value":-1},{"round":0,"i":0,"j":1,"value":1}]`, true},
		{"truncated mid-record", `[{"round":0,"i":0,"j":1,"va`, false},
		{"truncated mid-array", `[{"round":0,"i":0,"j":1,"value":0.5},`, false},
		{"trailing garbage", `[] {"more":"data"}`, false},
		{"trailing second array", `[][]`, false},
		{"object not array", `{"round":0}`, false},
		{"value above range", `[{"round":0,"i":0,"j":1,"value":1.5}]`, false},
		{"value below range", `[{"round":0,"i":0,"j":1,"value":-1.01}]`, false},
		{"self pair", `[{"round":0,"i":2,"j":2,"value":0.5}]`, false},
		{"negative round", `[{"round":-1,"i":0,"j":1,"value":0.5}]`, false},
		{"negative item", `[{"round":0,"i":-3,"j":1,"value":0.5}]`, false},
		{"graded bad sentinel", `[{"round":0,"i":0,"j":-2,"value":1}]`, false},
		{"string value", `[{"round":0,"i":0,"j":1,"value":"0.5"}]`, false},
		{"corrupt record after valid ones", `[{"round":0,"i":0,"j":1,"value":0.5},{"round":0,"i":0,"j":0,"value":0.5}]`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadLog(strings.NewReader(tc.input))
			if tc.ok && err != nil {
				t.Fatalf("valid log rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("corrupt log accepted: %v", recs)
				}
				if recs != nil {
					t.Fatalf("corrupt log returned records alongside the error")
				}
			}
		})
	}
}

func TestReplayServesRecordedAnswers(t *testing.T) {
	// Record a run, then replay it: the same draws yield the same bags at
	// zero oracle involvement.
	e := newTestEngine(6, 44)
	enableLog(e)
	v1 := e.Draw(2, 4, 50)
	g1, _ := e.Grade(1)

	rp := NewReplay(6, logOf(e))
	if rp.NumItems() != 6 {
		t.Fatalf("NumItems = %d", rp.NumItems())
	}
	if got := rp.Remaining(2, 4); got != 50 {
		t.Fatalf("Remaining = %d, want 50", got)
	}
	e2 := NewEngine(rp, rand.New(rand.NewSource(1)))
	v2 := e2.Draw(2, 4, 50)
	if v1.Mean != v2.Mean || v1.SD != v2.SD || v1.N != v2.N {
		t.Errorf("replayed bag differs: %+v vs %+v", v2, v1)
	}
	if g2, _ := e2.Grade(1); g2 != g1 {
		t.Errorf("replayed grade %v != original %v", g2, g1)
	}
	if got := rp.Remaining(2, 4); got != 0 {
		t.Errorf("Remaining after replay = %d", got)
	}
}

func TestReplayOrientation(t *testing.T) {
	e := newTestEngine(4, 45)
	enableLog(e)
	e.Draw(3, 0, 20) // drawn in flipped orientation
	rp := NewReplay(4, logOf(e))
	e2 := NewEngine(rp, rand.New(rand.NewSource(2)))
	v := e2.Draw(0, 3, 20) // replayed in canonical orientation
	if v.Mean != e.View(0, 3).Mean {
		t.Errorf("orientation broken: %v vs %v", v.Mean, e.View(0, 3).Mean)
	}
}

func TestReplayPanicsWhenExhausted(t *testing.T) {
	e := newTestEngine(4, 46)
	enableLog(e)
	e.Draw(0, 1, 3)
	rp := NewReplay(4, logOf(e))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		rp.Preference(rng, 0, 1)
	}
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("exhausted pair", func() { rp.Preference(rng, 0, 1) })
	assertPanics("unknown pair", func() { rp.Preference(rng, 2, 3) })
	assertPanics("unknown grade", func() { rp.Grade(rng, 0) })
}

// memLogRecords is the trail length the MemLog growth tests build, in
// engine-sized batches of memLogBatch.
const (
	memLogRecords = 10000
	memLogBatch   = 30
)

// fillMemLog hands a fresh MemLog memLogRecords records in batches,
// record k carrying Round k.
func fillMemLog() *MemLog {
	m := new(MemLog)
	batch := make([]Record, memLogBatch)
	for k := 0; k < memLogRecords; k += memLogBatch {
		n := min(memLogBatch, memLogRecords-k)
		for b := range batch[:n] {
			batch[b] = Record{Round: int64(k + b), I: b, J: b + 1, Value: 0.5}
		}
		m.Record(batch[:n])
	}
	return m
}

// TestMemLogGrowthAllocs guards the trail's growth: doubling allocates
// about 3.1 records per record kept at this length (99 B), where append's
// own growth allocated 4.1 (131 B), heading for five as the trail grows
// and append settles at 1.25×.
func TestMemLogGrowthAllocs(t *testing.T) {
	const recSize = 32 // Round, I, J and Value: four 8-byte words
	b := bytesPerRun(3, func() { fillMemLog() }) / memLogRecords
	if bound := 3.5 * recSize; b > bound {
		t.Errorf("MemLog of %d records: %.0f B allocated per record, want <= %.0f", memLogRecords, b, bound)
	}
}

// TestMemLogOrderAcrossGrowths checks that the trail keeps purchase order
// through every regrowth, and that a slice Log handed out before a
// regrowth still reads the same records afterwards.
func TestMemLogOrderAcrossGrowths(t *testing.T) {
	m := new(MemLog)
	batch := make([]Record, memLogBatch)
	var early []Record
	for k := 0; k < memLogRecords; k += memLogBatch {
		for b := range batch {
			batch[b] = Record{Round: int64(k + b)}
		}
		m.Record(batch)
		if k == 10*memLogBatch {
			early = m.Log()
		}
	}
	for k, r := range m.Log() {
		if r.Round != int64(k) {
			t.Fatalf("record %d has Round %d: purchase order lost", k, r.Round)
		}
	}
	for k, r := range early {
		if r.Round != int64(k) {
			t.Fatalf("earlier Log slice, record %d has Round %d after regrowth", k, r.Round)
		}
	}
	if len(early) != 11*memLogBatch {
		t.Fatalf("earlier Log slice has %d records, want %d", len(early), 11*memLogBatch)
	}
	mine := append(m.Log(), Record{Round: -1})
	m.Record(batch[:1])
	if mine[len(mine)-1].Round != -1 {
		t.Fatal("the trail's next record overwrote a caller's append to Log's slice")
	}
}

package log

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func lines(buf *bytes.Buffer) []map[string]any {
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			panic("bad JSONL line " + ln + ": " + err.Error())
		}
		out = append(out, m)
	}
	return out
}

func TestOffLoggerWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	for _, lg := range []*slog.Logger{
		New(&buf, levelOff), New(nil, slog.LevelDebug), Discard(), Component(nil, "x"),
		Limited(Discard(), "k", 1, 1),
	} {
		lg.Debug("a")
		lg.Info("b", "k", 1)
		lg.Warn("c")
		lg.Error("d", "err", nil)
		lg.With("q", "x").Error("e")
		if lg.Enabled(context.Background(), slog.LevelError) {
			t.Fatal("off logger reports enabled")
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("off logger wrote %q", buf.String())
	}
}

// TestLogLineGolden pins the exact bytes of one line per value kind the
// call sites pass. The expected lines are what the package wrote before
// it moved onto log/slog, so the move changed no byte of them. Two kinds
// of input are kept out of the table on purpose, because slog writes
// them differently though still as valid JSON: U+2028/U+2029 and invalid
// UTF-8 (slog escapes them, the old encoder copied them raw), and floats
// at or above 1e6 or below 1e-4 (slog formats floats as encoding/json
// does, the old encoder as strconv's shortest 'g'). No call site logs
// either.
func TestLogLineGolden(t *testing.T) {
	clk := time.Date(2026, 3, 14, 9, 26, 53, 123450000, time.FixedZone("UTC+5:30", 5*3600+30*60))
	var buf bytes.Buffer
	lg := newAt(&buf, slog.LevelDebug, func() time.Time { return clk })
	lim := Limited(lg, "golden", 1, 1)
	cases := []struct {
		emit func()
		want string
	}{
		{func() { lg.Info("string", "k", "v", "empty", "") },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"string","k":"v","empty":""}`},
		{func() { lg.Info("escapes a\"b\\c\nd\te\rf\x01g\x1fh", "k", "<tag> & 'q'") },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"escapes a\"b\\c\nd\te\rf\u0001g\u001fh","k":"<tag> & 'q'"}`},
		{func() { lg.Info("int", "n", 42, "neg", -7, "zero", 0) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"int","n":42,"neg":-7,"zero":0}`},
		{func() { lg.Info("int64", "n", int64(-9223372036854775808)) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"int64","n":-9223372036854775808}`},
		{func() { lg.Info("uint64", "n", uint64(18446744073709551615)) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"uint64","n":18446744073709551615}`},
		{func() { lg.Info("float64", "half", 0.5, "goal", 0.95, "big", 1e21, "neg", -2.25, "zero", 0.0) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"float64","half":0.5,"goal":0.95,"big":1e+21,"neg":-2.25,"zero":0}`},
		{func() { lg.Info("bool", "yes", true, "no", false) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"bool","yes":true,"no":false}`},
		{func() {
			lg.Info("duration", "wall", 1500*time.Millisecond, "zero", time.Duration(0), "long", 90*time.Minute+time.Microsecond)
		}, `{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"duration","wall":"1.5s","zero":"0s","long":"1h30m0.000001s"}`},
		{func() { lg.Error("error", "err", errors.New(`bad <tag> & "quote"`)) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"error","msg":"error","err":"bad <tag> & \"quote\""}`},
		{func() { lg.Error("wrapped", "err", fmt.Errorf("open: %w", errors.New("x\ny"))) },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"error","msg":"wrapped","err":"open: x\ny"}`},
		{func() {
			var err error
			lg.Info("nil", "err", err, "v", nil)
		}, `{"ts":"2026-03-14T03:56:53.12345Z","level":"info","msg":"nil","err":null,"v":null}`},
		{func() { lg.Debug("debug") },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"debug","msg":"debug"}`},
		{func() { lg.Warn("warn") },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"warn","msg":"warn"}`},
		{func() { lg.With("component", "sched", "query", "q1").With("n", 3).Warn("bound", "k", "v") },
			`{"ts":"2026-03-14T03:56:53.12345Z","level":"warn","msg":"bound","component":"sched","query":"q1","n":3,"k":"v"}`},
		// Last: it moves the clock. Two lines are dropped, and the next
		// one to pass, a bound child of the limited logger, reports them.
		{func() {
			lim.Warn("first")
			lim.Warn("dropped")
			lim.Warn("dropped")
			buf.Reset()
			clk = clk.Add(time.Second)
			lim.With("component", "platform").Warn("passes", "batch", 7)
		}, `{"ts":"2026-03-14T03:56:54.12345Z","level":"warn","msg":"passes","component":"platform","batch":7,"suppressed":2}`},
	}
	for n, c := range cases {
		buf.Reset()
		c.emit()
		if got := buf.String(); got != c.want+"\n" {
			t.Errorf("case %d:\n got %s\nwant %s", n, got, c.want)
		}
	}
}

func TestLevelsAndFields(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo)
	l.Debug("hidden")
	l.Info("started", "query", "q1", "n", 42, "ratio", 0.5, "ok", true, "d", 1500*time.Millisecond)
	l.Error("boom", "err", errors.New("x"))
	got := lines(&buf)
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2: %s", len(got), buf.String())
	}
	rec := got[0]
	if rec["level"] != "info" || rec["msg"] != "started" || rec["query"] != "q1" {
		t.Fatalf("record = %v", rec)
	}
	if rec["n"] != float64(42) || rec["ratio"] != 0.5 || rec["ok"] != true || rec["d"] != "1.5s" {
		t.Fatalf("values = %v", rec)
	}
	if _, hasTS := rec["ts"].(string); !hasTS {
		t.Fatalf("missing ts: %v", rec)
	}
	if got[1]["level"] != "error" || got[1]["err"] != "x" {
		t.Fatalf("error record = %v", got[1])
	}
}

func TestWithBindsAndShares(t *testing.T) {
	var buf bytes.Buffer
	root := New(&buf, slog.LevelInfo)
	q := root.With("query", "q7", "span", "s3")
	q.Info("phase", "name", "select")
	root.Info("bare")
	got := lines(&buf)
	if len(got) != 2 {
		t.Fatalf("lines = %d: %s", len(got), buf.String())
	}
	if got[0]["query"] != "q7" || got[0]["span"] != "s3" || got[0]["name"] != "select" {
		t.Fatalf("bound fields missing: %v", got[0])
	}
	if _, has := got[1]["query"]; has {
		t.Fatalf("root line inherited child fields: %v", got[1])
	}
}

func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo)
	l.Info("a\"b\\c\nd\te\x01f", "k", "v\"w")
	got := lines(&buf)
	if got[0]["msg"] != "a\"b\\c\nd\te\x01f" || got[0]["k"] != "v\"w" {
		t.Fatalf("round trip = %v", got[0])
	}
}

func TestRateLimitSuppression(t *testing.T) {
	var buf bytes.Buffer
	clk := time.Unix(5000, 0)
	l := newAt(&buf, slog.LevelInfo, func() time.Time { return clk })
	lim := Limited(l, "noisy", 1, 2) // burst 2, refill 1/s

	for n := 0; n < 10; n++ {
		lim.Warn("flood", "n", n)
	}
	got := lines(&buf)
	if len(got) != 2 {
		t.Fatalf("burst lines = %d, want 2: %s", len(got), buf.String())
	}
	// Advance 3s: 3 tokens refill (capped at burst 2); next line carries
	// the suppressed count.
	clk = clk.Add(3 * time.Second)
	lim.Warn("after")
	got = lines(&buf)
	last := got[len(got)-1]
	if last["suppressed"] != float64(8) {
		t.Fatalf("suppressed = %v, want 8: %v", last["suppressed"], last)
	}
	// Counter reset after reporting.
	lim.Warn("again")
	got = lines(&buf)
	if _, has := got[len(got)-1]["suppressed"]; has {
		t.Fatalf("suppressed not reset: %v", got[len(got)-1])
	}
}

func TestLimiterSharedAcrossFamily(t *testing.T) {
	var buf bytes.Buffer
	clk := time.Unix(5000, 0)
	root := newAt(&buf, slog.LevelInfo, func() time.Time { return clk })
	a := Limited(root.With("c", "a"), "shared", 1, 1)
	b := Limited(root.With("c", "b"), "shared", 1, 1)
	a.Info("one")
	b.Info("two") // same bucket — suppressed
	if got := lines(&buf); len(got) != 1 {
		t.Fatalf("lines = %d, want 1 (shared bucket)", len(got))
	}

	// A caller's own slog handler is rate-limited too.
	var own bytes.Buffer
	c := Limited(slog.New(slog.NewJSONHandler(&own, nil)), "own", 1, 1)
	c.Info("one")
	c.Info("two")
	if got := lines(&own); len(got) != 1 {
		t.Fatalf("caller's handler: lines = %d, want 1", len(got))
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
		"off": levelOff, "none": levelOff,
	}
	for s, want := range cases {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel(verbose) should fail")
	}
}

func TestConcurrentEmitsAreWholeLines(t *testing.T) {
	var buf safeBuffer
	l := New(&buf, slog.LevelInfo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lg := l.With("worker", w)
			lim := Limited(lg, "shared", 0, 100) // one bucket, never refilled
			for n := 0; n < 200; n++ {
				lg.Info("tick", "n", n)
				lim.Warn("limited", "n", n)
			}
		}(w)
	}
	wg.Wait()
	got := lines(&buf.b)
	if len(got) != 8*200+100 {
		t.Fatalf("lines = %d, want %d: every tick and the shared bucket's 100", len(got), 8*200+100)
	}
}

// safeBuffer serializes writes so the test can parse concurrently
// emitted output.
type safeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

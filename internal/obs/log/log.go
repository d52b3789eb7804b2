// Package log sets up log/slog as the structured logger the daemons and
// the service layer share: its JSON handler writes one JSONL line per
// record in the daemons' line shape, and the package adds what slog
// lacks — an "off" level, per-key token-bucket rate limiting so a
// misbehaving platform cannot flood the log, and a discard logger that
// layers hold while logging is off, so call sites never check for nil.
package log

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// levelOff is above every level a call site logs at: it writes nothing.
const levelOff = slog.LevelError + 4

var levels = map[string]slog.Level{
	"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
	"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	"off": levelOff, "none": levelOff,
}

// ParseLevel maps a flag string to a level ("debug", "info", "warn",
// "error", "off").
func ParseLevel(s string) (slog.Level, error) {
	if l, ok := levels[s]; ok {
		return l, nil
	}
	return slog.LevelInfo, fmt.Errorf("log: unknown level %q", s)
}

var discard = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: levelOff}))

// Discard returns the shared logger that writes nothing.
func Discard() *slog.Logger { return discard }

// Component returns lg with a "component" field bound, or the Discard
// logger when lg is nil — the SetLogger idiom of every logging layer.
func Component(lg *slog.Logger, name string) *slog.Logger {
	if lg == nil {
		return discard
	}
	return lg.With("component", name)
}

// New builds a logger writing records at or above level to w, one JSONL
// line each. A nil w yields the Discard logger.
func New(w io.Writer, level slog.Level) *slog.Logger { return newAt(w, level, nil) }

// newAt is New with a clock that stamps every record (nil: slog's own).
func newAt(w io.Writer, level slog.Level, now func() time.Time) *slog.Logger {
	if w == nil {
		return discard
	}
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineFormat})
	return slog.New(&limiter{Handler: h, f: &family{now: now, buckets: map[string]*bucket{}}})
}

// lineFormat keeps the line shape: the time as "ts" in UTC, lower-case
// level names, and durations as strings ("1.5s") rather than nanosecond
// counts.
func lineFormat(groups []string, a slog.Attr) slog.Attr {
	switch {
	case a.Value.Kind() == slog.KindDuration:
		return slog.String(a.Key, a.Value.Duration().String())
	case len(groups) == 0 && a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.Time("ts", a.Value.Time().UTC())
	case len(groups) == 0 && a.Key == slog.LevelKey:
		if l, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(l.String()))
		}
	}
	return a
}

// Limited returns lg rate-limited by a token bucket under key: at most
// burst lines at once, refilling at perSec lines per second. Loggers from
// one New, With children included, share a key's bucket; any other
// logger gets buckets of its own. The next line that passes reports the
// suppressed count as a "suppressed" field.
func Limited(lg *slog.Logger, key string, perSec float64, burst int) *slog.Logger {
	h, ok := lg.Handler().(*limiter)
	if !ok {
		h = &limiter{Handler: lg.Handler(), f: &family{buckets: map[string]*bucket{}}}
	}
	c := *h
	c.key, c.rate, c.burst = key, perSec, float64(max(burst, 1))
	return slog.New(&c)
}

// family is the state one logger family shares: the rate-limit buckets
// by key, and the clock (nil: the record's own time).
type family struct {
	mu      sync.Mutex
	now     func() time.Time
	buckets map[string]*bucket
}

// bucket is one rate-limit key's token bucket.
type bucket struct {
	tokens     float64
	last       time.Time
	suppressed int64
}

// take spends a token of key's bucket at time now. It reports whether
// the line may pass and how many lines were suppressed before it.
func (f *family) take(key string, rate, burst float64, now time.Time) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.buckets[key]
	if b == nil {
		b = &bucket{tokens: burst, last: now}
		f.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*rate, burst)
		b.last = now
	}
	if b.tokens < 1 {
		b.suppressed++
		return 0, false
	}
	b.tokens--
	n := b.suppressed
	b.suppressed = 0
	return n, true
}

// limiter wraps a handler with the family clock and, when key is set,
// the family's token bucket for key.
type limiter struct {
	slog.Handler
	f           *family
	key         string
	rate, burst float64
}

func (h *limiter) Handle(ctx context.Context, r slog.Record) error {
	if h.f.now != nil {
		r.Time = h.f.now()
	}
	if h.key != "" {
		n, ok := h.f.take(h.key, h.rate, h.burst, r.Time)
		if !ok {
			return nil
		}
		if n > 0 {
			r = r.Clone()
			r.AddAttrs(slog.Int64("suppressed", n))
		}
	}
	return h.Handler.Handle(ctx, r)
}

func (h *limiter) WithAttrs(as []slog.Attr) slog.Handler { return h.over(h.Handler.WithAttrs(as)) }

func (h *limiter) WithGroup(name string) slog.Handler { return h.over(h.Handler.WithGroup(name)) }

// over returns a copy of h over next, in h's family under h's key.
func (h *limiter) over(next slog.Handler) slog.Handler {
	c := *h
	c.Handler = next
	return &c
}

package crowdtopk

import (
	"io"
	"log/slog"

	qlog "crowdtopk/internal/obs/log"
)

// Logger is the structured logger the daemons and the service layer
// share: a log/slog logger. NewLogger builds one that writes each record
// as one JSONL line with bound fields, and the layers rate-limit their
// bursty events per key. A layer with logging off holds a logger that
// writes nothing.
type Logger = slog.Logger

// NewLogger builds a logger writing JSONL records at or above level —
// one of "debug", "info", "warn", "error", "off" ("" means "info") — to
// w. A nil w yields a logger that writes nothing.
func NewLogger(w io.Writer, level string) (*Logger, error) {
	lv, err := qlog.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return qlog.New(w, lv), nil
}

// SetLogger wires structured logging through the session's execution
// stack: the shared comparison scheduler's pool lifecycle and — when the
// session runs against a crowd platform — quarantine and retry/breaker
// failure events, rate-limited so a misbehaving platform cannot flood
// the log. Any *slog.Logger works; nil disables. Call before the session
// is queried.
func (s *Session) SetLogger(lg *Logger) { s.runner.SetLogger(lg) }

package auditlog

import (
	"sync"

	"crowdtopk/internal/crowd"
)

// ResumeSink filters the record stream of a resumed session before it
// reaches the persistent log. A resumed engine serves replayed answers
// through the same draw path as live ones, so it re-logs every replayed
// draw; blindly persisting that stream would duplicate history already
// on disk. The sink instead skips, per pair, exactly as many records as
// the directory already holds — replay hands a pair its recorded answers
// in recorded order before any live purchase can occur, so the first
// n_p records the engine emits for pair p are precisely the n_p already
// persisted. What passes through is exactly the live purchases,
// regardless of how queries interleave across pairs.
type ResumeSink struct {
	mu      sync.Mutex
	skip    map[[2]int]int64
	dst     *Log
	skipped int64
}

// NewResumeSink wraps log for a session resumed from prior (the records
// Load returned, also fed to the replay oracle).
func NewResumeSink(log *Log, prior []crowd.Record) *ResumeSink {
	s := &ResumeSink{skip: make(map[[2]int]int64), dst: log}
	for _, r := range prior {
		s.skip[sinkKey(r)]++
	}
	return s
}

func sinkKey(r crowd.Record) [2]int {
	if r.IsGraded() {
		return [2]int{r.I, -1}
	}
	return [2]int{r.I, r.J}
}

// Record implements crowd.RecordSink: skip each pair's replayed prefix,
// forward the rest to the persistent log.
func (s *ResumeSink) Record(recs []crowd.Record) {
	s.mu.Lock()
	var pass []crowd.Record
	for _, r := range recs {
		k := sinkKey(r)
		if s.skip[k] > 0 {
			s.skip[k]--
			s.skipped++
			continue
		}
		pass = append(pass, r)
	}
	s.mu.Unlock()
	if len(pass) > 0 {
		s.dst.Append(pass)
	}
}

// Skipped returns how many replayed records were suppressed so far.
func (s *ResumeSink) Skipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

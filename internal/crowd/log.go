package crowd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
)

// Record is one purchased microtask in an engine's audit log: which pair
// was compared (or which item graded), what the worker answered, and in
// which batch round the answer arrived. Money in a crowdsourcing system is
// real; the log makes every spent cent attributable and every query
// replayable.
type Record struct {
	// Round is the latency-clock value when the microtask was purchased.
	Round int64 `json:"round"`
	// I and J identify the compared pair (I < J canonical orientation).
	// For graded microtasks J is -1.
	I int `json:"i"`
	J int `json:"j"`
	// Value is the worker's answer: a preference in [-1, 1] oriented
	// toward I for pairwise tasks, or the grade on the oracle's native
	// scale for graded tasks.
	Value float64 `json:"value"`
}

// IsGraded reports whether the record is a graded (absolute rating)
// microtask.
func (r Record) IsGraded() bool { return r.J < 0 }

// RecordSink is an engine's audit trail: it receives each batch of
// purchase records, synchronously, in purchase order. The slice is only
// valid for the duration of the call — implementations that retain
// records must copy. Calls are serialized by the engine (made under its
// log mutex), so a sink needs no locking of its own against the engine,
// and records of one pair always arrive in purchase order. A slow sink
// applies backpressure to the purchase path; persistent sinks should
// buffer (see internal/auditlog, whose Log blocks only when its bounded
// commit queue is full).
type RecordSink interface {
	Record(recs []Record)
}

// SetLogSink makes sink the engine's one audit trail, replacing the one
// attached before; nil detaches it. The engine keeps no records itself:
// MemLog is the trail that keeps them in memory. Once SetLogSink returns,
// no batch is delivered to the replaced trail any more.
func (e *Engine) SetLogSink(sink RecordSink) {
	e.logMu.Lock()
	if sink == nil {
		e.sink.Store(nil)
	} else {
		e.sink.Store(&sink)
	}
	e.logMu.Unlock()
}

// LogSink returns the attached audit trail, or nil.
func (e *Engine) LogSink() RecordSink {
	if s := e.sink.Load(); s != nil {
		return *s
	}
	return nil
}

// Logged returns how many records the engine has handed to its audit
// trails. Held records (HoldLog) count once released, so at quiescence
// Logged equals the TMC bought while a trail was attached.
func (e *Engine) Logged() int64 { return e.logged.Load() }

// HeldLog is a set of pairs whose audit records are held back by
// HoldLog until Release.
type HeldLog struct {
	e     *Engine
	pairs []*pairState
}

// HoldLog holds back the audit records of n pairs (pair returns the
// idx-th): purchases of a held pair — by any caller — collect on the pair
// instead of reaching the trail, until Release hands them over pair by
// pair in index order. A deterministic comparison wave holds its chains'
// pairs across the wave, so records purchased concurrently reach the
// trail in chain order, exactly as a sequential wave logs them. HoldLog
// returns nil (a no-op holder) while no trail is attached.
func (e *Engine) HoldLog(n int, pair func(idx int) (i, j int)) *HeldLog {
	if e.sink.Load() == nil || n == 0 {
		return nil
	}
	h := &HeldLog{e: e, pairs: make([]*pairState, n)}
	for idx := range h.pairs {
		ps := e.pair(keyOf(pair(idx)))
		ps.mu.Lock()
		ps.held++
		ps.mu.Unlock()
		h.pairs[idx] = ps
	}
	return h
}

// Release ends the hold and hands each pair's held records to the trail,
// in HoldLog's pair order. The flush happens under the pair mutex, so a
// later purchase of the pair cannot overtake its held records. Release
// on a nil holder does nothing.
func (h *HeldLog) Release() {
	if h == nil {
		return
	}
	for _, ps := range h.pairs {
		ps.mu.Lock()
		ps.held--
		if recs := ps.staged; len(recs) > 0 && ps.held == 0 {
			ps.staged = nil
			h.e.logMu.Lock()
			h.e.handLocked(recs)
			h.e.logMu.Unlock()
		}
		ps.mu.Unlock()
	}
}

// MemLog is the in-memory audit trail: a RecordSink that keeps a copy of
// every record it receives. Its methods are safe on a nil *MemLog, which
// reads as an empty trail.
//
// The trail grows by doubling its capacity, so n records allocate under
// 4n records in all and copy under 2n; append's own growth, 1.25× once a
// slice is large, heads for 5n allocated and 4n copied. The price is up
// to n records of spare capacity. A long-lived daemon should attach a
// durable trail instead (Session.SetAuditSink), which keeps nothing in
// memory.
type MemLog struct {
	mu   sync.Mutex
	recs []Record
}

// Record implements RecordSink.
func (m *MemLog) Record(recs []Record) {
	m.mu.Lock()
	if n := len(m.recs) + len(recs); n > cap(m.recs) {
		grown := make([]Record, len(m.recs), max(2*cap(m.recs), n))
		copy(grown, m.recs)
		m.recs = grown
	}
	m.recs = append(m.recs, recs...)
	m.mu.Unlock()
}

// Log returns the recorded microtasks in purchase order. The slice is
// shared; callers must not modify it. Its capacity is capped at its
// length, so an append by the caller copies instead of writing into the
// trail's spare capacity, where later records land; a slice once
// returned never changes. Records of one pair are always in
// purchase order, which is all replay needs. Across pairs, a
// deterministic wave logs in chain order at any parallelism (HoldLog);
// elsewhere concurrent purchases log in the order they actually
// interleave.
func (m *MemLog) Log() []Record {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs[:len(m.recs):len(m.recs)]
}

// WriteLog serializes the trail as a JSON array.
func (m *MemLog) WriteLog(w io.Writer) error { return json.NewEncoder(w).Encode(m.Log()) }

// ReadLog parses a JSON audit log previously written by WriteLog. The log
// is untrusted input — it may have been truncated by a crash or corrupted
// at rest — so ReadLog rejects malformed JSON, trailing garbage after the
// record array, and records whose values could poison a replay: NaN or
// infinite values, pairwise preferences outside [-1, 1], self-pairs,
// negative item indices, or negative rounds.
func ReadLog(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var recs []Record
	if err := dec.Decode(&recs); err != nil {
		return nil, fmt.Errorf("crowd: decoding audit log: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("crowd: audit log has trailing data after the record array")
	}
	for idx, rec := range recs {
		if err := ValidateRecord(rec); err != nil {
			return nil, fmt.Errorf("crowd: audit log record %d: %w", idx, err)
		}
	}
	return recs, nil
}

// ValidateRecord checks one audit-log record's invariants. It is shared
// with the segmented persistent log (internal/auditlog), which validates
// each record line at both write and reload time.
func ValidateRecord(rec Record) error {
	if rec.Round < 0 {
		return fmt.Errorf("negative round %d", rec.Round)
	}
	if rec.I < 0 {
		return fmt.Errorf("negative item index %d", rec.I)
	}
	if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
		return fmt.Errorf("non-finite value %v", rec.Value)
	}
	if rec.IsGraded() {
		if rec.J != -1 {
			return fmt.Errorf("graded record has J=%d, want -1", rec.J)
		}
		return nil
	}
	if rec.I == rec.J {
		return fmt.Errorf("pairwise record compares item %d with itself", rec.I)
	}
	if rec.Value < -1 || rec.Value > 1 {
		return fmt.Errorf("pairwise value %v outside [-1,1]", rec.Value)
	}
	return nil
}

// Replay is an Oracle that serves the answers of a recorded audit log:
// each Preference call pops the next recorded answer for that pair. It
// lets a query (or a cheaper variant of it) be re-run against the exact
// judgments a real crowd already gave, without spending again. Replay is
// safe for concurrent use, so a recorded run can be replayed under
// parallel comparison waves; answers are grouped per pair, so the
// cross-pair interleaving of the original run does not matter.
type Replay struct {
	n       int
	mu      sync.Mutex
	pending map[pairKey][]float64
	grades  map[int][]float64
}

// NewReplay builds a replay oracle over n items from an audit log.
func NewReplay(n int, log []Record) *Replay {
	rp := &Replay{
		n:       n,
		pending: make(map[pairKey][]float64),
		grades:  make(map[int][]float64),
	}
	for _, rec := range log {
		if rec.IsGraded() {
			rp.grades[rec.I] = append(rp.grades[rec.I], rec.Value)
			continue
		}
		k := keyOf(rec.I, rec.J)
		v := rec.Value
		if rec.I != k.lo {
			v = -v
		}
		rp.pending[k] = append(rp.pending[k], v)
	}
	return rp
}

// NumItems implements Oracle.
func (rp *Replay) NumItems() int { return rp.n }

// ignoresStream declares that recorded answers never read the stream.
func (rp *Replay) ignoresStream() bool { return true }

// Remaining returns how many unused pairwise answers the replay still
// holds for the pair (i, j).
func (rp *Replay) Remaining(i, j int) int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.pending[keyOf(i, j)])
}

// Preference implements Oracle: a one-slot Preferences. It panics when
// the log holds no more answers for the pair — a replayed run that
// demands judgments the original never bought is a logic error the
// caller must see.
func (rp *Replay) Preference(rng *rand.Rand, i, j int) float64 {
	var v [1]float64
	rp.Preferences(rng, i, j, v[:])
	return v[0]
}

// Preferences implements BatchOracle: the whole batch pops under one lock
// acquisition instead of len(dst). Replay ignores rng (the answers are
// recorded), so the stream-equivalence contract holds trivially.
func (rp *Replay) Preferences(_ *rand.Rand, i, j int, dst []float64) {
	k := keyOf(i, j)
	rp.mu.Lock()
	q := rp.pending[k]
	if len(q) < len(dst) {
		rp.mu.Unlock()
		panic(fmt.Sprintf("crowd: replay exhausted for pair (%d,%d)", k.lo, k.hi))
	}
	copy(dst, q[:len(dst)])
	rp.pending[k] = q[len(dst):]
	rp.mu.Unlock()
	if i != k.lo {
		for t := range dst {
			dst[t] = -dst[t]
		}
	}
}

// Grade implements Grader by replaying recorded grades for the item.
func (rp *Replay) Grade(_ *rand.Rand, i int) float64 {
	v, ok := rp.takeGrade(i)
	if !ok {
		panic(fmt.Sprintf("crowd: replay exhausted for grades of item %d", i))
	}
	return v
}

// takeUpTo fills a prefix of dst with recorded answers for (i, j),
// oriented toward i, and returns how many it supplied. It is the
// non-panicking primitive ReplayThenLive resumes from.
func (rp *Replay) takeUpTo(i, j int, dst []float64) int {
	k := keyOf(i, j)
	rp.mu.Lock()
	q := rp.pending[k]
	n := len(dst)
	if n > len(q) {
		n = len(q)
	}
	copy(dst[:n], q[:n])
	rp.pending[k] = q[n:]
	rp.mu.Unlock()
	if i != k.lo {
		for t := range dst[:n] {
			dst[t] = -dst[t]
		}
	}
	return n
}

// takeGrade pops one recorded grade for item i; ok is false when the log
// holds none.
func (rp *Replay) takeGrade(i int) (float64, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	q := rp.grades[i]
	if len(q) == 0 {
		return 0, false
	}
	rp.grades[i] = q[1:]
	return q[0], true
}

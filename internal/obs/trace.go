package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one tracer; 0 means "no span" and is
// used as the root parent.
type SpanID uint64

// Span is one finished operation in a query's trace tree: a whole query, a
// framework phase, or one comparison process COMP(o_i, o_j). Spans carry
// numeric attributes (costs, workloads), string labels (verdicts, pair
// identities) and an optional trajectory — the per-round series of
// confidence-interval half-widths that shows a comparison converging.
//
// Spans serialize one-per-line as JSON (JSONL), so traces stream to disk
// and replay with nothing but the standard library.
type Span struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Attrs holds numeric attributes: "tmc", "rounds", "workload", ...
	Attrs map[string]float64 `json:"attrs,omitempty"`
	// Labels holds string attributes: "pair", "verdict", "algorithm", ...
	Labels map[string]string `json:"labels,omitempty"`
	// Traj is the confidence-interval half-width after each batch round of
	// a comparison span — the paper's confidence evolution, recorded live.
	Traj []float64 `json:"traj,omitempty"`
}

// Attr returns the named numeric attribute rounded to int64 (0 if absent).
// Cost attributes are integral by construction, so the round trip through
// JSON float64 is exact far beyond any realistic TMC.
func (s Span) Attr(name string) int64 { return int64(s.Attrs[name]) }

// DefaultMaxSpans bounds a tracer's in-memory span store. The store is a
// ring: once full, each finished span evicts the oldest one, and the
// eviction is counted as dropped. A long-running service thus keeps its
// most recent spans at constant memory instead of growing (or freezing
// on its first spans) forever.
const DefaultMaxSpans = 1 << 14

// Tracer collects finished spans. Starting a span is one small allocation;
// finishing appends it under a mutex. A nil *Tracer hands out nil
// ActiveSpans whose every method is a no-op, so disabled tracing costs one
// nil check at each site.
type Tracer struct {
	epoch    time.Time
	maxSpans int
	nextID   atomic.Uint64
	dropped  *Counter

	mu    sync.Mutex
	spans []Span // ring of the newest maxSpans spans
	head  int    // once the ring is full: index of its oldest span
}

// NewTracer returns an empty tracer whose span clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), maxSpans: DefaultMaxSpans, dropped: new(Counter)}
}

// Start opens a span under the given parent (0 for a root span). Nil on a
// nil receiver.
func (t *Tracer) Start(name string, parent SpanID) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{
		t: t,
		s: Span{
			ID:      SpanID(t.nextID.Add(1)),
			Parent:  parent,
			Name:    name,
			StartNs: time.Since(t.epoch).Nanoseconds(),
		},
	}
}

// Spans returns a copy of the retained spans — the newest
// DefaultMaxSpans — in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	return append(append(out, t.spans[t.head:]...), t.spans[:t.head]...)
}

// Dropped returns how many finished spans the full ring evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Value()
}

func (t *Tracer) finish(s Span) {
	t.mu.Lock()
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, s)
		t.mu.Unlock()
		return
	}
	t.spans[t.head] = s
	t.head = (t.head + 1) % t.maxSpans
	t.mu.Unlock()
	t.dropped.Inc()
}

// WriteJSONL streams every finished span as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	spans := t.Spans()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace written by WriteJSONL. Blank lines are
// skipped; a malformed line fails with its line number so truncated traces
// are diagnosed rather than silently half-read.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var spans []Span
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return spans, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return spans, err
	}
	return spans, nil
}

// SumAttr aggregates one numeric attribute over a recorded trace, grouped
// by span name — the post-hoc cost analysis a replayed JSONL trace
// supports: SumAttr(spans, "tmc") recovers the exact per-phase monetary
// breakdown of the run that recorded the trace.
func SumAttr(spans []Span, attr string) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		if v, ok := s.Attrs[attr]; ok {
			out[s.Name] += int64(v)
		}
	}
	return out
}

// ActiveSpan is a span being recorded. All methods are no-ops on a nil
// receiver. An ActiveSpan must be mutated by one goroutine at a time;
// handing it across goroutines requires an intervening happens-before
// (the wave barrier provides one for comparison spans).
type ActiveSpan struct {
	t *Tracer
	s Span
}

// ID returns the span's id; 0 on a nil receiver.
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// SetAttr sets a numeric attribute.
func (a *ActiveSpan) SetAttr(name string, v float64) {
	if a == nil {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = make(map[string]float64, 4)
	}
	a.s.Attrs[name] = v
}

// SetLabel sets a string label.
func (a *ActiveSpan) SetLabel(name, v string) {
	if a == nil {
		return
	}
	if a.s.Labels == nil {
		a.s.Labels = make(map[string]string, 2)
	}
	a.s.Labels[name] = v
}

// Observe appends one point to the span's trajectory.
func (a *ActiveSpan) Observe(v float64) {
	if a == nil {
		return
	}
	a.s.Traj = append(a.s.Traj, v)
}

// End stamps the span's end time and hands it to the tracer. End must be
// called at most once.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.s.EndNs = time.Since(a.t.epoch).Nanoseconds()
	a.t.finish(a.s)
}

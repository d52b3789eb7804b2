package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestSpanTreeAndJSONLRoundTrip records a small query-shaped trace and
// checks that the JSONL serialization replays to identical spans and the
// same per-phase cost breakdown.
func TestSpanTreeAndJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	query := tr.Start("query", 0)
	query.SetLabel("algorithm", "spr")

	sel := tr.Start("phase:select", query.ID())
	comp := tr.Start("comp", sel.ID())
	comp.SetLabel("pair", "3-7")
	comp.SetLabel("verdict", "first-wins")
	comp.SetAttr("workload", 60)
	comp.Observe(0.41)
	comp.Observe(0.18)
	comp.End()
	sel.SetAttr("tmc", 60)
	sel.End()

	rank := tr.Start("phase:rank", query.ID())
	rank.SetAttr("tmc", 90)
	rank.End()
	rank2 := tr.Start("phase:rank", query.ID())
	rank2.SetAttr("tmc", 10)
	rank2.End()

	query.SetAttr("tmc", 160)
	query.End()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(spans) {
		t.Fatalf("replayed %d spans, want %d", len(replayed), len(spans))
	}
	for i := range spans {
		a, b := spans[i], replayed[i]
		if a.ID != b.ID || a.Parent != b.Parent || a.Name != b.Name {
			t.Fatalf("span %d identity changed: %+v vs %+v", i, a, b)
		}
		if a.Attr("tmc") != b.Attr("tmc") {
			t.Fatalf("span %d tmc changed: %v vs %v", i, a.Attrs, b.Attrs)
		}
		if len(a.Traj) != len(b.Traj) {
			t.Fatalf("span %d trajectory changed", i)
		}
	}

	// The replayed trace reproduces the exact per-phase cost breakdown.
	costs := SumAttr(replayed, "tmc")
	if costs["phase:select"] != 60 || costs["phase:rank"] != 100 || costs["query"] != 160 {
		t.Fatalf("replayed costs = %v", costs)
	}

	// Tree structure survived: the comp span hangs under select.
	byID := make(map[SpanID]Span)
	for _, s := range replayed {
		byID[s.ID] = s
	}
	for _, s := range replayed {
		if s.Name == "comp" {
			if byID[s.Parent].Name != "phase:select" {
				t.Fatalf("comp parented to %q", byID[s.Parent].Name)
			}
			if s.Labels["verdict"] != "first-wins" {
				t.Fatalf("comp labels = %v", s.Labels)
			}
		}
	}
}

// TestReadJSONLBadLine checks the line-numbered error on corrupt traces.
func TestReadJSONLBadLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"id\":1,\"name\":\"a\",\"start_ns\":0,\"end_ns\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// TestTracerBound checks the span store stays bounded, keeps the newest
// spans in completion order, and counts evictions.
func TestTracerBound(t *testing.T) {
	tr := NewTracer()
	tr.maxSpans = 3
	var ids []SpanID
	for i := 0; i < 8; i++ {
		sp := tr.Start("s", 0)
		ids = append(ids, sp.ID())
		sp.End()
		kept := tr.Spans()
		want := ids[max(0, len(ids)-3):]
		if len(kept) != len(want) {
			t.Fatalf("after %d spans: kept %d, want %d", i+1, len(kept), len(want))
		}
		for k := range want {
			if kept[k].ID != want[k] {
				t.Fatalf("after %d spans: kept ids %v, want %v", i+1, spanIDs(kept), want)
			}
		}
	}
	if d := tr.Dropped(); d != 5 {
		t.Fatalf("dropped = %d, want 5", d)
	}
}

func spanIDs(spans []Span) []SpanID {
	ids := make([]SpanID, len(spans))
	for i, s := range spans {
		ids[i] = s.ID
	}
	return ids
}

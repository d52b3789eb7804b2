package crowdtopk_test

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdtopk"
	"crowdtopk/internal/obs"
)

// scrapeCounter fetches the handler's /metrics endpoint and returns the
// value of one un-labeled counter, asserting it is present.
func scrapeCounter(t *testing.T, tel *crowdtopk.Telemetry, name string) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned status %d", rec.Code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(rec.Body.String())
	if m == nil {
		t.Fatalf("metric %s absent from scrape:\n%s", name, rec.Body.String())
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("metric %s unparsable: %v", name, err)
	}
	return v
}

func TestQueryStatsNilWhenTelemetryDisabled(t *testing.T) {
	data := crowdtopk.SyntheticDataset(20, 0.2, 1)
	res, err := crowdtopk.Query(data, crowdtopk.Options{K: 3, Budget: 100, MinWorkload: 10, BatchSize: 10, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatalf("Stats = %+v without Options.Telemetry, want nil", res.Stats)
	}
}

func TestQueryStatsAgreesWithResultAndScrape(t *testing.T) {
	data := crowdtopk.SyntheticDataset(25, 0.2, 3)
	tel := crowdtopk.NewTelemetry()
	res, err := crowdtopk.Query(data, crowdtopk.Options{
		K: 5, Budget: 200, MinWorkload: 10, BatchSize: 10, Confidence: 0.95,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("Stats nil despite Options.Telemetry")
	}
	if st.TMC != res.TMC {
		t.Errorf("Stats.TMC = %d, Result.TMC = %d", st.TMC, res.TMC)
	}
	if st.Rounds != res.Rounds {
		t.Errorf("Stats.Rounds = %d, Result.Rounds = %d", st.Rounds, res.Rounds)
	}
	if st.WallTimeNs <= 0 {
		t.Errorf("WallTimeNs = %d, want > 0", st.WallTimeNs)
	}
	if st.Comparisons == 0 || st.Waves == 0 {
		t.Errorf("comparison/wave counters empty: %+v", st)
	}

	// The per-phase breakdown must agree with the legacy Phases view and
	// sum to the total: SPR spends every microtask inside one of its
	// three phases.
	if res.Phases == nil {
		t.Fatal("SPR query returned no PhaseBreakdown")
	}
	want := map[string]int64{
		"select":    res.Phases.SelectTMC,
		"partition": res.Phases.PartitionTMC,
		"rank":      res.Phases.RankTMC,
	}
	var phaseSum int64
	for phase, tmc := range want {
		if tmc == 0 {
			continue
		}
		if got := st.Phases[phase].TMC; got != tmc {
			t.Errorf("Phases[%q].TMC = %d, PhaseBreakdown says %d", phase, got, tmc)
		}
		phaseSum += tmc
	}
	if phaseSum != res.TMC {
		t.Errorf("phase TMC sums to %d, total is %d", phaseSum, res.TMC)
	}

	// The live scrape speaks the same numbers.
	if got := scrapeCounter(t, tel, "crowdtopk_tmc_total"); got != res.TMC {
		t.Errorf("/metrics crowdtopk_tmc_total = %d, Result.TMC = %d", got, res.TMC)
	}

	// And so does the cumulative bundle view.
	if got := tel.Stats().TMC; got != res.TMC {
		t.Errorf("Telemetry.Stats().TMC = %d, Result.TMC = %d", got, res.TMC)
	}
}

// TestChaosMetricsAgreement is the acceptance check of the telemetry PR:
// under a flaky platform with retries, validation quarantine and an audit
// log, every accounting surface must report the same total monetary cost —
// the metrics registry, the session's engine, the audit log, and the
// structured QueryStats.
func TestChaosMetricsAgreement(t *testing.T) {
	data := crowdtopk.SyntheticDataset(20, 0.2, 7)
	var p crowdtopk.Platform = crowdtopk.SimulatedPlatform(data, 4, 8)
	p = crowdtopk.InjectFaults(p, crowdtopk.FaultSchedule{
		Seed: 9, Drop: 0.2, Duplicate: 0.1, Flip: 0.2, PostError: 0.1, CollectError: 0.1,
	})
	oracle := crowdtopk.WrapPlatform(data.NumItems(), p)

	tel := crowdtopk.NewTelemetry()
	sess, err := crowdtopk.NewSession(oracle, crowdtopk.Options{
		Budget: 200, MinWorkload: 10, BatchSize: 10, Seed: 5, Confidence: 0.95,
		Resilience: &crowdtopk.ResilienceOptions{
			MaxAttempts:    10, // generous retries absorb this fault mix
			BaseBackoff:    time.Microsecond,
			MaxBackoff:     time.Microsecond,
			CollectTimeout: time.Second,
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.EnableAuditLog()

	res, err := sess.TopK(4)
	if err != nil {
		t.Fatalf("flaky platform should survive retries: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("session result carries no Stats")
	}

	tmc := sess.TMC()
	if res.Stats.TMC != tmc {
		t.Errorf("Stats.TMC = %d, session TMC = %d", res.Stats.TMC, tmc)
	}
	if got := int64(len(sess.AuditLog())); got != tmc {
		t.Errorf("audit log has %d records, session TMC = %d", got, tmc)
	}
	if got := scrapeCounter(t, tel, "crowdtopk_tmc_total"); got != tmc {
		t.Errorf("/metrics crowdtopk_tmc_total = %d, session TMC = %d", got, tmc)
	}

	// The chaos schedule fires retries; the resilience counters must see
	// them, and the failure log must agree with the dropped counter.
	if res.Stats.Retries == 0 && res.Stats.Quarantined == 0 && res.Stats.PartialBatches == 0 {
		t.Errorf("chaos run recorded no resilience activity: %+v", res.Stats)
	}
	logged := int64(len(sess.PlatformFailures()))
	if res.Stats.FailureEvents != logged+sess.DroppedPlatformFailures() {
		t.Errorf("failure events metric %d != retained %d + dropped %d",
			res.Stats.FailureEvents, logged, sess.DroppedPlatformFailures())
	}

	// /debug/vars serves the same snapshot as JSON.
	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "crowdtopk_tmc_total") {
		t.Errorf("/debug/vars scrape unusable: status %d", rec.Code)
	}
}

// TestTraceReplayPhaseBreakdown replays the JSONL trace of a query and
// checks that aggregating the phase spans' tmc attribute recovers exactly
// the per-phase cost breakdown the run reported — the post-hoc analysis
// path of the -trace-out flag.
func TestTraceReplayPhaseBreakdown(t *testing.T) {
	data := crowdtopk.SyntheticDataset(25, 0.2, 11)
	tel := crowdtopk.NewTelemetry()
	res, err := crowdtopk.Query(data, crowdtopk.Options{
		K: 5, Budget: 200, MinWorkload: 10, BatchSize: 10, Confidence: 0.95,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("trace empty")
	}
	byName := obs.SumAttr(spans, "tmc")

	if byName["query"] != res.TMC {
		t.Errorf("query span tmc = %d, Result.TMC = %d", byName["query"], res.TMC)
	}
	for phase, st := range res.Stats.Phases {
		if got := byName["phase:"+phase]; got != st.TMC {
			t.Errorf("replayed phase:%s tmc = %d, Stats says %d", phase, got, st.TMC)
		}
	}

	// Comparison spans nest under phases and carry their verdicts.
	var comps int
	for _, s := range spans {
		if s.Name == "comp" {
			comps++
			if s.Parent == 0 {
				t.Errorf("comp span %d has no parent", s.ID)
			}
			if s.Labels["verdict"] == "" {
				t.Errorf("comp span %d has no verdict label", s.ID)
			}
		}
	}
	if int64(comps) != res.Stats.Comparisons {
		t.Errorf("trace has %d comp spans, Stats counted %d comparisons", comps, res.Stats.Comparisons)
	}
}

func TestSessionIncrementalStats(t *testing.T) {
	data := crowdtopk.SyntheticDataset(20, 0.2, 13)
	tel := crowdtopk.NewTelemetry()
	sess, err := crowdtopk.NewSession(data, crowdtopk.Options{
		Budget: 200, MinWorkload: 10, BatchSize: 10, Confidence: 0.95,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sess.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats == nil || res2.Stats == nil {
		t.Fatal("session results carry no Stats")
	}
	if res1.Stats.TMC != res1.TMC || res2.Stats.TMC != res2.TMC {
		t.Errorf("incremental Stats.TMC (%d, %d) disagree with Result.TMC (%d, %d)",
			res1.Stats.TMC, res2.Stats.TMC, res1.TMC, res2.TMC)
	}
	if got := res1.Stats.TMC + res2.Stats.TMC; got != sess.TMC() {
		t.Errorf("per-call stats sum to %d, session TMC = %d", got, sess.TMC())
	}
	// The widened re-query reuses every conclusion of the first call.
	if res2.Stats.MemoHits == 0 {
		t.Error("second query reports no memo hits despite full reuse")
	}
}

// TestTraceReportsDroppedSpans runs a traced query with more comparisons
// than the tracer's ring holds: the written trace keeps exactly the newest
// obs.DefaultMaxSpans spans, and the eviction count is visible through
// TraceDropped and the metrics scrape, so a caller can tell the trace's
// sums undercount.
func TestTraceReportsDroppedSpans(t *testing.T) {
	data := crowdtopk.SyntheticDataset(1500, 0.3, 13)
	tel := crowdtopk.NewTelemetry()
	res, err := crowdtopk.Query(data, crowdtopk.Options{
		K: 700, Algorithm: crowdtopk.HeapSort, Budget: 30, MinWorkload: 30,
		Confidence: 0.98, Parallelism: 1, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Comparisons <= obs.DefaultMaxSpans {
		t.Fatalf("only %d comparisons: the run does not overflow the %d-span ring", res.Stats.Comparisons, obs.DefaultMaxSpans)
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != obs.DefaultMaxSpans {
		t.Fatalf("trace holds %d spans, want the ring's %d", len(spans), obs.DefaultMaxSpans)
	}
	dropped := tel.TraceDropped()
	if dropped < res.Stats.Comparisons-obs.DefaultMaxSpans {
		t.Fatalf("TraceDropped = %d, want at least %d", dropped, res.Stats.Comparisons-obs.DefaultMaxSpans)
	}
	// The query span finishes last, so the ring still holds it.
	if spans[len(spans)-1].Name != "query" {
		t.Errorf("newest span is %q, want the query span", spans[len(spans)-1].Name)
	}

	var metrics bytes.Buffer
	if err := tel.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	want := obs.MSpansDropped + " " + strconv.FormatInt(dropped, 10)
	if !strings.Contains(metrics.String(), want) {
		t.Errorf("metrics scrape lacks %q", want)
	}
}

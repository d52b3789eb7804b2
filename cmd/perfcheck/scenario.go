// The cold-vs-warm scenario measures what the judgment store is for: a
// fleet whose traffic half-repeats itself should answer the repeated half
// from stored verdicts at near-zero marginal TMC, without changing any
// answer. It runs a fixed 8-query mix (4 algorithms × k∈{5,8}, the k=5
// half previously executed and committed) cold and warm, gates warm TMC
// at 20% of cold with byte-identical top-k, and finally replays one
// repeat query through the HTTP service to check that the store counters
// in /debug/accounting reconcile exactly with the engine's TMC.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"

	"crowdtopk"
	"crowdtopk/internal/service"
)

// scenarioQuery is one query of the mix. Repeat queries were executed
// during the warming pass, so the warm run finds all their pairs stored.
type scenarioQuery struct {
	Algorithm crowdtopk.Algorithm `json:"algorithm"`
	K         int                 `json:"k"`
	Repeat    bool                `json:"repeat"`

	ColdTMC   int64 `json:"cold_tmc"`
	WarmTMC   int64 `json:"warm_tmc"`
	Identical bool  `json:"identical"`
	TopK      []int `json:"top_k"`
}

// scenarioReport is the JSON artifact (BENCH_PR7.json) shape.
type scenarioReport struct {
	Items      int             `json:"items"`
	Noise      float64         `json:"noise"`
	Seed       int64           `json:"seed"`
	Confidence float64         `json:"confidence"`
	Budget     int             `json:"budget_per_pair"`
	Queries    []scenarioQuery `json:"queries"`

	ColdTotalTMC int64   `json:"cold_total_tmc"`
	WarmTotalTMC int64   `json:"warm_total_tmc"`
	Ratio        float64 `json:"warm_cold_ratio"`
	MaxRatio     float64 `json:"max_ratio"`

	Store      crowdtopk.JudgmentStoreStats `json:"store"`
	Accounting *service.Accounting          `json:"service_accounting,omitempty"`
}

// warmMaxRatio is the warm/cold TMC ratio the scenario gates at.
const warmMaxRatio = 0.20

// runWarmScenario executes the mix and returns the report, or an error
// describing the first violated gate.
func runWarmScenario() (*scenarioReport, error) {
	rep := &scenarioReport{
		Items: 60, Noise: 0.25, Seed: 75, Confidence: 0.95, Budget: 400,
		MaxRatio: warmMaxRatio,
	}
	d := crowdtopk.SyntheticDataset(rep.Items, rep.Noise, 70)
	opts := func(alg crowdtopk.Algorithm, k int, s crowdtopk.JudgmentStore) crowdtopk.Options {
		return crowdtopk.Options{
			K: k, Algorithm: alg, Confidence: rep.Confidence,
			Budget: rep.Budget, Seed: rep.Seed, JudgmentStore: s,
		}
	}

	// The mix: four algorithms at k=5 (the warmed, repeated half) and at
	// k=8 (novel queries that still overlap heavily in their pairs).
	algs := []crowdtopk.Algorithm{
		crowdtopk.HeapSort, crowdtopk.TourTree, crowdtopk.QuickSelect, crowdtopk.SPR,
	}
	for _, k := range []int{5, 8} {
		for _, alg := range algs {
			rep.Queries = append(rep.Queries, scenarioQuery{Algorithm: alg, K: k, Repeat: k == 5})
		}
	}

	// Cold pass: every query on a fresh session, no store.
	for i := range rep.Queries {
		q := &rep.Queries[i]
		res, err := crowdtopk.Query(d, opts(q.Algorithm, q.K, nil))
		if err != nil {
			return nil, fmt.Errorf("cold %s k=%d: %w", q.Algorithm, q.K, err)
		}
		q.ColdTMC = res.TMC
		q.TopK = res.TopK
		rep.ColdTotalTMC += res.TMC
	}

	// Warming pass: the repeat half runs once and commits its verdicts —
	// the history a fleet has already paid for.
	store := crowdtopk.NewMemoryJudgmentStore()
	for _, q := range rep.Queries {
		if !q.Repeat {
			continue
		}
		if _, err := crowdtopk.Query(d, opts(q.Algorithm, q.K, store)); err != nil {
			return nil, fmt.Errorf("warming %s k=%d: %w", q.Algorithm, q.K, err)
		}
	}

	// Warm pass: the same mix, each query again on a fresh session so the
	// store is the only channel of reuse.
	for i := range rep.Queries {
		q := &rep.Queries[i]
		res, err := crowdtopk.Query(d, opts(q.Algorithm, q.K, store))
		if err != nil {
			return nil, fmt.Errorf("warm %s k=%d: %w", q.Algorithm, q.K, err)
		}
		q.WarmTMC = res.TMC
		q.Identical = reflect.DeepEqual(res.TopK, q.TopK)
		rep.WarmTotalTMC += res.TMC
	}
	rep.Ratio = float64(rep.WarmTotalTMC) / float64(rep.ColdTotalTMC)
	rep.Store = crowdtopk.JudgmentStoreStats{Size: store.Len()}

	for _, q := range rep.Queries {
		if !q.Identical {
			return rep, fmt.Errorf("warm %s k=%d returned a different top-k than cold", q.Algorithm, q.K)
		}
	}
	if rep.Ratio > rep.MaxRatio {
		return rep, fmt.Errorf("warm TMC %d is %.1f%% of cold %d, above the %.0f%% gate",
			rep.WarmTotalTMC, 100*rep.Ratio, rep.ColdTotalTMC, 100*rep.MaxRatio)
	}

	// Accounting reconciliation: replay one repeat query through the HTTP
	// service against the warm store and read /debug/accounting. A pure
	// repeat is answered entirely from the store, so the invariant is
	// exact: zero engine TMC, zero misses, zero stale — every comparison
	// explained by a hit.
	acct, err := serviceAccounting(d, opts(crowdtopk.HeapSort, 5, store))
	if err != nil {
		return rep, err
	}
	rep.Accounting = acct
	if !acct.Balanced {
		return rep, fmt.Errorf("/debug/accounting unbalanced: %+v", *acct)
	}
	if acct.SessionTMC != 0 || acct.StoreMisses != 0 || acct.StoreStale != 0 {
		return rep, fmt.Errorf("repeat query not fully explained by store hits: %+v", *acct)
	}
	if acct.StoreHits == 0 {
		return rep, fmt.Errorf("repeat query reported no store hits: %+v", *acct)
	}
	return rep, nil
}

// serviceAccounting runs one query through the query service and returns
// the /debug/accounting view at quiescence.
func serviceAccounting(d crowdtopk.Oracle, opts crowdtopk.Options) (*service.Accounting, error) {
	tel := crowdtopk.NewTelemetry()
	opts.Telemetry = tel
	k := opts.K
	opts.K = 0 // sessions validate without a fixed K
	sess, err := crowdtopk.NewSession(d, opts)
	if err != nil {
		return nil, fmt.Errorf("service session: %w", err)
	}
	defer sess.Close()
	sess.EnableAuditLog()
	srv := service.New(service.Config{Session: sess, Telemetry: tel, AuditEnabled: true})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	body, _ := json.Marshal(service.Request{K: k, Algorithm: string(opts.Algorithm)})
	resp, err := http.Post(hs.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for st.State != "done" && st.State != "canceled" {
		r, err := http.Get(hs.URL + "/queries/" + st.ID)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if st.State != "done" || st.Error != "" {
		return nil, fmt.Errorf("service query finished %q: %s", st.State, st.Error)
	}
	r, err := http.Get(hs.URL + "/debug/accounting")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var acct service.Accounting
	if err := json.NewDecoder(r.Body).Decode(&acct); err != nil {
		return nil, err
	}
	return &acct, nil
}

func scenarioMain(jsonOut string) {
	rep, err := runWarmScenario()
	if rep != nil {
		for _, q := range rep.Queries {
			mark := "ok"
			if !q.Identical {
				mark = "DIVERGED"
			}
			kind := "novel "
			if q.Repeat {
				kind = "repeat"
			}
			fmt.Printf("%-12s k=%d %s  cold %6d  warm %6d  %s\n",
				q.Algorithm, q.K, kind, q.ColdTMC, q.WarmTMC, mark)
		}
		fmt.Printf("perfcheck: warm scenario: warm %d / cold %d = %.1f%% (gate %.0f%%)\n",
			rep.WarmTotalTMC, rep.ColdTotalTMC, 100*rep.Ratio, 100*rep.MaxRatio)
		if a := rep.Accounting; a != nil {
			fmt.Printf("perfcheck: /debug/accounting: tmc=%d hits=%d misses=%d stale=%d commits=%d balanced=%v\n",
				a.SessionTMC, a.StoreHits, a.StoreMisses, a.StoreStale, a.StoreCommits, a.Balanced)
		}
		if werr := writeJSON(jsonOut, rep); werr != nil {
			fatalf("warm scenario: %v", werr)
		}
	}
	if err != nil {
		fatalf("warm scenario: %v", err)
	}
}

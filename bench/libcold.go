package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"crowdtopk"
	"crowdtopk/internal/topk"
)

// lib-cold: one client calling crowdtopk.Query back to back, each call on
// a fresh runner with the direct dataset oracle, deterministic
// scheduling and no telemetry, store or audit log. The microtask hot
// path (dataset kernels → crowd engine → compare policy and stats →
// topk algorithm loop) does nearly all the work; service, jstore, auditlog and
// cross-query sched do none. PBR is left out: one PBR query at n=200
// buys about 250k microtasks and would fill most of the run.

var (
	libAlgorithms = []crowdtopk.Algorithm{crowdtopk.SPR, crowdtopk.TourTree, crowdtopk.HeapSort, crowdtopk.QuickSelect}
	libKs         = []int{5, 10}
)

const (
	libSyntheticItems = 200
	libNoise          = 0.3
	// libSyntheticSets is how many synthetic datasets the mix spans, so
	// cheap synthetic queries are two thirds of the mix and the median
	// latency sits inside one cluster, not between two.
	libSyntheticSets = 12
	libIMDbSeed      = 1
	libIMDbSeeds     = 6 // query seeds per IMDb cell
	libSetupReps     = 5
	// The comparison settings, set explicitly so the queries and their
	// infimum base cannot drift apart: the paper's defaults.
	libConfidence  = 0.98
	libBudget      = 1000
	libMinWorkload = 30
	// libParallelism is the wave pool's width. The harness runs on one
	// core (see benchProcs), where GOMAXPROCS would be 1 and the
	// Parallelism-1 twin check would compare a query with itself; two
	// workers keep a second schedule to compare against.
	libParallelism = 2
)

// libQuery is one query of the mix.
type libQuery struct {
	ds      crowdtopk.Dataset
	opts    crowdtopk.Options
	infimum float64 // Lemma 1 TMC floor, the money metric's base
}

func (q libQuery) String() string {
	return fmt.Sprintf("%s/%s/%s/k=%d/seed=%d", q.ds.Name(), q.opts.Algorithm, q.opts.Policy, q.opts.K, q.opts.Seed)
}

// libMix builds the seeded query mix: {spr, tourtree, heapsort,
// quickselect} × {fixed, voi, pac} × k ∈ {5, 10} on seeded synthetic
// data and on the 1,225-item IMDb stand-in, in a seeded order. Each
// synthetic cell runs on libSyntheticSets datasets and each IMDb cell
// with libIMDbSeeds query seeds, so the money metrics average over many
// draws. The IMDb stand-in is one fixed dataset, as the real one is;
// the seed varies its queries.
func libMix(seed int64) []libQuery {
	rng := rand.New(rand.NewSource(seed))
	var sets []crowdtopk.Dataset
	for i := 0; i < libSyntheticSets; i++ {
		sets = append(sets, crowdtopk.SyntheticDataset(libSyntheticItems, libNoise, rng.Int63()))
	}
	imdb := crowdtopk.IMDbDataset(libIMDbSeed)
	for i := 0; i < libIMDbSeeds; i++ {
		sets = append(sets, imdb)
	}
	var mix []libQuery
	for _, ds := range sets {
		for _, alg := range libAlgorithms {
			for _, pol := range policies {
				for _, k := range libKs {
					mix = append(mix, libQuery{ds: ds, opts: crowdtopk.Options{
						K: k, Algorithm: alg, Policy: crowdtopk.PolicyName(pol),
						Confidence: libConfidence, Budget: libBudget, MinWorkload: libMinWorkload,
						Parallelism: libParallelism, Seed: 1 + rng.Int63n(1<<30),
					}})
				}
			}
		}
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// libWarmUp runs one fixed-policy query per algorithm on each dataset
// kind, so lazy initialisation finishes and the heap has grown to the
// mix's size before the measured window.
func libWarmUp() error {
	for _, d := range []crowdtopk.Dataset{
		crowdtopk.SyntheticDataset(libSyntheticItems, libNoise, 1), crowdtopk.IMDbDataset(libIMDbSeed),
	} {
		for _, alg := range libAlgorithms {
			if _, err := crowdtopk.Query(d, crowdtopk.Options{K: 10, Algorithm: alg, Seed: 1}); err != nil {
				return err
			}
		}
	}
	return nil
}

// libPhase is one measured window over the mix.
type libPhase struct {
	first   []crowdtopk.Result // first answer of each mix entry
	latMS   []float64          // one per call
	elapsed time.Duration
}

// runLibPhase cycles through the mix for the given time, and at least
// once through all of it, so the money metrics always cover the whole
// mix. wrap, when non-nil, puts each oracle behind a boundary timer.
func runLibPhase(rep *report, mix []libQuery, seconds float64, wrap func(crowdtopk.Dataset) crowdtopk.Oracle, tel *crowdtopk.Telemetry) libPhase {
	ph := libPhase{first: make([]crowdtopk.Result, len(mix))}
	start := time.Now()
	for i := 0; i < len(mix) || time.Since(start).Seconds() < seconds; i++ {
		q := mix[i%len(mix)]
		var o crowdtopk.Oracle = q.ds
		if wrap != nil {
			o = wrap(q.ds)
		}
		opts := q.opts
		opts.Telemetry = tel
		t := time.Now()
		res, err := crowdtopk.Query(o, opts)
		d := time.Since(t)
		ph.latMS = append(ph.latMS, float64(d)/1e6)
		rep.attempted++
		res.Stats = nil // telemetry snapshots differ by design; answers must not
		if err != nil {
			rep.fail("%v: %v", q, err)
		}
		if i < len(mix) {
			ph.first[i] = res
			continue
		}
		if first := ph.first[i%len(mix)]; !sameAnswer(res, first) {
			rep.diverged(q, q.opts.Policy == crowdtopk.FixedPolicy, fmt.Sprintf("repeat answered %v tmc %d rounds %d, first run %v tmc %d rounds %d",
				res.TopK, res.TMC, res.Rounds, first.TopK, first.TMC, first.Rounds))
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// sameAnswer compares the fields deterministic mode fixes for a seed.
func sameAnswer(a, b crowdtopk.Result) bool {
	return reflect.DeepEqual(a.TopK, b.TopK) && a.TMC == b.TMC && a.Rounds == b.Rounds
}

func runLibCold(cfg runConfig) (*report, error) {
	rep := newReport()
	mix, setupS, err := setupMedian(libSetupReps, func() ([]libQuery, error) {
		mix := libMix(cfg.seed)
		return mix, libWarmUp()
	}, nil)
	if err != nil {
		return nil, err
	}
	type cell struct {
		ds crowdtopk.Dataset
		k  int
	}
	infima := map[cell]float64{}
	for i := range mix {
		q := &mix[i]
		key := cell{q.ds, q.opts.K}
		if _, ok := infima[key]; !ok {
			infima[key] = topk.InfimumCost(q.ds, q.opts.K, infimumParams(q.opts))
		}
		q.infimum = infima[key]
	}

	rss := startRSS()
	base := runLibPhase(rep, mix, cfg.seconds, nil, nil)
	e := rep.e2e
	e["peak_rss_mb"] = rss.peak()
	checkLibAnswers(rep, mix, base.first)

	e["setup_s"] = setupS
	latencyMetrics(rep, base.latMS, float64(len(base.latMS))/base.elapsed.Seconds())
	money := moneyOf(mix, base.first)
	e["tmc_per_query"], e["rounds_per_query"], e["ndcg"] = money.tmc, money.rounds, money.ndcg
	rep.note("lib-cold: %d queries in %.2fs over a %d-query mix; tmc_per_query base: Σ topk.Infimum %.0f over %d queries (%.1f per query, ratio %.3f)",
		len(base.latMS), base.elapsed.Seconds(), len(mix), money.infimum*float64(len(mix)), len(mix), money.infimum, ratio(money.tmc, money.infimum))
	policyLayer(rep, mix, base.first)

	if !cfg.trace {
		return rep, nil
	}
	var ot timer
	tel := crowdtopk.NewTelemetry()
	before := tel.Obs().Registry().Snapshot()
	rt := readRuntime()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced := runLibPhase(rep, mix, cfg.seconds, func(d crowdtopk.Dataset) crowdtopk.Oracle { return wrapOracle(d, &ot) }, tel)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	l := rep.layer
	runtimeLayer(l, rt, len(traced.latMS))
	cpuLayer(l, shares)
	telemetryLayer(l, tel, before, len(traced.latMS))
	l["dataset.ns_per_answer"] = ratio(float64(ot.ns.Load()), float64(ot.units.Load()))
	for i, q := range mix {
		if t, b := traced.first[i], base.first[i]; !sameAnswer(t, b) {
			rep.diverged(q, q.opts.Policy == crowdtopk.FixedPolicy, fmt.Sprintf("traced run answered %v tmc %d rounds %d, untraced %v tmc %d rounds %d",
				t.TopK, t.TMC, t.Rounds, b.TopK, b.TMC, b.Rounds))
		}
	}
	var sel, part, rank, sprTMC int64
	for _, res := range base.first {
		if ph := res.Phases; ph != nil {
			sel, part, rank = sel+ph.SelectTMC, part+ph.PartitionTMC, rank+ph.RankTMC
			sprTMC += res.TMC
		}
	}
	l["topk.select_tmc_share"] = ratio(float64(sel), float64(sprTMC))
	l["topk.partition_tmc_share"] = ratio(float64(part), float64(sprTMC))
	l["topk.rank_tmc_share"] = ratio(float64(rank), float64(sprTMC))
	l["topk.infimum_per_query"] = money.infimum
	traceOverhead(rep, float64(len(base.latMS))/base.elapsed.Seconds(), float64(len(traced.latMS))/traced.elapsed.Seconds())
	return rep, nil
}

// checkLibAnswers holds each answer to the deterministic-mode contract:
// its Parallelism-1 twin, run outside the measured window, returns the
// same (TopK, TMC, Rounds); and the top-k is k distinct in-range items.
func checkLibAnswers(rep *report, mix []libQuery, got []crowdtopk.Result) {
	for i, q := range mix {
		res := got[i]
		if err := validTopK(res.TopK, q.opts.K, q.ds.NumItems()); err != nil {
			rep.fail("%v: %v", q, err)
		}
		opts := q.opts
		opts.Parallelism = 1
		twin, err := crowdtopk.Query(q.ds, opts)
		if err != nil {
			rep.fail("%v: parallelism-1 twin: %v", q, err)
			continue
		}
		if !sameAnswer(res, twin) {
			rep.diverged(q, q.opts.Policy == crowdtopk.FixedPolicy, fmt.Sprintf("parallelism %d answered %v tmc %d rounds %d, parallelism 1 %v tmc %d rounds %d",
				q.opts.Parallelism, res.TopK, res.TMC, res.Rounds, twin.TopK, twin.TMC, twin.Rounds))
		}
	}
}

// money is the mean cost, latency and quality of a set of answers.
type money struct {
	tmc, rounds, ndcg, infimum float64
}

func moneyOf(mix []libQuery, got []crowdtopk.Result) money {
	var m money
	for i, q := range mix {
		m.tmc += float64(got[i].TMC)
		m.rounds += float64(got[i].Rounds)
		m.ndcg += crowdtopk.Evaluate(q.ds, got[i].TopK).NDCG
		m.infimum += q.infimum
	}
	n := float64(len(mix))
	return money{m.tmc / n, m.rounds / n, m.ndcg / n, m.infimum / n}
}

// policyLayer reports each policy's (TMC, rounds, NDCG) frontier point
// against the infimum of the same queries.
func policyLayer(rep *report, mix []libQuery, got []crowdtopk.Result) {
	for _, p := range policies {
		var sub []libQuery
		var subGot []crowdtopk.Result
		for i, q := range mix {
			if string(q.opts.Policy) == p {
				sub, subGot = append(sub, q), append(subGot, got[i])
			}
		}
		m := moneyOf(sub, subGot)
		pre := "policy." + p + "."
		rep.layer[pre+"tmc_per_query"] = m.tmc
		rep.layer[pre+"rounds_per_query"] = m.rounds
		rep.layer[pre+"ndcg"] = m.ndcg
		rep.layer[pre+"tmc_over_infimum"] = ratio(m.tmc, m.infimum)
		rep.layer[pre+"infimum_per_query"] = m.infimum
		rep.note("policy %-5s tmc/query %10.1f  rounds/query %7.1f  ndcg %.4f  tmc/infimum %.3f (infimum base %.1f per query, %d queries)",
			p, m.tmc, m.rounds, m.ndcg, ratio(m.tmc, m.infimum), m.infimum, len(sub))
	}
}

// infimumParams is the Lemma 1/3 base for a query's own comparison
// settings.
func infimumParams(o crowdtopk.Options) topk.InfimumParams {
	return topk.InfimumParams{Alpha: 1 - o.Confidence, B: o.Budget, I: o.MinWorkload}
}

// latencyMetrics fills throughput, median and tail latency.
func latencyMetrics(rep *report, latMS []float64, qps float64) {
	rep.e2e["queries_per_s"] = qps
	rep.e2e["query_p50_ms"] = median(latMS)
	pct, v, beyond, ok := tail(latMS)
	if !ok {
		pct, v = 50, median(latMS)
	}
	rep.e2e["query_tail_ms"] = v
	rep.note("query_tail_ms is p%g of %d samples (%d beyond it)", pct, len(latMS), beyond)
}

// traceOverhead reports traced vs untraced throughput with both bases.
func traceOverhead(rep *report, untraced, traced float64) {
	rep.layer["obs.untraced_queries_per_s"] = untraced
	rep.layer["obs.traced_queries_per_s"] = traced
	rep.layer["obs.trace_overhead"] = ratio(untraced, traced) - 1
	rep.note("trace overhead: %.2f%% (untraced %.3f queries/s, traced %.3f queries/s)",
		100*(ratio(untraced, traced)-1), untraced, traced)
}

// setupMedian runs build reps times, timing each, and returns the last
// value with the median time; earlier values go to discard.
func setupMedian[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var v T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		start := time.Now()
		var err error
		v, err = build()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return v, 0, fmt.Errorf("setup: %w", err)
		}
	}
	return v, median(secs), nil
}

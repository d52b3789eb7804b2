package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"crowdtopk"
	"crowdtopk/internal/jstore"
)

// warm-repeat: one client running a sequence of fresh Sessions
// ("tenants") that share one FileJudgmentStore. Set-up fills the store
// with a cold pass; every pass of the measured loop starts from a fresh
// copy of it. Tenants query overlapping item subsets under two policies,
// so fresh store hits, cross-policy re-verification and new commits all
// occur: jstore lookups and commits and the runner's store-trust path do
// the work, the engine little. lib-cold bypasses the store, so a store
// change should not move lib-cold.
//
// Store keys are item indices, so tenants must agree on what an index
// means: every tenant's catalogue is a prefix of one seeded permutation
// of the base items, and two tenants share exactly the pairs among their
// common prefix.

const (
	warmBaseItems = 160
	warmNoise     = 0.3
	warmSetupReps = 3
	warmWorlds    = 4
)

var (
	warmColdSizes = []int{60, 100}
	warmSizes     = []int{60, 80, 100, 120}
	warmPolicies  = []crowdtopk.PolicyName{crowdtopk.FixedPolicy, crowdtopk.VoIPolicy}
)

// warmTenant is one tenant session's single query.
type warmTenant struct {
	size   int // catalogue: the first size items of the permutation
	alg    crowdtopk.Algorithm
	k      int
	policy crowdtopk.PolicyName
	// replay, when set, is the cold-pass answer this tenant repeats with
	// the same policy: DESIGN's derived-runner skip makes tourtree,
	// heapsort and quickselect replay it byte-identically at zero TMC.
	replay []int
}

func (t warmTenant) String() string {
	return fmt.Sprintf("n=%d/%s/%s/k=%d", t.size, t.alg, t.policy, t.k)
}

// warmWorld is one base dataset with its catalogues, its cold store
// image and its tenant sequence. A pass runs several worlds, each on its
// own store, so the money metrics average over several draws of the
// data instead of riding on one.
type warmWorld struct {
	subsets map[int]crowdtopk.Dataset
	seed    int64
	cold    []byte // the cold store file
	tenants []warmTenant
}

func (f *warmWorld) options(t warmTenant, st crowdtopk.JudgmentStore, tel *crowdtopk.Telemetry) crowdtopk.Options {
	return crowdtopk.Options{
		Algorithm: t.alg, Policy: t.policy, Confidence: 0.95, Budget: 400,
		Seed: f.seed, JudgmentStore: st, Telemetry: tel,
	}
}

// warmResult is one tenant's answer and where its time went.
type warmResult struct {
	w           *warmWorld
	t           warmTenant
	res         crowdtopk.Result
	err         error
	sessTMC     int64
	auditLen    int64
	start, wait time.Duration
}

// runTenant runs one tenant: a fresh session over its catalogue, one
// StartTopK and Wait, then Close.
func (f *warmWorld) runTenant(t warmTenant, st crowdtopk.JudgmentStore, wrap func(crowdtopk.Dataset) crowdtopk.Oracle, tel *crowdtopk.Telemetry) warmResult {
	var o crowdtopk.Oracle = f.subsets[t.size]
	if wrap != nil {
		o = wrap(f.subsets[t.size])
	}
	out := warmResult{w: f, t: t}
	s, err := crowdtopk.NewSession(o, f.options(t, st, tel))
	if err != nil {
		out.err = err
		return out
	}
	s.EnableAuditLog()
	begin := time.Now()
	h, err := s.StartTopK(context.Background(), t.k, crowdtopk.QueryOptions{})
	out.start = time.Since(begin)
	if err == nil {
		begin = time.Now()
		out.res, out.err = h.Wait()
		out.wait = time.Since(begin)
	} else {
		out.err = err
	}
	out.res.Stats = nil
	out.sessTMC, out.auditLen = s.TMC(), int64(len(s.AuditLog()))
	if cerr := s.Close(); out.err == nil {
		out.err = cerr
	}
	return out
}

// newWarmWorlds builds the workload's worlds under dir.
func newWarmWorlds(seed int64, dir string) ([]*warmWorld, error) {
	rng := rand.New(rand.NewSource(seed))
	var ws []*warmWorld
	for i := 0; i < warmWorlds; i++ {
		wdir := filepath.Join(dir, fmt.Sprint("world-", i))
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return nil, err
		}
		w, err := newWarmWorld(rng.Int63(), wdir)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// newWarmWorld builds the catalogues, runs the cold pass into a store
// under dir and draws the tenant sequence.
func newWarmWorld(seed int64, dir string) (*warmWorld, error) {
	rng := rand.New(rand.NewSource(seed))
	base := crowdtopk.SyntheticDataset(warmBaseItems, warmNoise, rng.Int63())
	perm := rng.Perm(warmBaseItems)
	f := &warmWorld{subsets: map[int]crowdtopk.Dataset{}, seed: 1 + rng.Int63n(1<<30)}
	for _, m := range warmSizes {
		f.subsets[m] = crowdtopk.SubsetDataset(base, perm[:m])
	}
	path := filepath.Join(dir, "cold.jsonl")
	st, err := crowdtopk.OpenFileJudgmentStore(path)
	if err != nil {
		return nil, err
	}
	var history []warmTenant
	for _, m := range warmColdSizes {
		for _, alg := range libAlgorithms {
			t := warmTenant{size: m, alg: alg, k: 5, policy: crowdtopk.FixedPolicy}
			r := f.runTenant(t, st, nil, nil)
			if r.err != nil {
				st.Close()
				return nil, fmt.Errorf("cold pass %v: %w", t, r.err)
			}
			if alg != crowdtopk.SPR {
				t.replay = r.res.TopK
			}
			history = append(history, t)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if f.cold, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	// The replayed history runs first, while the store still holds the
	// cold verdicts under their own policy: a later cross-policy tenant
	// re-verifies and overwrites some of them.
	// Then every catalogue × algorithm × k × policy once, in a seeded
	// order: a balanced pass keeps the run-to-run spread down.
	var novel []warmTenant
	for _, m := range warmSizes {
		for _, alg := range libAlgorithms {
			for _, k := range libKs {
				for _, pol := range warmPolicies {
					novel = append(novel, warmTenant{size: m, alg: alg, k: k, policy: pol})
				}
			}
		}
	}
	rng.Shuffle(len(novel), func(i, j int) { novel[i], novel[j] = novel[j], novel[i] })
	f.tenants = append(history, novel...)
	return f, nil
}

// openCopy writes a fresh copy of the cold store and opens it.
func (f *warmWorld) openCopy(path string) (*crowdtopk.FileJudgmentStore, error) {
	if err := os.WriteFile(path, f.cold, 0o644); err != nil {
		return nil, err
	}
	return crowdtopk.OpenFileJudgmentStore(path)
}

// warmPhase is one measured window of passes over the tenant sequence.
type warmPhase struct {
	first           []warmResult // pass 1
	latMS           []float64    // one per tenant query
	startUS, waitMS []float64
	busy            time.Duration // summed pass time, store resets excluded
	reloadMS        []float64
}

// runWarmPhase runs whole passes until the time is spent. Each pass
// starts every world from a fresh copy of its cold store; the reset is
// timed as a reload, outside the measured window.
func runWarmPhase(rep *report, worlds []*warmWorld, dir string, seconds float64, wrap func(crowdtopk.Dataset) crowdtopk.Oracle, wrapStore func(jstore.Store) jstore.Store, tel *crowdtopk.Telemetry) (warmPhase, error) {
	var ph warmPhase
	for pass := 0; pass == 0 || ph.busy.Seconds() < seconds; pass++ {
		i := 0
		for wi, w := range worlds {
			path := filepath.Join(dir, fmt.Sprintf("pass-%d-%d.jsonl", pass, wi))
			begin := time.Now()
			fs, err := w.openCopy(path)
			if err != nil {
				return ph, err
			}
			ph.reloadMS = append(ph.reloadMS, float64(time.Since(begin))/1e6)
			var st crowdtopk.JudgmentStore = fs
			if wrapStore != nil {
				st = wrapStore(st)
			}
			passStart := time.Now()
			tainted := false // an earlier tenant's divergence reached this store
			for _, t := range w.tenants {
				begin := time.Now()
				r := w.runTenant(t, st, wrap, tel)
				ph.latMS = append(ph.latMS, float64(time.Since(begin))/1e6)
				ph.startUS = append(ph.startUS, float64(r.start)/1e3)
				ph.waitMS = append(ph.waitMS, float64(r.wait)/1e6)
				rep.attempted++
				checkTenant(rep, r)
				if pass == 0 {
					ph.first = append(ph.first, r)
				} else if first := ph.first[i].res; !sameAnswer(r.res, first) {
					rep.diverged(t, t.policy == crowdtopk.FixedPolicy && !tainted, fmt.Sprintf("pass %d answered %v tmc %d, pass 1 %v tmc %d",
						pass+1, r.res.TopK, r.res.TMC, first.TopK, first.TMC))
					tainted = true
				}
				i++
			}
			ph.busy += time.Since(passStart)
			if err := fs.Close(); err != nil {
				return ph, err
			}
			os.Remove(path)
			os.Remove(path + ".lock")
		}
	}
	return ph, nil
}

// checkTenant holds one tenant's answer to the store contracts: a valid
// top-k, reconciled money (query TMC == session TMC == audit length), and
// for a same-policy replay of tourtree, heapsort or quickselect the cold
// answer at zero TMC.
func checkTenant(rep *report, r warmResult) {
	t := r.t
	if r.err != nil {
		rep.fail("%v: %v", t, r.err)
		return
	}
	if err := validTopK(r.res.TopK, t.k, t.size); err != nil {
		rep.fail("%v: %v", t, err)
	}
	l := ledger{queryTMC: []int64{r.res.TMC}, sessionTMC: r.sessTMC, auditLen: r.auditLen}
	if err := l.reconcile(); err != nil {
		rep.fail("%v: %v", t, err)
	}
	if t.replay != nil && (r.res.TMC != 0 || !reflect.DeepEqual(r.res.TopK, t.replay)) {
		rep.fail("%v: warm replay answered %v at tmc %d, cold answer %v", t, r.res.TopK, r.res.TMC, t.replay)
	}
}

func runWarmRepeat(cfg runConfig) (*report, error) {
	rep := newReport()
	n := 0
	worlds, setupS, err := setupMedian(warmSetupReps, func() ([]*warmWorld, error) {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("setup-%d", n))
		n++
		ws, err := newWarmWorlds(cfg.seed, dir)
		if err != nil {
			return nil, err
		}
		// The reload every pass starts with is set-up work too.
		for i, w := range ws {
			fs, err := w.openCopy(filepath.Join(dir, fmt.Sprint("reload-", i, ".jsonl")))
			if err != nil {
				return nil, err
			}
			if err := fs.Close(); err != nil {
				return nil, err
			}
		}
		return ws, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.tmp, "passes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rss := startRSS()
	base, err := runWarmPhase(rep, worlds, dir, cfg.seconds, nil, nil, nil)
	peakRSS := rss.peak()
	if err != nil {
		return nil, err
	}
	e := rep.e2e
	e["setup_s"] = setupS
	e["peak_rss_mb"] = peakRSS
	baseQPS := float64(len(base.latMS)) / base.busy.Seconds()
	latencyMetrics(rep, base.latMS, baseQPS)
	var tmc, rounds, ndcg float64
	for _, r := range base.first {
		tmc += float64(r.res.TMC)
		rounds += float64(r.res.Rounds)
		ndcg += crowdtopk.Evaluate(r.w.subsets[r.t.size], r.res.TopK).NDCG
	}
	q := float64(len(base.first))
	e["tmc_per_query"], e["rounds_per_query"], e["ndcg"] = tmc/q, rounds/q, ndcg/q
	rep.note("warm-repeat: %d tenant queries in %d passes of %d worlds × %d tenants (%d replayed cold history each), %.2fs measured",
		len(base.latMS), len(base.latMS)/len(base.first), len(worlds), len(worlds[0].tenants), len(warmColdSizes)*len(libAlgorithms), base.busy.Seconds())
	if !cfg.trace {
		return rep, nil
	}

	var ot timer
	var stt storeTimers
	tel := crowdtopk.NewTelemetry()
	before := tel.Obs().Registry().Snapshot()
	rt := readRuntime()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, err := runWarmPhase(rep, worlds, dir, cfg.seconds,
		func(d crowdtopk.Dataset) crowdtopk.Oracle { return wrapOracle(d, &ot) },
		func(s jstore.Store) jstore.Store { return &store{s, &stt} }, tel)
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	l := rep.layer
	runtimeLayer(l, rt, len(traced.latMS))
	cpuLayer(l, shares)
	telemetryLayer(l, tel, before, len(traced.latMS))
	l["dataset.ns_per_answer"] = ratio(float64(ot.ns.Load()), float64(ot.units.Load()))
	l["session.start_us"] = mean(traced.startUS)
	l["session.wait_ms"] = mean(traced.waitMS)
	l["jstore.lookups"] = float64(stt.lookup.calls.Load())
	l["jstore.lookup_us"] = stt.lookup.meanUS()
	l["jstore.commits"] = float64(stt.commit.calls.Load())
	l["jstore.commit_us"] = stt.commit.meanUS()
	l["jstore.reload_ms"] = mean(traced.reloadMS)
	tainted := map[*warmWorld]bool{}
	for i, r := range traced.first {
		if b := base.first[i].res; !sameAnswer(r.res, b) {
			rep.diverged(r.t, r.t.policy == crowdtopk.FixedPolicy && !tainted[r.w], fmt.Sprintf("traced run answered %v tmc %d, untraced %v tmc %d",
				r.res.TopK, r.res.TMC, b.TopK, b.TMC))
			tainted[r.w] = true
		}
	}
	traceOverhead(rep, baseQPS, float64(len(traced.latMS))/traced.busy.Seconds())
	return rep, nil
}

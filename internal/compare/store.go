package compare

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jstore"
)

// StorePolicy governs when a stored judgment may be trusted as-is and
// when it has gone stale and must be re-verified against fresh evidence.
type StorePolicy struct {
	// TTL is the record age beyond which preferences are presumed to have
	// drifted. A record younger than TTL is served fresh: its verdict is
	// memoized and its bag replayed at zero TMC. Past TTL the record's
	// evidence decays exponentially (half-life TTL): the decayed posterior
	// seeds the pair as a prior, and the comparison still buys a reduced
	// verification batch before concluding — the evidence-decay shape of
	// Bayesian dynamic ranking. TTL <= 0 means records never go stale.
	TTL time.Duration
	// Confidence is the per-comparison confidence level 1−α this fleet
	// concludes at. Records concluded at a lower level are not trusted as
	// verdicts — they seed the pair as a prior to verify, like stale ones.
	Confidence float64
}

// stale reports whether a record must be re-verified, and the evidence
// decay factor in (0, 1] to apply to its posterior.
func (p StorePolicy) stale(rec jstore.Record, now time.Time) (bool, float64) {
	if rec.Confidence+1e-12 < p.Confidence {
		return true, 1 // adequate evidence, inadequate confidence: verify
	}
	if p.TTL <= 0 {
		return false, 1
	}
	age := now.Sub(time.Unix(0, rec.UnixNano))
	if age <= p.TTL {
		return false, 1
	}
	over := float64(age-p.TTL) / float64(p.TTL)
	return true, math.Exp2(-over)
}

// storeDecision is the latched outcome of one pair's store consultation.
type storeDecision uint8

const (
	storeMiss storeDecision = iota + 1
	storeHit
	storeStale
)

type seenEntry struct {
	d      storeDecision
	o      Outcome // toward lo, valid when d == storeHit
	pol    string  // committing policy of a hit record (see trustsPolicy)
	verify bool    // stale prior seeded, one reduced batch still owed
}

type seenStripe struct {
	mu sync.Mutex
	m  map[[2]int]seenEntry
}

// storeState is the judgment-store attachment shared by every runner
// forked or derived off one session: the store itself, the staleness
// policy, the per-pair consultation latch (so a pair is looked up and
// seeded at most once per session, however many queries touch it), and
// the session-wide reuse counters.
type storeState struct {
	store jstore.Store
	pol   StorePolicy
	now   func() time.Time

	seen [memoStripes]seenStripe

	hits    atomic.Int64 // comparisons answered from the store for free
	stale   atomic.Int64 // pairs served as a decayed prior to verify
	misses  atomic.Int64 // pairs consulted and not found (or unusable)
	commits atomic.Int64 // records committed back post-query
}

// StoreStats is a point-in-time view of the session's judgment-store
// traffic.
type StoreStats struct {
	// Hits counts comparisons answered from the store at zero TMC.
	Hits int64
	// Stale counts pairs whose record was served as a decayed prior and
	// re-verified with a reduced purchase.
	Stale int64
	// Misses counts pairs consulted but not usable from the store.
	Misses int64
	// Commits counts records committed back to the store.
	Commits int64
	// Size is the store's current record count.
	Size int
}

// SetJudgmentStore attaches a persistent judgment store to the runner
// (and, through Fork, to every query of its session): concluded verdicts
// are consulted before a pair's first batch is scheduled — a fresh hit
// seeds the memo table and the pair's bag at zero TMC, a stale hit seeds
// a decayed prior that is verified with a reduced batch — and every newly
// concluded pair is committed back by CommitConclusions post-query. Call
// before the runner is shared across goroutines.
func (r *Runner) SetJudgmentStore(s jstore.Store, pol StorePolicy) {
	if s == nil {
		r.js = nil
		return
	}
	r.js = &storeState{store: s, pol: pol, now: time.Now}
}

// JudgmentStore returns the attached store, nil when reuse is off.
func (r *Runner) JudgmentStore() jstore.Store {
	if r.js == nil {
		return nil
	}
	return r.js.store
}

// StoreStats returns the session's judgment-store traffic counters; the
// zero value when no store is attached.
func (r *Runner) StoreStats() StoreStats {
	js := r.js
	if js == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:    js.hits.Load(),
		Stale:   js.stale.Load(),
		Misses:  js.misses.Load(),
		Commits: js.commits.Load(),
		Size:    js.store.Len(),
	}
}

// storeServe consults the judgment store for a canonical pair that
// missed the conclusion memo. On a fresh hit it memoizes the stored
// verdict (into THIS runner's memo — forks share it, derived sub-phase
// runners serve their private memo from the same latched consultation)
// and returns it; the pair's bag was seeded with the exact stored
// posterior, so every later mean/leaning read observes what a cold run
// would have produced. On a stale hit it seeds the decayed posterior as
// a prior, latches one verification purchase, and reports no conclusion.
// Each pair is looked up and seeded at most once per session.
func (r *Runner) storeServe(k [2]int) (Outcome, bool) {
	js := r.js
	st := &js.seen[stripeOf(k)]
	st.mu.Lock()
	ent, ok := st.m[k]
	if !ok {
		ent = r.consultLocked(js, k)
		if st.m == nil {
			st.m = make(map[[2]int]seenEntry)
		}
		st.m[k] = ent
	}
	st.mu.Unlock()
	if ent.d != storeHit {
		return Tie, false
	}
	if !r.trustsPolicy(ent.pol) {
		// The hit was latched by a consumer that trusted the committing
		// policy; this runner is pinned to a different one. The pair's bag
		// was already seeded with the record's full posterior, so declining
		// to serve the verdict makes the comparison re-run this policy's
		// stopping rule over that evidence — the per-reader mirror of the
		// consult-time cross-policy downgrade.
		return Tie, false
	}
	// Serve the latched verdict into this runner's memo: a fork shares
	// the memo that was already written, but a derived runner's private
	// memo (or the main memo after a derived-phase consultation) learns
	// it here, again at zero TMC.
	r.remember(k[0], k[1], ent.o)
	js.hits.Add(1)
	if ins := r.ins; ins != nil {
		ins.StoreHits.Inc()
	}
	if c := r.acct.explain; c != nil {
		c.StoreHit(r.Phase(), k[0], k[1])
	}
	return ent.o, true
}

// consultLocked performs the store lookup and bag seeding for a pair's
// first consultation. Callers hold the pair's seen-stripe lock, which
// serializes racing consultations of one pair.
func (r *Runner) consultLocked(js *storeState, k [2]int) seenEntry {
	rec, ok := js.store.Lookup(k[0], k[1])
	if !ok {
		return r.storeMiss(js)
	}
	stale, decay := js.pol.stale(rec, js.now())
	if !stale && !r.trustsPolicy(rec.Policy) {
		// Concluded under a different policy than this runner's: the
		// verdict was reached under a stopping rule the consumer did not
		// choose (an adaptive policy's early surrender is not the fixed
		// schedule's exhausted tie).
		// Downgrade the fresh hit to a full-strength prior and re-verify
		// at reduced cost instead of trusting it outright.
		stale, decay = true, 1
	}
	post := crowd.PairPosterior{
		N: rec.N, Mean: rec.Mean, M2: rec.M2,
		BinN: rec.BinN, BinMean: rec.BinMean, BinM2: rec.BinM2,
	}
	if !stale {
		// Overwrite-seeding: a sub-phase may have bought a prefix of the
		// pair's (deterministic) sample stream already; the recorded bag
		// subsumes it. Only a live bag that outgrew the record wins.
		if !r.eng.SeedPair(k[0], k[1], post, true) {
			return r.storeMiss(js)
		}
		return seenEntry{d: storeHit, o: Outcome(rec.Outcome), pol: rec.Policy}
	}
	// Stale (or under-confident): decay the evidence and seed it as a
	// prior. The comparison proceeds normally from the seeded bag — its
	// cold start is already covered (fully or partly), so it re-verifies
	// with a reduced purchase instead of re-buying the full workload.
	dn := int(float64(post.N) * decay)
	if dn < 2 {
		return r.storeMiss(js)
	}
	if dn < post.N {
		if post.N > 1 {
			post.M2 *= float64(dn-1) / float64(post.N-1)
		}
		post.N = dn
		bn := int(float64(post.BinN) * decay)
		if bn > dn {
			bn = dn
		}
		post.BinN = bn
		// ±1 samples with mean m have exactly M2 = n(1−m²).
		post.BinM2 = float64(bn) * (1 - post.BinMean*post.BinMean)
	}
	// A decayed prior is only a prior: it never overwrites live samples.
	if !r.eng.SeedPair(k[0], k[1], post, false) {
		return r.storeMiss(js)
	}
	js.stale.Add(1)
	if ins := r.ins; ins != nil {
		ins.StoreStale.Inc()
	}
	return seenEntry{d: storeStale, verify: true}
}

// storeMiss counts a consultation that found nothing usable and returns
// the miss to latch.
func (r *Runner) storeMiss(js *storeState) seenEntry {
	js.misses.Add(1)
	if ins := r.ins; ins != nil {
		ins.StoreMisses.Inc()
	}
	return seenEntry{d: storeMiss}
}

// trustsPolicy reports whether a stored record's committing policy is
// trustworthy to this runner as a verdict: only a record committed under
// the same policy name is. Legacy records named "fixed" or nothing at all
// read as "student" (CanonicalPolicy).
func (r *Runner) trustsPolicy(committed string) bool {
	return CanonicalPolicy(committed) == r.policy.Name()
}

// takeVerify consumes the pair's pending stale-verification obligation:
// the first comparison step to purchase for the pair clears it. It
// reports whether a verification purchase is still owed for a pair whose
// seeded prior already covers the cold-start workload.
func (r *Runner) takeVerify(i, j int) bool {
	js := r.js
	if js == nil {
		return false
	}
	k, _ := canonical(i, j)
	st := &js.seen[stripeOf(k)]
	st.mu.Lock()
	ent, ok := st.m[k]
	v := ok && ent.verify
	if v {
		ent.verify = false
		st.m[k] = ent
	}
	st.mu.Unlock()
	return v
}

// pendingConclusion is one verdict this query concluded, queued for the
// post-query commit. The outcome is carried explicitly because derived
// sub-phase runners conclude into private memos the committing fork
// cannot read.
type pendingConclusion struct {
	k [2]int
	o Outcome // toward lo
}

// noteConclusion queues a freshly concluded pair for the post-query
// store commit. Budget-exhausted ties from derived sub-phase runners are
// skipped: they were concluded under a reduced per-pair budget and are
// not session-level verdicts (the same reason Derive gets a private
// memo). Decisive verdicts commit from any runner — the stopping rule's
// checkpoints (I, I+Step, ...) are shared, so a derived decisive
// conclusion is exactly what the main process would have concluded.
func (r *Runner) noteConclusion(i, j int, o Outcome, exhausted bool) {
	if r.js == nil {
		return
	}
	if exhausted && r.derived {
		return
	}
	k, flip := canonical(i, j)
	if flip {
		o = o.Flip()
	}
	a := r.acct
	a.pendMu.Lock()
	a.pending = append(a.pending, pendingConclusion{k: k, o: o})
	a.pendMu.Unlock()
}

// CommitConclusions drains the query's concluded pairs into the judgment
// store: for each, the engine's exact posterior is exported and committed
// (newest wins), so the next query — in this session, a concurrent one,
// or a future process sharing a FileStore — replays the verdict instead
// of re-buying it. Call once the query has quiesced (post-run); it
// returns the number of records committed. No-op without a store.
func (r *Runner) CommitConclusions() int {
	js := r.js
	if js == nil {
		return 0
	}
	a := r.acct
	a.pendMu.Lock()
	pend := a.pending
	a.pending = nil
	a.pendMu.Unlock()
	if len(pend) == 0 {
		if ins := r.ins; ins != nil {
			ins.StoreSize.Set(int64(js.store.Len()))
		}
		return 0
	}
	done := make(map[[2]int]bool, len(pend))
	n := 0
	for _, pc := range pend {
		if done[pc.k] {
			continue
		}
		done[pc.k] = true
		post, ok := r.eng.Posterior(pc.k[0], pc.k[1])
		if !ok {
			continue
		}
		// A protocol-exhausted tie spent the full per-pair budget B; a tie
		// at less evidence was truncated from outside the protocol — a
		// failure-latched engine declining purchases, a spending cap, a
		// canceled query concluding best-effort. Truncated ties are not
		// verdicts the crowd reached and must not be served to anyone.
		// (With B <= 0, unlimited, every tie is a truncation.)
		if pc.o == Tie && (r.params.B <= 0 || post.N < r.params.B) {
			continue
		}
		rec := jstore.Record{
			Lo: pc.k[0], Hi: pc.k[1],
			Outcome:   int(pc.o),
			Exhausted: pc.o == Tie,
			N:         post.N, Mean: post.Mean, M2: post.M2,
			BinN: post.BinN, BinMean: post.BinMean, BinM2: post.BinM2,
			Confidence: js.pol.Confidence,
			Policy:     r.policy.Name(),
		}
		js.store.Commit(rec)
		js.commits.Add(1)
		if ins := r.ins; ins != nil {
			ins.StoreCommits.Inc()
		}
		n++
	}
	if ins := r.ins; ins != nil {
		ins.StoreSize.Set(int64(js.store.Len()))
	}
	return n
}

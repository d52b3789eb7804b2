package topk

import (
	"sync/atomic"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/sched"
)

// partitionResult is the three-way split of Algorithm 4: winners beat the
// final reference at confidence 1−α, losers lose to it, and ties exhausted
// their pairwise budget undecided. The final reference is added into
// winners when winners would otherwise fall short of k (Algorithm 4,
// line 13).
type partitionResult struct {
	winners []int
	ties    []int
	losers  []int
	// ref is the final reference item (it may differ from the initial one
	// after reference changes).
	ref int
	// refInWinners reports whether ref was added back into winners.
	refInWinners bool
	// refChanges counts how many times the reference was upgraded.
	refChanges int
}

// partition implements Algorithm 4 (PARTITION): every item is compared
// with the reference incrementally — one batch per still-tied item per
// round, all items advancing in parallel — deferring difficult
// comparisons as long as possible. Whenever k confirmed winners
// accumulate, the reference may be upgraded to the estimated k-th best
// winner (Lines 9-12; at most maxRefChanges times, cf. Table 4), which
// reactivates the still-tied comparisons against a reference closer to
// o_k* (Lemma 4).
//
// In deterministic mode the items advance in lockstep passes on the
// control goroutine, exactly reproducing the historical sequential
// execution. In async mode each item races the reference as its own
// chain on the scheduler, one step ahead of the passes below (racer),
// and the passes consume the chains' steps in the same order — so both
// modes classify the same items, upgrade the reference at the same
// point and return the same lists.
func partition(r *compare.Runner, items []int, k, ref, maxRefChanges int) partitionResult {
	var st stepper = inPlace{r}
	if r.AsyncMode() {
		rc := newRacer(r)
		defer rc.close()
		st = rc
	}
	var winners, losers []int
	changes := 0

	// active holds items still racing against the current reference;
	// exhausted holds items whose pairwise budget ran out undecided.
	active := make([]int, 0, len(items)-1)
	for _, o := range items {
		if o != ref {
			active = append(active, o)
		}
	}
	var exhausted []int

	for len(active) > 0 {
		st.begin(active, ref)
		kept := make([]int, 0, len(active))
		for idx := 0; idx < len(active); idx++ {
			o := active[idx]
			out, done := st.advance(o, ref)
			if !done {
				kept = append(kept, o)
				continue
			}
			switch out {
			case compare.FirstWins:
				winners = append(winners, o)
			case compare.SecondWins:
				losers = append(losers, o)
			default:
				exhausted = append(exhausted, o)
			}

			if len(winners) == k && changes < maxRefChanges {
				// Lines 9-12: the estimated k-th best winner r' satisfies
				// o_k* ⪰ r' ≻ r, a strictly better reference (Lemma 4).
				newRef, ok := estimatedKth(r, winners, ref)
				if !ok {
					continue // no winner has evidence against this ref yet
				}
				changes++
				losers = append(losers, ref)
				winners = removeItem(winners, newRef)
				ref = newRef
				// Budget-exhausted ties get a fresh race against the new
				// reference; unprocessed items simply continue against it.
				kept = append(kept, exhausted...)
				kept = append(kept, active[idx+1:]...)
				exhausted = nil
				break
			}
		}
		st.end()
		active = kept
	}

	res := partitionResult{
		winners:    winners,
		ties:       exhausted,
		losers:     losers,
		ref:        ref,
		refChanges: changes,
	}
	if len(res.winners) < k {
		// Line 13: the reference itself is a top-k candidate.
		res.winners = append(res.winners, ref)
		res.refInWinners = true
	}
	return res
}

// stepper advances partition's item-vs-reference races, one batch per
// call to advance. begin opens a pass over the items still racing, end
// closes it.
type stepper interface {
	begin(active []int, ref int)
	advance(item, ref int) (compare.Outcome, bool)
	end()
}

// inPlace is the deterministic stepper: each step runs on the control
// goroutine when partition asks for it, and a pass is one latency round.
type inPlace struct{ r *compare.Runner }

func (s inPlace) begin([]int, int) {}

func (s inPlace) advance(item, ref int) (compare.Outcome, bool) { return s.r.Advance(item, ref) }

func (s inPlace) end() { s.r.Tick(1) }

// racer is the async stepper. Every racing item is its own chain on the
// shared scheduler, and partition consumes the chains' steps in pass
// order, waiting only when the step it needs is still running. A chain
// runs one step ahead: as soon as partition consumes an undecided step
// the next one is submitted, against the current reference, so the pool
// stays busy while partition waits on a pass's stragglers. A step
// against a reference partition has since replaced is discarded, and if
// it has not started yet it is skipped unbought; the chain continues
// against the current reference.
//
// Each item's consumed steps are the same Advance calls, in the same
// order, that the deterministic stepper makes, and the engine samples
// each pair from its own stream, so every consumed verdict equals the
// deterministic one. What differs is the ledger: latency is the
// high-water mark of per-chain rounds, and a stale step that was already
// running when the reference changed is paid for.
type racer struct {
	r      *compare.Runner
	q      *sched.Query
	done   func()
	ref    atomic.Int64 // the reference partition currently races against
	races  map[int]*race
	byTag  []*race
	busy   int   // steps in flight
	ticked int64 // rounds already ticked: the deepest chain so far
}

// race is one item's chain and its one pending step: in flight while
// running, else finished and not yet consumed while ready.
type race struct {
	tag   int64
	item  int
	round int64
	// The pending step: its reference, and the verdict Run reports.
	ref     int
	out     compare.Outcome
	settled bool
	ran     bool
	running bool
	ready   bool
}

func newRacer(r *compare.Runner) *racer {
	q, release := r.Borrow()
	return &racer{r: r, q: q, done: release, races: make(map[int]*race)}
}

// begin makes sure every item of the pass has a step coming against ref.
func (rc *racer) begin(active []int, ref int) {
	rc.ref.Store(int64(ref))
	for _, o := range active {
		rc.ensure(rc.race(o))
	}
}

// advance returns the item's next step against ref, waiting for the
// chain when that step has not finished yet.
func (rc *racer) advance(item, ref int) (compare.Outcome, bool) {
	rc.ref.Store(int64(ref))
	c := rc.race(item)
	for {
		rc.ensure(c)
		if c.ready {
			c.ready = false
			out, settled := c.out, c.settled
			if !settled {
				rc.submit(c)
			}
			return out, settled
		}
		rc.collect()
	}
}

func (rc *racer) end() {}

// close waits out any step still in flight and returns the query handle.
func (rc *racer) close() {
	for rc.busy > 0 {
		rc.collect()
	}
	rc.done()
}

func (rc *racer) race(item int) *race {
	c := rc.races[item]
	if c == nil {
		c = &race{tag: int64(len(rc.byTag)), item: item, round: rc.ticked}
		rc.races[item] = c
		rc.byTag = append(rc.byTag, c)
	}
	return c
}

// ensure drops the chain's finished step if it raced a replaced
// reference and, when no step is ready or in flight, submits one.
func (rc *racer) ensure(c *race) {
	if c.ready && int64(c.ref) != rc.ref.Load() {
		c.ready = false
	}
	if !c.ready && !c.running {
		rc.submit(c)
	}
}

func (rc *racer) submit(c *race) {
	c.ref, c.running, c.ran = int(rc.ref.Load()), true, false
	rc.q.Submit(sched.Task{Tag: c.tag, Round: c.round + 1, Run: func() {
		if int64(c.ref) != rc.ref.Load() {
			return // the reference moved on while the step was queued
		}
		c.out, c.settled = rc.r.Advance(c.item, c.ref)
		c.ran = true
	}})
	rc.busy++
}

// collect waits for one step to finish and files it. A step that raced
// a replaced reference is dropped; the next ensure resubmits its chain.
func (rc *racer) collect() {
	c := rc.byTag[rc.q.Next()]
	rc.busy--
	c.running = false
	if int64(c.ref) != rc.ref.Load() {
		if c.ran {
			rc.advanceRound(c)
		}
		return
	}
	if !c.ran {
		// A stopped query's pending steps are dropped by the scheduler
		// and delivered unrun. Advance on a stopped runner purchases
		// nothing and reports the best-effort verdict, so classifying
		// inline drains the races instead of resubmitting dropped work.
		c.out, c.settled = rc.r.Advance(c.item, c.ref)
	}
	rc.advanceRound(c)
	c.ready = true
}

// advanceRound counts one step of the chain and ticks the latency clock
// when the chain is the deepest so far.
func (rc *racer) advanceRound(c *race) {
	c.round++
	if c.round > rc.ticked {
		rc.r.Tick(int(c.round - rc.ticked))
		rc.ticked = c.round
	}
}

// estimatedKth returns the winner with the k-th best (here: smallest,
// since all winners beat the reference) estimated preference mean against
// the current reference — the paper's r', satisfying o_k* ⪰ r' ≻ r.
// Two guards keep the upgrade honest. Only winners with purchased evidence
// against the current reference are candidates: after an earlier upgrade
// the winner set mixes items concluded against older references, and an
// unsampled pair's zero mean would otherwise always win the argmin and
// promote an item whose relation to the current reference is unknown,
// breaking the r' ≻ r chain. And the candidate means must discriminate:
// when every candidate shows the same mean (e.g. exactly +1 on noiseless
// data) the argmin carries no ranking information and an arbitrary upgrade
// could overshoot past o_k*, so the upgrade is skipped. The second result
// is false when no informative candidate exists.
func estimatedKth(r *compare.Runner, winners []int, ref int) (int, bool) {
	best := -1
	var bestMean, maxMean float64
	for _, w := range winners {
		v := r.Engine().View(w, ref)
		if v.N == 0 {
			continue
		}
		if best < 0 {
			best, bestMean, maxMean = w, v.Mean, v.Mean
			continue
		}
		if v.Mean < bestMean {
			best, bestMean = w, v.Mean
		}
		if v.Mean > maxMean {
			maxMean = v.Mean
		}
	}
	if best < 0 || bestMean == maxMean {
		return ref, false
	}
	return best, true
}

func removeItem(items []int, x int) []int {
	out := items[:0]
	for _, o := range items {
		if o != x {
			out = append(out, o)
		}
	}
	return out
}

// Package explain is the cost-explainability half of the observability
// stack: a per-query collector that attributes every purchased microtask
// to the (phase, pair) that bought it, and the aggregated cost tree —
// query → phase → pair — an operator reads to learn where a budget went.
//
// The collector is wired into the comparison runner's purchase path, so
// its leaves are exact by construction: every microtask the query's
// accounting meter charges is recorded against exactly one leaf, and the
// tree's total always equals the query's TMC — the reconciliation
// invariant the service layer asserts against Result.Stats and the audit
// log. A nil *Collector is a no-op (the disabled-telemetry idiom of
// internal/obs), so the hot path pays one nil check when explainability
// is off.
package explain

import (
	"sort"
	"strconv"
	"sync"
)

// stripes must be a power of two; it mirrors the runner's memo striping
// so concurrent chains on distinct pairs rarely share a lock.
const stripes = 64

// leafKey addresses one attribution leaf: the algorithm phase that was
// executing and the canonical pair (j == -1 for graded single-item
// microtasks).
type leafKey struct {
	phase string
	i, j  int
}

func (k leafKey) stripe() uint64 {
	x := uint64(uint32(k.i))<<32 | uint64(uint32(k.j))
	for n := 0; n < len(k.phase); n++ {
		x = x*131 + uint64(k.phase[n])
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & (stripes - 1)
}

// leaf is the mutable accumulator behind one PairCost; all fields are
// guarded by the owning stripe's mutex.
type leaf struct {
	tmc       int64
	draws     int64
	refunds   int64
	memoHits  int64
	storeHits int64
	verdict   string
	halfWidth float64
	concluded bool
}

type stripe struct {
	mu sync.Mutex
	m  map[leafKey]*leaf
}

// Collector accumulates one query's cost attribution. It is safe for
// concurrent use from every comparison chain of the query; Tree may be
// called at any time (including mid-query, for live dashboards).
type Collector struct {
	stripes [stripes]stripe
}

// NewCollector returns an empty per-query collector.
func NewCollector() *Collector { return &Collector{} }

// get returns the leaf for (phase, i, j), creating it under the stripe
// lock; the caller must Unlock the returned stripe.
func (c *Collector) get(phase string, i, j int) (*leaf, *stripe) {
	if i > j && j >= 0 {
		i, j = j, i
	}
	k := leafKey{phase: phase, i: i, j: j}
	s := &c.stripes[k.stripe()]
	s.mu.Lock()
	l := s.m[k]
	if l == nil {
		if s.m == nil {
			s.m = make(map[leafKey]*leaf)
		}
		l = &leaf{}
		s.m[k] = l
	}
	return l, s
}

// Charge attributes n delivered microtasks for (i, j) to phase: a pair,
// or with j == -1 graded (absolute-rating) microtasks for item i. No-op
// on a nil receiver or n <= 0.
func (c *Collector) Charge(phase string, i, j int, n int64) {
	if c == nil || n <= 0 {
		return
	}
	l, s := c.get(phase, i, j)
	l.tmc += n
	l.draws++
	s.mu.Unlock()
}

// Refund records n reserved-but-undelivered microtasks returned to the
// query's budget after a short or cap-truncated draw — money that was
// never charged, kept visible so an operator can see where purchases are
// being cut short. No-op on a nil receiver or n <= 0.
func (c *Collector) Refund(phase string, i, j int, n int64) {
	if c == nil || n <= 0 {
		return
	}
	l, s := c.get(phase, i, j)
	l.refunds += n
	s.mu.Unlock()
}

// MemoHit records a comparison answered from the conclusion memo for
// free. No-op on a nil receiver.
func (c *Collector) MemoHit(phase string, i, j int) {
	if c == nil {
		return
	}
	l, s := c.get(phase, i, j)
	l.memoHits++
	s.mu.Unlock()
}

// StoreHit records a comparison answered from the cross-query judgment
// store at zero TMC. No-op on a nil receiver.
func (c *Collector) StoreHit(phase string, i, j int) {
	if c == nil {
		return
	}
	l, s := c.get(phase, i, j)
	l.storeHits++
	s.mu.Unlock()
}

// Conclude records a comparison process finishing on this pair: the
// verdict, whether it is a statistical conclusion (as opposed to a
// best-effort outcome forced by an exhausted cap), and the
// confidence-interval half-width the pair ended at. The last conclusion
// wins (a pair abandoned mid-wave and re-run concludes once more).
// No-op on a nil receiver.
func (c *Collector) Conclude(phase string, i, j int, verdict string, halfWidth float64, concluded bool) {
	if c == nil {
		return
	}
	l, s := c.get(phase, i, j)
	l.verdict = verdict
	l.halfWidth = halfWidth
	l.concluded = concluded
	s.mu.Unlock()
}

// PairCost is one leaf of the cost tree: what one pair (or one graded
// item) cost within one phase.
type PairCost struct {
	// Pair names the leaf: "i-j" for a pairwise comparison, "item:i" for
	// graded microtasks.
	Pair string `json:"pair"`
	// TMC is the microtasks charged for this leaf — delivered answers
	// only, the same currency as Result.TMC and the audit log.
	TMC int64 `json:"tmc"`
	// Draws counts the purchase calls that delivered those microtasks.
	Draws int64 `json:"draws"`
	// Refunds counts reserved-but-undelivered microtasks returned after
	// short platform batches or cap truncation; never charged.
	Refunds int64 `json:"refunds,omitempty"`
	// MemoHits and StoreHits count comparisons on this pair answered for
	// free from the conclusion memo / the cross-query judgment store.
	MemoHits  int64 `json:"memo_hits,omitempty"`
	StoreHits int64 `json:"store_hits,omitempty"`
	// Verdict is the comparison's final outcome label, "" while running.
	Verdict string `json:"verdict,omitempty"`
	// HalfWidth is the confidence-interval half-width at conclusion — how
	// tight the evidence was when the process stopped buying.
	HalfWidth float64 `json:"half_width,omitempty"`
	// Concluded reports a statistical verdict (vs. a best-effort outcome
	// forced by an exhausted cap, budget or cancellation).
	Concluded bool `json:"concluded,omitempty"`
}

// PhaseCost aggregates one algorithm phase's leaves.
type PhaseCost struct {
	// Phase is the algorithm phase name ("select", "partition", "rank"),
	// or "query" for spend outside any named phase.
	Phase string `json:"phase"`
	// TMC, Refunds, MemoHits and StoreHits are the leaf sums.
	TMC       int64 `json:"tmc"`
	Refunds   int64 `json:"refunds,omitempty"`
	MemoHits  int64 `json:"memo_hits,omitempty"`
	StoreHits int64 `json:"store_hits,omitempty"`
	// Pairs are the phase's leaves, most expensive first.
	Pairs []PairCost `json:"pairs"`
}

// Tree is the aggregated query → phase → pair cost attribution. Its TMC
// is the sum over every leaf, which equals the query's accounting meter
// (Result.TMC / Result.Stats.TMC) by construction — the reconciliation
// invariant.
type Tree struct {
	// TMC is the total attributed spend: the sum over all leaves.
	TMC int64 `json:"tmc"`
	// Refunds, MemoHits and StoreHits are tree-wide sums.
	Refunds   int64 `json:"refunds,omitempty"`
	MemoHits  int64 `json:"memo_hits,omitempty"`
	StoreHits int64 `json:"store_hits,omitempty"`
	// Pairs counts distinct attribution leaves across phases.
	Pairs int `json:"pairs"`
	// Phases are the per-phase aggregates, most expensive first.
	Phases []PhaseCost `json:"phases"`
}

// PhaseFallback names spend recorded while no algorithm phase was
// active — non-SPR algorithms, and SPR spend between phases.
const PhaseFallback = "query"

// PairName renders a leaf name: "i-j" for pairs, "item:i" for graded.
func PairName(i, j int) string {
	if j < 0 {
		return "item:" + strconv.Itoa(i)
	}
	return strconv.Itoa(i) + "-" + strconv.Itoa(j)
}

// Tree aggregates the collector into the serializable cost tree. Safe to
// call at any time; mid-query it is a consistent-enough live view (each
// leaf is copied under its stripe lock). A nil collector yields an empty
// tree.
func (c *Collector) Tree() *Tree {
	t := &Tree{}
	if c == nil {
		return t
	}
	byPhase := make(map[string]*PhaseCost)
	for s := range c.stripes {
		st := &c.stripes[s]
		st.mu.Lock()
		for k, l := range st.m {
			phase := k.phase
			if phase == "" {
				phase = PhaseFallback
			}
			pc := byPhase[phase]
			if pc == nil {
				pc = &PhaseCost{Phase: phase}
				byPhase[phase] = pc
			}
			pc.TMC += l.tmc
			pc.Refunds += l.refunds
			pc.MemoHits += l.memoHits
			pc.StoreHits += l.storeHits
			pc.Pairs = append(pc.Pairs, PairCost{
				Pair:      PairName(k.i, k.j),
				TMC:       l.tmc,
				Draws:     l.draws,
				Refunds:   l.refunds,
				MemoHits:  l.memoHits,
				StoreHits: l.storeHits,
				Verdict:   l.verdict,
				HalfWidth: l.halfWidth,
				Concluded: l.concluded,
			})
		}
		st.mu.Unlock()
	}
	for _, pc := range byPhase {
		sort.Slice(pc.Pairs, func(a, b int) bool {
			if pc.Pairs[a].TMC != pc.Pairs[b].TMC {
				return pc.Pairs[a].TMC > pc.Pairs[b].TMC
			}
			return pc.Pairs[a].Pair < pc.Pairs[b].Pair
		})
		t.TMC += pc.TMC
		t.Refunds += pc.Refunds
		t.MemoHits += pc.MemoHits
		t.StoreHits += pc.StoreHits
		t.Pairs += len(pc.Pairs)
		t.Phases = append(t.Phases, *pc)
	}
	sort.Slice(t.Phases, func(a, b int) bool {
		if t.Phases[a].TMC != t.Phases[b].TMC {
			return t.Phases[a].TMC > t.Phases[b].TMC
		}
		return t.Phases[a].Phase < t.Phases[b].Phase
	})
	return t
}

// Total returns the attributed spend so far without building the full
// tree — the cheap live reconciliation probe. 0 on a nil receiver.
func (c *Collector) Total() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for s := range c.stripes {
		st := &c.stripes[s]
		st.mu.Lock()
		for _, l := range st.m {
			sum += l.tmc
		}
		st.mu.Unlock()
	}
	return sum
}

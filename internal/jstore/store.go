// Package jstore is the persistent cross-query judgment store: concluded
// comparison verdicts, keyed by canonical item pair, together with the
// exact posterior summary of the samples that produced them. The paper's
// §5.5 comparison cache lives inside one query; this store is the same
// asset lifted to fleet scope — a warm store answers repeat-heavy traffic
// at near-zero marginal TMC, because a concluded pair's verdict and bag
// statistics can be replayed into a fresh engine instead of re-bought
// from the crowd.
//
// Two drivers implement the minimal Store interface: MemStore, an
// in-memory 64-way striped map (mirroring the comparison runner's memo
// stripes), and FileStore, a reviewable JSONL file with load-on-open and
// atomic rewrite-on-compact. Both are safe for concurrent use.
package jstore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one concluded comparison: the verdict plus the exact
// accumulated state of the pair's sample bag at conclusion time. Mean/M2
// are the raw Welford accumulators (not derived statistics), so a bag
// restored from a Record is bit-identical to the bag that produced it —
// the property that makes warm-started queries return byte-identical
// top-k sets.
type Record struct {
	// Lo, Hi identify the pair canonically (Lo < Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Outcome is the concluded verdict toward Lo: +1 Lo wins, -1 Hi wins,
	// 0 statistically indistinguishable under the per-pair budget.
	Outcome int `json:"o"`
	// Exhausted marks an Outcome of 0 that was forced by the per-pair
	// budget rather than genuine equality evidence.
	Exhausted bool `json:"exh,omitempty"`

	// N, Mean, M2 are the preference bag's Welford state oriented toward
	// Lo (count, running mean, sum of squared deviations).
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	// BinN, BinMean, BinM2 are the same for the ±1 sign-only view.
	BinN    int     `json:"bin_n"`
	BinMean float64 `json:"bin_mean"`
	BinM2   float64 `json:"bin_m2"`

	// Confidence is the per-comparison confidence level 1−α the verdict
	// was concluded at. Queries demanding a higher level treat the record
	// as a prior to verify, not a verdict to trust.
	Confidence float64 `json:"conf"`

	// Policy names the comparison policy that concluded the verdict
	// ("student", "stein", "voi", ...). A query running under a different
	// policy treats the record as a prior to verify, not a verdict to
	// trust — the stopping rule it was concluded under is not the
	// consumer's. Older records carry "fixed" (the paper's schedule,
	// named apart from its estimator) or nothing at all (from before
	// policies were named); both are read as "student".
	Policy string `json:"pol,omitempty"`

	// Seq is the store's logical commit timestamp: a monotonic sequence
	// number assigned at Commit, so "newest wins" is well defined even
	// when wall clocks jump. UnixNano is the wall-clock commit time the
	// TTL/staleness policy measures age against.
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"at"`
}

// Key returns the record's canonical pair key.
func (r Record) Key() [2]int { return [2]int{r.Lo, r.Hi} }

// Store is the minimal judgment-store contract (the dataset-store shape:
// a small interface, a file driver first). Implementations must be safe
// for concurrent use.
type Store interface {
	// Lookup returns the stored record for the canonical pair (lo, hi).
	Lookup(lo, hi int) (Record, bool)
	// Commit stores a record, replacing any existing record for the pair
	// (newest wins); the store assigns Seq and, when zero, UnixNano. It
	// reports whether the pair was new to the store (its size grew).
	Commit(Record) bool
	// Snapshot returns a copy of every live record, sorted by (Lo, Hi).
	Snapshot() []Record
	// Len returns the number of distinct pairs stored.
	Len() int
}

// storeStripes must be a power of two; it mirrors the comparison
// runner's memo striping so neither table becomes the other's bottleneck.
const storeStripes = 64

type stripe struct {
	mu sync.RWMutex
	m  map[[2]int]Record
}

// stripeOf spreads canonical pairs over stripes (same mix as the memo).
func stripeOf(k [2]int) uint64 {
	x := uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & (storeStripes - 1)
}

// MemStore is the in-memory driver: a 64-way striped map. The zero value
// is not ready; use NewMemStore.
type MemStore struct {
	stripes [storeStripes]stripe
	seq     atomic.Uint64
	size    atomic.Int64
	now     func() time.Time
}

// NewMemStore returns an empty in-memory judgment store.
func NewMemStore() *MemStore {
	return &MemStore{now: time.Now}
}

// Lookup implements Store.
func (s *MemStore) Lookup(lo, hi int) (Record, bool) {
	k := [2]int{lo, hi}
	st := &s.stripes[stripeOf(k)]
	st.mu.RLock()
	r, ok := st.m[k]
	st.mu.RUnlock()
	return r, ok
}

// Commit implements Store. Records with Lo >= Hi or N <= 0 are rejected
// (returning false) — they could never seed a bag.
func (s *MemStore) Commit(r Record) bool {
	if r.Lo >= r.Hi || r.N <= 0 {
		return false
	}
	r.Seq = s.seq.Add(1)
	if r.UnixNano == 0 {
		r.UnixNano = s.now().UnixNano()
	}
	k := r.Key()
	st := &s.stripes[stripeOf(k)]
	st.mu.Lock()
	if st.m == nil {
		st.m = make(map[[2]int]Record)
	}
	_, existed := st.m[k]
	st.m[k] = r
	st.mu.Unlock()
	if !existed {
		s.size.Add(1)
	}
	return !existed
}

// Snapshot implements Store.
func (s *MemStore) Snapshot() []Record {
	out := make([]Record, 0, s.Len())
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, r := range st.m {
			out = append(out, r)
		}
		st.mu.RUnlock()
	}
	sortRecords(out)
	return out
}

// Len implements Store.
func (s *MemStore) Len() int { return int(s.size.Load()) }

// sortRecords orders records by canonical pair for stable, reviewable
// snapshots and compacted files.
func sortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Lo != rs[j].Lo {
			return rs[i].Lo < rs[j].Lo
		}
		return rs[i].Hi < rs[j].Hi
	})
}

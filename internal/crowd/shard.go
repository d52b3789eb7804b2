package crowd

import (
	"sync"
	"sync/atomic"
)

// shard is one stripe of the engine's pair-state index. It follows the
// sync.Map read/dirty design, specialized to pairKey -> *pairState so hot
// lookups stay free of both locks and interface boxing:
//
//   - read holds an immutable map published through an atomic pointer.
//     Readers that hit it never lock and never allocate — this is what
//     makes Engine.View (and everything built on it) mutex-free once a
//     pair is warm.
//   - dirty, guarded by mu, is a superset of read holding pairs created
//     since the last promotion. Entries are never deleted, which keeps
//     the scheme far simpler than sync.Map: there are no expunged
//     tombstones.
//   - after enough read misses land on dirty, the dirty map is promoted:
//     published as the new read map and set to nil. The next insert
//     re-clones. Promotion is amortized O(1) per operation, exactly like
//     sync.Map.
type shard struct {
	mu      sync.Mutex
	read    atomic.Pointer[map[pairKey]*pairState]
	dirty   map[pairKey]*pairState
	amended atomic.Bool // dirty holds keys the read map does not
	misses  int
}

// load returns the state for k, or nil when the pair was never created.
// The fast path is a single atomic pointer load plus one map read.
func (s *shard) load(k pairKey) *pairState {
	if m := s.read.Load(); m != nil {
		if ps := (*m)[k]; ps != nil {
			return ps
		}
	}
	if !s.amended.Load() {
		return nil
	}
	s.mu.Lock()
	var ps *pairState
	if s.dirty != nil {
		ps = s.dirty[k]
		s.missLocked()
	} else if m := s.read.Load(); m != nil {
		// Promoted between our read miss and taking the lock.
		ps = (*m)[k]
	}
	s.mu.Unlock()
	return ps
}

// loadOrCreate returns the state for k, creating it with create() under
// the shard lock on first touch.
func (s *shard) loadOrCreate(k pairKey, create func() *pairState) *pairState {
	if m := s.read.Load(); m != nil {
		if ps := (*m)[k]; ps != nil {
			return ps
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty != nil {
		if ps := s.dirty[k]; ps != nil {
			return ps
		}
	} else if m := s.read.Load(); m != nil {
		if ps := (*m)[k]; ps != nil {
			return ps
		}
	}
	if s.dirty == nil {
		var src map[pairKey]*pairState
		if m := s.read.Load(); m != nil {
			src = *m
		}
		s.dirty = make(map[pairKey]*pairState, 2*len(src)+1)
		for kk, vv := range src {
			s.dirty[kk] = vv
		}
	}
	ps := create()
	s.dirty[k] = ps
	s.amended.Store(true)
	return ps
}

// missLocked records one read miss that had to consult dirty and promotes
// the dirty map once misses have paid for the clone the next insert does.
func (s *shard) missLocked() {
	s.misses++
	if s.misses < len(s.dirty) {
		return
	}
	m := s.dirty
	s.read.Store(&m)
	s.dirty = nil
	s.amended.Store(false)
	s.misses = 0
}

// count returns the number of pairs in the shard.
func (s *shard) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty != nil {
		return len(s.dirty)
	}
	if m := s.read.Load(); m != nil {
		return len(*m)
	}
	return 0
}

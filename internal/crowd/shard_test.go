package crowd

import (
	"sync"
	"testing"
)

func TestShardLoadMissReturnsNil(t *testing.T) {
	var s shard
	if got := s.load(pairKey{0, 1}); got != nil {
		t.Fatalf("load on empty shard = %v, want nil", got)
	}
}

func TestShardLoadOrCreateIsIdempotent(t *testing.T) {
	var s shard
	k := pairKey{2, 5}
	created := 0
	mk := func() *pairState { created++; return &pairState{} }
	first := s.loadOrCreate(k, mk)
	if first == nil {
		t.Fatal("loadOrCreate returned nil")
	}
	if again := s.loadOrCreate(k, mk); again != first {
		t.Fatal("loadOrCreate returned a different state for the same key")
	}
	if created != 1 {
		t.Fatalf("create ran %d times, want 1", created)
	}
	if got := s.load(k); got != first {
		t.Fatal("load does not see the created state")
	}
	if got := s.count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestShardPromotionKeepsAllKeys inserts enough keys and read-misses to
// drive dirty→read promotions, then checks every key resolves lock-free.
func TestShardPromotionKeepsAllKeys(t *testing.T) {
	var s shard
	const keys = 200
	states := make(map[pairKey]*pairState, keys)
	for i := 0; i < keys; i++ {
		k := pairKey{i, i + 1}
		states[k] = s.loadOrCreate(k, func() *pairState { return &pairState{} })
		// Interleave misses on existing keys so promotion actually fires.
		for j := 0; j <= i; j += 17 {
			s.load(pairKey{j, j + 1})
		}
	}
	if got := s.count(); got != keys {
		t.Fatalf("count = %d, want %d", got, keys)
	}
	for k, want := range states {
		if got := s.load(k); got != want {
			t.Fatalf("load(%v) = %p, want %p", k, got, want)
		}
	}
	if m := s.read.Load(); m == nil || len(*m) == 0 {
		t.Fatal("no promotion happened: read map still empty")
	}
}

// TestShardConcurrent exercises mixed loads and creates from many
// goroutines; under -race this pins the read/dirty publication protocol.
func TestShardConcurrent(t *testing.T) {
	var s shard
	var wg sync.WaitGroup
	const perG, keys = 3000, 64
	results := make([][]*pairState, 8)
	for g := range results {
		results[g] = make([]*pairState, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < perG; n++ {
				k := pairKey{(n + g) % keys, (n+g)%keys + 1}
				ps := s.loadOrCreate(k, func() *pairState { return &pairState{} })
				if prev := results[g][k.lo]; prev != nil && prev != ps {
					t.Errorf("goroutine %d saw two states for %v", g, k)
					return
				}
				results[g][k.lo] = ps
				s.load(k)
			}
		}(g)
	}
	wg.Wait()
	// All goroutines must have resolved identical states per key.
	for k := 0; k < keys; k++ {
		want := results[0][k]
		for g := 1; g < len(results); g++ {
			if results[g][k] != want {
				t.Fatalf("key %d: goroutine %d saw %p, goroutine 0 saw %p", k, g, results[g][k], want)
			}
		}
	}
	if got := s.count(); got != keys {
		t.Fatalf("count = %d, want %d", got, keys)
	}
}

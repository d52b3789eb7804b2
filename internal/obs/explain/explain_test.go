package explain

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestNilCollectorNoops(t *testing.T) {
	var c *Collector
	c.Charge("select", 1, 2, 5)
	c.Charge("rank", 3, -1, 1)
	c.Refund("select", 1, 2, 1)
	c.MemoHit("select", 1, 2)
	c.StoreHit("select", 1, 2)
	c.Conclude("select", 1, 2, "first", 0.1, true)
	if got := c.Total(); got != 0 {
		t.Fatalf("nil Total = %d, want 0", got)
	}
	tr := c.Tree()
	if tr.TMC != 0 || len(tr.Phases) != 0 {
		t.Fatalf("nil Tree = %+v, want empty", tr)
	}
}

func TestTreeAggregation(t *testing.T) {
	c := NewCollector()
	c.Charge("select", 2, 1, 10) // reversed pair canonicalizes to 1-2
	c.Charge("select", 1, 2, 5)
	c.Refund("select", 1, 2, 3)
	c.MemoHit("rank", 1, 2)
	c.Charge("rank", 0, 4, 7)
	c.Charge("", 9, -1, 1)
	c.StoreHit("rank", 0, 4)
	c.Conclude("rank", 0, 4, "first", 0.05, true)

	tr := c.Tree()
	if tr.TMC != 23 {
		t.Fatalf("tree TMC = %d, want 23", tr.TMC)
	}
	if got := c.Total(); got != tr.TMC {
		t.Fatalf("Total = %d, tree TMC = %d", got, tr.TMC)
	}
	if tr.Refunds != 3 || tr.MemoHits != 1 || tr.StoreHits != 1 {
		t.Fatalf("tree sums = %+v", tr)
	}
	if tr.Pairs != 4 {
		t.Fatalf("tree Pairs = %d, want 4", tr.Pairs)
	}
	// Phases sorted by TMC desc: select(15), rank(7+0 memo leaf), query(1).
	if len(tr.Phases) != 3 || tr.Phases[0].Phase != "select" || tr.Phases[1].Phase != "rank" || tr.Phases[2].Phase != PhaseFallback {
		t.Fatalf("phase order = %+v", tr.Phases)
	}
	sel := tr.Phases[0]
	if sel.TMC != 15 || len(sel.Pairs) != 1 || sel.Pairs[0].Pair != "1-2" || sel.Pairs[0].Draws != 2 || sel.Pairs[0].Refunds != 3 {
		t.Fatalf("select phase = %+v", sel)
	}
	rank := tr.Phases[1]
	if rank.TMC != 7 || len(rank.Pairs) != 2 || rank.Pairs[0].Pair != "0-4" {
		t.Fatalf("rank phase = %+v", rank)
	}
	if !rank.Pairs[0].Concluded || rank.Pairs[0].Verdict != "first" || rank.Pairs[0].HalfWidth != 0.05 || rank.Pairs[0].StoreHits != 1 {
		t.Fatalf("rank leaf = %+v", rank.Pairs[0])
	}
	q := tr.Phases[2]
	if len(q.Pairs) != 1 || q.Pairs[0].Pair != "item:9" || q.Pairs[0].TMC != 1 {
		t.Fatalf("fallback phase = %+v", q)
	}
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("tree marshal: %v", err)
	}
}

func TestPairName(t *testing.T) {
	if got := PairName(3, 7); got != "3-7" {
		t.Fatalf("PairName(3,7) = %q", got)
	}
	if got := PairName(5, -1); got != "item:5" {
		t.Fatalf("PairName(5,-1) = %q", got)
	}
}

// TestConcurrentChargesReconcile hammers the collector from many
// goroutines and checks the tree total equals the exact amount charged —
// the in-miniature version of the query-level reconciliation invariant.
func TestConcurrentChargesReconcile(t *testing.T) {
	c := NewCollector()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				i, j := (w+n)%37, (w*n+1)%41
				if i == j {
					j++
				}
				phase := [...]string{"select", "partition", "rank"}[n%3]
				c.Charge(phase, i, j, 2)
				if n%5 == 0 {
					c.Refund(phase, i, j, 1)
				}
				if n%7 == 0 {
					c.MemoHit(phase, i, j)
				}
				if n%11 == 0 {
					c.Charge(phase, i, -1, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	wantTMC := int64(workers*perWorker*2) + int64(workers)*int64((perWorker+10)/11)
	tr := c.Tree()
	if tr.TMC != wantTMC {
		t.Fatalf("tree TMC = %d, want %d", tr.TMC, wantTMC)
	}
	if c.Total() != wantTMC {
		t.Fatalf("Total = %d, want %d", c.Total(), wantTMC)
	}
	var leafSum int64
	for _, ph := range tr.Phases {
		var phSum int64
		for _, p := range ph.Pairs {
			phSum += p.TMC
		}
		if phSum != ph.TMC {
			t.Fatalf("phase %s leaf sum %d != phase TMC %d", ph.Phase, phSum, ph.TMC)
		}
		leafSum += phSum
	}
	if leafSum != tr.TMC {
		t.Fatalf("leaf sum %d != tree TMC %d", leafSum, tr.TMC)
	}
}

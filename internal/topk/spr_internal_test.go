package topk

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/dataset"
)

func TestBubbleMedianCost(t *testing.T) {
	// Appendix C: C(A,m) = (3m² + m − 2)/8 comparisons for bubble sort.
	for _, m := range []int{1, 3, 5, 7, 9, 11, 101} {
		want := (3*m*m + m - 2) / 8
		if got := bubbleMedianCost(m); got != want {
			t.Errorf("C(bubble,%d) = %d, want %d", m, got, want)
		}
	}
	// The formula must upper-bound the sum Σ_{i=1..⌈m/2⌉}(m−i) it was
	// derived from (Appendix C).
	for m := 1; m <= 201; m += 2 {
		sum := 0
		for i := 1; i <= (m+1)/2; i++ {
			sum += m - i
		}
		if bound := bubbleMedianCost(m); sum > bound {
			t.Errorf("m=%d: actual bubble comparisons %d exceed bound %d", m, sum, bound)
		}
	}
}

func TestPlanReferenceRespectsBudget(t *testing.T) {
	for _, n := range []int{25, 100, 537, 1225} {
		for _, k := range []int{1, 5, 10, 20} {
			if k >= n {
				continue
			}
			plan := planReference(n, k, 1.5)
			if plan.m < 1 || plan.m%2 != 1 {
				t.Errorf("n=%d k=%d: m=%d not odd positive", n, k, plan.m)
			}
			if plan.x < 1 || plan.x > n {
				t.Errorf("n=%d k=%d: x=%d out of range", n, k, plan.x)
			}
			if cost := plan.m*(plan.x-1) + bubbleMedianCost(plan.m); cost > n {
				t.Errorf("n=%d k=%d: sampling cost %d exceeds budget %d", n, k, cost, n)
			}
			if plan.prob < 0 || plan.prob > 1 {
				t.Errorf("n=%d k=%d: probability %v outside [0,1]", n, k, plan.prob)
			}
		}
	}
}

func TestSweetSpotProbSaneShape(t *testing.T) {
	// With more sampling procedures the median concentrates: probability at
	// (x*, m) should not collapse, and a decent plan must beat the wild
	// guess ck/N for realistic sizes.
	n, k, c := 1225, 10, 1.5
	plan := planReference(n, k, c)
	wild := c * float64(k) / float64(n)
	if plan.prob <= wild {
		t.Errorf("planned probability %v not above wild guess %v", plan.prob, wild)
	}
	if plan.prob < 0.3 {
		t.Errorf("planned probability %v suspiciously low", plan.prob)
	}
}

func TestSweetSpotProbMatchesMonteCarlo(t *testing.T) {
	// Validate the closed-form §5.1 probability against simulation on the
	// rank scale (sampling is rank-uniform, so no crowd is needed).
	n, k, c := 200, 10, 1.5
	x, m := 40, 5
	want := sweetSpotProb(n, k, x, m, c)

	rng := newTestRand(4242)
	const runs = 20000
	hits := 0
	ck := int(math.Floor(c * float64(k)))
	for run := 0; run < runs; run++ {
		medianOf := make([]int, m)
		for s := 0; s < m; s++ {
			best := n // ranks are 0-based, lower is better
			for t2 := 0; t2 < x; t2++ {
				if r := rng.Intn(n); r < best {
					best = r
				}
			}
			medianOf[s] = best
		}
		sort.Ints(medianOf)
		med := medianOf[m/2]
		// Sweet spot: o_k* ⪰ r ⪰ o_ck*, i.e. rank in [k-1, ck-1].
		if med >= k-1 && med <= ck-1 {
			hits++
		}
	}
	got := float64(hits) / runs
	if math.Abs(got-want) > 0.02 {
		t.Errorf("closed form %v vs Monte Carlo %v", want, got)
	}
}

func TestSelectReferenceLandsNearSweetSpot(t *testing.T) {
	// Over repetitions, the selected reference must be far from a uniform
	// draw: its average rank should sit near the sweet spot, well above k
	// times worse than random.
	const n, k = 200, 10
	sumRank := 0
	const runs = 20
	for rep := 0; rep < runs; rep++ {
		r, src := noisyRunner(n, 0.2, int64(900+rep))
		ref := NewSPR().selectReference(r, allItems(n), k)
		sumRank += src.TrueRank(ref)
	}
	avg := float64(sumRank) / runs
	if avg > float64(n)/4 {
		t.Errorf("average reference rank %v too far from sweet spot (uniform would be %v)", avg, float64(n)/2)
	}
}

func TestPartitionInvariants(t *testing.T) {
	const n, k = 50, 8
	r, src := noisyRunner(n, 0.25, 31)
	items := allItems(n)
	ref := dataset.Order(src)[12] // a known mid reference
	res := partition(r, items, k, ref, 2)

	// The three groups plus the final reference partition the item set.
	seen := map[int]int{}
	for _, o := range res.winners {
		seen[o]++
	}
	for _, o := range res.ties {
		seen[o]++
	}
	for _, o := range res.losers {
		seen[o]++
	}
	if !res.refInWinners {
		seen[res.ref]++
	}
	if len(seen) != n {
		t.Fatalf("partition covers %d items, want %d", len(seen), n)
	}
	for o, c := range seen {
		if c != 1 {
			t.Fatalf("item %d appears %d times in the partition", o, c)
		}
	}

	// Confirmed winners beat the final reference per the memo; confirmed
	// losers lose to it.
	for _, o := range res.winners {
		if res.refInWinners && o == res.ref {
			continue
		}
		if out, ok := r.Concluded(o, res.ref); ok && out != compare.FirstWins {
			t.Errorf("winner %d concluded %v against reference", o, out)
		}
	}
	for _, o := range res.losers {
		if out, ok := r.Concluded(o, res.ref); ok && out != compare.SecondWins {
			t.Errorf("loser %d concluded %v against reference", o, out)
		}
	}
	if res.refChanges > 2 {
		t.Errorf("refChanges %d exceeds cap", res.refChanges)
	}
}

func TestPartitionNoRefChangeWhenDisabled(t *testing.T) {
	const n, k = 40, 5
	r, src := noisyRunner(n, 0.25, 32)
	ref := dataset.Order(src)[8]
	res := partition(r, allItems(n), k, ref, 0)
	if res.refChanges != 0 {
		t.Errorf("refChanges = %d with maxRefChanges=0", res.refChanges)
	}
	if res.ref != ref {
		t.Errorf("reference changed from %d to %d despite cap 0", ref, res.ref)
	}
}

func TestPartitionPerfectReferencePrunesEverything(t *testing.T) {
	// Noiseless data with the true o_k* as reference: exactly the k-1
	// better items win, everyone else loses, no ties.
	const n, k = 30, 6
	r, src := exactRunner(n, 33)
	order := dataset.Order(src)
	res := partition(r, allItems(n), k, order[k-1], 0)
	if len(res.winners) != k-1+1 || !res.refInWinners {
		// k-1 strict winners plus the reference added back (line 13).
		t.Fatalf("winners = %v (refInWinners=%v), want %d strict winners + ref",
			res.winners, res.refInWinners, k-1)
	}
	if len(res.ties) != 0 {
		t.Errorf("ties = %v, want none on noiseless data", res.ties)
	}
	if len(res.losers) != n-k {
		t.Errorf("losers = %d, want %d", len(res.losers), n-k)
	}
}

func TestAdjacentSortExact(t *testing.T) {
	r, src := exactRunner(25, 34)
	order := dataset.Order(src)
	// Shuffle, sort by crowd, expect the exact order.
	items := append([]int(nil), order...)
	rng := newTestRand(35)
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	got := sortByCrowd(r, items)
	for i := range got {
		if got[i] != order[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, got[i], order[i])
		}
	}
}

func TestAdjacentSortAlmostSortedIsCheap(t *testing.T) {
	// Sorting an already sorted sequence must cost at most one comparison
	// per adjacent pair (near-linear best case, §5.3).
	r, src := exactRunner(30, 36)
	order := dataset.Order(src)
	tmc0 := r.Engine().TMC()
	sortByCrowd(r, order)
	perPair := float64(r.Engine().TMC()-tmc0) / float64(len(order)-1)
	if perPair > float64(r.Params().I)+1 {
		t.Errorf("already-sorted input cost %.1f tasks/pair, want ≈ I", perPair)
	}
}

func TestMaxItemAndMaxItemsExact(t *testing.T) {
	r, src := exactRunner(20, 37)
	order := dataset.Order(src)
	if got := maxItem(r, order); got != order[0] {
		t.Errorf("maxItem = %d, want %d", got, order[0])
	}
	// Multi-tournament variant agrees, including duplicate samples.
	winners := maxItems(r, [][]int{order, order[5:], {order[3]}})
	if winners[0] != order[0] || winners[1] != order[5] || winners[2] != order[3] {
		t.Errorf("maxItems = %v", winners)
	}
}

func TestCompareAllDedupesAndOrients(t *testing.T) {
	r, _ := exactRunner(10, 38)
	pairs := [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}}
	p := newFlatPlan(pairs)
	drive(r, p)
	outs := p.out
	if outs[0] != outs[1].Flip() || outs[0] != outs[2] {
		t.Errorf("duplicate orientations disagree: %v", outs)
	}
	if outs[3] != compare.Tie {
		t.Errorf("identical pair outcome = %v, want Tie", outs[3])
	}
	// Dedup means the pair's workload is that of a single comparison.
	if w := r.Workload(0, 1); w > r.Params().B {
		t.Errorf("deduped pair workload %d exceeds a single budget", w)
	}
}

func TestSweetSpotProbProperty(t *testing.T) {
	f := func(ni, ki, xi, mi uint8) bool {
		n := int(ni)%500 + 20
		k := int(ki)%10 + 1
		if 2*k >= n {
			return true
		}
		x := int(xi)%n + 1
		m := 2*(int(mi)%10) + 1
		p := sweetSpotProb(n, k, x, m, 1.5)
		return p >= -1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

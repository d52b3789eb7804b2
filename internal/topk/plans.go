package topk

import "crowdtopk/internal/compare"

// flatPlan answers a fixed batch of pairs — the shape of quickselect's
// pivot phase. Every pair is ready immediately; outcomes are recorded
// raw, oriented toward each pair's first item. The driver gives
// duplicate pairs (in either orientation) one shared comparison process
// and decides identical-item pairs as ties.
type flatPlan struct {
	pairs  [][2]int
	out    []compare.Outcome
	issued bool
}

func newFlatPlan(pairs [][2]int) *flatPlan {
	return &flatPlan{pairs: pairs, out: make([]compare.Outcome, len(pairs))}
}

func (p *flatPlan) ready() []match {
	if p.issued {
		return nil
	}
	p.issued = true
	ms := make([]match, len(p.pairs))
	for idx, pr := range p.pairs {
		ms[idx] = match{id: int64(idx), i: pr[0], j: pr[1]}
	}
	return ms
}

func (p *flatPlan) decide(id int64, o compare.Outcome) { p.out[id] = o }

// bracketPlan runs single-elimination tournaments — one bracket per
// entrant list, all sharing the driver's pool. A match becomes ready the
// moment both of its slots are known, so sibling brackets and even
// consecutive levels of one bracket overlap: the winner of a fast match
// advances while its cousins are still racing. Odd entrants get a bye
// appended after the level's winners, preserving the classic pairing.
// onMatch, when non-nil, observes every decided match (tournament-tree
// loser bookkeeping).
type bracketPlan struct {
	r       *compare.Runner
	trees   []*bracketTree
	pending map[int64][3]int // match id -> {tree, level, match index}
	nextID  int64
	onMatch func(winner, loser int)
}

type bracketTree struct {
	levels [][]int  // levels[0] = entrants; -1 marks an unknown slot
	issued [][]bool // issued[l][t]: match t of level l handed to the driver
}

func newBracketPlan(r *compare.Runner, entrants [][]int, onMatch func(winner, loser int)) *bracketPlan {
	p := &bracketPlan{r: r, pending: make(map[int64][3]int), onMatch: onMatch}
	for _, es := range entrants {
		if len(es) == 0 {
			panic("topk: tournament over an empty entrant list")
		}
		t := &bracketTree{}
		lvl := append([]int(nil), es...)
		for {
			t.levels = append(t.levels, lvl)
			n := len(lvl)
			if n == 1 {
				break
			}
			t.issued = append(t.issued, make([]bool, n/2))
			up := make([]int, n/2+n%2)
			for i := range up {
				up[i] = -1
			}
			lvl = up
		}
		p.trees = append(p.trees, t)
	}
	// Seed the bye cascade: an odd level's last entrant advances for free.
	for _, t := range p.trees {
		for l := 0; l+1 < len(t.levels); l++ {
			if n := len(t.levels[l]); n%2 == 1 {
				t.levels[l+1][n/2] = t.levels[l][n-1]
			}
		}
	}
	return p
}

// winner returns the champion of tree ti; only valid after the drive.
func (p *bracketPlan) winner(ti int) int {
	t := p.trees[ti]
	return t.levels[len(t.levels)-1][0]
}

func (p *bracketPlan) ready() []match {
	var ms []match
	for ti, t := range p.trees {
		for l, iss := range t.issued {
			lvl := t.levels[l]
			for mt := range iss {
				if iss[mt] || lvl[2*mt] < 0 || lvl[2*mt+1] < 0 {
					continue
				}
				iss[mt] = true
				id := p.nextID
				p.nextID++
				p.pending[id] = [3]int{ti, l, mt}
				ms = append(ms, match{id: id, i: lvl[2*mt], j: lvl[2*mt+1]})
			}
		}
	}
	return ms
}

func (p *bracketPlan) decide(id int64, o compare.Outcome) {
	at := p.pending[id]
	delete(p.pending, id)
	t := p.trees[at[0]]
	lvl := t.levels[at[1]]
	a, b := lvl[2*at[2]], lvl[2*at[2]+1]
	w, loser := a, b
	if resolve(p.r, a, b, o) != compare.FirstWins {
		w, loser = b, a
	}
	if p.onMatch != nil {
		p.onMatch(w, loser)
	}
	t.fill(at[1]+1, at[2], w)
}

// fill writes a decided slot, cascading the level's bye when the slot
// completes an odd level.
func (t *bracketTree) fill(level, slot, v int) {
	t.levels[level][slot] = v
	// Byes beyond level 0 cascade as soon as the carried slot fills.
	if n := len(t.levels[level]); level+1 < len(t.levels) && n%2 == 1 && slot == n-1 {
		t.fill(level+1, n/2, v)
	}
}

// oddEvenPlan is odd-even transposition sort (parallel bubble sort) over
// items, in place: the disjoint adjacent pairs of one parity form one
// bank of matches; the opposite parity becomes ready only once the bank
// drains (its pairs depend on the swaps), so the parity barrier is
// inherent in the data dependencies, not imposed by the driver. A pass
// cap guards against livelock when noisy, budget-exhausted judgments are
// intransitive; the sort is stable under indistinguishable ties.
type oddEvenPlan struct {
	r           *compare.Runner
	items       []int
	pass        int
	parity      int // 0, 1; 2 = end of pass
	swapped     bool
	outstanding int
	pos         map[int64]int // match id -> left index of its pair
	nextID      int64
	finished    bool
}

func newOddEvenPlan(r *compare.Runner, items []int) *oddEvenPlan {
	return &oddEvenPlan{r: r, items: items, pos: make(map[int64]int)}
}

func (p *oddEvenPlan) ready() []match {
	if p.outstanding > 0 || p.finished {
		return nil
	}
	for {
		if p.parity == 2 {
			// A consistent comparator finishes within n double-passes.
			if !p.swapped || p.pass >= len(p.items) {
				p.finished = true
				return nil
			}
			p.pass++
			p.parity = 0
			p.swapped = false
		}
		var ms []match
		for i := p.parity; i+1 < len(p.items); i += 2 {
			id := p.nextID
			p.nextID++
			p.pos[id] = i
			ms = append(ms, match{id: id, i: p.items[i], j: p.items[i+1]})
		}
		p.parity++
		if len(ms) > 0 {
			p.outstanding = len(ms)
			return ms
		}
	}
}

func (p *oddEvenPlan) decide(id int64, o compare.Outcome) {
	i := p.pos[id]
	delete(p.pos, id)
	p.outstanding--
	a, b := p.items[i], p.items[i+1]
	if o == compare.Tie && a != b {
		o = p.r.Leaning(a, b) // keep the current order if still tied
	}
	if o == compare.SecondWins {
		p.items[i], p.items[i+1] = b, a
		p.swapped = true
	}
}

// mergePlan is a crowd-backed merge sort over the items: a static binary
// merge tree whose leaves are the items in input order. Each merger
// emits one comparison at a time (merging is inherently sequential), but
// all mergers with complete inputs run concurrently — including across
// levels, since a merger becomes ready the moment its two input runs
// finish, regardless of its cousins.
type mergePlan struct {
	r       *compare.Runner
	root    *mergeNode
	nodes   []*mergeNode // internal nodes, creation order (determinism)
	pending map[int64]*mergeNode
	nextID  int64
}

type mergeNode struct {
	left, right *mergeNode
	out         []int
	ai, bi      int // merge progress into left.out / right.out
	complete    bool
	inFlight    bool
}

func newMergePlan(r *compare.Runner, items []int) *mergePlan {
	p := &mergePlan{r: r, pending: make(map[int64]*mergeNode)}
	cur := make([]*mergeNode, len(items))
	for i, o := range items {
		cur[i] = &mergeNode{out: []int{o}, complete: true}
	}
	for len(cur) > 1 {
		var up []*mergeNode
		for i := 0; i+1 < len(cur); i += 2 {
			n := &mergeNode{left: cur[i], right: cur[i+1]}
			p.nodes = append(p.nodes, n)
			up = append(up, n)
		}
		if len(cur)%2 == 1 {
			up = append(up, cur[len(cur)-1]) // odd run carries up unchanged
		}
		cur = up
	}
	p.root = cur[0]
	return p
}

// sorted returns the fully merged order; only valid after the drive.
func (p *mergePlan) sorted() []int { return p.root.out }

func (p *mergePlan) ready() []match {
	var ms []match
	for _, n := range p.nodes {
		if n.complete || n.inFlight || !n.left.complete || !n.right.complete {
			continue
		}
		// Drain without comparisons once either side is exhausted.
		if n.ai == len(n.left.out) || n.bi == len(n.right.out) {
			n.out = append(n.out, n.left.out[n.ai:]...)
			n.out = append(n.out, n.right.out[n.bi:]...)
			n.complete = true
			continue
		}
		n.inFlight = true
		id := p.nextID
		p.nextID++
		p.pending[id] = n
		ms = append(ms, match{id: id, i: n.left.out[n.ai], j: n.right.out[n.bi]})
	}
	return ms
}

func (p *mergePlan) decide(id int64, o compare.Outcome) {
	n := p.pending[id]
	delete(p.pending, id)
	n.inFlight = false
	a, b := n.left.out[n.ai], n.right.out[n.bi]
	if resolve(p.r, a, b, o) == compare.FirstWins {
		n.out = append(n.out, a)
		n.ai++
	} else {
		n.out = append(n.out, b)
		n.bi++
	}
}

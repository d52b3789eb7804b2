package topk

import (
	"crowdtopk/internal/compare"
	"crowdtopk/internal/sched"
)

// drawResult is one answer of a drawAll batch.
type drawResult struct {
	v  float64
	ok bool
}

// drawAll purchases one preference microtask per request — the wave
// shape of racing algorithms (PBR) — through the runner's scheduler.
// Requests are grouped by canonical pair: groups run concurrently as one
// scheduler task each, requests within a group run sequentially in input
// order, so every request receives exactly the sample it would have
// received under sequential execution (the engine's per-pair streams
// make the group order irrelevant). ok is false for requests truncated
// by a spending cap. drawAll does not Tick; callers account latency at
// their wave boundaries.
func drawAll(r *compare.Runner, reqs [][2]int) []drawResult {
	res := make([]drawResult, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	q, release := r.Borrow()
	defer release()

	byKey := make(map[[2]int]int, len(reqs)) // canonical pair -> groups index
	var groups [][]int
	for idx, pr := range reqs {
		key := [2]int{pr[0], pr[1]}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		gi, ok := byKey[key]
		if !ok {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], idx)
	}
	for gi := range groups {
		idxs := groups[gi]
		q.Submit(sched.Task{Tag: int64(gi), Run: func() {
			for _, idx := range idxs {
				pr := reqs[idx]
				v, ok := r.DrawOne(pr[0], pr[1])
				res[idx] = drawResult{v, ok}
			}
		}})
	}
	q.Drain(len(groups))
	return res
}

// resolve turns a possibly tied outcome for (i, j) into a usable direction:
// confidence-level conclusions win; otherwise the sample-mean leaning; and
// as a final tie-break the first item. It never returns Tie.
func resolve(r *compare.Runner, i, j int, o compare.Outcome) compare.Outcome {
	if o != compare.Tie {
		return o
	}
	if i != j {
		if l := r.Leaning(i, j); l != compare.Tie {
			return l
		}
	}
	return compare.FirstWins
}

// better reports whether item i beats item j, running the full comparison
// process if needed and breaking budget-exhausted ties by leaning.
func better(r *compare.Runner, i, j int) bool {
	return resolve(r, i, j, r.Compare(i, j)) == compare.FirstWins
}

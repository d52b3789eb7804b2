package crowd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// uniformOracle answers each microtask with the difference of two
// uniforms, so every preference reads exactly two stream values through
// Float64 — the shape of the histogram oracles — while its grades read a
// normal variate, whose ziggurat mixes Uint32 and Float64 reads.
type uniformOracle struct{ n int }

func (o uniformOracle) NumItems() int { return o.n }

func (o uniformOracle) Preference(rng *rand.Rand, i, j int) float64 {
	return rng.Float64() - rng.Float64()
}

func (o uniformOracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	for t := range dst {
		dst[t] = o.Preference(rng, i, j)
	}
}

func (o uniformOracle) Grade(rng *rand.Rand, i int) float64 {
	return float64(i) + rng.NormFloat64()
}

// streamGoldenScript drives e through a purchase mix that reads every
// kind of stream position: pairs drawn well past the 607 values of
// math/rand's register (in batches, one at a time, in both orientations,
// interleaved with other pairs), pairs drawn only a little, a pair
// seeded from a posterior before its first draw, and graded items read
// past 607 values and barely at all. It writes everything an observer
// sees to w: each call's result, every touched pair's view in both
// orientations and its posterior, the money counters and the audit log.
func streamGoldenScript(e *Engine, w io.Writer) {
	enableLog(e)
	for r := 0; r < 25; r++ {
		v, got := e.DrawN(0, 1, 30)
		fmt.Fprintf(w, "DrawN(0,1,30) = %d %+v\n", got, v)
		v, got = e.DrawN(3, 2, 7+r) // flipped orientation, growing batches
		fmt.Fprintf(w, "DrawN(3,2,%d) = %d %+v\n", 7+r, got, v)
		if r%5 == 0 {
			v, got = e.DrawN(5, 6, 3) // a lightly drawn pair
			fmt.Fprintf(w, "DrawN(5,6,3) = %d %+v\n", got, v)
		}
		e.Tick(1)
	}
	for t := 0; t < 700; t++ {
		i, j := 4, 7
		if t%3 == 1 {
			i, j = j, i
		}
		v, ok := e.DrawOne(i, j)
		fmt.Fprintf(w, "DrawOne(%d,%d) = %v %v\n", i, j, v, ok)
	}
	if !e.SeedPair(8, 9, PairPosterior{N: 40, Mean: 0.25, M2: 3, BinN: 38, BinMean: 0.5, BinM2: 28}, false) {
		fmt.Fprintln(w, "SeedPair(8,9) refused")
	}
	v, got := e.DrawN(9, 8, 30)
	fmt.Fprintf(w, "DrawN(9,8,30) = %d %+v\n", got, v)
	for t := 0; t < 650; t++ {
		g, ok := e.Grade(3)
		fmt.Fprintf(w, "Grade(3) = %v %v\n", g, ok)
		if t%100 == 0 {
			g, ok = e.Grade(t / 100)
			fmt.Fprintf(w, "Grade(%d) = %v %v\n", t/100, g, ok)
		}
	}
	for _, p := range [][2]int{{0, 1}, {2, 3}, {5, 6}, {4, 7}, {8, 9}} {
		post, ok := e.Posterior(p[0], p[1])
		fmt.Fprintf(w, "View(%d,%d) = %+v / %+v\nPosterior = %+v %v\n",
			p[0], p[1], e.View(p[0], p[1]), e.View(p[1], p[0]), post, ok)
	}
	fmt.Fprintf(w, "TMC %d pairwise %d graded %d rounds %d\n", e.TMC(), e.PairwiseTasks(), e.GradedTasks(), e.Rounds())
	for _, r := range logOf(e) {
		fmt.Fprintf(w, "%+v\n", r)
	}
}

// TestEngineStreamGolden pins the engine's per-pair and per-item sample
// streams to math/rand's seeded stream: the digest of streamGoldenScript
// was recorded while both stream sites still called rand.NewSource, and
// any source behind them must reproduce it draw for draw. It also checks
// that every pair's posterior round-trips through SeedPair into a fresh
// engine bit for bit.
func TestEngineStreamGolden(t *testing.T) {
	const want = "0f0df38a7a038dfb"
	e := NewEngine(uniformOracle{n: 10}, rand.New(rand.NewSource(17)))
	h := sha256.New()
	streamGoldenScript(e, h)
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Errorf("stream digest %s, want %s", got, want)
	}
	fresh := NewEngine(uniformOracle{n: 10}, rand.New(rand.NewSource(1)))
	for _, p := range [][2]int{{0, 1}, {3, 2}, {5, 6}, {7, 4}, {8, 9}} {
		post, ok := e.Posterior(p[0], p[1])
		if !ok {
			t.Fatalf("pair %v has no posterior", p)
		}
		if !fresh.SeedPair(p[0], p[1], post, false) {
			t.Fatalf("SeedPair%v refused on a fresh engine", p)
		}
		if got, _ := fresh.Posterior(p[0], p[1]); got != post {
			t.Errorf("pair %v posterior round trip: got %+v, want %+v", p, got, post)
		}
		if got, want := fresh.View(p[1], p[0]), e.View(p[1], p[0]); got != want {
			t.Errorf("pair %v view after round trip: got %+v, want %+v", p, got, want)
		}
	}
}

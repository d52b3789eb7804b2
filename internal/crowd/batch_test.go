package crowd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdtopk/internal/obs"
)

// scalarOnly hides an oracle's BatchOracle facet so tests (and benchmarks)
// can force the engine's per-sample fallback path.
type scalarOnly struct{ Oracle }

// noisyOracle is a cheap deterministic test oracle with a batch kernel.
type noisyOracle struct{ n int }

func (o noisyOracle) NumItems() int { return o.n }

func (o noisyOracle) Preference(rng *rand.Rand, i, j int) float64 {
	v := float64(j-i)/float64(o.n) + rng.NormFloat64()*0.25
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

func (o noisyOracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	for t := range dst {
		dst[t] = o.Preference(rng, i, j)
	}
}

// purchaseScript is the engine identity table's fixed purchase mix:
// batched draws in both orientations, single draws in both orientations,
// a batch of one, a cap-truncated draw followed by a declined single
// draw, and a final batch — the one a failing platform breaks mid-batch —
// followed by a single draw the failure latch must decline. It returns
// everything an observer can see: each call's result, every touched
// pair's view in both orientations, the audit log, the money counters
// and the engine's instruments, as one canonical text.
func purchaseScript(e *Engine) string {
	reg := obs.NewRegistry()
	e.SetInstruments(NewEngineInstruments(reg))
	enableLog(e)
	var b strings.Builder
	drawN := func(i, j, n int) {
		v, got := e.DrawN(i, j, n)
		fmt.Fprintf(&b, "DrawN(%d,%d,%d) = %d %+v\n", i, j, n, got, v)
	}
	drawOne := func(i, j int) {
		v, ok := e.DrawOne(i, j)
		fmt.Fprintf(&b, "DrawOne(%d,%d) = %v %v\n", i, j, v, ok)
	}
	drawN(0, 1, 40)
	drawN(3, 2, 17) // flipped orientation
	drawOne(0, 1)
	drawOne(1, 0)
	drawN(0, 1, 1) // batch of one
	e.Tick(1)
	e.SetSpendingCap(e.TMC() + 5)
	drawN(2, 4, 12) // truncated to the 5 the cap allows
	drawOne(4, 2)   // declined by the cap
	e.SetSpendingCap(0)
	e.Tick(1)
	drawN(1, 2, 20)
	drawOne(2, 1)
	for _, p := range [][2]int{{0, 1}, {2, 3}, {2, 4}, {1, 2}} {
		fmt.Fprintf(&b, "View(%d,%d) = %+v / %+v\n", p[0], p[1], e.View(p[0], p[1]), e.View(p[1], p[0]))
	}
	fmt.Fprintf(&b, "TMC %d pairwise %d rounds %d failed %v\n", e.TMC(), e.PairwiseTasks(), e.Rounds(), e.Err() != nil)
	snap := reg.Snapshot()
	for _, m := range []string{obs.MSamples, obs.MTMC, obs.MRefunds, obs.MCapDenied, obs.MDrawBatches} {
		fmt.Fprintf(&b, "%s %d\n", m, snap.Counter(m))
	}
	for _, r := range logOf(e) {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}

// TestDrawBatchMatchesScalarFallback is the engine identity table: every
// oracle shape the engine resolves a purchase kernel for — a batch
// kernel, the scalar fallback, FuncOracle, WorkerPool, Replay and
// ReplayThenLive over both a batch-kernel oracle and a platform that
// answers short and then fails — runs purchaseScript, and the digest of
// what it observes must equal the one recorded when DrawOne still bought
// through the scalar Preference call. Shapes that must agree sample for
// sample (batch, scalar, FuncOracle, and a Replay of the batch run's own
// audit log) share one digest.
func TestDrawBatchMatchesScalarFallback(t *testing.T) {
	const seed = 5
	base := noisyOracle{n: 8}
	// batchLog is the batch-kernel run's audit log, which Replay serves.
	batchEngine := NewEngine(base, rand.New(rand.NewSource(seed)))
	purchaseScript(batchEngine)
	batchLog := logOf(batchEngine)
	// resumeLog is a checkpoint covering part of two pairs' demand, the
	// second in the flipped orientation, for the ReplayThenLive shapes.
	var resumeLog []Record
	for t := 0; t < 10; t++ {
		resumeLog = append(resumeLog, Record{I: 0, J: 1, Value: float64(t)/20 - 0.2})
	}
	for t := 0; t < 6; t++ {
		resumeLog = append(resumeLog, Record{I: 2, J: 1, Value: 0.1 * float64(t%3)})
	}
	// shortPlatform serves one step per posted batch: the first batch
	// comes back five answers short, a single draw gets no answer at all,
	// and the final batch fails on collection after its replayed prefix.
	shortPlatform := func() Platform {
		return newScriptPlatform(
			scriptStep{serve: 25},                 // DrawN(0,1,40): 10 replayed + 30 posted
			scriptStep{serve: -1},                 // DrawN(3,2,17)
			scriptStep{serve: 0},                  // DrawOne(0,1): refunded
			scriptStep{serve: -1},                 // DrawOne(1,0)
			scriptStep{serve: -1},                 // DrawN(0,1,1)
			scriptStep{serve: -1},                 // DrawN(2,4,5 of 12)
			scriptStep{collectErr: errMarketDown}, // DrawN(1,2,20): 6 replayed, then failure
		)
	}
	const (
		same    = "fd85e8421c8c0be5"
		pool    = "141e770567e9c892"
		rtlData = "60faddb8545691b9"
		rtlPlat = "78537fd82aa49629"
	)
	cases := []struct {
		name   string
		oracle func() Oracle
		want   string
	}{
		{"batch-kernel", func() Oracle { return base }, same},
		{"scalar-only", func() Oracle { return scalarOnly{base} }, same},
		{"func-oracle", func() Oracle { return FuncOracle{N: base.n, Pref: base.Preference} }, same},
		{"replay", func() Oracle { return NewReplay(base.n, batchLog) }, same},
		{"worker-pool", func() Oracle {
			return NewWorkerPool(base, WorkerPoolConfig{Workers: 7, SpammerFraction: 0.2, AdversaryFraction: 0.1, ScaleSD: 0.3, Seed: 3})
		}, pool},
		{"resume-over-batch", func() Oracle { return NewReplayThenLive(resumeLog, base) }, rtlData},
		{"resume-over-short-platform", func() Oracle {
			return NewReplayThenLive(resumeLog, NewPlatformOracle(base.n, shortPlatform()))
		}, rtlPlat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.oracle()
			trace := purchaseScript(NewEngine(o, rand.New(rand.NewSource(seed))))
			if rl, ok := o.(*ReplayThenLive); ok {
				trace += fmt.Sprintf("live %d replayed %d\n", rl.LiveTasks(), rl.ReplayedServed())
			}
			sum := sha256.Sum256([]byte(trace))
			if got := hex.EncodeToString(sum[:8]); got != c.want {
				t.Errorf("digest %s, want %s; trace:\n%s", got, c.want, trace)
			}
		})
	}
}

// TestViewSeesLatestDraw checks the published snapshot is refreshed by
// every mutation, including single draws and cap-truncated batches.
func TestViewSeesLatestDraw(t *testing.T) {
	e := NewEngine(noisyOracle{n: 4}, rand.New(rand.NewSource(1)))
	if got := e.View(0, 1); got != (BagView{}) {
		t.Fatalf("view before any draw = %+v, want zero", got)
	}
	want := e.Draw(0, 1, 10)
	if got := e.View(0, 1); got != want {
		t.Fatalf("view after Draw = %+v, want %+v", got, want)
	}
	if v, ok := e.DrawOne(1, 0); !ok {
		t.Fatal("DrawOne failed")
	} else if flipped := e.View(1, 0); flipped.Mean == want.Mean && v != 0 {
		// Mean should have moved with the 11th sample (almost surely).
		_ = flipped
	}
	if got, want := e.View(0, 1).N, 11; got != want {
		t.Fatalf("view N = %d, want %d", got, want)
	}
	if got := e.View(0, 1).Mean; got != -e.View(1, 0).Mean {
		t.Fatalf("orientation flip broken: %v vs %v", got, -e.View(1, 0).Mean)
	}

	// A cap-exhausted draw publishes nothing new but must not corrupt the
	// snapshot either.
	e.SetSpendingCap(e.TMC())
	before := e.View(0, 1)
	e.Draw(0, 1, 5)
	if got := e.View(0, 1); got != before {
		t.Fatalf("cap-truncated draw changed view: %+v -> %+v", before, got)
	}
}

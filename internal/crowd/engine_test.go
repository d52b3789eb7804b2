package crowd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussOracle is a simple test oracle: item i has latent score float64(n-i)
// (item 0 is best), preferences are N(Δs/σscale, σ²) clipped to [-1,1].
type gaussOracle struct {
	n     int
	sigma float64
}

func (g gaussOracle) NumItems() int { return g.n }

func (g gaussOracle) Preference(rng *rand.Rand, i, j int) float64 {
	mu := float64(j-i) / float64(g.n) // i better than j iff i < j
	v := mu + rng.NormFloat64()*g.sigma
	return math.Max(-1, math.Min(1, v))
}

func (g gaussOracle) Grade(rng *rand.Rand, i int) float64 {
	return float64(g.n-i) + rng.NormFloat64()
}

func (g gaussOracle) TrueRank(i int) int { return i }

func (g gaussOracle) PairMoments(i, j int) (float64, float64) {
	return float64(j-i) / float64(g.n), g.sigma
}

func newTestEngine(n int, seed int64) *Engine {
	return NewEngine(gaussOracle{n: n, sigma: 0.2}, rand.New(rand.NewSource(seed)))
}

func TestEngineAccounting(t *testing.T) {
	e := newTestEngine(10, 1)
	if e.TMC() != 0 || e.Rounds() != 0 {
		t.Fatal("fresh engine must have zero counters")
	}
	e.Draw(0, 1, 30)
	e.Draw(2, 3, 5)
	e.Grade(4)
	if got := e.TMC(); got != 36 {
		t.Errorf("TMC = %d, want 36", got)
	}
	if got := e.PairwiseTasks(); got != 35 {
		t.Errorf("PairwiseTasks = %d, want 35", got)
	}
	if got := e.GradedTasks(); got != 1 {
		t.Errorf("GradedTasks = %d, want 1", got)
	}
	e.Tick(3)
	e.Tick(1)
	if got := e.Rounds(); got != 4 {
		t.Errorf("Rounds = %d, want 4", got)
	}
	if got := e.PairsTouched(); got != 2 {
		t.Errorf("PairsTouched = %d, want 2", got)
	}
}

func TestEngineViewOrientation(t *testing.T) {
	e := newTestEngine(10, 2)
	// Item 0 is better than item 9, so the mean oriented toward 0 must be
	// positive with many samples.
	v := e.Draw(0, 9, 500)
	if v.Mean <= 0 {
		t.Errorf("mean toward better item = %v, want > 0", v.Mean)
	}
	flipped := e.View(9, 0)
	if flipped.Mean != -v.Mean {
		t.Errorf("flipped mean = %v, want %v", flipped.Mean, -v.Mean)
	}
	if flipped.N != v.N || flipped.SD != v.SD {
		t.Errorf("flipped view changed N or SD: %+v vs %+v", flipped, v)
	}
	if flipped.BinMean != -v.BinMean {
		t.Errorf("flipped binary mean = %v, want %v", flipped.BinMean, -v.BinMean)
	}
}

func TestEngineBagsPersistAndAccumulate(t *testing.T) {
	e := newTestEngine(5, 3)
	v1 := e.Draw(1, 2, 10)
	if v1.N != 10 {
		t.Fatalf("N after first draw = %d, want 10", v1.N)
	}
	v2 := e.Draw(2, 1, 10) // same pair, other orientation
	if v2.N != 20 {
		t.Errorf("N after second draw = %d, want 20 (bag must be shared)", v2.N)
	}
	if e.PairsTouched() != 1 {
		t.Errorf("PairsTouched = %d, want 1", e.PairsTouched())
	}
}

func TestEngineViewUnknownPairIsZero(t *testing.T) {
	e := newTestEngine(5, 4)
	v := e.View(0, 4)
	if v.N != 0 || v.Mean != 0 || v.SD != 0 || v.BinN != 0 {
		t.Errorf("unknown pair view = %+v, want zero", v)
	}
}

func TestEngineBinaryViewDropsZeros(t *testing.T) {
	// An oracle that returns 0 half of the time.
	o := FuncOracle{N: 4, Pref: func(rng *rand.Rand, i, j int) float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return 0.5
	}}
	e := NewEngine(o, rand.New(rand.NewSource(5)))
	v := e.Draw(0, 1, 1000)
	if v.N != 1000 {
		t.Fatalf("preference N = %d, want 1000", v.N)
	}
	if v.BinN >= 1000 || v.BinN == 0 {
		t.Errorf("binary N = %d, want in (0, 1000): zeros must be dropped", v.BinN)
	}
	if v.BinMean != 1 {
		t.Errorf("binary mean = %v, want 1 (all non-zero samples positive)", v.BinMean)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		e := newTestEngine(20, 42)
		v := e.Draw(3, 7, 200)
		return v.Mean, e.TMC()
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("same seed produced different runs: (%v,%v) vs (%v,%v)", m1, c1, m2, c2)
	}
}

func TestEngineMeanConvergesToOracleMoments(t *testing.T) {
	e := newTestEngine(10, 7)
	mu, _ := gaussOracle{n: 10, sigma: 0.2}.PairMoments(2, 8)
	v := e.Draw(2, 8, 20000)
	if math.Abs(v.Mean-mu) > 0.01 {
		t.Errorf("sample mean %v far from true mean %v", v.Mean, mu)
	}
	if math.Abs(v.SD-0.2) > 0.01 {
		t.Errorf("sample SD %v far from true SD 0.2", v.SD)
	}
}

func TestEngineAntisymmetryProperty(t *testing.T) {
	// For any pair and sample budget, the view toward i and toward j must
	// be exact mirrors.
	f := func(seed int64, ii, ji uint8, ni uint16) bool {
		n := 10
		i := int(ii) % n
		j := int(ji) % n
		if i == j {
			return true
		}
		cnt := int(ni%200) + 1
		e := newTestEngine(n, seed)
		vi := e.Draw(i, j, cnt)
		vj := e.View(j, i)
		return vi.Mean == -vj.Mean && vi.N == vj.N && vi.SD == vj.SD && vi.BinMean == -vj.BinMean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnginePanics(t *testing.T) {
	e := newTestEngine(5, 8)
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("Draw same item", func() { e.Draw(2, 2, 1) })
	assertPanic("Draw negative", func() { e.Draw(0, 1, -1) })
	assertPanic("View same item", func() { e.View(3, 3) })
	assertPanic("Tick negative", func() { e.Tick(-1) })
	assertPanic("nil oracle", func() { NewEngine(nil, rand.New(rand.NewSource(1))) })
	assertPanic("nil rng", func() { NewEngine(gaussOracle{n: 2}, nil) })
	assertPanic("grade without grader", func() {
		e2 := NewEngine(FuncOracle{N: 2, Pref: func(*rand.Rand, int, int) float64 { return 0 }}, rand.New(rand.NewSource(1)))
		e2.Grade(0)
	})
	assertPanic("oracle out of range", func() {
		e3 := NewEngine(FuncOracle{N: 2, Pref: func(*rand.Rand, int, int) float64 { return 2 }}, rand.New(rand.NewSource(1)))
		e3.Draw(0, 1, 1)
	})
}

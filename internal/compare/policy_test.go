package compare

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/stats"
)

// gaussPair is an oracle over two items whose preference (toward item 0)
// is N(mu, sigma²) clipped to [-1, 1].
type gaussPair struct{ mu, sigma float64 }

func (g gaussPair) NumItems() int { return 2 }

func (g gaussPair) Preference(rng *rand.Rand, i, j int) float64 {
	v := g.mu + rng.NormFloat64()*g.sigma
	if i > j {
		v = -v
	}
	return math.Max(-1, math.Min(1, v))
}

func pairEngine(mu, sigma float64, seed int64) *crowd.Engine {
	return crowd.NewEngine(gaussPair{mu, sigma}, rand.New(rand.NewSource(seed)))
}

func TestOutcomeFlipAndString(t *testing.T) {
	if FirstWins.Flip() != SecondWins || SecondWins.Flip() != FirstWins || Tie.Flip() != Tie {
		t.Error("Flip is not an involution on outcomes")
	}
	if FirstWins.String() != "first-wins" || SecondWins.String() != "second-wins" || Tie.String() != "tie" {
		t.Error("unexpected String values")
	}
}

func TestPolicyNames(t *testing.T) {
	want := []string{"student", "stein", "student-onesided", "hoeffding", "hoeffding-pref", "voi", "pac"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PolicyNames = %v, want %v", got, want)
	}
	for _, name := range want {
		p, err := NewPolicy(name, 0.05)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	// The legacy spellings of the default resolve to it.
	for _, legacy := range []string{"", "fixed"} {
		if p, err := NewPolicy(legacy, 0.05); err != nil || p.Name() != "student" {
			t.Errorf("NewPolicy(%q) = %v, %v; want student", legacy, p, err)
		}
	}
}

// NewPolicy reports every construction its policies would panic on as an
// error: unknown names (with the canonical list), alphas outside (0, 1),
// and the one-sided rule at alpha >= 0.5.
func TestNewPolicyErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alpha float64
		want  string
	}{
		{"bogus", 0.05, `unknown policy "bogus" (available: student, stein, student-onesided, hoeffding, hoeffding-pref, voi, pac)`},
		{"student-onesided", 0.5, "confidence above 0.5"},
		{"student-onesided", 0.6, "confidence above 0.5"},
		{"hoeffding", 0, "confidence in (0, 1)"},
		{"pac", 1, "confidence in (0, 1)"},
		{"fixed", -0.1, "confidence in (0, 1)"},
	} {
		p, err := NewPolicy(tc.name, tc.alpha)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewPolicy(%q, %v) = %v, %v; want error containing %q", tc.name, tc.alpha, p, err, tc.want)
		}
	}
}

// The fixed schedule reads I and Step from the Params it is handed, so a
// Derived runner reschedules the same policy value.
func TestFixedScheduleReadsParams(t *testing.T) {
	p := NewStein(0.05)
	v := crowd.BagView{N: 10}
	for _, tc := range []struct {
		prm        Params
		left       int
		boot, next int
	}{
		{Params{I: 30, Step: 30}, 500, 20, 30},
		{Params{I: 12, Step: 5}, 500, 2, 5},
		{Params{I: 30, Step: 30}, 7, 20, 7},
		{Params{I: 30, Step: 30}, -3, 20, -3},
	} {
		if got := p.Bootstrap(v, tc.prm); got != tc.boot {
			t.Errorf("Bootstrap(N=10, %+v) = %d, want %d", tc.prm, got, tc.boot)
		}
		if got := p.Next(v, tc.left, tc.prm); got != tc.next {
			t.Errorf("Next(left %d, %+v) = %d, want %d", tc.left, tc.prm, got, tc.next)
		}
	}
}

// allPolicies builds every named policy at significance level alpha.
func allPolicies(t *testing.T, alpha float64) []Policy {
	t.Helper()
	var pols []Policy
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, alpha)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		pols = append(pols, p)
	}
	return pols
}

func TestPoliciesUndecidedOnTinyBags(t *testing.T) {
	for _, p := range allPolicies(t, 0.05) {
		if got := p.Test(crowd.BagView{N: 1, Mean: 0.9, BinN: 1, BinMean: 0.9}); got != Tie {
			t.Errorf("%s on one sample = %v, want tie", p.Name(), got)
		}
		if got := p.Test(crowd.BagView{}); got != Tie {
			t.Errorf("%s on empty bag = %v, want tie", p.Name(), got)
		}
	}
}

func TestStudentDecisionMatchesManualCI(t *testing.T) {
	alpha := 0.05
	p := NewStudent(alpha)
	// Construct views where the decision boundary is known analytically.
	n := 31
	sd := 0.5
	half := stats.TCritical(alpha, n-1) * sd / math.Sqrt(float64(n))
	cases := []struct {
		mean float64
		want Outcome
	}{
		{half * 1.01, FirstWins},
		{half * 0.99, Tie},
		{-half * 1.01, SecondWins},
		{-half * 0.99, Tie},
		{0, Tie},
	}
	for _, tc := range cases {
		v := crowd.BagView{N: n, Mean: tc.mean, SD: sd}
		if got := p.Test(v); got != tc.want {
			t.Errorf("Student.Test(mean=%v) = %v, want %v", tc.mean, got, tc.want)
		}
	}
}

func TestStudentZeroVarianceDecidesImmediately(t *testing.T) {
	p := NewStudent(0.05)
	if got := p.Test(crowd.BagView{N: 2, Mean: 0.1, SD: 0}); got != FirstWins {
		t.Errorf("zero-SD positive mean = %v, want FirstWins", got)
	}
	if got := p.Test(crowd.BagView{N: 2, Mean: -0.1, SD: 0}); got != SecondWins {
		t.Errorf("zero-SD negative mean = %v, want SecondWins", got)
	}
	if got := p.Test(crowd.BagView{N: 2, Mean: 0, SD: 0}); got != Tie {
		t.Errorf("zero-SD zero mean = %v, want Tie", got)
	}
}

func TestSteinDecisionRule(t *testing.T) {
	alpha := 0.05
	p := NewStein(alpha)
	// With mean m and sd s, Stein stops when s²/(m−ε)²·t² ≤ n.
	n := 100
	tcrit := stats.TCritical(alpha, n-1)
	m := 0.2
	sStop := (m - 2e-9) * math.Sqrt(float64(n)) / tcrit
	if got := p.Test(crowd.BagView{N: n, Mean: m, SD: sStop * 0.99}); got != FirstWins {
		t.Errorf("Stein below stopping SD = %v, want FirstWins", got)
	}
	if got := p.Test(crowd.BagView{N: n, Mean: m, SD: sStop * 1.01}); got != Tie {
		t.Errorf("Stein above stopping SD = %v, want Tie", got)
	}
	if got := p.Test(crowd.BagView{N: n, Mean: -m, SD: sStop * 0.99}); got != SecondWins {
		t.Errorf("Stein negative mean = %v, want SecondWins", got)
	}
	if got := p.Test(crowd.BagView{N: n, Mean: 0, SD: 0.1}); got != Tie {
		t.Errorf("Stein zero mean = %v, want Tie", got)
	}
}

// steinRule is Algorithm 5's stopping test as the paper states it: with
// the target half-width L = |x̄| − ε, stop once S²t²/L² ≤ n and conclude
// for the sign of x̄. It is kept here as the reference NewStein answers
// to.
func steinRule(tt *stats.TTable, v crowd.BagView) Outcome {
	const eps = 1e-9
	if v.N < 2 {
		return Tie
	}
	l := math.Abs(v.Mean) - eps
	if l <= 0 {
		return Tie
	}
	t := tt.Critical(v.N - 1)
	if v.SD*v.SD/(l*l)*t*t > float64(v.N) {
		return Tie
	}
	if v.Mean > 0 {
		return FirstWins
	}
	return SecondWins
}

// TestSteinIsStudent replays seeded pairs over a grid of gaps and
// significance levels, looking at every point of the fixed schedule (I,
// I+η, …, B). At each look Algorithm 5's rule, the "stein" policy and
// Student's rule must give one verdict: S²t²/(|x̄|−ε)² ≤ n is
// t·S/√n ≤ |x̄|−ε, Student's interval test up to ε.
func TestSteinIsStudent(t *testing.T) {
	const I, eta, B, sigma = 30, 30, 1000, 0.4
	looks, concluded := 0, 0
	for _, alpha := range []float64{0.02, 0.05, 0.1} {
		tt := stats.NewTTable(alpha)
		stein, student := NewStein(alpha), NewStudent(alpha)
		for _, mu := range []float64{0, 0.01, -0.02, 0.04, 0.08, -0.15, 0.3} {
			for seed := int64(1); seed <= 20; seed++ {
				e := pairEngine(mu, sigma, seed)
				v := e.Draw(0, 1, I)
				for n := I; n <= B; n += eta {
					want := steinRule(tt, v)
					if got := stein.Test(v); got != want {
						t.Fatalf("α=%v μ=%v seed %d n=%d: stein %v, Algorithm 5 %v", alpha, mu, seed, n, got, want)
					}
					if got := student.Test(v); got != want {
						t.Fatalf("α=%v μ=%v seed %d n=%d: student %v, Algorithm 5 %v", alpha, mu, seed, n, got, want)
					}
					looks++
					if want != Tie {
						concluded++
					}
					v = e.Draw(0, 1, eta)
				}
			}
		}
	}
	if concluded == 0 || concluded == looks {
		t.Fatalf("%d of %d looks concluded: the grid does not exercise both verdicts", concluded, looks)
	}
}

func TestHoeffdingDecisionRule(t *testing.T) {
	alpha := 0.1
	p := NewHoeffding(alpha)
	n := 500
	// The policy applies the anytime doubling-epoch correction.
	half := stats.HoeffdingHalfWidth(n, 2, anytimeAlpha(alpha, n))
	if got := p.Test(crowd.BagView{BinN: n, BinMean: half * 1.01}); got != FirstWins {
		t.Errorf("above half-width = %v, want FirstWins", got)
	}
	if got := p.Test(crowd.BagView{BinN: n, BinMean: half * 0.99}); got != Tie {
		t.Errorf("below half-width = %v, want Tie", got)
	}
	if got := p.Test(crowd.BagView{BinN: n, BinMean: -half * 1.01}); got != SecondWins {
		t.Errorf("below negative half-width = %v, want SecondWins", got)
	}
}

func TestPolicyAntisymmetryProperty(t *testing.T) {
	// Test(view toward i) must equal Test(view toward j).Flip().
	policies := allPolicies(t, 0.05)
	f := func(ni uint8, meanI, sdI int16, binMeanI int16) bool {
		n := int(ni)%500 + 2
		mean := float64(meanI) / math.MaxInt16 // [-1, 1]
		sd := math.Abs(float64(sdI)) / math.MaxInt16
		binMean := float64(binMeanI) / math.MaxInt16
		v := crowd.BagView{N: n, Mean: mean, SD: sd, BinN: n, BinMean: binMean}
		flipped := crowd.BagView{N: n, Mean: -mean, SD: sd, BinN: n, BinMean: -binMean}
		for _, p := range policies {
			if p.Test(v) != p.Test(flipped).Flip() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyMonotoneInMeanProperty(t *testing.T) {
	// For fixed n and sd, if mean m decides FirstWins then any larger mean
	// must too.
	p := NewStudent(0.02)
	f := func(ni uint8, m1i, m2i uint16, sdi uint16) bool {
		n := int(ni)%500 + 2
		m1 := float64(m1i) / math.MaxUint16
		m2 := float64(m2i) / math.MaxUint16
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		sd := float64(sdi) / math.MaxUint16
		o1 := p.Test(crowd.BagView{N: n, Mean: m1, SD: sd})
		o2 := p.Test(crowd.BagView{N: n, Mean: m2, SD: sd})
		if o1 == FirstWins && o2 != FirstWins {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoliciesAgreeOnEasyPair(t *testing.T) {
	// A very easy pair must be decided correctly by all policies.
	for _, p := range []Policy{NewStudent(0.02), NewStein(0.02), NewHoeffding(0.02)} {
		e := pairEngine(0.5, 0.1, 11)
		v := e.Draw(0, 1, 200)
		if got := p.Test(v); got != FirstWins {
			t.Errorf("%s on easy pair = %v, want FirstWins", p.Name(), got)
		}
		// And the mirrored orientation.
		if got := p.Test(e.View(1, 0)); got != SecondWins {
			t.Errorf("%s mirrored = %v, want SecondWins", p.Name(), got)
		}
	}
}

func TestNewHoeffdingPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, 1, -0.2, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHoeffding(%v) did not panic", a)
				}
			}()
			NewHoeffding(a)
		}()
	}
}

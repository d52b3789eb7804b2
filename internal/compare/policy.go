package compare

import (
	"fmt"
	"math"
	"strings"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/stats"
)

// Outcome is the conclusion of a comparison process for an ordered pair
// (i, j): whether the first item wins, the second wins, or the pair is (so
// far, or under budget) indistinguishable.
type Outcome int8

const (
	// Tie means no conclusion can be drawn from the samples seen so far.
	Tie Outcome = 0
	// FirstWins means o_i ≻ o_j at the requested confidence.
	FirstWins Outcome = 1
	// SecondWins means o_i ≺ o_j at the requested confidence.
	SecondWins Outcome = -1
)

// Flip returns the outcome as seen from the opposite orientation.
func (o Outcome) Flip() Outcome { return -o }

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case FirstWins:
		return "first-wins"
	case SecondWins:
		return "second-wins"
	default:
		return "tie"
	}
}

// Policy owns the full per-pair decision of a comparison process: the
// verdict test — whether the purchased samples support a winner at the
// policy's confidence level — and the sampling schedule: how many samples
// to buy before the first test, and how large the next batch should be
// given the evidence so far. The Runner alternates Test and
// Bootstrap/Next until the policy concludes or declines to buy.
//
// The paper's estimators (Student, Stein, Hoeffding, HoeffdingPref) are
// policies that embed the fixed schedule of §5.5, which reads the
// cold-start workload I and the batch size η from the Runner's Params;
// the adaptive policies (VoI, PAC) size their purchases themselves and
// ignore those two fields.
//
// Policies must be pure, deterministic functions of the bag view, the
// remaining budget and the Params: the Runner calls them concurrently
// from many goroutines and replays them against deterministic sample
// streams, so a policy that kept per-pair mutable state would both race
// and break byte-identical replay. Prior evidence (jstore-seeded
// posteriors) is already folded into the bag view.
type Policy interface {
	// Name identifies the policy in reports, metric labels and the
	// verdict-trust rule ("student", "voi", ...; see NewPolicy).
	Name() string
	// Test returns FirstWins/SecondWins when the samples support a
	// conclusion at the policy's confidence level, Tie otherwise. It
	// receives the bag view oriented toward the first item of the pair
	// and never purchases samples.
	Test(v crowd.BagView) Outcome
	// Bootstrap returns how many samples the pair still needs before the
	// stopping rule is first consulted — the cold-start workload. Zero or
	// negative means the bag is past cold start.
	Bootstrap(v crowd.BagView, p Params) int
	// Next returns the size of the next batch to purchase for a pair the
	// test left undecided, given the remaining per-pair budget left
	// (left may be negative when a seeded prior overshot the budget).
	// Returning <= 0 declines the purchase: the Runner concludes the pair
	// as a budget-exhausted tie. Adaptive policies use this to abandon
	// pairs whose projected cost to a verdict exceeds what is left.
	Next(v crowd.BagView, left int, p Params) int
}

// fixedSchedule is the paper's sampling schedule (§5.5), embedded by the
// four estimator policies: buy the cold-start workload I in one purchase,
// then batches of η = Step until the test concludes or the per-pair
// budget runs dry. Both constants come from the Runner's Params, so a
// Derived sub-phase runner reschedules the same policy value.
type fixedSchedule struct{}

// Bootstrap implements Policy: whatever is missing of the initial I.
func (fixedSchedule) Bootstrap(v crowd.BagView, p Params) int { return p.I - v.N }

// Next implements Policy: one batch of Step, clamped to the remaining
// budget. An empty budget declines the purchase, which the Runner turns
// into the budget-exhausted tie the fixed schedule always concluded with.
func (fixedSchedule) Next(_ crowd.BagView, left int, p Params) int { return min(p.Step, left) }

// policyTable is the static list of policy names, the default first.
var policyTable = []struct {
	name  string
	build func(alpha float64) Policy
}{
	{"student", func(a float64) Policy { return NewStudent(a) }},
	{"stein", func(a float64) Policy { return NewStein(a) }},
	{"student-onesided", func(a float64) Policy { return NewStudentOneSided(a) }},
	{"hoeffding", func(a float64) Policy { return NewHoeffding(a) }},
	{"hoeffding-pref", func(a float64) Policy { return NewHoeffdingPref(a) }},
	{"voi", func(a float64) Policy { return NewVoI(a) }},
	{"pac", func(a float64) Policy { return NewPAC(a) }},
}

// PolicyNames returns the policy names NewPolicy accepts, default first —
// the list every "unknown policy" error and flag help string enumerates.
func PolicyNames() []string {
	names := make([]string, len(policyTable))
	for i, e := range policyTable {
		names[i] = e.name
	}
	return names
}

// CanonicalPolicy maps a policy name to the one its verdicts are labeled
// with. "" and "fixed" both mean "student": "fixed" named the paper's
// schedule, which Student ran under by default, before the estimators
// became policies, and judgment-store records from that time carry
// "fixed" or no name at all. Every other name is its own canonical form.
func CanonicalPolicy(name string) string {
	if name == "" || name == "fixed" {
		return "student"
	}
	return name
}

// NewPolicy builds the named policy (after CanonicalPolicy) at
// significance level alpha. It returns an error, never panics, for an
// unknown name, an alpha outside (0, 1), or the one-sided Student rule at
// alpha >= 0.5, where its one-sided critical value is undefined.
func NewPolicy(name string, alpha float64) (Policy, error) {
	name = CanonicalPolicy(name)
	for _, e := range policyTable {
		if e.name != name {
			continue
		}
		if !(alpha > 0 && alpha < 1) {
			return nil, fmt.Errorf("policy %q needs a confidence in (0, 1), got %v", name, 1-alpha)
		}
		if name == "student-onesided" && alpha >= 0.5 {
			return nil, fmt.Errorf("policy %q needs a confidence above 0.5, got %v", name, 1-alpha)
		}
		return e.build(alpha), nil
	}
	return nil, fmt.Errorf("unknown policy %q (available: %s)", name, strings.Join(PolicyNames(), ", "))
}

// Student implements Algorithm 1 (STUDENTCOMP): conclude when the
// Student-t confidence interval of the preference mean excludes 0.
type Student struct {
	fixedSchedule
	tt   *stats.TTable
	name string
}

// NewStudent returns the Student policy at significance level alpha
// (confidence 1−alpha).
func NewStudent(alpha float64) *Student {
	return &Student{tt: stats.NewTTable(alpha), name: "student"}
}

// NewStudentOneSided returns the half-closed-interval variant the paper
// sketches in §3.1: instead of requiring the symmetric two-sided interval
// to exclude 0, each direction is tested with a one-sided bound at level
// α, i.e. the critical value t_{α,n−1} instead of t_{α/2,n−1}. The wrong
// direction is still concluded with probability at most α, but the
// tighter bound stops comparisons earlier — the paper's "the cumulative
// probability of [the] half-closed confidence interval can be larger than
// 1−α which improves the confidence".
func NewStudentOneSided(alpha float64) *Student {
	if alpha >= 0.5 {
		panic("compare: NewStudentOneSided requires alpha < 0.5")
	}
	// TTable stores two-sided critical values t_{a/2, n-1}; requesting
	// level 2α yields the one-sided t_{α, n-1}.
	return &Student{tt: stats.NewTTable(2 * alpha), name: "student-onesided"}
}

// Name implements Policy.
func (s *Student) Name() string { return s.name }

// HalfWidth implements HalfWidther: the Student-t confidence-interval
// half-width at the current sample size (infinite below two samples).
func (s *Student) HalfWidth(v crowd.BagView) float64 {
	if v.N < 2 {
		return math.Inf(1)
	}
	return s.tt.Critical(v.N-1) * v.SD / math.Sqrt(float64(v.N))
}

// Test implements Policy.
func (s *Student) Test(v crowd.BagView) Outcome {
	if v.N < 2 {
		return Tie
	}
	half := s.HalfWidth(v)
	switch {
	case v.Mean-half > 0:
		return FirstWins
	case v.Mean+half < 0:
		return SecondWins
	default:
		return Tie
	}
}

// Stein implements Algorithm 5 (STEINCOMP): Stein's estimation recast as a
// progressive stopping rule. The target interval half-width L is kept just
// below |x̄| so that the interval always excludes 0; the rule stops as soon
// as the current sample size supports that width.
type Stein struct {
	fixedSchedule
	tt *stats.TTable
	// eps is the paper's small positive ε keeping the interval strictly
	// away from 0.
	eps float64
}

// NewStein returns the Stein policy at significance level alpha.
func NewStein(alpha float64) *Stein {
	return &Stein{tt: stats.NewTTable(alpha), eps: 1e-9}
}

// Name implements Policy.
func (s *Stein) Name() string { return "stein" }

// HalfWidth implements HalfWidther. Stein's rule targets a data-dependent
// width L rather than a fixed one; the reported trajectory is the plain
// t-interval half-width of the current bag, the quantity the rule is
// racing against |x̄|.
func (s *Stein) HalfWidth(v crowd.BagView) float64 {
	if v.N < 2 {
		return math.Inf(1)
	}
	return s.tt.Critical(v.N-1) * v.SD / math.Sqrt(float64(v.N))
}

// Test implements Policy.
func (s *Stein) Test(v crowd.BagView) Outcome {
	if v.N < 2 {
		return Tie
	}
	l := math.Abs(v.Mean) - s.eps
	if l <= 0 {
		return Tie
	}
	t := s.tt.Critical(v.N - 1)
	if v.SD*v.SD/(l*l)*t*t > float64(v.N) {
		return Tie // workload not yet sufficient for width L
	}
	if v.Mean > 0 {
		return FirstWins
	}
	return SecondWins
}

// anytimeAlpha splits a significance level over doubling epochs so the
// Hoeffding test stays valid under optional stopping: the epoch of sample
// size n is ℓ = ⌈log₂ n⌉ + 1 and receives α/(ℓ(ℓ+1)), which sums to at
// most α over all epochs.
func anytimeAlpha(alpha float64, n int) float64 {
	l := 1
	for p := 1; p < n; p *= 2 {
		l++
	}
	return alpha / float64(l*(l+1))
}

// Hoeffding implements the pairwise binary judgment comparison: votes are
// the signs of the preferences (±1, zeros dropped), and the decision uses
// the distribution-free Hoeffding confidence interval on the vote mean.
//
// Because the rule is applied after every sample, the interval carries an
// anytime-valid racing correction in the style of Busa-Fekete et al.: the
// significance is split over doubling epochs, α_n = α/(ℓ(ℓ+1)) with
// ℓ = ⌈log₂ n⌉ + 1, which union-bounds over all stopping times at only a
// log-log price. This correction is what makes binary judgments several
// times more expensive than preference judgments in Table 3 — the
// preference processes use the paper's plain fixed-n t-interval
// (Algorithm 1) and pay no such premium.
type Hoeffding struct {
	fixedSchedule
	alpha float64
	half  *stats.F64Cache // anytime half-width keyed by vote count
}

// NewHoeffding returns the Hoeffding policy at significance level alpha.
func NewHoeffding(alpha float64) *Hoeffding {
	if alpha <= 0 || alpha >= 1 {
		panic("compare: NewHoeffding requires alpha in (0,1)")
	}
	return &Hoeffding{alpha: alpha, half: newHalfWidthCache(alpha)}
}

// newHalfWidthCache memoizes the anytime-corrected Hoeffding half-width by
// sample size, mirroring stats.TTable: the log/sqrt pair and the epoch
// bookkeeping leave the per-test hot path after the first visit to each n.
func newHalfWidthCache(alpha float64) *stats.F64Cache {
	return stats.NewF64Cache(func(n int) float64 {
		return stats.HoeffdingHalfWidth(n, 2, anytimeAlpha(alpha, n))
	})
}

// Name implements Policy.
func (h *Hoeffding) Name() string { return "hoeffding" }

// HalfWidth implements HalfWidther: the anytime-corrected Hoeffding
// half-width at the current vote count (infinite before the first vote).
func (h *Hoeffding) HalfWidth(v crowd.BagView) float64 {
	if v.BinN < 1 {
		return math.Inf(1)
	}
	return h.half.Get(v.BinN)
}

// Test implements Policy.
func (h *Hoeffding) Test(v crowd.BagView) Outcome {
	if v.BinN < 1 {
		return Tie
	}
	half := h.half.Get(v.BinN)
	switch {
	case v.BinMean-half > 0:
		return FirstWins
	case v.BinMean+half < 0:
		return SecondWins
	default:
		return Tie
	}
}

// HoeffdingPref applies the distribution-free Hoeffding interval directly
// to the *preference* values (not their signs). It is the alternative the
// paper's footnote 3 suggests for preferences that are not normally
// distributed.
//
// A perhaps surprising consequence of range-only bounds: on symmetric
// [-1, 1]-censored preferences, the sign transform concentrates the mean
// at least as much as the clipped magnitudes do (μ̃ = 2Φ(μ/σ)−1 versus the
// censored mean), so the plain binary Hoeffding policy never loses to
// this one — the preference model's Table 3 advantage is created by
// variance-adaptive (Student/Stein) intervals, not by the magnitudes
// alone. HoeffdingPref is provided for completeness and for preference
// distributions that are asymmetric or unclipped.
type HoeffdingPref struct {
	fixedSchedule
	alpha float64
	half  *stats.F64Cache
}

// NewHoeffdingPref returns the distribution-free preference policy at
// significance level alpha.
func NewHoeffdingPref(alpha float64) *HoeffdingPref {
	if alpha <= 0 || alpha >= 1 {
		panic("compare: NewHoeffdingPref requires alpha in (0,1)")
	}
	return &HoeffdingPref{alpha: alpha, half: newHalfWidthCache(alpha)}
}

// Name implements Policy.
func (h *HoeffdingPref) Name() string { return "hoeffding-pref" }

// HalfWidth implements HalfWidther.
func (h *HoeffdingPref) HalfWidth(v crowd.BagView) float64 {
	if v.N < 1 {
		return math.Inf(1)
	}
	return h.half.Get(v.N)
}

// Test implements Policy.
func (h *HoeffdingPref) Test(v crowd.BagView) Outcome {
	if v.N < 1 {
		return Tie
	}
	half := h.half.Get(v.N)
	switch {
	case v.Mean-half > 0:
		return FirstWins
	case v.Mean+half < 0:
		return SecondWins
	default:
		return Tie
	}
}

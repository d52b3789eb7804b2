package compare

import (
	"math"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/stats"
)

// PAC is a gap-elimination comparison policy from the best-k
// sample-complexity line (Ren–Liu–Shroff): a distribution-free,
// anytime-valid Hoeffding race on the preference mean in which the batch
// size adapts to the observed gap instead of a fixed η.
//
//   - Verdict: conclude as soon as the anytime-corrected Hoeffding
//     interval on the mean excludes 0 — both directions race; whichever
//     confidence bound crosses first eliminates the other.
//   - Schedule: sample sizes follow a geometric grid (each batch is half
//     the evidence so far), so a pair reaches any target n in O(log n)
//     rounds, clamped by the projected need n* ≈ 2·ln(2/α_n)·(range/gap)²
//     that the current empirical gap implies — a shrinking gap stretches
//     the projection and the batches grow to match; a widening gap
//     collapses them to small confirmatory steps.
//   - Elimination: once n* exceeds what the remaining per-pair budget can
//     fund, the pair cannot be separated at confidence within budget and
//     is eliminated as a tie instead of being funded all the way to B.
//
// Like every policy, PAC is a pure function of the bag view and remaining
// budget, so it is race-free and replays deterministically.
type PAC struct {
	alpha float64
	half  *stats.F64Cache // anytime half-width keyed by sample count
}

// Default PAC shape parameters: the anytime-corrected race is valid from
// the first sample, so the cold start only needs to be large enough that
// the first projection is not pure noise.
const (
	pacBootstrap = 8
	pacFloor     = 24
	pacMinBatch  = 4
	pacMaxBatch  = 256
)

// NewPAC returns the PAC gap-elimination policy at significance level
// alpha.
func NewPAC(alpha float64) *PAC {
	if alpha <= 0 || alpha >= 1 {
		panic("compare: NewPAC requires alpha in (0,1)")
	}
	return &PAC{alpha: alpha, half: newHalfWidthCache(alpha)}
}

// Name implements Policy.
func (p *PAC) Name() string { return "pac" }

// HalfWidth implements Policy: the anytime-corrected Hoeffding
// half-width at the current sample count.
func (p *PAC) HalfWidth(v crowd.BagView) float64 {
	if v.N < 1 {
		return math.Inf(1)
	}
	return p.half.Get(v.N)
}

// Test implements Policy.
func (p *PAC) Test(v crowd.BagView) Outcome {
	if v.N < 1 {
		return Tie
	}
	return interval(v.Mean, p.half.Get(v.N))
}

// Bootstrap implements Policy.
func (p *PAC) Bootstrap(v crowd.BagView, _ Params) int { return pacBootstrap - v.N }

// projected returns the sample size at which the anytime Hoeffding
// interval is expected to shrink below the observed gap: the inversion of
// half(n) = range·√(ln(2/α_n)/2n) at the current epoch's α_n.
func (p *PAC) projected(v crowd.BagView) float64 {
	gap := math.Abs(v.Mean)
	if gap == 0 {
		return math.Inf(1)
	}
	// half(n) = range·√(ln(2/α)/2n) with range 2 ⇒ n* = 2·ln(2/α)/gap².
	a := anytimeAlpha(p.alpha, v.N)
	return math.Ceil(2 * math.Log(2/a) / (gap * gap))
}

// Next implements Policy: the geometric batch n/2, clamped by the
// projected remaining distance, [pacMinBatch, pacMaxBatch] and the budget;
// eliminate (0) when the projection is not fundable.
func (p *PAC) Next(v crowd.BagView, left int, _ Params) int {
	if left <= 0 {
		return 0
	}
	need := p.projected(v)
	// The sum is computed in float64: an unlimited budget arrives as
	// MaxInt, and v.N+left would wrap negative in int arithmetic, turning
	// "always fundable" into "never fundable".
	if v.N >= pacFloor && need > float64(v.N)+float64(left) {
		return 0 // gap too small to separate within budget: eliminate
	}
	n := v.N / 2
	if d := need - float64(v.N); d > 0 && float64(n) > d {
		n = int(d)
	}
	if n < pacMinBatch {
		n = pacMinBatch
	}
	if n > pacMaxBatch {
		n = pacMaxBatch
	}
	if n > left {
		n = left
	}
	return n
}

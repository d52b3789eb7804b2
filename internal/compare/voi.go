package compare

import (
	"math"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/stats"
)

// VoI is a Bayesian value-of-information comparison policy in the style
// of Chen–Jiao–Lin's instance-adaptive top-k ranking: maintain a normal
// posterior over the pair's preference mean from the bag's Welford
// moments (μ̂ = x̄, posterior sd ≈ s/√n under a flat prior), conclude when
// the 1−α credible interval excludes 0, and size each purchase by how
// much information it is expected to buy.
//
//   - Projected cost to a verdict: the credible half-width z·s/√n falls
//     below |x̄| at n* = (z·s/x̄)². The policy buys roughly half the
//     remaining distance to n* per batch — large steps while the verdict
//     is far, small confirmatory steps near it — instead of a fixed η.
//   - Expected value of information: once n* exceeds what the remaining
//     per-pair budget can fund, no affordable purchase can move the
//     decision, so the expected information per microtask is below its
//     price at any batch size. The policy then declines to buy and the
//     pair concludes as a tie — this early surrender on near-ties, which
//     the fixed schedule instead funds all the way to B, is where the
//     policy's TMC savings come from (near-ties barely affect ranking
//     quality, so NDCG holds).
//
// VoI is a pure function of the bag view and remaining budget; jstore-
// seeded posteriors are already folded into the moments it reads.
type VoI struct {
	alpha float64
	z     float64 // normal quantile z_{1−α/2}
	boot  int     // cold-start workload before the first test
	floor int     // evidence floor before surrender is allowed
	min   int     // smallest batch
	max   int     // largest batch
}

// Default VoI shape parameters: a cold start of 8 samples (enough for a
// usable variance estimate, vs the fixed schedule's I = 30), surrender
// allowed only past 24 samples (a near-zero mean on fewer is noise, not
// evidence of a tie), batches between 4 and 128.
const (
	voiBootstrap = 8
	voiFloor     = 24
	voiMinBatch  = 4
	voiMaxBatch  = 128
)

// NewVoI returns the Bayesian value-of-information policy at significance
// level alpha (credible level 1−alpha).
func NewVoI(alpha float64) *VoI {
	if alpha <= 0 || alpha >= 1 {
		panic("compare: NewVoI requires alpha in (0,1)")
	}
	return &VoI{
		alpha: alpha,
		z:     stats.NormalQuantile(1 - alpha/2),
		boot:  voiBootstrap,
		floor: voiFloor,
		min:   voiMinBatch,
		max:   voiMaxBatch,
	}
}

// Name implements Policy.
func (p *VoI) Name() string { return "voi" }

// HalfWidth implements HalfWidther: the credible-interval half-width of
// the posterior mean.
func (p *VoI) HalfWidth(v crowd.BagView) float64 {
	if v.N < 2 {
		return math.Inf(1)
	}
	return p.z * v.SD / math.Sqrt(float64(v.N))
}

// Test implements Policy: conclude when the credible interval excludes 0.
func (p *VoI) Test(v crowd.BagView) Outcome {
	if v.N < 2 {
		return Tie
	}
	half := p.HalfWidth(v)
	switch {
	case v.Mean-half > 0:
		return FirstWins
	case v.Mean+half < 0:
		return SecondWins
	default:
		return Tie
	}
}

// Bootstrap implements Policy.
func (p *VoI) Bootstrap(v crowd.BagView, _ Params) int { return p.boot - v.N }

// projected returns the total sample size n* at which the credible
// interval is expected to exclude 0, +Inf when the mean carries no
// direction.
func (p *VoI) projected(v crowd.BagView) float64 {
	m := math.Abs(v.Mean)
	if m == 0 {
		return math.Inf(1)
	}
	if v.SD == 0 {
		// Deterministic judgments: the very next test concludes.
		return float64(v.N)
	}
	r := p.z * v.SD / m
	return math.Ceil(r * r)
}

// Next implements Policy: half the projected remaining distance to a
// verdict, clamped to [min, max] and the budget; surrender (0) when the
// projection is not fundable from what is left.
func (p *VoI) Next(v crowd.BagView, left int, _ Params) int {
	if left <= 0 {
		return 0
	}
	need := p.projected(v)
	// The sum is computed in float64: an unlimited budget arrives as
	// MaxInt, and v.N+left would wrap negative in int arithmetic, turning
	// "always fundable" into "never fundable".
	if v.N >= p.floor && need > float64(v.N)+float64(left) {
		return 0 // verdict unreachable within budget: stop paying
	}
	n := p.min
	if d := need - float64(v.N); d > 0 {
		if h := int(math.Ceil(d / 2)); h > n {
			n = h
		}
	}
	if n > p.max {
		n = p.max
	}
	if n > left {
		n = left
	}
	return n
}

package dataset

import (
	"fmt"
	"math"
)

// Histogram is a rating-histogram dataset in the style of the paper's IMDb
// and Book sources: every item carries a histogram of integer ratings on a
// 1..scale axis, and a pairwise preference judgment samples one rating per
// item from the histograms and returns the normalized difference
// v = (s_i − s_j)/(scale−1) ∈ [−1, 1] (§6.1).
type Histogram struct {
	name  string
	scale int
	// hist[i][b] is the probability of rating b+1 for item i; cdf[i] its
	// prefix sums with a guide table, for inverse-CDF sampling.
	hist [][]float64
	cdf  []cdfRow
	// prefs[scale−1+b−c] is the preference (b−c)/(scale−1) of rating
	// indices b and c: a lookup per microtask instead of a division.
	prefs []float64
	// votes[i] is the number of votes behind the histogram (drives the
	// weighted-rank ground truth for IMDb).
	votes []int
	mean  []float64 // histogram means
	sd    []float64 // histogram standard deviations
	rank  []int
}

// HistogramConfig parameterizes the synthetic histogram generator.
type HistogramConfig struct {
	Name string
	// N is the number of items.
	N int
	// Scale is the top rating (ratings are 1..Scale).
	Scale int
	// QualityMean and QualitySD shape the distribution of item means.
	QualityMean, QualitySD float64
	// SpreadLo and SpreadHi bound the per-item rating standard deviation.
	SpreadLo, SpreadHi float64
	// MixUniform is the fraction of ratings drawn uniformly (models the
	// 1-star/10-star bumps of real rating histograms).
	MixUniform float64
	// VotesLo and VotesHi bound the per-item vote counts (log-uniform).
	VotesLo, VotesHi int
	// WeightedRankK and WeightedRankC, when WeightedRankK > 0, switch the
	// ground truth to IMDb's weighted-rank formula with these constants.
	WeightedRankK, WeightedRankC float64
	// Seed fixes the generated dataset.
	Seed int64
}

// NewHistogram generates a histogram dataset from the config.
func NewHistogram(cfg HistogramConfig) *Histogram {
	if cfg.N < 2 {
		panic(fmt.Sprintf("dataset: NewHistogram requires N >= 2, got %d", cfg.N))
	}
	if cfg.Scale < 2 {
		panic(fmt.Sprintf("dataset: NewHistogram requires Scale >= 2, got %d", cfg.Scale))
	}
	if cfg.VotesLo < 1 || cfg.VotesHi < cfg.VotesLo {
		panic(fmt.Sprintf("dataset: NewHistogram requires 1 <= VotesLo <= VotesHi, got [%d,%d]", cfg.VotesLo, cfg.VotesHi))
	}
	rng := newRand(cfg.Seed)
	h := &Histogram{
		name:  cfg.Name,
		scale: cfg.Scale,
		prefs: preferenceTable(cfg.Scale),
		hist:  make([][]float64, cfg.N),
		cdf:   make([]cdfRow, cfg.N),
		votes: make([]int, cfg.N),
		mean:  make([]float64, cfg.N),
		sd:    make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		q := squashQuality(cfg.QualityMean+rng.NormFloat64()*cfg.QualitySD, 1, float64(cfg.Scale))
		spread := cfg.SpreadLo + rng.Float64()*(cfg.SpreadHi-cfg.SpreadLo)

		probs := make([]float64, cfg.Scale)
		total := 0.0
		for b := 0; b < cfg.Scale; b++ {
			r := float64(b + 1)
			p := math.Exp(-(r - q) * (r - q) / (2 * spread * spread))
			probs[b] = p
			total += p
		}
		for b := range probs {
			probs[b] = (1-cfg.MixUniform)*probs[b]/total + cfg.MixUniform/float64(cfg.Scale)
		}

		// Votes: log-uniform between the bounds.
		lo, hi := math.Log(float64(cfg.VotesLo)), math.Log(float64(cfg.VotesHi))
		h.votes[i] = int(math.Exp(lo + rng.Float64()*(hi-lo)))

		h.hist[i] = probs
		h.cdf[i] = newCDFRow(cumsum(probs))
		h.mean[i], h.sd[i] = histMoments(probs)
	}

	// Ground truth: weighted rank when configured (IMDb), plain histogram
	// mean otherwise (Book).
	scores := make([]float64, cfg.N)
	for i := range scores {
		if cfg.WeightedRankK > 0 {
			scores[i] = WeightedRank(h.mean[i], h.votes[i], cfg.WeightedRankK, cfg.WeightedRankC)
		} else {
			scores[i] = h.mean[i]
		}
	}
	h.rank = ranksFromScores(scores)
	return h
}

// NewIMDb returns the IMDb-like dataset of the paper: 1,225 movies with
// ≥100,000 votes each, ratings on a 1..10 scale, ground truth by the
// weighted-rank formula with K = 25,000 and C = 6.9.
func NewIMDb(seed int64) *Histogram {
	return NewHistogram(HistogramConfig{
		Name:          "imdb",
		N:             1225,
		Scale:         10,
		QualityMean:   6.8,
		QualitySD:     1.6,
		SpreadLo:      0.6,
		SpreadHi:      1.3,
		MixUniform:    0.02,
		VotesLo:       100_000,
		VotesHi:       2_000_000,
		WeightedRankK: 25_000,
		WeightedRankC: 6.9,
		Seed:          seed,
	})
}

// NewBook returns the Book-Crossing-like dataset: 537 books with at least
// 50 votes, noisier histograms, ground truth by histogram mean.
func NewBook(seed int64) *Histogram {
	return NewHistogram(HistogramConfig{
		Name:        "book",
		N:           537,
		Scale:       10,
		QualityMean: 7.0,
		QualitySD:   1.7,
		SpreadLo:    0.8,
		SpreadHi:    1.7,
		MixUniform:  0.04,
		VotesLo:     50,
		VotesHi:     5_000,
		Seed:        seed,
	})
}

// squashQuality maps an unbounded raw quality smoothly into (lo, hi):
// approximately the identity in the interior, with softplus-compressed
// tails. A hard clamp would pile the best items onto one exactly-tied
// atom at the boundary, destroying the strict total order the paper's
// ground truth Ω requires; real rating data has close but distinct tops.
func squashQuality(raw, lo, hi float64) float64 {
	q := hi - math.Log1p(math.Exp(hi-raw)) // soft upper bound
	return lo + math.Log1p(math.Exp(q-lo)) // soft lower bound
}

// preferenceTable returns the 2·scale−1 preferences a pair of ratings
// on a 1..scale axis can produce, indexed by scale−1 plus the rating
// difference, each computed as (s_i − s_j)/(scale−1) is.
func preferenceTable(scale int) []float64 {
	d := float64(scale - 1)
	t := make([]float64, 2*scale-1)
	for k := range t {
		t[k] = float64(k-(scale-1)) / d
	}
	return t
}

func cumsum(p []float64) []float64 {
	c := make([]float64, len(p))
	s := 0.0
	for i, v := range p {
		s += v
		c[i] = s
	}
	c[len(c)-1] = 1 // guard against rounding
	return c
}

func histMoments(p []float64) (mean, sd float64) {
	for b, q := range p {
		mean += float64(b+1) * q
	}
	var v float64
	for b, q := range p {
		d := float64(b+1) - mean
		v += q * d * d
	}
	return mean, math.Sqrt(v)
}

// Name implements Source.
func (h *Histogram) Name() string { return h.name }

// NumItems implements crowd.Oracle.
func (h *Histogram) NumItems() int { return len(h.hist) }

// cdfGuide is the number of equal-width buckets of [0, 1) in a CDF
// row's guide table. A power of two, so u·cdfGuide is exact and the
// bucket of any u < 1 is below cdfGuide.
const cdfGuide = 128

// cdfExact flags a guide entry whose bucket holds no row value, so every
// u in it selects the same index; the low seven bits hold the index.
const cdfExact = 0x80

// cdfRow is one item's cumulative rating distribution, nondecreasing,
// with a guide table over cdfGuide buckets of [0, 1). guide[k] holds the
// number of entries below k/cdfGuide, capped at the last index and at
// 127: any u in bucket k selects at least that index, so the search
// starts there. When no entry falls inside the bucket (the common case
// for a ten-rating row) the entry is flagged exact and the search reads
// nothing else, where a binary search spends four unpredictable
// branches.
type cdfRow struct {
	cum   []float64
	guide [cdfGuide]uint8
}

func newCDFRow(cum []float64) cdfRow {
	r := cdfRow{cum: cum}
	last := len(cum) - 1
	// below(x) is the number of entries below x, capped at last.
	below := func(x float64) int {
		b := 0
		for b < last && cum[b] < x {
			b++
		}
		return b
	}
	for k := range r.guide {
		lo := below(float64(k) / cdfGuide)
		g := uint8(min(lo, cdfExact-1))
		if lo < cdfExact && below(float64(k+1)/cdfGuide) == lo {
			g |= cdfExact
		}
		r.guide[k] = g
	}
	return r
}

// search returns the rating index a uniform u ∈ [0, 1) selects: the
// number of entries below u, capped at the last index. On a
// nondecreasing row that is sort.SearchFloat64s(cum, u) capped the same
// way, which TestCDFSearchMatchesBinarySearch and FuzzHistogramCDF check.
func (r *cdfRow) search(u float64) int {
	g := r.guide[int(u*cdfGuide)]
	b := int(g &^ cdfExact)
	if g&cdfExact == 0 {
		for b < len(r.cum)-1 && r.cum[b] < u {
			b++
		}
	}
	return b
}

// Preference implements crowd.Oracle: v = (s_i − s_j)/(scale−1).
func (h *Histogram) Preference(rng *randSource, i, j int) float64 {
	si := h.cdf[i].search(rng.Float64())
	sj := h.cdf[j].search(rng.Float64())
	return h.prefs[h.scale-1+si-sj]
}

// Preferences implements crowd.BatchOracle. The CDF rows and the
// preference table are resolved once per batch; each slot still draws
// the same two uniforms in the same order as one Preference call,
// through the same inverse-CDF search, so the sample stream is
// unchanged.
func (h *Histogram) Preferences(rng *randSource, i, j int, dst []float64) {
	ci, cj := &h.cdf[i], &h.cdf[j]
	prefs, zero := h.prefs, h.scale-1
	for t := range dst {
		si := ci.search(rng.Float64())
		sj := cj.search(rng.Float64())
		dst[t] = prefs[zero+si-sj]
	}
}

// Grade implements crowd.Grader: one rating sampled from the item's
// histogram by inverse-CDF sampling.
func (h *Histogram) Grade(rng *randSource, i int) float64 {
	return float64(h.cdf[i].search(rng.Float64()) + 1)
}

// TrueRank implements crowd.TruthOracle.
func (h *Histogram) TrueRank(i int) int { return h.rank[i] }

// PairMoments implements crowd.TruthOracle: the exact mean and standard
// deviation of the preference distribution induced by the two histograms.
func (h *Histogram) PairMoments(i, j int) (float64, float64) {
	d := float64(h.scale - 1)
	mu := (h.mean[i] - h.mean[j]) / d
	sigma := math.Sqrt(h.sd[i]*h.sd[i]+h.sd[j]*h.sd[j]) / d
	return mu, sigma
}

// Votes returns the vote count behind item i's histogram.
func (h *Histogram) Votes(i int) int { return h.votes[i] }

// HistogramOf returns item i's rating distribution (probability per rating
// 1..Scale). The slice is shared; callers must not modify it.
func (h *Histogram) HistogramOf(i int) []float64 { return h.hist[i] }

// Scale returns the top rating of the histogram axis.
func (h *Histogram) Scale() int { return h.scale }

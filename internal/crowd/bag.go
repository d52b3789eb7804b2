package crowd

import (
	"crowdtopk/internal/stats"
)

// pairKey canonically identifies an unordered item pair.
type pairKey struct{ lo, hi int }

func keyOf(i, j int) pairKey {
	if i < j {
		return pairKey{i, j}
	}
	return pairKey{j, i}
}

// bag accumulates the purchased preference samples of one unordered pair,
// stored in the orientation v(lo, hi).
type bag struct {
	pref stats.Running // preference samples v(lo, hi)
	bin  stats.Running // sign-only (±1) view of the same samples, zeros dropped
}

// BagView exposes the statistics of a pair's sample bag oriented to a
// caller-chosen (i, j): a positive Mean favors item i. The view is a value
// snapshot; it does not change when more samples are purchased.
type BagView struct {
	// N is the number of preference samples purchased for the pair.
	N int
	// Mean and SD are the sample mean and unbiased sample standard
	// deviation of the preference values, oriented toward i.
	Mean, SD float64
	// BinN, BinMean describe the ±1 sign view of the same samples (zero
	// preferences are dropped, as in the paper's binary judgment model).
	BinN    int
	BinMean float64
}

// view snapshots the bag in the orientation of (i, j) with i, j mapping to
// key (lo, hi).
func (b *bag) view(flip bool) BagView {
	v := BagView{
		N:       b.pref.N(),
		Mean:    b.pref.Mean(),
		SD:      b.pref.SD(),
		BinN:    b.bin.N(),
		BinMean: b.bin.Mean(),
	}
	if flip {
		v.Mean = -v.Mean
		v.BinMean = -v.BinMean
	}
	return v
}

// flipped returns the view with the orientation reversed. Only the means
// change sign; counts and spread are orientation-free.
func (v BagView) flipped() BagView {
	v.Mean = -v.Mean
	v.BinMean = -v.BinMean
	return v
}

// PairPosterior is the exact accumulated state of one pair's sample bag
// in canonical (lo, hi) orientation: the raw Welford triples of the
// preference bag and its ±1 sign-only view. Unlike BagView it carries the
// M2 accumulators rather than derived standard deviations, so a bag
// seeded from a PairPosterior (Engine.SeedPair) is bit-identical to the
// bag that exported it — the judgment store's round-trip contract.
type PairPosterior struct {
	N    int
	Mean float64
	M2   float64

	BinN    int
	BinMean float64
	BinM2   float64
}

// posterior exports the bag's exact Welford state.
func (b *bag) posterior() PairPosterior {
	return PairPosterior{
		N:       b.pref.N(),
		Mean:    b.pref.Mean(),
		M2:      b.pref.M2(),
		BinN:    b.bin.N(),
		BinMean: b.bin.Mean(),
		BinM2:   b.bin.M2(),
	}
}

// restore overwrites the bag with previously exported Welford state.
func (b *bag) restore(p PairPosterior) {
	b.pref = stats.Restore(p.N, p.Mean, p.M2)
	b.bin = stats.Restore(p.BinN, p.BinMean, p.BinM2)
}

// addAll records a batch of samples, already oriented as v(lo, hi), in
// order. It folds each sample into the Welford recurrences one at a time,
// so a batched purchase produces bit-identical statistics to
// sample-at-a-time ingestion — the determinism contract the equivalence
// suites pin down. Both recurrences run in one loop over locals: each
// is the exact operation sequence of stats.Running.Add, and their two
// divisions per sample overlap instead of running back to back.
func (b *bag) addAll(vs []float64) {
	n, mean, m2 := b.pref.N(), b.pref.Mean(), b.pref.M2()
	bn, bmean, bm2 := b.bin.N(), b.bin.Mean(), b.bin.M2()
	for _, v := range vs {
		n++
		d := v - mean
		mean += d / float64(n)
		m2 += d * (v - mean)
		// The sign view drops v == 0: the binary judgment model's
		// unidentifiable votes.
		if v != 0 {
			x := 1.0
			if v < 0 {
				x = -1
			}
			bn++
			d := x - bmean
			bmean += d / float64(bn)
			bm2 += d * (x - bmean)
		}
	}
	b.pref = stats.Restore(n, mean, m2)
	b.bin = stats.Restore(bn, bmean, bm2)
}

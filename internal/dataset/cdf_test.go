package dataset

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// binaryCDF is the inverse-CDF search the guide table replaced:
// sort.SearchFloat64s, capped at the last rating.
func binaryCDF(cum []float64, u float64) int {
	return min(sort.SearchFloat64s(cum, u), len(cum)-1)
}

// cdfProbes returns the uniforms that stress a row: 0, the largest
// Float64 below 1, every bucket edge of the guide table, and every row
// value exactly and one ulp to either side, kept inside [0, 1).
func cdfProbes(cum []float64) []float64 {
	us := []float64{0, 1 - 0x1p-53}
	for k := 0; k < cdfGuide; k++ {
		us = append(us, float64(k)/cdfGuide)
	}
	for _, c := range cum {
		us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
	}
	in := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 {
			in = append(in, u)
		}
	}
	return in
}

// checkCDFRow compares the guided search with the binary search on row
// at every probe and at n pseudo-random uniforms.
func checkCDFRow(t *testing.T, name string, cum []float64, n int) {
	t.Helper()
	r := newCDFRow(cum)
	us := cdfProbes(cum)
	rng := newRand(int64(len(cum)))
	for i := 0; i < n; i++ {
		us = append(us, rng.Float64())
	}
	for _, u := range us {
		if got, want := r.search(u), binaryCDF(cum, u); got != want {
			t.Fatalf("%s row %v: search(%v) = %d, binary search %d", name, cum, u, got, want)
		}
	}
}

// TestCDFSearchMatchesBinarySearch checks the guided search against
// sort.SearchFloat64s on every row the generators and the loader build,
// and on hand-made rows with flat runs, zero-probability ends and a last
// cumulative value below 1.
func TestCDFSearchMatchesBinarySearch(t *testing.T) {
	for _, h := range []*Histogram{
		NewIMDb(1), NewBook(2),
		NewHistogram(HistogramConfig{Name: "two", N: 40, Scale: 2, QualityMean: 1.5, QualitySD: 0.4,
			SpreadLo: 0.1, SpreadHi: 0.8, VotesLo: 1, VotesHi: 10, Seed: 3}),
		NewHistogram(HistogramConfig{Name: "wide", N: 40, Scale: 97, QualityMean: 50, QualitySD: 20,
			SpreadLo: 0.2, SpreadHi: 9, MixUniform: 0.01, VotesLo: 1, VotesHi: 10, Seed: 4}),
	} {
		for i := range h.cdf {
			checkCDFRow(t, h.Name(), h.cdf[i].cum, 64)
		}
	}
	loaded, err := LoadHistogramCSV(strings.NewReader(
		"a,10,0,0,5,0,3\nb,10,7,0,0,0,0\nc,10,0,0,0,0,1\nd,10,1,1,1,1,1\ne,10,0,1e-300,0,0,2\n"), "csv", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loaded.cdf {
		checkCDFRow(t, "csv", loaded.cdf[i].cum, 256)
	}
	for _, cum := range [][]float64{
		{0.1, 0.1, 0.5, 0.9},
		{0, 0, 0.25},
		{0.5},
		{0.03125, 0.0625, 0.0625, 0.5, 0.96875, 0.999},
		{0, 0, 0, 0, 0},
	} {
		checkCDFRow(t, "short", cum, 256)
	}
}

// FuzzHistogramCDF compares the guided search with the binary search on
// rows built the loader's way (normalized counts, last entry forced to
// 1) and as raw prefix sums whose last value may fall below 1, at a
// fuzzed uniform and at the row's own probes.
func FuzzHistogramCDF(f *testing.F) {
	f.Add([]byte{0, 3, 0, 9, 1}, uint64(0), false)
	f.Add([]byte{255, 0, 0, 1}, uint64(1<<53-1), true)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint64(1<<52), false)
	f.Fuzz(func(t *testing.T, counts []byte, bits uint64, raw bool) {
		if len(counts) == 0 || len(counts) > 300 {
			return
		}
		probs := make([]float64, len(counts))
		total := 0.0
		for b, c := range counts {
			probs[b] = float64(c)
			total += float64(c)
		}
		var cum []float64
		if raw {
			// Prefix sums of counts/1024: below 1 whenever the counts are.
			s := 0.0
			for _, p := range probs {
				s += p / 1024
				cum = append(cum, s)
			}
		} else {
			if total == 0 {
				return
			}
			for b := range probs {
				probs[b] /= total
			}
			cum = cumsum(probs)
		}
		r := newCDFRow(cum)
		us := append(cdfProbes(cum), float64(bits&(1<<53-1))/(1<<53))
		for _, u := range us {
			if got, want := r.search(u), binaryCDF(cum, u); got != want {
				t.Fatalf("row %v: search(%v) = %d, binary search %d", cum, u, got, want)
			}
		}
	})
}

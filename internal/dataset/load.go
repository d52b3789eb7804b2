package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"crowdtopk/internal/stats"
)

// This file loads real data dumps in simple CSV formats, so the synthetic
// stand-ins can be swapped for the paper's actual datasets when the user
// has them (IMDb interface files, Book-Crossing, Jester, or any judgment
// collection of their own).

// LoadHistogramCSV reads a rating-histogram dataset (IMDb/Book style).
// Each row is one item:
//
//	name,votes,count_1,count_2,...,count_S
//
// where count_r is how many ratings of value r the item received (S ≥ 2,
// constant across rows). Ground truth follows the weighted-rank formula
// when k > 0 (pass the paper's IMDb constants k=25000, c=6.9), the plain
// histogram mean otherwise.
func LoadHistogramCSV(r io.Reader, name string, k, c float64) (*Histogram, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading histogram CSV: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("dataset: histogram CSV needs at least 2 items, got %d", len(rows))
	}
	scale := len(rows[0]) - 2
	if scale < 2 {
		return nil, fmt.Errorf("dataset: histogram CSV needs at least 2 rating columns, got %d", scale)
	}

	h := &Histogram{
		name:  name,
		scale: scale,
		prefs: preferenceTable(scale),
		hist:  make([][]float64, len(rows)),
		cdf:   make([]cdfRow, len(rows)),
		votes: make([]int, len(rows)),
		mean:  make([]float64, len(rows)),
		sd:    make([]float64, len(rows)),
	}
	for i, row := range rows {
		if len(row) != scale+2 {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i, len(row), scale+2)
		}
		votes, err := strconv.Atoi(row[1])
		if err != nil || votes < 1 {
			return nil, fmt.Errorf("dataset: row %d has invalid vote count %q", i, row[1])
		}
		counts := make([]float64, scale)
		total := 0.0
		for b := 0; b < scale; b++ {
			v, err := strconv.ParseFloat(row[b+2], 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("dataset: row %d rating %d has invalid count %q", i, b+1, row[b+2])
			}
			counts[b] = v
			total += v
		}
		if total == 0 {
			return nil, fmt.Errorf("dataset: row %d has an empty histogram", i)
		}
		for b := range counts {
			counts[b] /= total
		}
		h.votes[i] = votes
		h.hist[i] = counts
		h.cdf[i] = newCDFRow(cumsum(counts))
		h.mean[i], h.sd[i] = histMoments(counts)
	}

	scores := make([]float64, len(rows))
	for i := range scores {
		if k > 0 {
			scores[i] = WeightedRank(h.mean[i], h.votes[i], k, c)
		} else {
			scores[i] = h.mean[i]
		}
	}
	h.rank = ranksFromScores(scores)
	return h, nil
}

// LoadMatrixCSV reads a user×item rating dataset (Jester style). Each row
// is one user's ratings of every item:
//
//	rating_item0,rating_item1,...
//
// lo and hi bound the rating scale (Jester uses -10, 10). Ground truth is
// the per-item mean rating.
func LoadMatrixCSV(r io.Reader, name string, lo, hi float64) (*Matrix, error) {
	if hi <= lo {
		return nil, fmt.Errorf("dataset: matrix scale [%v,%v] invalid", lo, hi)
	}
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading matrix CSV: %w", err)
	}
	if len(rows) < 1 || len(rows[0]) < 2 {
		return nil, fmt.Errorf("dataset: matrix CSV needs >=1 user and >=2 items")
	}
	items := len(rows[0])

	m := &Matrix{
		name:        name,
		ratings:     make([][]float64, len(rows)),
		lo:          lo,
		hi:          hi,
		mean:        make([]float64, items),
		momentsMemo: make(map[[2]int][2]float64),
	}
	for u, row := range rows {
		if len(row) != items {
			return nil, fmt.Errorf("dataset: user %d has %d ratings, want %d", u, len(row), items)
		}
		m.ratings[u] = make([]float64, items)
		for i, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < lo || v > hi {
				return nil, fmt.Errorf("dataset: user %d item %d has invalid rating %q", u, i, cell)
			}
			m.ratings[u][i] = v
		}
	}
	for i := 0; i < items; i++ {
		s := 0.0
		for u := range m.ratings {
			s += m.ratings[u][i]
		}
		m.mean[i] = s / float64(len(m.ratings))
	}
	m.rank = ranksFromScores(m.mean)
	return m, nil
}

// LoadJudgmentCSV reads a pre-collected pairwise judgment database (Photo
// style). Each row is one judgment record:
//
//	i,j,preference
//
// with 0-based item ids and preference in [-1, 1] oriented toward i.
// n is the total item count (items may appear in no record only if every
// pair they belong to is missing — which is rejected: every pair needs at
// least one record for replay to be total). Ground truth is the order
// induced by the mean stored preference against all other items.
func LoadJudgmentCSV(r io.Reader, name string, n int) (*JudgmentDB, error) {
	if n < 2 {
		return nil, fmt.Errorf("dataset: judgment CSV needs n >= 2, got %d", n)
	}
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading judgment CSV: %w", err)
	}
	db := &JudgmentDB{
		name:    name,
		n:       n,
		records: make([][]float64, n*(n-1)/2),
		moments: make([][2]float64, n*(n-1)/2),
	}
	for ri, row := range rows {
		if len(row) != 3 {
			return nil, fmt.Errorf("dataset: record %d has %d fields, want 3", ri, len(row))
		}
		i, err1 := strconv.Atoi(row[0])
		j, err2 := strconv.Atoi(row[1])
		v, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("dataset: record %d is malformed: %v", ri, row)
		}
		if i < 0 || i >= n || j < 0 || j >= n || i == j {
			return nil, fmt.Errorf("dataset: record %d has invalid pair (%d,%d)", ri, i, j)
		}
		if v < -1 || v > 1 {
			return nil, fmt.Errorf("dataset: record %d has preference %v outside [-1,1]", ri, v)
		}
		if i > j {
			i, j = j, i
			v = -v
		}
		p := db.pairIndex(i, j)
		db.records[p] = append(db.records[p], v)
	}

	borda := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := db.pairIndex(i, j)
			if len(db.records[p]) == 0 {
				return nil, fmt.Errorf("dataset: pair (%d,%d) has no judgment records", i, j)
			}
			var run stats.Running
			for _, v := range db.records[p] {
				run.Add(v)
			}
			sd := run.SD()
			if cnt := run.N(); cnt > 1 {
				// Population form: the record set IS the distribution.
				sd *= math.Sqrt(float64(cnt-1) / float64(cnt))
			}
			db.moments[p] = [2]float64{run.Mean(), sd}
			borda[i] += run.Mean()
			borda[j] -= run.Mean()
		}
	}
	db.rank = ranksFromScores(borda)
	return db, nil
}

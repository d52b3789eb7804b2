// The A/B driver behind both tax gates (log-bench, explain-bench): the
// same deterministic query runs in every mode, with the reps interleaved
// so a machine-load drift hits every mode equally. Each mode's best rep
// is its cost (ambient load only ever adds wall time, so the minimum is
// the intrinsic cost; medians are recorded alongside for spread), and
// one mode is gated on its best-of overhead over the first mode.
//
// The driver cross-checks correctness while it measures: every run in
// every mode must land the same TMC and top-k (a mode must not perturb
// the query), and each bench's check hook verifies what its mode adds.
package main

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"

	"crowdtopk"
)

// abMode aggregates one mode's interleaved reps.
type abMode struct {
	Mode         string  `json:"mode"`
	WallNs       []int64 `json:"wall_ns"`
	WallNsMin    int64   `json:"wall_ns_min"`
	WallNsMedian int64   `json:"wall_ns_median"`
	// Overhead is the fractional slowdown of this mode's best rep over
	// the first mode's best rep (0 for the first mode itself).
	Overhead float64 `json:"overhead"`
	// Records is the on-disk audit record count of the last rep (log
	// modes only); the check hook requires it to equal TMC.
	Records int64 `json:"records,omitempty"`
	// Leaves is the attribution tree's distinct pair count of the last
	// rep (explain modes only).
	Leaves int `json:"leaves,omitempty"`
}

// abReport is the artifact shape of both tax gates (BENCH_PR8.json,
// BENCH_PR9.json).
type abReport struct {
	Items       int     `json:"items"`
	Noise       float64 `json:"noise"`
	Seed        int64   `json:"seed"`
	K           int     `json:"k"`
	Budget      int     `json:"budget_per_pair"`
	Confidence  float64 `json:"confidence"`
	Reps        int     `json:"reps"`
	MaxOverhead float64 `json:"max_overhead"`

	TMC   int64    `json:"tmc"`
	TopK  []int    `json:"top_k"`
	Modes []abMode `json:"modes"`
}

// abBench is one interleaved A/B measurement.
type abBench struct {
	name string // output prefix, e.g. "log-bench"
	// report carries the query, Reps and MaxOverhead; the driver fills in
	// TMC, top-k and the mode rows.
	report *abReport
	modes  []string // modes[0] is the baseline every overhead is taken against
	gated  string   // the mode whose overhead is gated at the report's MaxOverhead
	// run executes the query once in mode: its result and wall time in ns.
	run func(mode string) (crowdtopk.Result, int64, error)
	// check verifies the run just made in mode beyond the shared TMC and
	// top-k identity, and records its detail (Records, Leaves) into m. It
	// is called after every successful run, before the identity gate.
	check func(mode string, res crowdtopk.Result, m *abMode) error
}

// runAB runs the report's Reps interleaved reps of every mode and fills
// in its TMC, top-k and mode rows. A failed run, hook or identity gate
// returns no report; an overhead above the bound returns the report and
// an error naming the gate.
func runAB(b abBench) (*abReport, error) {
	rep := b.report
	// The benches' live heap is ~1MB, so at the default GOGC every couple
	// of MB a mode allocates becomes a whole extra GC cycle — an
	// amplification a long-lived topkd heap doesn't have. Pin a higher
	// target (identically for every mode) so the ratio measures the
	// mode's work itself, not the tiny-heap multiplier.
	old := debug.SetGCPercent(400)
	defer debug.SetGCPercent(old)

	rows := make([]abMode, len(b.modes))
	for i, m := range b.modes {
		rows[i].Mode = m
	}
	rep.TMC, rep.TopK = -1, nil
	for r := 0; r < rep.Reps; r++ {
		for i, m := range b.modes {
			res, wall, err := b.run(m)
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", m, r, err)
			}
			if err := b.check(m, res, &rows[i]); err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", m, r, err)
			}
			rows[i].WallNs = append(rows[i].WallNs, wall)
			if rep.TMC < 0 {
				rep.TMC, rep.TopK = res.TMC, res.TopK
			} else if res.TMC != rep.TMC || !reflect.DeepEqual(res.TopK, rep.TopK) {
				return nil, fmt.Errorf("%s rep %d: tmc %d top-k %v diverged from tmc %d top-k %v — the mode changed the query",
					m, r, res.TMC, res.TopK, rep.TMC, rep.TopK)
			}
		}
	}

	for i := range rows {
		s := append([]int64(nil), rows[i].WallNs...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		// The median is the upper one for an even rep count.
		rows[i].WallNsMin, rows[i].WallNsMedian = s[0], s[len(s)/2]
		if base := rows[0].WallNsMin; i > 0 && base > 0 {
			rows[i].Overhead = float64(rows[i].WallNsMin)/float64(base) - 1
		}
	}
	rep.Modes = rows
	for _, m := range rows {
		if m.Mode == b.gated && exceeds(m.Overhead, rep.MaxOverhead) {
			return rep, fmt.Errorf("%s costs %.1f%% over %s (gate %.0f%%)",
				m.Mode, 100*m.Overhead, rows[0].Mode, 100*rep.MaxOverhead)
		}
	}
	return rep, nil
}

// abMain runs b, prints the mode table, writes the report to jsonOut
// (when set) and exits 1 if any gate failed.
func abMain(jsonOut string, b abBench) {
	report, err := runAB(b)
	if report != nil {
		for i, m := range report.Modes {
			extra := ""
			if i > 0 {
				extra = fmt.Sprintf("  %+6.1f%%", 100*m.Overhead)
			}
			if m.Records > 0 {
				extra += fmt.Sprintf("  %d records on disk", m.Records)
			}
			if m.Leaves > 0 {
				extra += fmt.Sprintf("  %d attribution leaves", m.Leaves)
			}
			fmt.Printf("perfcheck: %s %-12s best %8.2fms  median %8.2fms over %d reps%s\n",
				b.name, m.Mode, float64(m.WallNsMin)/1e6, float64(m.WallNsMedian)/1e6, len(m.WallNs), extra)
		}
		fmt.Printf("perfcheck: %s: tmc %d identical across %d runs, gate %s <= %.0f%% over %s\n",
			b.name, report.TMC, report.Reps*len(b.modes), b.gated, 100*report.MaxOverhead, b.modes[0])
		if werr := writeJSON(jsonOut, report); werr != nil {
			fatalf("%s: %v", b.name, werr)
		}
	}
	if err != nil {
		fatalf("%s: %v", b.name, err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crowdtopk"
)

// fakeBench returns a bench over modes whose run for mode m at rep r
// reports walls[m][r] and result results(m, r).
func fakeBench(walls map[string][]int64, results func(mode string, rep int) crowdtopk.Result) abBench {
	reps := map[string]int{}
	modes := []string{"off", "on"}
	return abBench{
		name:   "fake",
		report: &abReport{Reps: len(walls["off"]), MaxOverhead: 0.05},
		modes:  modes,
		gated:  "on",
		run: func(mode string) (crowdtopk.Result, int64, error) {
			r := reps[mode]
			reps[mode]++
			return results(mode, r), walls[mode][r], nil
		},
		check: func(mode string, res crowdtopk.Result, m *abMode) error {
			if mode == "on" {
				m.Records = res.TMC
			}
			return nil
		},
	}
}

func same(string, int) crowdtopk.Result {
	return crowdtopk.Result{TMC: 100, TopK: []int{3, 1}}
}

func TestRunABBestOfAndMedian(t *testing.T) {
	b := fakeBench(map[string][]int64{
		"off": {50, 30, 40, 90},
		"on":  {33, 60, 31, 70},
	}, same)
	rep, err := runAB(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TMC != 100 || !reflect.DeepEqual(rep.TopK, []int{3, 1}) {
		t.Fatalf("tmc %d top-k %v", rep.TMC, rep.TopK)
	}
	off, on := rep.Modes[0], rep.Modes[1]
	if off.Mode != "off" || off.WallNsMin != 30 || off.WallNsMedian != 50 || off.Overhead != 0 {
		t.Fatalf("off row %+v, want best 30, upper median 50, no overhead", off)
	}
	if on.Mode != "on" || on.WallNsMin != 31 || on.WallNsMedian != 60 || on.Records != 100 {
		t.Fatalf("on row %+v, want best 31, upper median 60, records 100", on)
	}
	if want := 31.0/30.0 - 1; math.Abs(on.Overhead-want) > 1e-12 {
		t.Fatalf("overhead %v, want best-of ratio %v", on.Overhead, want)
	}
	if !reflect.DeepEqual(on.WallNs, []int64{33, 60, 31, 70}) {
		t.Fatalf("walls %v not kept in rep order", on.WallNs)
	}
}

func TestRunABOverheadGate(t *testing.T) {
	b := fakeBench(map[string][]int64{"off": {100, 100}, "on": {106, 120}}, same)
	rep, err := runAB(b)
	if err == nil || !strings.Contains(err.Error(), "on costs 6.0% over off (gate 5%)") {
		t.Fatalf("err %v, want the 5%% gate to fail", err)
	}
	if rep == nil || len(rep.Modes) != 2 {
		t.Fatalf("a failed overhead gate must still return the report, got %+v", rep)
	}
	// Exactly at the bound passes, also where the ratio is not exact in
	// binary; just over it fails.
	b = fakeBench(map[string][]int64{"off": {100, 100}, "on": {125, 120}}, same)
	b.report.MaxOverhead = 0.25
	if _, err := runAB(b); err != nil {
		t.Fatalf("25%% exactly at the bound: %v", err)
	}
	b = fakeBench(map[string][]int64{"off": {100, 100}, "on": {105, 110}}, same)
	if _, err := runAB(b); err != nil {
		t.Fatalf("5%% exactly at the bound: %v", err)
	}
	b = fakeBench(map[string][]int64{"off": {1000, 1000}, "on": {1051, 1100}}, same)
	if _, err := runAB(b); err == nil {
		t.Fatal("5.1% passed the 5% gate")
	}
	// Only the gated mode is gated.
	b = fakeBench(map[string][]int64{"off": {100, 100}, "on": {200, 200}}, same)
	b.gated = "other"
	if _, err := runAB(b); err != nil {
		t.Fatalf("ungated mode failed the gate: %v", err)
	}
}

func TestRunABDivergenceNamesModeAndRep(t *testing.T) {
	walls := map[string][]int64{"off": {1, 1, 1}, "on": {1, 1, 1}}
	for _, tc := range []struct {
		name string
		res  func(string, int) crowdtopk.Result
	}{
		{"tmc", func(mode string, rep int) crowdtopk.Result {
			r := same(mode, rep)
			if mode == "on" && rep == 2 {
				r.TMC++
			}
			return r
		}},
		{"top-k", func(mode string, rep int) crowdtopk.Result {
			r := same(mode, rep)
			if mode == "on" && rep == 2 {
				r.TopK = []int{1, 3}
			}
			return r
		}},
	} {
		rep, err := runAB(fakeBench(walls, tc.res))
		if err == nil || !strings.HasPrefix(err.Error(), "on rep 2: ") || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("%s: err %v, want a divergence at on rep 2", tc.name, err)
		}
		if rep != nil {
			t.Errorf("%s: a divergent run returned a report", tc.name)
		}
	}
}

func TestRunABHookAndRunErrors(t *testing.T) {
	walls := map[string][]int64{"off": {1, 1}, "on": {1, 1}}
	b := fakeBench(walls, same)
	calls := 0
	b.check = func(mode string, res crowdtopk.Result, m *abMode) error {
		if calls++; calls == 4 {
			return errors.New("short directory")
		}
		return nil
	}
	if _, err := runAB(b); err == nil || err.Error() != "on rep 1: short directory" {
		t.Fatalf("hook failure: %v", err)
	}
	b = fakeBench(walls, same)
	b.run = func(string) (crowdtopk.Result, int64, error) {
		return crowdtopk.Result{}, 0, errors.New("platform down")
	}
	if _, err := runAB(b); err == nil || err.Error() != "off rep 0: platform down" {
		t.Fatalf("run failure: %v", err)
	}
}

// The shared report type must reproduce both committed tax-gate artifacts
// byte for byte, so the two gates keep their schemas.
func TestABReportRoundTripsCommittedArtifacts(t *testing.T) {
	for _, name := range []string{"BENCH_PR8.json", "BENCH_PR9.json"} {
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		var rep abReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := filepath.Join(t.TempDir(), name)
		if err := writeJSON(out, &rep); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s does not round-trip through abReport:\n%s", name, got)
		}
	}
}

// One rep of each real bench, gate disarmed: the hooks see every run, the
// committed TMC and top-k come out, and no audit directory is left behind.
func TestTaxBenchesOneRep(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, tc := range []struct {
		b        abBench
		artifact string
	}{{logBench(), "BENCH_PR8.json"}, {explainBench(), "BENCH_PR9.json"}} {
		data, err := os.ReadFile(filepath.Join("..", "..", tc.artifact))
		if err != nil {
			t.Fatal(err)
		}
		var want abReport
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		tc.b.report.Reps, tc.b.report.MaxOverhead = 1, math.Inf(1)
		rep, err := runAB(tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.b.name, err)
		}
		if rep.TMC != want.TMC || !reflect.DeepEqual(rep.TopK, want.TopK) {
			t.Errorf("%s: tmc %d top-k %v, committed %d %v", tc.b.name, rep.TMC, rep.TopK, want.TMC, want.TopK)
		}
		for i, m := range rep.Modes {
			w := want.Modes[i]
			if m.Mode != w.Mode || m.Records != w.Records || m.Leaves != w.Leaves {
				t.Errorf("%s: mode row %+v, committed %s records %d leaves %d", tc.b.name, m, w.Mode, w.Records, w.Leaves)
			}
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("log-bench left %d entries in the temp dir", len(left))
	}
}

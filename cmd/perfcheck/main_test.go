package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMedianSuffixAndUnits(t *testing.T) {
	in := `goos: linux
BenchmarkDraw/batch30-8   1000   300.0 ns/op   48 B/op   3 allocs/op   9.5 util
BenchmarkDraw/batch30-8   1000   100.0 ns/op   16 B/op   1 allocs/op   7.5 util
BenchmarkDraw/batch30-8   1000   200.0 ns/op   32 B/op   2 allocs/op   8.5 util
BenchmarkView             5000    25.0 ns/op
PASS
ok  	crowdtopk/internal/crowd	1.0s
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(got), got)
	}
	d := got[0]
	if d.Name != "BenchmarkDraw/batch30" || d.Runs != 3 || d.NsPerOp != 200 {
		t.Fatalf("draw = %+v, want name without -8 suffix, 3 runs, median 200 ns/op", d)
	}
	// Secondary columns come from the median run's line.
	if d.BPerOp == nil || *d.BPerOp != 32 || d.AllocsPerOp == nil || *d.AllocsPerOp != 2 {
		t.Fatalf("draw B/op, allocs/op = %v, %v, want 32, 2", d.BPerOp, d.AllocsPerOp)
	}
	if d.Metrics["util"] != 8.5 || len(d.Metrics) != 1 {
		t.Fatalf("draw metrics = %v, want util 8.5 only", d.Metrics)
	}
	v := got[1]
	if v.Name != "BenchmarkView" || v.Runs != 1 || v.NsPerOp != 25 || v.BPerOp != nil || v.Metrics != nil {
		t.Fatalf("view = %+v", v)
	}
}

func TestGate(t *testing.T) {
	base := []result{{Name: "A", NsPerOp: 200}, {Name: "B", NsPerOp: 200}}
	for _, tc := range []struct {
		name   string
		cur    []result
		lines  int
		failed bool
	}{
		{"within", []result{{Name: "A", NsPerOp: 210}}, 1, false},
		{"exactly at the bound", []result{{Name: "A", NsPerOp: 250}}, 1, false},
		{"above the bound", []result{{Name: "A", NsPerOp: 251}}, 1, true},
		{"one of two regressed", []result{{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 300}}, 2, true},
		{"missing from the baseline", []result{{Name: "C", NsPerOp: 1e9}, {Name: "A", NsPerOp: 200}}, 1, false},
	} {
		lines, failed := gate(base, tc.cur, 0.25)
		if len(lines) != tc.lines || failed != tc.failed {
			t.Errorf("%s: %d lines failed=%v, want %d lines failed=%v: %q",
				tc.name, len(lines), failed, tc.lines, tc.failed, lines)
		}
	}
	// The CI bound: a slowdown well past 10% fails.
	if _, failed := gate(base, []result{{Name: "A", NsPerOp: 221}}, 0.10); !failed {
		t.Error("+10.5% passed a 10% gate")
	}
	// Exactly at a bound passes even where the ratio is not exact in
	// binary; anything over it still fails.
	for _, tc := range []struct {
		base, cur, bound float64
		failed           bool
	}{
		{100, 110, 0.10, false},
		{100, 105, 0.05, false},
		{1000, 1051, 0.05, true},
		{100, 110.0001, 0.10, true},
	} {
		_, failed := gate([]result{{Name: "A", NsPerOp: tc.base}}, []result{{Name: "A", NsPerOp: tc.cur}}, tc.bound)
		if failed != tc.failed {
			t.Errorf("%v vs %v at %v: failed=%v, want %v", tc.cur, tc.base, tc.bound, failed, tc.failed)
		}
	}
}

func TestGateMetrics(t *testing.T) {
	cur := []result{
		{Name: "BenchmarkS/async", Metrics: map[string]float64{"util": 0.9}},
		{Name: "BenchmarkS/wave", Metrics: map[string]float64{"util": 0.6}},
		{Name: "BenchmarkS/tie", Metrics: map[string]float64{"util": 0.9}},
	}
	if err := gateMetrics(cur, "util:BenchmarkS/async>BenchmarkS/wave"); err != nil {
		t.Fatalf("async > wave: %v", err)
	}
	for spec, want := range map[string]string{
		"util":                                   "want 'metric:benchA>benchB'",
		"util:BenchmarkS/async":                  "want 'metric:benchA>benchB'",
		"util:BenchmarkS/nope>BenchmarkS/wave":   `"BenchmarkS/nope" not in current results`,
		"lat:BenchmarkS/async>BenchmarkS/wave":   `reports no "lat" metric`,
		"util:BenchmarkS/wave>BenchmarkS/async":  "is not above",
		"util:BenchmarkS/async>BenchmarkS/tie":   "is not above", // strict >
		"util:BenchmarkS/async>BenchmarkS/wave,": "want 'metric:benchA>benchB'",
	} {
		err := gateMetrics(cur, spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err %v, want it to contain %q", spec, err, want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := writeJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "{\n  \"a\": 1\n}\n" {
		t.Fatalf("wrote %q, %v", data, err)
	}
	// An unencodable report is an error, and the old file stays as it was
	// rather than being reported as refreshed.
	if err := writeJSON(path, map[string]float64{"overhead": math.NaN()}); err == nil {
		t.Fatal("NaN encoded without error")
	}
	if data, _ := os.ReadFile(path); string(data) != "{\n  \"a\": 1\n}\n" {
		t.Fatalf("failed encode changed the file to %q", data)
	}
	if err := writeJSON("", math.NaN()); err != nil {
		t.Fatalf("empty path: %v", err)
	}
}

// Command perfcheck turns `go test -bench` output into the repository's
// machine-readable perf trajectory and gates regressions against a
// committed baseline, with no dependency outside the standard library (CI
// additionally runs benchstat for human-readable statistics).
//
// Emit a trajectory artifact:
//
//	go test ./internal/crowd/ -run '^$' -bench . -count 5 | perfcheck -json trajectory.json
//
// Gate a candidate run against a baseline (fails the build on >10%
// slowdown of any shared benchmark):
//
//	perfcheck -baseline BENCH_BASELINE.txt -current bench.txt -max-regress 0.10
//
// Multiple -count runs of one benchmark are reduced to their median ns/op,
// so one noisy run does not flip the gate.
//
// With -stats, a QueryStats JSON file (written by topkquery -stats-out) is
// folded into the artifact next to the benchmark medians, so one JSON file
// tracks both microbenchmark latency and end-to-end query cost:
//
//	topkquery -stats-out query-stats.json ...
//	go test ./... -bench . | perfcheck -json BENCH_PR5.json -stats query-stats.json
//
// With -metric-gate, custom b.ReportMetric values are compared *within*
// the current run — the right gate for machine-dependent ratios such as
// scheduler pool utilization, where the claim is an ordering:
//
//	perfcheck -current bench.txt \
//	  -metric-gate 'util:BenchmarkSchedulerStraggler/async>BenchmarkSchedulerStraggler/wave'
//
// With -run, perfcheck instead runs one in-process scenario, gates it and
// writes its report to -json; each scenario's file describes its gates:
//
//	perfcheck -run warm -json BENCH_PR7.json     # judgment-store cold vs warm TMC (scenario.go)
//	perfcheck -run log -json BENCH_PR8.json      # audit-log durability tax (logbench.go)
//	perfcheck -run explain -json BENCH_PR9.json  # attribution+logging tax (explainbench.go)
//	perfcheck -run policy -json BENCH_PR10.json  # comparison-policy race (policyrace.go)
//
// log and explain share one interleaved A/B driver (ab.go): 7 reps per
// mode, each mode's best rep gated against the off mode's best rep
// (batched logging at 5%, attribution+logging at 3%), with identical TMC
// and top-k on every run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"crowdtopk"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkDrawHotPath/batch30-8   572666   704.2 ns/op   48 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

type result struct {
	Name        string   `json:"name"`
	Runs        int      `json:"runs"`
	NsPerOp     float64  `json:"ns_per_op"`
	BPerOp      *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric values (e.g. microtasks/s).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parse reduces bench output to one result per benchmark name: the median
// ns/op over repeated -count runs, with secondary metrics from the median
// run's line.
func parse(r io.Reader) ([]result, error) {
	type sample struct {
		ns   float64
		rest string
	}
	samples := make(map[string][]sample)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		name := m[1]
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], sample{ns: ns, rest: m[4]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []result
	for _, name := range order {
		ss := samples[name]
		sort.Slice(ss, func(a, b int) bool { return ss[a].ns < ss[b].ns })
		med := ss[len(ss)/2]
		res := result{Name: name, Runs: len(ss), NsPerOp: med.ns}
		// Secondary columns come in "value unit" pairs.
		fields := strings.Fields(med.rest)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b := v
				res.BPerOp = &b
			case "allocs/op":
				a := v
				res.AllocsPerOp = &a
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func parseFile(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// boundSlack absorbs the float64 rounding of a measured ratio minus one
// (a few ulps, ~1e-16), so a slowdown exactly at a bound — 110 vs 100
// ns/op at 10% — passes instead of failing on the last bit. It is far
// below the resolution of anything gated here: one nanosecond in a
// quarter-hour operation.
const boundSlack = 1e-12

// exceeds reports whether a relative slowdown delta (ratio − 1) is over
// bound.
func exceeds(delta, bound float64) bool { return delta > bound+boundSlack }

// gate compares current against baseline and returns the verdict lines
// for shared benchmarks, plus whether any regressed beyond maxRegress.
func gate(baseline, current []result, maxRegress float64) (lines []string, failed bool) {
	base := make(map[string]result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	for _, cur := range current {
		b, ok := base[cur.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		delta := cur.NsPerOp/b.NsPerOp - 1
		verdict := "ok"
		if exceeds(delta, maxRegress) {
			verdict = "REGRESSION"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%-55s %12.1f -> %12.1f ns/op  %+6.1f%%  %s",
			cur.Name, b.NsPerOp, cur.NsPerOp, 100*delta, verdict))
	}
	return lines, failed
}

// gateMetrics enforces -metric-gate assertions of the form
// "metric:benchA>benchB": benchA's custom metric (a b.ReportMetric unit)
// must strictly exceed benchB's in the current run. It compares within
// one run rather than against a baseline because custom metrics like pool
// utilization are machine-dependent ratios — the claim worth pinning is
// the ordering, not the absolute value.
func gateMetrics(current []result, spec string) error {
	byName := make(map[string]result, len(current))
	for _, r := range current {
		byName[r.Name] = r
	}
	lookup := func(name, metric string) (float64, error) {
		r, ok := byName[name]
		if !ok {
			return 0, fmt.Errorf("metric gate: benchmark %q not in current results", name)
		}
		v, ok := r.Metrics[metric]
		if !ok {
			return 0, fmt.Errorf("metric gate: benchmark %q reports no %q metric", name, metric)
		}
		return v, nil
	}
	for _, g := range strings.Split(spec, ",") {
		metric, rest, ok := strings.Cut(g, ":")
		if !ok {
			return fmt.Errorf("metric gate %q: want 'metric:benchA>benchB'", g)
		}
		a, b, ok := strings.Cut(rest, ">")
		if !ok {
			return fmt.Errorf("metric gate %q: want 'metric:benchA>benchB'", g)
		}
		va, err := lookup(a, metric)
		if err != nil {
			return err
		}
		vb, err := lookup(b, metric)
		if err != nil {
			return err
		}
		if va <= vb {
			return fmt.Errorf("metric gate failed: %s %s=%.4f is not above %s %s=%.4f",
				a, metric, va, b, metric, vb)
		}
		fmt.Printf("perfcheck: metric gate ok: %s %s=%.4f > %s %s=%.4f\n", a, metric, va, b, metric, vb)
	}
	return nil
}

// writeJSON writes v to path as indented JSON with a trailing newline and
// reports the write on stdout; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfcheck: wrote %s\n", path)
	return nil
}

// fatalf reports a failure on stderr and exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfcheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		jsonOut    = flag.String("json", "", "write parsed results (or the -run report) as JSON to this file")
		baseline   = flag.String("baseline", "", "baseline bench output to gate against")
		current    = flag.String("current", "", "candidate bench output (default: stdin)")
		maxRegress = flag.Float64("max-regress", 0.10, "maximum tolerated ns/op slowdown fraction")
		statsIn    = flag.String("stats", "", "QueryStats JSON (topkquery -stats-out) to fold into the -json artifact")
		metricGate = flag.String("metric-gate", "", "comma-separated 'metric:benchA>benchB' assertions on the current run: benchA's custom metric must strictly exceed benchB's (e.g. 'util:BenchmarkX/async>BenchmarkX/wave')")
		scenario   = flag.String("run", "", "run one in-process scenario instead of parsing bench output, writing its report to -json: warm (judgment-store cold-vs-warm mix), log (audit-log durability tax), explain (attribution+logging tax) or policy (comparison-policy race)")
	)
	flag.Parse()

	scenarios := map[string]func(jsonOut string){
		"warm":    scenarioMain,
		"log":     func(out string) { abMain(out, logBench()) },
		"explain": func(out string) { abMain(out, explainBench()) },
		"policy":  policyRaceMain,
	}
	if *scenario != "" {
		run, ok := scenarios[*scenario]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfcheck: unknown -run %q (available: warm, log, explain, policy)\n", *scenario)
			os.Exit(2)
		}
		run(*jsonOut)
		return
	}

	var stats *crowdtopk.QueryStats
	if *statsIn != "" {
		data, err := os.ReadFile(*statsIn)
		if err != nil {
			fatalf("reading stats: %v", err)
		}
		stats = &crowdtopk.QueryStats{}
		if err := json.Unmarshal(data, stats); err != nil {
			fatalf("parsing stats %s: %v", *statsIn, err)
		}
		fmt.Printf("perfcheck: query stats: %d microtasks, %d rounds, %.1fms wall",
			stats.TMC, stats.Rounds, float64(stats.WallTimeNs)/1e6)
		if len(stats.Phases) > 0 {
			fmt.Printf(" (select %d / partition %d / rank %d tasks)",
				stats.Phases["select"].TMC, stats.Phases["partition"].TMC, stats.Phases["rank"].TMC)
		}
		if stats.Retries > 0 || stats.Quarantined > 0 {
			fmt.Printf(", resilience: %d retries, %d quarantined", stats.Retries, stats.Quarantined)
		}
		fmt.Println()
	}

	var cur []result
	var err error
	if *current != "" {
		cur, err = parseFile(*current)
	} else {
		cur, err = parse(os.Stdin)
	}
	if err != nil {
		fatalf("parsing current results: %v", err)
	}
	if len(cur) == 0 {
		fatalf("no benchmark results found in input")
	}

	// Without -stats the artifact stays the historical plain array, so
	// older trajectory files and their consumers keep parsing.
	var payload any = cur
	if stats != nil {
		payload = struct {
			Benchmarks []result              `json:"benchmarks"`
			QueryStats *crowdtopk.QueryStats `json:"query_stats"`
		}{cur, stats}
	}
	if err := writeJSON(*jsonOut, payload); err != nil {
		fatalf("%v", err)
	}

	if *metricGate != "" {
		if err := gateMetrics(cur, *metricGate); err != nil {
			fatalf("%v", err)
		}
	}

	if *baseline != "" {
		base, err := parseFile(*baseline)
		if err != nil {
			fatalf("parsing baseline: %v", err)
		}
		lines, failed := gate(base, cur, *maxRegress)
		if len(lines) == 0 {
			fatalf("baseline and current share no benchmarks")
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if failed {
			fatalf("benchmarks regressed more than %.0f%%", 100**maxRegress)
		}
		fmt.Printf("perfcheck: %d benchmarks within %.0f%% of baseline\n", len(lines), 100**maxRegress)
	}
}

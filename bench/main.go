// Command bench is the repository's benchmark: one harness for the money
// a top-k query costs (microtasks, batch rounds, NDCG against the truth)
// and the machine it runs on (throughput, latency, memory), over
// workloads that stress different layers. See README.md.
//
//	bench --workload lib-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the output-check
// verdict, attempted and failed operations, and the end-to-end metrics
// (--trace 0) or the per-layer split (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one catalog entry; the catalog mirrors BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_tail_ms", "ms", "lower"},
	{"tmc_per_query", "microtasks", "lower"},
	{"rounds_per_query", "rounds", "lower"},
	{"ndcg", "1", "higher"},
	{"success_rate", "1", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = append([]metricDef{
	{"session.start_us", "us", "lower"},
	{"session.wait_ms", "ms", "lower"},
	{"dataset.ns_per_answer", "ns", "lower"},
	{"dataset.cpu_share", "1", "lower"},
	{"crowd.samples_per_query", "microtasks", "lower"},
	{"crowd.draw_batches_per_query", "count", "lower"},
	{"crowd.refunds", "microtasks", "lower"},
	{"crowd.cap_denied", "microtasks", "lower"},
	{"crowd.cpu_share", "1", "lower"},
	{"crowd.platform_batches", "count", "lower"},
	{"crowd.platform_post_us", "us", "lower"},
	{"crowd.platform_collect_wait_us", "us", "lower"},
	{"compare.comparisons_per_query", "count", "lower"},
	{"compare.samples_per_comparison", "microtasks", "lower"},
	{"compare.concluded_share", "1", "higher"},
	{"compare.memo_hit_share", "1", "higher"},
	{"compare.cpu_share", "1", "lower"},
	{"compare.adaptive_divergences", "count", "lower"},
	{"stats.cpu_share", "1", "lower"},
	{"sched.queue_wait_p50_us", "us", "lower"},
	{"sched.queue_wait_p99_us", "us", "lower"},
	{"sched.dropped", "count", "lower"},
	{"sched.cpu_share", "1", "lower"},
	{"topk.waves_per_query", "count", "lower"},
	{"topk.wave_width_mean", "pairs", "higher"},
	{"topk.queue_wait_ms_per_query", "ms", "lower"},
	{"topk.select_tmc_share", "1", "lower"},
	{"topk.partition_tmc_share", "1", "lower"},
	{"topk.rank_tmc_share", "1", "lower"},
	{"topk.cpu_share", "1", "lower"},
	{"topk.infimum_per_query", "microtasks", "lower"},
	{"jstore.lookups", "count", "lower"},
	{"jstore.lookup_us", "us", "lower"},
	{"jstore.commits", "count", "lower"},
	{"jstore.commit_us", "us", "lower"},
	{"jstore.hit_share", "1", "higher"},
	{"jstore.stale_share", "1", "lower"},
	{"jstore.reload_ms", "ms", "lower"},
	{"jstore.cpu_share", "1", "lower"},
	{"auditlog.records", "count", "lower"},
	{"auditlog.append_ns_per_record", "ns", "lower"},
	{"auditlog.bytes_per_record", "B", "lower"},
	{"auditlog.cpu_share", "1", "lower"},
	{"service.post_us", "us", "lower"},
	{"service.list_us", "us", "lower"},
	{"service.journal_us", "us", "lower"},
	{"service.queued_mean", "queries", "lower"},
	{"service.running_mean", "queries", "lower"},
	{"service.refused", "count", "lower"},
	{"service.cpu_share", "1", "lower"},
	{"obs.cpu_share", "1", "lower"},
	{"obs.trace_overhead", "1", "lower"},
	{"obs.untraced_queries_per_s", "1/s", "higher"},
	{"obs.traced_queries_per_s", "1/s", "higher"},
	{"runtime.alloc_bytes_per_query", "B", "lower"},
	{"runtime.gc_cycles_per_query", "count", "lower"},
	{"runtime.gc_cpu_share", "1", "lower"},
	{"loadgen.gen_lag_ms", "ms", "lower"},
	{"host.calibration_ms", "ms", "lower"},
	{"host.steal_share", "1", "lower"},
}, policyMetrics()...)

// policyMetrics is the per-policy (TMC, rounds, NDCG) frontier against
// the Lemma 1/3 infimum, measured on lib-cold.
func policyMetrics() []metricDef {
	var defs []metricDef
	for _, p := range policies {
		defs = append(defs,
			metricDef{"policy." + p + ".tmc_per_query", "microtasks", "lower"},
			metricDef{"policy." + p + ".rounds_per_query", "rounds", "lower"},
			metricDef{"policy." + p + ".ndcg", "1", "higher"},
			metricDef{"policy." + p + ".tmc_over_infimum", "1", "lower"},
			metricDef{"policy." + p + ".infimum_per_query", "microtasks", "lower"},
		)
	}
	return defs
}

var policies = []string{"fixed", "voi", "pac"}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tmp     string // scratch directory inside the checkout
}

// report is what a workload run hands back for printing.
type report struct {
	attempted int
	failed    int
	problems  []string // failed output checks, printed to stderr
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // human-readable lines printed before the JSON
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"lib-cold":    runLibCold,
	"svc-open":    runSvcOpen,
	"svc-closed":  runSvcClosed,
	"warm-repeat": runWarmRepeat,
}

// benchProcs is the number of cores the program runs on. On a small
// shared virtual machine, a process that keeps two cores busy is slowed
// by every burst of time the hypervisor steals from either of them: its
// parallel waves and platform workers wait at each join for the core
// that was stolen. On a 2-core VM, in alternating runs of one seed,
// lib-cold ran at 28–36 queries/s on two cores and at 36–38 on one, and
// svc-closed at 8.2–10.1 on two cores and at 5.7–5.8 on one. One core
// keeps the timings steady enough to gate on; the cost is that the
// benchmark does not measure multi-core speed-up.
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	workload := flag.String("workload", "", "lib-cold, svc-closed, svc-open or warm-repeat")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace))
}

func run(workload string, seed int64, seconds float64, trace int) int {
	fn, ok := workloads[workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload {lib-cold,svc-closed,svc-open,warm-repeat}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	abs, err := filepath.Abs(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	host := readHost()
	rep, err := fn(runConfig{seed: seed, seconds: seconds, trace: trace == 1, tmp: abs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	host.finish(rep)
	line, err := rep.finish(trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// finish prints the human-readable report and returns the JSON result
// line: every catalog metric of the selected kind, in catalog order.
func (r *report) finish(traced bool) (string, error) {
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "bench: ... %d more failed checks\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
	}
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	r.e2e["success_rate"] = 1 - ratio(float64(r.failed), float64(r.attempted))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer, r.layer
	}
	known := map[string]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		len(r.problems) == 0, r.attempted, r.failed)
	for i, d := range defs {
		known[d.Name] = true
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		fmt.Printf("%-36s %16.6g %s\n", d.Name, v, d.Unit)
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(d.Name)
		unit, _ := json.Marshal(d.Unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, formatValue(v), unit)
	}
	b.WriteString("}}")
	for name := range values {
		if !known[name] {
			return "", fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	return b.String(), nil
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string {
	out, _ := json.Marshal(v)
	return string(out)
}

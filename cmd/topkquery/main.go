// Command topkquery runs a single crowdsourced top-k query on one of the
// built-in datasets and reports the answer, its cost, and its quality
// against ground truth.
//
// Usage:
//
//	topkquery -dataset imdb -algorithm spr -k 10 -confidence 0.98 -budget 1000
//
// Observability: -metrics-addr serves the query's live telemetry —
// Prometheus metrics on /metrics, an expvar-style snapshot on /debug/vars,
// the span trace on /trace, and the standard Go profiles on /debug/pprof/
// (so CPU and heap profiles are taken live with `go tool pprof
// http://ADDR/debug/pprof/profile` instead of post-hoc files; the
// -cpuprofile/-memprofile flags remain for offline runs). -trace-out saves
// the replayable JSONL trace, -stats-out the structured QueryStats JSON.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crowdtopk"
)

func main() {
	var (
		ds     = flag.String("dataset", "synthetic", "dataset: imdb, book, jester, photo, peopleage, synthetic")
		alg    = flag.String("algorithm", "spr", "algorithm: spr, tourtree, heapsort, quickselect, pbr")
		est    = flag.String("estimator", "student", "comparison estimator: "+strings.Join(crowdtopk.EstimatorNames(), ", "))
		policy = flag.String("policy", "fixed", "comparison sampling policy: "+strings.Join(crowdtopk.PolicyNames(), ", "))
		k      = flag.Int("k", 10, "number of items to return")
		conf   = flag.Float64("confidence", 0.98, "per-comparison confidence level")
		budget = flag.Int("budget", 1000, "per-pair microtask budget (-1 = unlimited)")
		seed   = flag.Int64("seed", 1, "random seed")
		n      = flag.Int("n", 200, "item count for the synthetic dataset")
		noise  = flag.Float64("noise", 0.3, "worker noise for the synthetic dataset")
		par    = flag.Int("parallelism", 0, "comparison worker pool (0 = GOMAXPROCS, 1 = sequential; any value gives identical results with -sched deterministic)")
		sched  = flag.String("sched", "deterministic", "comparison scheduling: deterministic (lockstep waves, reproducible) or async (free-running chains, better pool utilization)")
		trace  = flag.Bool("trace", false, "print SPR's per-phase cost breakdown")
		cpup   = flag.String("cpuprofile", "", "write a CPU profile to this file (prefer -metrics-addr + /debug/pprof/profile for live profiling)")
		memp   = flag.String("memprofile", "", "write a post-query heap profile to this file (prefer -metrics-addr + /debug/pprof/heap for live profiling)")

		storePath = flag.String("store", "", "persistent judgment store (JSONL file); warm-starts the query from concluded comparisons of earlier runs and commits this run's conclusions back")
		storeTTL  = flag.Duration("store-ttl", 0, "age past which stored judgments are re-verified with decayed evidence (0 = never expire)")

		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /debug/vars, /trace, /debug/pprof/) on this address; use :0 for an ephemeral port")
		traceOut    = flag.String("trace-out", "", "write the query's span trace as replayable JSONL to this file")
		statsOut    = flag.String("stats-out", "", "write the query's structured stats as JSON to this file (- for stdout)")
		serveWait   = flag.Duration("serve-wait", 0, "keep the telemetry endpoint up this long after the query finishes (with -metrics-addr)")

		platform   = flag.Bool("platform", false, "run through a simulated crowd platform instead of the dataset oracle")
		workers    = flag.Int("workers", 8, "simulated platform worker pool (with -platform)")
		retries    = flag.Int("retries", 0, "max post+collect attempts per batch (0 = library default; with -platform)")
		timeout    = flag.Duration("collect-timeout", 0, "per-attempt batch collection deadline (0 = none; with -platform)")
		faultDrop  = flag.Float64("fault-drop", 0, "chaos: per-answer drop probability (with -platform)")
		faultErr   = flag.Float64("fault-error", 0, "chaos: per-batch transient error probability (with -platform)")
		faultAfter = flag.Int("fault-after", 0, "chaos: platform fails permanently after this many posted batches (0 = never; with -platform)")
	)
	flag.Parse()

	if !crowdtopk.PolicyRegistered(*policy) {
		fmt.Fprintf(os.Stderr, "unknown -policy %q (available: %s)\n",
			*policy, strings.Join(crowdtopk.PolicyNames(), ", "))
		os.Exit(2)
	}

	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var data crowdtopk.Dataset
	switch *ds {
	case "imdb":
		data = crowdtopk.IMDbDataset(*seed)
	case "book":
		data = crowdtopk.BookDataset(*seed)
	case "jester":
		data = crowdtopk.JesterDataset(*seed)
	case "photo":
		data = crowdtopk.PhotoDataset(*seed)
	case "peopleage":
		data = crowdtopk.PeopleAgeDataset(*seed)
	case "synthetic":
		data = crowdtopk.SyntheticDataset(*n, *noise, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *ds)
		os.Exit(2)
	}

	opts := crowdtopk.Options{
		K:           *k,
		Algorithm:   crowdtopk.Algorithm(*alg),
		Estimator:   crowdtopk.Estimator(*est),
		Policy:      crowdtopk.PolicyName(*policy),
		Confidence:  *conf,
		Budget:      *budget,
		Parallelism: *par,
		Scheduling:  crowdtopk.SchedulingMode(*sched),
		Seed:        *seed + 1,
	}

	var store *crowdtopk.FileJudgmentStore
	if *storePath != "" {
		s, err := crowdtopk.OpenFileJudgmentStore(*storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening judgment store: %v\n", err)
			os.Exit(1)
		}
		store = s
		defer store.Close()
		opts.JudgmentStore = store
		opts.JudgmentTTL = *storeTTL
		fmt.Printf("store:      %s (%d records)\n", store.Path(), store.Len())
	}

	// Any observability flag enables the telemetry bundle; the endpoint
	// comes up before the query so scrapers can watch the run live.
	var tel *crowdtopk.Telemetry
	if *metricsAddr != "" || *traceOut != "" || *statsOut != "" {
		tel = crowdtopk.NewTelemetry()
		opts.Telemetry = tel
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listening on %s: %v\n", *metricsAddr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics:    http://%s/metrics\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, tel.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry server: %v\n", err)
			}
		}()
	}

	// With -platform the query runs through the asynchronous platform
	// stack — simulated workers, optional chaos faults, and the resilience
	// layer — instead of calling the dataset oracle directly.
	oracle := crowdtopk.Oracle(data)
	if *platform {
		var p crowdtopk.Platform = crowdtopk.SimulatedPlatform(data, *workers, *seed+2)
		if closer, ok := p.(io.Closer); ok {
			defer closer.Close()
		}
		if *faultDrop > 0 || *faultErr > 0 || *faultAfter > 0 {
			p = crowdtopk.InjectFaults(p, crowdtopk.FaultSchedule{
				Seed:           *seed + 3,
				Drop:           *faultDrop,
				PostError:      *faultErr,
				CollectError:   *faultErr,
				FailAfterPosts: *faultAfter,
			})
		}
		oracle = crowdtopk.WrapPlatform(data.NumItems(), p)
		opts.Resilience = &crowdtopk.ResilienceOptions{
			MaxAttempts:    *retries,
			CollectTimeout: *timeout,
		}
	}

	started := time.Now()
	res, err := crowdtopk.Query(oracle, opts)
	var partial *crowdtopk.PartialResultError
	if errors.As(err, &partial) {
		fmt.Fprintf(os.Stderr, "warning: platform failed mid-query; reporting best-effort result (%d failure events)\n",
			len(partial.Failures))
		for _, ev := range partial.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", ev)
		}
	} else if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	q := crowdtopk.Evaluate(data, res.TopK)

	fmt.Printf("dataset:    %s (%d items)\n", data.Name(), data.NumItems())
	fmt.Printf("algorithm:  %s / %s (policy %s) @ confidence %.2f, budget %d\n", *alg, *est, *policy, *conf, *budget)
	fmt.Printf("top-%d:     %v\n", *k, res.TopK)
	fmt.Printf("truth:      %v\n", crowdtopk.TrueTopK(data, *k))
	fmt.Printf("cost:       %d microtasks (%.2f USD at 0.1 cent each)\n", res.TMC, float64(res.TMC)*0.001)
	fmt.Printf("latency:    %d batch rounds\n", res.Rounds)
	fmt.Printf("quality:    NDCG=%.3f precision=%.2f kendall-tau=%.2f\n", q.NDCG, q.Precision, q.KendallTau)
	fmt.Printf("wall clock: %v (simulation only)\n", time.Since(started).Round(time.Millisecond))
	if *trace {
		if res.Phases == nil {
			fmt.Println("trace:      (only SPR reports phases)")
		} else {
			p := res.Phases
			fmt.Printf("trace:      select %d tasks / %d rounds, partition %d / %d, rank %d / %d, ref changes %d\n",
				p.SelectTMC, p.SelectRounds, p.PartitionTMC, p.PartitionRounds, p.RankTMC, p.RankRounds, p.RefChanges)
		}
	}

	if st := res.Stats; st != nil {
		fmt.Printf("telemetry:  %d comparisons (%d concluded, %d memo hits), %d waves, %d retries, %d quarantined\n",
			st.Comparisons, st.Concluded, st.MemoHits, st.Waves, st.Retries, st.Quarantined)
	}
	if store != nil {
		if st := res.Stats; st != nil {
			fmt.Printf("store:      %d hits, %d stale, %d misses, %d commits — now %d records\n",
				st.StoreHits, st.StoreStale, st.StoreMisses, st.StoreCommits, store.Len())
		} else {
			fmt.Printf("store:      now %d records\n", store.Len())
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating trace file: %v\n", err)
			os.Exit(1)
		}
		if err := tel.WriteTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace file: %s\n", *traceOut)
		if d := tel.TraceDropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: the tracer keeps only its newest spans and dropped %d older ones; per-phase sums over %s undercount\n", d, *traceOut)
		}
	}
	if *statsOut != "" {
		w := os.Stdout
		if *statsOut != "-" {
			f, err := os.Create(*statsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating stats file: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Stats); err != nil {
			fmt.Fprintf(os.Stderr, "writing stats: %v\n", err)
			os.Exit(1)
		}
		if *statsOut != "-" {
			fmt.Printf("stats file: %s\n", *statsOut)
		}
	}

	if *memp != "" {
		f, err := os.Create(*memp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating mem profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "writing mem profile: %v\n", err)
			os.Exit(1)
		}
	}

	if *metricsAddr != "" && *serveWait > 0 {
		fmt.Printf("serving:    telemetry stays up for %v (ctrl-c to stop)\n", *serveWait)
		time.Sleep(*serveWait)
	}
}

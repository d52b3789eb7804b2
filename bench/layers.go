package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"crowdtopk"
	"crowdtopk/internal/obs"
)

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{u(0), u(1), f(2), f(3), f(4)}
}

// runtimeLayer fills the runtime.* metrics for the window since before.
func runtimeLayer(layer map[string]float64, before runtimeSample, queries int) {
	after := readRuntime()
	q := float64(queries)
	layer["runtime.alloc_bytes_per_query"] = ratio(float64(after.allocBytes-before.allocBytes), q)
	layer["runtime.gc_cycles_per_query"] = ratio(float64(after.gcCycles-before.gcCycles), q)
	busy := (after.totalCPU - before.totalCPU) - (after.idleCPU - before.idleCPU)
	layer["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, busy)
}

// rssSampler samples the process's resident set size every rssEvery
// while a measured window runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := rssMiB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the window's peak RSS: the 99th
// percentile of the samples, so one garbage-collection spike landing a
// few milliseconds earlier or later does not decide the figure. Without
// procfs it falls back to the runtime's mapped total, an upper bound.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	return percentile(s.samples, 99)
}

// rssMiB reads the current resident set size from procfs.
func rssMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuLayer copies the profile's module shares into the per-layer map.
func cpuLayer(layer map[string]float64, shares map[string]float64) {
	for _, mod := range []string{"dataset", "crowd", "compare", "stats", "sched", "topk", "jstore", "auditlog", "service", "obs"} {
		layer[mod+".cpu_share"] = shares[mod]
	}
}

// telemetryLayer fills the counters the program's Telemetry registry
// keeps for the engine, the comparison runner, the wave loop and the
// scheduler, over the window between two snapshots.
func telemetryLayer(layer map[string]float64, tel *crowdtopk.Telemetry, before obs.Snapshot, queries int) {
	after := tel.Obs().Registry().Snapshot()
	d := func(name string) float64 { return float64(after.CounterDiff(before, name)) }
	q := float64(queries)
	samples, comps := d(obs.MSamples), d(obs.MComparisons)
	layer["crowd.samples_per_query"] = ratio(samples, q)
	layer["crowd.draw_batches_per_query"] = ratio(d(obs.MDrawBatches), q)
	layer["crowd.refunds"] = d(obs.MRefunds)
	layer["crowd.cap_denied"] = d(obs.MCapDenied)
	layer["compare.comparisons_per_query"] = ratio(comps, q)
	layer["compare.samples_per_comparison"] = ratio(samples, comps)
	layer["compare.concluded_share"] = ratio(d(obs.MConcluded), comps)
	hits := d(obs.MMemoHits)
	layer["compare.memo_hit_share"] = ratio(hits, hits+comps)
	layer["topk.waves_per_query"] = ratio(d(obs.MWaves), q)
	ww := histDiff(after, before, obs.MWaveWidth)
	layer["topk.wave_width_mean"] = ratio(float64(ww.Sum), float64(ww.Count))
	layer["topk.queue_wait_ms_per_query"] = ratio(d(obs.MQueueWaitNs)/1e6, q)
	qw := histDiff(after, before, obs.MSchedQueueWait)
	if qw.Count > 0 {
		layer["sched.queue_wait_p50_us"] = qw.Quantile(0.50) / 1e3
		layer["sched.queue_wait_p99_us"] = qw.Quantile(0.99) / 1e3
	}
	layer["sched.dropped"] = d(obs.MSchedDropped)
	sh, ss, sm := d(obs.MStoreHits), d(obs.MStoreStale), d(obs.MStoreMisses)
	layer["jstore.hit_share"] = ratio(sh, sh+ss+sm)
	layer["jstore.stale_share"] = ratio(ss, sh+ss+sm)
}

// histDiff is the named histogram's growth between two snapshots.
func histDiff(after, before obs.Snapshot, name string) obs.HistogramSnapshot {
	a, b := after.Histograms[name], before.Histograms[name]
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...),
		Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
	for i := range b.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
	}
	return out
}

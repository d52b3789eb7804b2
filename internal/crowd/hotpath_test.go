package crowd

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"crowdtopk/internal/obs"
)

// replayOracle answers from a fixed ring of precomputed values — the
// cheapest possible kernel, so benchmarks over it measure the engine's
// per-microtask overhead rather than the oracle's sampling cost.
type replayOracle struct {
	n    int
	vals []float64
}

func newReplayOracle(n, samples int, seed int64) replayOracle {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, samples)
	for t := range vals {
		vals[t] = rng.Float64()*2 - 1
	}
	return replayOracle{n: n, vals: vals}
}

func (o replayOracle) NumItems() int { return o.n }

func (o replayOracle) Preference(rng *rand.Rand, i, j int) float64 {
	return o.vals[rng.Intn(len(o.vals))]
}

func (o replayOracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	vals := o.vals
	for t := range dst {
		dst[t] = vals[rng.Intn(len(vals))]
	}
}

// TestEngineViewAllocationFree asserts the satellite requirement directly:
// a warm Engine.View is 0 allocs/op, in both orientations and on missing
// pairs.
func TestEngineViewAllocationFree(t *testing.T) {
	e := NewEngine(newReplayOracle(8, 512, 3), rand.New(rand.NewSource(3)))
	e.Draw(0, 1, 60)
	for name, fn := range map[string]func(){
		"canonical": func() { e.View(0, 1) },
		"flipped":   func() { e.View(1, 0) },
		"missing":   func() { e.View(2, 3) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("View (%s) allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestDrawHotPathSingleAllocation pins the batch purchase path's only
// remaining allocation: the freshly published BagView snapshot. The
// snapshot cannot be pooled — readers may hold the previous one
// indefinitely — so one small object per batch is the designed floor;
// samples, scratch buffers and log records all come from pools or
// amortized slices.
func TestDrawHotPathSingleAllocation(t *testing.T) {
	e := NewEngine(newReplayOracle(8, 512, 4), rand.New(rand.NewSource(4)))
	e.Draw(0, 1, 64) // warm pair, pool and shard read map
	if allocs := testing.AllocsPerRun(100, func() { e.Draw(0, 1, 30) }); allocs > 1 {
		t.Errorf("Draw(30) allocates %.1f objects/op on a warm pair, want <= 1 (the published snapshot)", allocs)
	}
}

// TestDrawHotPathDisabledTelemetryAllocationFree pins the observability
// overhead contract on the purchase path: an engine that was explicitly
// wired for telemetry-off (nil registry resolves to a nil instrument
// bundle) allocates exactly what the uninstrumented engine does — the one
// published snapshot — and nothing for the disabled instruments.
func TestDrawHotPathDisabledTelemetryAllocationFree(t *testing.T) {
	e := NewEngine(newReplayOracle(8, 512, 4), rand.New(rand.NewSource(4)))
	e.SetInstruments(NewEngineInstruments(nil)) // disabled: resolves to nil
	e.Draw(0, 1, 64)
	if allocs := testing.AllocsPerRun(100, func() { e.Draw(0, 1, 30) }); allocs > 1 {
		t.Errorf("disabled-telemetry Draw(30) allocates %.1f objects/op, want <= 1", allocs)
	}
	e.DrawOne(0, 1)
	if allocs := testing.AllocsPerRun(100, func() { e.DrawOne(0, 1) }); allocs > 1 {
		t.Errorf("disabled-telemetry DrawOne allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestDrawHotPathEnabledTelemetryAllocationFree asserts that even enabled
// metrics add no allocations to a purchase: counters and histograms update
// atomics in place, so the published snapshot stays the only allocation.
func TestDrawHotPathEnabledTelemetryAllocationFree(t *testing.T) {
	e := NewEngine(newReplayOracle(8, 512, 4), rand.New(rand.NewSource(4)))
	e.SetInstruments(NewEngineInstruments(obs.NewRegistry()))
	e.Draw(0, 1, 64)
	if allocs := testing.AllocsPerRun(100, func() { e.Draw(0, 1, 30) }); allocs > 1 {
		t.Errorf("enabled-telemetry Draw(30) allocates %.1f objects/op, want <= 1", allocs)
	}
}

// benchDraw measures Draw throughput per microtask at the given batch
// size, forcing the scalar fallback when batched is false.
func benchDraw(b *testing.B, batch int, batched bool) {
	b.Helper()
	var o Oracle = newReplayOracle(16, 1024, 7)
	if !batched {
		o = scalarOnly{o}
	}
	e := NewEngine(o, rand.New(rand.NewSource(7)))
	e.Draw(0, 1, batch) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		e.Draw(0, 1, batch)
	}
	b.SetBytes(0)
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "microtasks/s")
}

// BenchmarkDrawHotPath measures per-microtask purchase cost at the
// paper's η = 30 and at a larger batch, across the three engine paths:
//
//   - onebyoneN: N sample-at-a-time purchases (DrawOne), the shape of the
//     hot path before batching — every sample pays the pair lock, the cap
//     reservation, the oracle dispatch and the snapshot publication;
//   - scalarN: one Draw(N) on an oracle without a batch kernel — the
//     engine batches the lock, the buffer and the bag ingestion, but
//     still dispatches per sample;
//   - batchN: one Draw(N) through the BatchOracle kernel — one dispatch
//     for the whole batch.
//   - heavy: one histogram pair on a fresh engine, drawn in batches of
//     30 up to 1,000 samples — seeding, 2,000 uniforms, the inverse-CDF
//     search and the bag. This is the shape of the most expensive
//     queries (quickselect on IMDb under a fixed-step policy), which
//     set the tail latency of a cold query mix.
//
// The ≥3x acceptance target compares batch30 against onebyone30.
func BenchmarkDrawHotPath(b *testing.B) {
	b.Run("heavy", benchDrawHeavy)
	b.Run("onebyone30", func(b *testing.B) { benchDrawOne(b, 30) })
	b.Run("scalar30", func(b *testing.B) { benchDraw(b, 30, false) })
	b.Run("batch30", func(b *testing.B) { benchDraw(b, 30, true) })
	b.Run("onebyone100", func(b *testing.B) { benchDrawOne(b, 100) })
	b.Run("scalar100", func(b *testing.B) { benchDraw(b, 100, false) })
	b.Run("batch100", func(b *testing.B) { benchDraw(b, 100, true) })
}

// BenchmarkDrawHotPathInstrumented measures the telemetry overhead on the
// η = 30 batch path directly: "off" is the baseline engine, "disabled" has
// instrumentation wired but resolved to nil (the production telemetry-off
// shape — the <2% contract), "enabled" updates live atomic instruments.
func BenchmarkDrawHotPathInstrumented(b *testing.B) {
	run := func(b *testing.B, ins *EngineInstruments) {
		e := NewEngine(newReplayOracle(16, 1024, 7), rand.New(rand.NewSource(7)))
		e.SetInstruments(ins)
		e.Draw(0, 1, 30)
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			e.Draw(0, 1, 30)
		}
		b.ReportMetric(float64(b.N*30)/b.Elapsed().Seconds(), "microtasks/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("disabled", func(b *testing.B) { run(b, NewEngineInstruments(nil)) })
	b.Run("enabled", func(b *testing.B) { run(b, NewEngineInstruments(obs.NewRegistry())) })
}

// HeavyPairOracle returns the histogram oracle the heavy case draws
// from. The dataset package imports this one, so the IMDb stand-in is
// wired in from the external test package (hotpath_imdb_test.go).
var HeavyPairOracle func() Oracle

// benchDrawHeavy buys heavyPairSamples for one pair on a fresh engine per
// iteration, in batches of heavyPairBatch, and reports the cost per
// microtask. The engines share one control generator, so each iteration
// roots its pair stream at a different seed.
func benchDrawHeavy(b *testing.B) {
	const heavyPairSamples, heavyPairBatch = 1000, 30
	if HeavyPairOracle == nil {
		b.Skip("no histogram oracle wired in")
	}
	o := HeavyPairOracle()
	ctl := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		e := NewEngine(o, ctl)
		for n := 0; n < heavyPairSamples; n += heavyPairBatch {
			e.Draw(0, 1, min(heavyPairBatch, heavyPairSamples-n))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*heavyPairSamples), "ns/microtask")
}

// benchDrawOne purchases batch samples one microtask at a time, so one
// iteration buys as much evidence as one benchDraw iteration.
func benchDrawOne(b *testing.B, batch int) {
	b.Helper()
	e := NewEngine(newReplayOracle(16, 1024, 7), rand.New(rand.NewSource(7)))
	e.DrawOne(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for t := 0; t < batch; t++ {
			e.DrawOne(0, 1)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "microtasks/s")
}

// BenchmarkViewParallel hammers one warm pair's snapshot from all procs —
// the read side SPR's stopping-rule checks exercise while a wave is in
// flight. Lock-free snapshots scale linearly; the old mutex path
// serialized here.
func BenchmarkViewParallel(b *testing.B) {
	e := NewEngine(newReplayOracle(16, 1024, 9), rand.New(rand.NewSource(9)))
	e.Draw(0, 1, 60)
	var sink atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var n int64
		for pb.Next() {
			v := e.View(0, 1)
			n += int64(v.N)
		}
		sink.Add(n)
	})
}

package crowd

import (
	"math/rand"
	"testing"
)

// Every simulated query is millions of Draw calls; these benchmarks size
// the engine's per-microtask overhead.

func BenchmarkEngineDrawBatch(b *testing.B) {
	e := newTestEngine(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Draw(i%99, 99, 30)
	}
}

func BenchmarkEngineDrawOne(b *testing.B) {
	e := newTestEngine(100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DrawOne(i%99, 99)
	}
}

func BenchmarkEngineDrawLogged(b *testing.B) {
	e := newTestEngine(100, 3)
	enableLog(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DrawOne(i%99, 99)
	}
}

func BenchmarkEngineView(b *testing.B) {
	e := newTestEngine(100, 4)
	e.Draw(0, 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.View(0, 1)
	}
}

func BenchmarkWorkerPoolPreference(b *testing.B) {
	p := NewWorkerPool(gaussOracle{n: 100, sigma: 0.2}, WorkerPoolConfig{
		Workers: 200, SpammerFraction: 0.1, ScaleSD: 0.3, Seed: 5,
	})
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Preference(rng, i%99, 99)
	}
}

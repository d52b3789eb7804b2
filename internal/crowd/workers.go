package crowd

import (
	"fmt"
	"math"
	"math/rand"
)

// WorkerPool decorates an oracle with a finite population of imperfect
// workers. The base oracle models the *task* difficulty (how items
// disagree); the pool layers *worker* behaviour on top: reliable workers
// pass the base judgment through, spammers answer uniformly at random,
// adversaries negate the judgment, and every worker applies her personal
// slider scale. The decorator lets the robustness of the confidence-aware
// machinery be studied under the error models of the crowdsourcing
// literature (cf. Venetis et al.'s worker error models, §2).
type WorkerPool struct {
	base    Oracle
	workers []workerProfile
}

type workerProfile struct {
	kind  int8 // 0 reliable, 1 spammer, 2 adversary
	scale float64
}

// WorkerPoolConfig describes the worker population.
type WorkerPoolConfig struct {
	// Workers is the pool size (default 100).
	Workers int
	// SpammerFraction answer uniformly at random in [-1, 1].
	SpammerFraction float64
	// AdversaryFraction negate the true preference.
	AdversaryFraction float64
	// ScaleSD spreads the per-worker slider scale: each reliable worker
	// multiplies her answers by exp(N(0, ScaleSD²)) clamped into range.
	// It models the paper's observation that judgments "differ in scale
	// across judges" (§1).
	ScaleSD float64
	// Seed fixes the worker population.
	Seed int64
}

// NewWorkerPool builds the decorated oracle.
func NewWorkerPool(base Oracle, cfg WorkerPoolConfig) *WorkerPool {
	if base == nil {
		panic("crowd: NewWorkerPool requires a base oracle")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 100
	}
	if cfg.SpammerFraction < 0 || cfg.AdversaryFraction < 0 ||
		cfg.SpammerFraction+cfg.AdversaryFraction > 1 {
		panic(fmt.Sprintf("crowd: invalid worker fractions %v + %v",
			cfg.SpammerFraction, cfg.AdversaryFraction))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := &WorkerPool{base: base, workers: make([]workerProfile, cfg.Workers)}
	for w := range pool.workers {
		p := workerProfile{scale: 1}
		switch u := rng.Float64(); {
		case u < cfg.SpammerFraction:
			p.kind = 1
		case u < cfg.SpammerFraction+cfg.AdversaryFraction:
			p.kind = 2
		}
		if cfg.ScaleSD > 0 {
			p.scale = clampScale(rng.NormFloat64() * cfg.ScaleSD)
		}
		pool.workers[w] = p
	}
	return pool
}

// clampScale converts a log-scale draw into a multiplicative slider
// scale, bounded away from degenerate values.
func clampScale(logScale float64) float64 {
	if logScale > 1.5 {
		logScale = 1.5
	}
	if logScale < -1.5 {
		logScale = -1.5
	}
	return math.Exp(logScale)
}

// NumItems implements Oracle.
func (p *WorkerPool) NumItems() int { return p.base.NumItems() }

// Workers returns the pool size.
func (p *WorkerPool) Workers() int { return len(p.workers) }

// Preference implements Oracle: a uniformly random worker from the pool
// answers the microtask according to her profile.
func (p *WorkerPool) Preference(rng *rand.Rand, i, j int) float64 {
	w := p.workers[rng.Intn(len(p.workers))]
	switch w.kind {
	case 1: // spammer
		return rng.Float64()*2 - 1
	case 2: // adversary
		return -p.base.Preference(rng, i, j)
	default:
		v := p.base.Preference(rng, i, j) * w.scale
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		return v
	}
}

// Grade implements Grader when the base oracle does; spammers grade
// randomly on a unit scale, adversaries and honest workers pass through
// (grading has no direction to flip).
func (p *WorkerPool) Grade(rng *rand.Rand, i int) float64 {
	g, ok := p.base.(Grader)
	if !ok {
		panic("crowd: base oracle does not support graded judgments")
	}
	w := p.workers[rng.Intn(len(p.workers))]
	if w.kind == 1 {
		return rng.Float64()
	}
	return g.Grade(rng, i)
}

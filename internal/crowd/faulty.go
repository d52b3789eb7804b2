package crowd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ErrInjectedFault is the root of every error FaultyPlatform fabricates,
// so chaos tests can tell injected failures from real bugs.
var ErrInjectedFault = errors.New("crowd: injected fault")

// FaultConfig schedules the misbehaviour of a FaultyPlatform. All rates
// are probabilities in [0, 1], drawn from a deterministic stream keyed by
// the Seed and the batch's pair identity — the same pair's n-th batch
// always suffers the same faults, regardless of how concurrent batches
// interleave. That is what makes a fault schedule replayable.
type FaultConfig struct {
	// Seed roots the fault schedule (default 1).
	Seed int64
	// Drop is the per-answer probability of the answer being silently
	// lost: the batch comes back short.
	Drop float64
	// Duplicate is the per-answer probability of the answer arriving
	// twice (the duplicate is appended to the batch).
	Duplicate float64
	// Flip is the per-answer probability of the answer being reported in
	// the flipped orientation — task reversed, value negated. A legal
	// presentation the adapter must normalize, not an error.
	Flip float64
	// Mispair is the per-answer probability of the answer's task being
	// rewritten to a pair that was never posted — garbage the validation
	// layer must quarantine.
	Mispair float64
	// Malformed is the per-answer probability of the value being replaced
	// by NaN or a value outside [-1, 1].
	Malformed float64
	// Straggle is the per-batch probability of the batch never returning:
	// collection blocks until its context is cancelled (a per-batch
	// deadline turns it into a timeout). Without a deadline a straggler
	// blocks forever, so straggler schedules require CollectTimeout > 0
	// in the retry policy.
	Straggle float64
	// PostError and CollectError are the per-batch probabilities of the
	// respective operation failing once with a transient error.
	PostError    float64
	CollectError float64
	// FailAfterPosts, when positive, makes the platform fail permanently
	// (every Post and every Collect errors) once that many batches have
	// been posted — the "market went down mid-query" scenario.
	FailAfterPosts int
}

// faultPlan is the decision set for one posted batch, drawn up-front from
// the batch's deterministic stream.
type faultPlan struct {
	postError    bool
	collectError bool
	straggle     bool
	rng          *rand.Rand // per-answer decisions, in answer order
}

// FaultyPlatform wraps a Platform with scheduled, seeded fault injection:
// dropped and duplicated answers, flipped orientations, mis-paired tasks,
// malformed values, stragglers, transient post/collect errors, and
// permanent failure after a set number of posts. It is the adversary the
// resilience layer is tested against.
//
// Faults are keyed by pair identity and per-pair batch ordinal, not by
// global post order, so a fixed seed yields the same schedule under any
// interleaving of concurrent batches.
type FaultyPlatform struct {
	inner Platform
	cctx  ContextPlatform
	cfg   FaultConfig

	mu       sync.Mutex
	perPair  map[pairKey]int64
	plans    map[int]*faultPlan
	posts    int
	injected int64
}

// NewFaultyPlatform wraps the platform with the fault schedule.
func NewFaultyPlatform(inner Platform, cfg FaultConfig) *FaultyPlatform {
	if inner == nil {
		panic("crowd: NewFaultyPlatform requires a platform")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	fp := &FaultyPlatform{
		inner:   inner,
		cfg:     cfg,
		perPair: make(map[pairKey]int64),
		plans:   make(map[int]*faultPlan),
	}
	fp.cctx, _ = inner.(ContextPlatform)
	return fp
}

// planFor draws the fault plan of a batch from the pair-keyed stream.
func (fp *FaultyPlatform) planFor(tasks []Task) *faultPlan {
	var k pairKey
	if len(tasks) > 0 {
		k = keyOf(tasks[0].I, tasks[0].J)
	}
	fp.mu.Lock()
	ordinal := fp.perPair[k]
	fp.perPair[k] = ordinal + 1
	fp.mu.Unlock()
	seed := fp.cfg.Seed ^ int64(mix64(uint64(uint32(k.lo))<<32|uint64(uint32(k.hi))^uint64(ordinal)*0x9e3779b97f4a7c15)>>1)
	rng := rand.New(rand.NewSource(seed))
	return &faultPlan{
		postError:    rng.Float64() < fp.cfg.PostError,
		collectError: rng.Float64() < fp.cfg.CollectError,
		straggle:     rng.Float64() < fp.cfg.Straggle,
		rng:          rng,
	}
}

// permanentlyDown reports whether the FailAfterPosts cliff has passed.
// Callers must hold fp.mu or tolerate a stale read (the counter only
// grows, so a stale false merely delays the cliff by one call).
func (fp *FaultyPlatform) permanentlyDown() bool {
	return fp.cfg.FailAfterPosts > 0 && fp.posts >= fp.cfg.FailAfterPosts
}

// Post implements Platform.
func (fp *FaultyPlatform) Post(tasks []Task) (int, error) {
	fp.mu.Lock()
	down := fp.permanentlyDown()
	if !down {
		fp.posts++
	}
	fp.mu.Unlock()
	if down {
		return 0, fmt.Errorf("crowd: platform permanently down: %w", ErrInjectedFault)
	}
	plan := fp.planFor(tasks)
	if plan.postError {
		fp.count()
		return 0, fmt.Errorf("crowd: transient post error: %w", ErrInjectedFault)
	}
	id, err := fp.inner.Post(tasks)
	if err != nil {
		return id, err
	}
	fp.mu.Lock()
	fp.plans[id] = plan
	fp.mu.Unlock()
	return id, nil
}

// Collect implements Platform. Straggling batches require CollectContext
// (or a closeable inner platform) to terminate; plain Collect of a
// straggler blocks forever, like a real lost batch would.
func (fp *FaultyPlatform) Collect(batch int) ([]Answer, error) {
	return fp.CollectContext(context.Background(), batch)
}

// CollectContext implements ContextPlatform.
func (fp *FaultyPlatform) CollectContext(ctx context.Context, batch int) ([]Answer, error) {
	fp.mu.Lock()
	down := fp.permanentlyDown()
	plan := fp.plans[batch]
	fp.mu.Unlock()
	if down {
		return nil, fmt.Errorf("crowd: platform permanently down: %w", ErrInjectedFault)
	}
	if plan != nil && plan.straggle {
		// The batch is lost in the crowd: block until the caller gives up.
		<-ctx.Done()
		return nil, fmt.Errorf("crowd: straggling batch %d: %w (%w)", batch, ErrBatchTimeout, ErrInjectedFault)
	}
	var answers []Answer
	var err error
	if fp.cctx != nil {
		answers, err = fp.cctx.CollectContext(ctx, batch)
	} else {
		answers, err = fp.inner.Collect(batch)
	}
	if err != nil {
		return answers, err
	}
	fp.mu.Lock()
	delete(fp.plans, batch)
	fp.mu.Unlock()
	if plan == nil {
		return answers, nil
	}
	if plan.collectError {
		fp.count()
		// The answers are gone with the error; a retry re-posts.
		return nil, fmt.Errorf("crowd: transient collect error: %w", ErrInjectedFault)
	}
	return fp.corrupt(plan, answers), nil
}

// corrupt applies the per-answer faults of the plan, in answer order, so
// the corruption is as deterministic as the plan itself.
func (fp *FaultyPlatform) corrupt(plan *faultPlan, answers []Answer) []Answer {
	out := make([]Answer, 0, len(answers))
	for _, a := range answers {
		if plan.rng.Float64() < fp.cfg.Drop {
			fp.count()
			continue
		}
		if plan.rng.Float64() < fp.cfg.Flip {
			a = Answer{Task: Task{I: a.Task.J, J: a.Task.I}, Value: -a.Value}
		}
		if plan.rng.Float64() < fp.cfg.Mispair {
			fp.count()
			a.Task = Task{I: a.Task.I + 101, J: a.Task.J + 907} // never posted
		}
		if plan.rng.Float64() < fp.cfg.Malformed {
			fp.count()
			if plan.rng.Float64() < 0.5 {
				a.Value = math.NaN()
			} else {
				a.Value = 1.5 + plan.rng.Float64()
			}
		}
		out = append(out, a)
		if plan.rng.Float64() < fp.cfg.Duplicate {
			fp.count()
			out = append(out, a)
		}
	}
	return out
}

// Injected returns how many individual faults the schedule fired.
func (fp *FaultyPlatform) Injected() int64 {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.injected
}

// Posts returns how many batches were posted (before the permanent-failure
// cliff, if one is configured).
func (fp *FaultyPlatform) Posts() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.posts
}

// Close implements Closer by closing the inner platform, when possible.
func (fp *FaultyPlatform) Close() error {
	if c, ok := fp.inner.(Closer); ok {
		return c.Close()
	}
	return nil
}

func (fp *FaultyPlatform) count() {
	fp.mu.Lock()
	fp.injected++
	fp.mu.Unlock()
}

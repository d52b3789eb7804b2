package crowd

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// numShards stripes the pair-state map so concurrent purchases of distinct
// pairs rarely contend on the same lock. Must be a power of two.
const numShards = 64

// pairState holds one unordered pair's sample bag together with the pair's
// private random stream. The per-pair stream is what makes parallel
// execution deterministic: the t-th sample of a pair depends only on the
// engine seed and the pair identity, never on how purchases of different
// pairs interleave across goroutines.
//
// rng is nil until the pair's first draw seeds it (streamLocked): a pair
// served only from the judgment store, or drawn through an oracle that
// never reads the stream, holds no stream at all. Seeding late does not
// change the values, since the seed depends only on the engine seed and
// the pair. The stream's source is a seededSource, so seeding is O(1) and
// a pair that has drawn at most 64 uniforms holds 64 words of state.
//
// view is the pair's atomically published BagView snapshot in canonical
// (lo, hi) orientation. There is a single writer per pair — whoever holds
// mu — so publication is a plain pointer store; readers load the pointer
// and never touch the mutex. Snapshots are immutable once published.
//
// held and staged implement HoldLog: while held is positive the pair's
// audit records collect in staged instead of reaching the trail. one is
// DrawOne's answer slot: it lives on the pair, not the stack, because a
// buffer passed through the kernel interface escapes. All three are
// guarded by mu.
type pairState struct {
	mu     sync.Mutex
	rng    *stream
	bag    bag
	view   atomic.Pointer[BagView]
	held   int
	staged []Record
	one    [1]float64
}

// publishLocked snapshots the bag in canonical orientation and publishes
// it for lock-free readers. Callers must hold ps.mu.
func (ps *pairState) publishLocked() {
	v := ps.bag.view(false)
	ps.view.Store(&v)
}

// stream is one pair's or one graded item's private sample stream: a
// rand.Rand over an O(1)-seeded source that equals rand.NewSource draw
// for draw. The ring's first ringHead words come with the stream, so a
// lightly drawn pair makes one allocation for its whole stream.
type stream struct {
	rand.Rand
	src  seededSource
	head [ringHead]int64
}

func newStream(seed int64) *stream {
	s := new(stream)
	s.src.ring = s.head[:0]
	s.src.Seed(seed)
	s.Rand = *rand.New(&s.src)
	return s
}

// drawBufPool recycles the per-batch sample scratch buffers so the Draw
// hot path allocates nothing for the samples themselves.
var drawBufPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 256)
		return &s
	},
}

// Engine mediates every microtask purchase of a query. It accumulates the
// per-pair sample bags (reused across query phases), the total monetary
// cost, and the latency clock measured in batch rounds.
//
// An Engine is safe for concurrent use: the pair index is a striped
// read-mostly map whose hot lookups are lock-free, the cost and latency
// counters are atomic, and the spending cap is enforced by atomic
// reservation, so concurrent purchases never overshoot it. Each pair
// samples from its own deterministic random stream derived from the engine
// seed and the pair key, so a fixed seed yields identical samples for
// every pair regardless of goroutine interleaving — a parallel run is
// byte-identical to a sequential one.
//
// Reads are mutex-free: View loads the pair's atomically published bag
// snapshot, so observers (stopping-rule tests, leanings, workload probes)
// never contend with purchases. Writes batch: a Draw of n microtasks costs
// one call of the oracle's purchase kernel (resolved once, by kernelOf),
// one pooled scratch buffer, and — with a trail attached — one hand-off
// to the audit trail, instead of n of each.
//
// Concurrency contract for collaborators: the Oracle (and Grader) must be
// safe for concurrent calls when the engine is driven from several
// goroutines; every oracle in this repository is. Rand() returns the
// control-thread generator and is NOT safe for concurrent use — it belongs
// to the query's single logical thread of control (shuffles, sampling
// plans), never to sampling workers.
type Engine struct {
	oracle   Oracle
	kernel   FallibleBatchOracle // the oracle's purchase kernel, resolved once by kernelOf
	rng      *rand.Rand          // control-thread randomness, exposed via Rand()
	control  *ControlRand        // mutex-guarded view of rng for concurrent sessions
	baseSeed int64               // root of the per-pair and per-item sample streams
	// streamless is true when the oracle declares (streamIgnorer) that it
	// never reads the stream it is passed: pairs are then drawn with a nil
	// stream and never seeded.
	streamless bool

	shards [numShards]shard

	tmc     atomic.Int64 // microtasks purchased (pairwise + graded)
	rounds  atomic.Int64 // latency clock, in batch rounds
	pairCmp atomic.Int64 // pairwise microtasks only
	graded  atomic.Int64 // graded microtasks only
	cap     atomic.Int64 // global spending cap; 0 = unlimited

	// The failure latch: once the oracle reports an unrecoverable platform
	// error the engine degrades — every further purchase is declined (like
	// a spent cap), so in-flight queries conclude from the evidence already
	// bought and no more money is sent to a failing platform. failed is the
	// lock-free fast check; failCause holds the first error.
	failed    atomic.Bool
	failMu    sync.Mutex
	failCause error

	// The audit trail: sink is the one destination of purchase records
	// (nil: none), logMu serializes deliveries and guards logBuf, the
	// reused buffer each batch's records are built in, and logged counts
	// the records handed to sink.
	logMu  sync.Mutex
	sink   atomic.Pointer[RecordSink]
	logBuf []Record
	logged atomic.Int64

	// ins is the pre-resolved metric bundle; nil when telemetry is off.
	// Hot paths pay one nil check, then plain atomic adds.
	ins *EngineInstruments

	gradeMu  sync.Mutex
	gradeRng map[int]*stream // per-item graded sample streams
}

// NewEngine returns an engine over the given oracle. rng seeds all sample
// generation; pass a seeded source for reproducible experiments. The
// engine draws one value from rng to root its per-pair sample streams, so
// the same seeded rng always produces the same engine behaviour.
func NewEngine(o Oracle, rng *rand.Rand) *Engine {
	if o == nil {
		panic("crowd: NewEngine requires a non-nil oracle")
	}
	if rng == nil {
		panic("crowd: NewEngine requires a non-nil rng")
	}
	e := &Engine{
		oracle:   o,
		kernel:   kernelOf(o),
		rng:      rng,
		baseSeed: rng.Int63(),
		gradeRng: make(map[int]*stream),
	}
	e.control = &ControlRand{r: rng}
	e.streamless = ignoresStream(o)
	return e
}

// kernelOf resolves the one routine that answers a purchase of len(dst)
// microtasks from o, so no purchase path pays a type assertion or keeps
// a fallback of its own. The preference order: the oracle's own
// PreferencesPartial (the only kernel that can decline part of a
// purchase instead of panicking), then its Preferences with a full fill,
// then len(dst) Preference calls. All three consume the pair's stream
// exactly as sequential Preference calls would (BatchOracle's contract),
// so which one an oracle resolves to never changes its samples.
func kernelOf(o Oracle) FallibleBatchOracle {
	switch k := o.(type) {
	case FallibleBatchOracle:
		return k
	case BatchOracle:
		return batchKernel{k}
	default:
		return scalarKernel{o}
	}
}

// batchKernel answers through a BatchOracle, which always fills dst.
type batchKernel struct{ BatchOracle }

func (k batchKernel) PreferencesPartial(rng *rand.Rand, i, j int, dst []float64) (int, error) {
	k.Preferences(rng, i, j, dst)
	return len(dst), nil
}

// scalarKernel answers with one Preference call per slot.
type scalarKernel struct{ Oracle }

func (k scalarKernel) PreferencesPartial(rng *rand.Rand, i, j int, dst []float64) (int, error) {
	for t := range dst {
		dst[t] = k.Preference(rng, i, j)
	}
	return len(dst), nil
}

// streamIgnorer is implemented by oracles that may declare they never
// read the *rand.Rand they are passed: PlatformOracle, whose answers come
// from the platform's own workers, and Replay, whose answers are recorded.
// The engine then passes nil and seeds no pair stream. An oracle that does not implement it, or that wraps one
// that reads the stream, gets a seeded stream: the safe default.
type streamIgnorer interface {
	ignoresStream() bool
}

// ignoresStream reports whether o declares that it never reads its stream.
func ignoresStream(o Oracle) bool {
	si, ok := o.(streamIgnorer)
	return ok && si.ignoresStream()
}

// fail latches the engine into degraded mode; the first cause wins.
func (e *Engine) fail(cause error) {
	e.failMu.Lock()
	if e.failCause == nil {
		e.failCause = fmt.Errorf("%w: %w", ErrPlatformFailure, cause)
	}
	e.failMu.Unlock()
	e.failed.Store(true)
}

// Err returns the error that degraded the engine, or nil while healthy.
// A degraded engine declines every further purchase: queries over it
// conclude best-effort from the evidence already bought, exactly like a
// spent global cap, and the caller surfaces Err as a PartialResultError.
func (e *Engine) Err() error {
	if !e.failed.Load() {
		return nil
	}
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failCause
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche so that nearby
// pair keys land on unrelated shards and unrelated sample streams.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pairHash mixes a pair key into a well-spread 64-bit value.
func pairHash(k pairKey) uint64 {
	return mix64(uint64(uint32(k.lo))<<32 | uint64(uint32(k.hi)))
}

// pairSeed derives the pair's private stream seed: engine seed ⊕ pair
// identity. Deterministic per (seed, pair), independent of purchase order.
func (e *Engine) pairSeed(k pairKey) int64 {
	return e.baseSeed ^ int64(pairHash(k)>>1)
}

// gradeSeed derives the per-item graded stream seed; the constant keeps
// graded streams disjoint from pairwise streams of pairs involving i.
const gradeTag = 0x9e3779b97f4a7c15

func (e *Engine) gradeSeed(i int) int64 {
	return e.baseSeed ^ int64(mix64(uint64(uint32(i))^gradeTag)>>1)
}

// pair returns the pair's state, creating it on first touch. The state
// starts without a stream; streamLocked seeds it on the first draw.
func (e *Engine) pair(k pairKey) *pairState {
	s := &e.shards[pairHash(k)&(numShards-1)]
	return s.loadOrCreate(k, func() *pairState { return new(pairState) })
}

// streamLocked returns the pair's sample stream, seeding it from pairSeed
// on first use, or nil when the oracle never reads it. One nil check per
// purchase, not per sample; the seeding sits in its own function so this
// check inlines into the draw paths. Callers must hold ps.mu.
func (e *Engine) streamLocked(ps *pairState, k pairKey) *rand.Rand {
	if ps.rng == nil {
		if e.streamless {
			return nil
		}
		e.seedStreamLocked(ps, k)
	}
	return &ps.rng.Rand
}

func (e *Engine) seedStreamLocked(ps *pairState, k pairKey) {
	ps.rng = newStream(e.pairSeed(k))
}

// lookup returns the pair's state without creating it.
func (e *Engine) lookup(k pairKey) *pairState {
	return e.shards[pairHash(k)&(numShards-1)].load(k)
}

// Oracle returns the oracle the engine draws from.
func (e *Engine) Oracle() Oracle { return e.oracle }

// NumItems returns the size of the item set.
func (e *Engine) NumItems() int { return e.oracle.NumItems() }

// Rand returns the engine's control-thread random source, shared with
// algorithms that need randomization (sampling, shuffles) so a single seed
// fixes a whole run. It is not safe for concurrent use; only the query's
// control goroutine may touch it. Sample generation does not consume from
// it — samples come from per-pair streams — so control-flow randomness is
// identical whether comparison waves execute sequentially or in parallel.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ControlRand is a mutex-guarded view over the engine's control-thread
// random source for sessions running several query control goroutines at
// once. Each call consumes from the same underlying stream as Rand(), so
// a single-query run that switches to ControlRand draws the identical
// sequence — only the cross-query interleaving is serialized.
type ControlRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// Intn is rand.Rand.Intn under the control mutex.
func (c *ControlRand) Intn(n int) int {
	c.mu.Lock()
	v := c.r.Intn(n)
	c.mu.Unlock()
	return v
}

// Perm is rand.Rand.Perm under the control mutex.
func (c *ControlRand) Perm(n int) []int {
	c.mu.Lock()
	p := c.r.Perm(n)
	c.mu.Unlock()
	return p
}

// Shuffle is rand.Rand.Shuffle under the control mutex.
func (c *ControlRand) Shuffle(n int, swap func(i, j int)) {
	c.mu.Lock()
	c.r.Shuffle(n, swap)
	c.mu.Unlock()
}

// Control returns the engine's concurrency-safe control random source.
// Use it instead of Rand() wherever more than one query may be running on
// the engine.
func (e *Engine) Control() *ControlRand { return e.control }

// SetSpendingCap limits the engine's total monetary cost: once TMC
// reaches the cap, further purchases are truncated and queries complete
// best-effort on the evidence at hand. cap <= 0 removes the limit. The cap
// compares against the TMC already spent, so it can be set (or tightened)
// mid-session, from any goroutine.
func (e *Engine) SetSpendingCap(cap int64) {
	if cap <= 0 {
		e.cap.Store(0)
		return
	}
	e.cap.Store(cap)
}

// Remaining returns how many more microtasks the cap allows, or a negative
// value when the engine is uncapped.
func (e *Engine) Remaining() int64 {
	c := e.cap.Load()
	if c <= 0 {
		return -1
	}
	if left := c - e.tmc.Load(); left > 0 {
		return left
	}
	return 0
}

// reserve atomically claims up to n units of TMC against the cap and
// returns how many were granted. Because the claim and the counter bump
// are one compare-and-swap, concurrent purchases can never overshoot the
// cap between check and increment.
func (e *Engine) reserve(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		cur := e.tmc.Load()
		m := int64(n)
		if c := e.cap.Load(); c > 0 {
			left := c - cur
			if left <= 0 {
				return 0
			}
			if m > left {
				m = left
			}
		}
		if e.tmc.CompareAndSwap(cur, cur+m) {
			return int(m)
		}
	}
}

// flushLog hands one pair's batch of samples to the audit trail or,
// while the pair is held (HoldLog), adds them to the pair's staged
// records. Per-pair record order is preserved because callers hold the
// pair mutex, which serializes batches of one pair.
func (e *Engine) flushLog(ps *pairState, k pairKey, vs []float64) {
	if ps.held > 0 {
		round := e.rounds.Load()
		for _, v := range vs {
			ps.staged = append(ps.staged, Record{Round: round, I: k.lo, J: k.hi, Value: v})
		}
		return
	}
	e.logBatch(k.lo, k.hi, vs)
}

// logBatch builds the records of one batch of answers for (i, j) — j is
// -1 for grades — in the reused buffer and hands them to the trail, under
// one logMu acquisition.
func (e *Engine) logBatch(i, j int, vs []float64) {
	round := e.rounds.Load()
	e.logMu.Lock()
	recs := e.logBuf[:0]
	for _, v := range vs {
		recs = append(recs, Record{Round: round, I: i, J: j, Value: v})
	}
	e.logBuf = recs
	e.handLocked(recs)
	e.logMu.Unlock()
}

// handLocked hands recs to the trail, if one is attached, and counts
// them. Callers must hold logMu.
func (e *Engine) handLocked(recs []Record) {
	if s := e.sink.Load(); s != nil {
		(*s).Record(recs)
		e.logged.Add(int64(len(recs)))
	}
}

// Draw purchases up to n more preference microtasks for the pair (i, j) —
// fewer if a spending cap is about to be hit — and returns the updated bag
// view oriented toward i. Each microtask costs one unit of TMC. Draw does
// not advance the latency clock; callers Tick at their batch boundaries.
//
// DrawN is Draw plus the exact charge: the second result is how many
// microtasks were actually delivered and charged for this call, after cap
// truncation and platform-shortfall refunds. Callers attributing cost to
// one of several concurrent queries need the per-call count — a view diff
// would misattribute when another query draws the same pair concurrently.
//
// The whole batch is sampled through one call of the oracle's kernel
// (kernelOf) into a pooled scratch buffer. Every kernel consumes the
// pair's private stream as n Preference calls would (BatchOracle's
// contract), so batching never changes the samples a pair receives.
//
// A fallible kernel may decline part of the purchase: only the answers
// actually delivered are charged (the reservation for undelivered slots
// is refunded), and a reported error latches the engine into degraded
// mode — this and every later Draw grant nothing more, so TMC always
// equals the answers accepted into bags, even mid-failure.
func (e *Engine) Draw(i, j, n int) BagView {
	v, _ := e.DrawN(i, j, n)
	return v
}

// DrawN purchases like Draw and additionally returns the number of
// microtasks delivered and charged by this call. See Draw.
func (e *Engine) DrawN(i, j, n int) (BagView, int) {
	if i == j {
		panic(fmt.Sprintf("crowd: DrawN on identical items %d", i))
	}
	if n < 0 {
		panic(fmt.Sprintf("crowd: DrawN with negative count %d", n))
	}
	k := keyOf(i, j)
	ps := e.pair(k)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	charged := 0
	if n > 0 {
		bufp := drawBufPool.Get().(*[]float64)
		if cap(*bufp) < n {
			*bufp = make([]float64, n)
		}
		charged = e.buyLocked(ps, k, (*bufp)[:n])
		drawBufPool.Put(bufp)
	}
	return ps.bag.view(i != k.lo), charged
}

// DrawOne purchases a single preference microtask for the pair (i, j) and
// returns the sampled value oriented toward i (positive favors i). Like
// Draw it costs one unit of TMC and records the sample in the pair's bag.
// The second result is false — and nothing is charged — when a spending
// cap is exhausted, the engine has degraded after a platform failure, or
// the platform delivered no answer.
func (e *Engine) DrawOne(i, j int) (float64, bool) {
	if i == j {
		panic(fmt.Sprintf("crowd: DrawOne on identical items %d", i))
	}
	k := keyOf(i, j)
	ps := e.pair(k)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if e.buyLocked(ps, k, ps.one[:]) == 0 {
		return 0, false
	}
	if i != k.lo {
		return -ps.one[0], true
	}
	return ps.one[0], true
}

// admit is the admission step every purchase shares: a degraded engine
// grants nothing, otherwise up to n microtasks are reserved against the
// cap, and whatever the cap declined is counted as CapDenied. It returns
// the microtasks granted.
func (e *Engine) admit(n int) int {
	if e.failed.Load() {
		return 0
	}
	granted := e.reserve(n)
	if ins := e.ins; ins != nil && granted < n {
		ins.CapDenied.Add(int64(n - granted))
	}
	return granted
}

// buyLocked is the one purchase routine of the pairwise paths: it admits
// up to len(dst) microtasks, fills the granted prefix of dst — canonical
// (lo, hi) orientation — through the kernel, refunds every slot the
// kernel left empty, and books the delivered answers into the pair's
// bag, the audit trail, the counters, the published snapshot and the
// instruments. It returns how many answers were delivered and charged.
// Callers must hold ps.mu.
func (e *Engine) buyLocked(ps *pairState, k pairKey, dst []float64) int {
	n := e.admit(len(dst))
	if n == 0 {
		return 0
	}
	filled, err := e.kernel.PreferencesPartial(e.streamLocked(ps, k), k.lo, k.hi, dst[:n])
	if err != nil {
		e.fail(err)
	}
	filled = max(0, min(filled, n))
	if filled < n {
		// Refund the reservation for answers that never arrived: TMC
		// charges only what was delivered and accepted.
		e.tmc.Add(int64(filled - n))
	}
	got := dst[:filled]
	for _, v := range got {
		if v < -1 || v > 1 {
			panic(fmt.Sprintf("crowd: oracle returned preference %v outside [-1,1] for pair (%d,%d)", v, k.lo, k.hi))
		}
	}
	if filled > 0 {
		ps.bag.addAll(got)
		if e.sink.Load() != nil {
			e.flushLog(ps, k, got)
		}
		e.pairCmp.Add(int64(filled))
		ps.publishLocked()
	}
	if ins := e.ins; ins != nil {
		ins.Batches.Inc()
		ins.Samples.Add(int64(filled))
		ins.TMC.Add(int64(filled))
		if filled < n {
			ins.Refunds.Add(int64(n - filled))
		}
		ins.BagSize.Observe(int64(ps.bag.pref.N()))
	}
	return filled
}

// View returns the current bag view for pair (i, j) oriented toward i,
// without purchasing anything. A pair never drawn has a zero view.
//
// View is mutex-free and allocation-free: it loads the pair's atomically
// published snapshot, so it never contends with in-flight purchases of the
// same pair. The snapshot is the state as of the last completed purchase.
func (e *Engine) View(i, j int) BagView {
	if i == j {
		panic(fmt.Sprintf("crowd: View on identical items %d", i))
	}
	k := keyOf(i, j)
	ps := e.lookup(k)
	if ps == nil {
		return BagView{}
	}
	p := ps.view.Load()
	if p == nil {
		// Pair created but nothing purchased yet (e.g. a cap-exhausted
		// draw): indistinguishable from never drawn.
		return BagView{}
	}
	if i != k.lo {
		return p.flipped()
	}
	return *p
}

// Posterior exports the exact Welford state of pair (i, j)'s sample bag
// in canonical (lo, hi) orientation, and whether the pair has any
// samples. It is the commit side of the judgment store round trip:
// Posterior → store → SeedPair reproduces the bag bit-for-bit.
func (e *Engine) Posterior(i, j int) (PairPosterior, bool) {
	if i == j {
		panic(fmt.Sprintf("crowd: Posterior on identical items %d", i))
	}
	ps := e.lookup(keyOf(i, j))
	if ps == nil {
		return PairPosterior{}, false
	}
	ps.mu.Lock()
	p := ps.bag.posterior()
	ps.mu.Unlock()
	return p, p.N > 0
}

// SeedPair installs a previously exported posterior as pair (i, j)'s
// sample bag — in canonical (lo, hi) orientation — without purchasing
// anything: no TMC is charged, no oracle is called, the pair's sample
// stream is not consumed, and nothing is appended to the audit log (the
// audit log records money spent; seeded evidence was paid for by an
// earlier query and is accounted in the store, not here).
//
// With overwrite false, seeding only succeeds on an untouched pair: once
// real samples exist the live evidence wins. With overwrite true, a
// posterior that subsumes the live bag (p.N >= live count) replaces it —
// sound because a pair's samples are a deterministic stream, so the live
// bag is a prefix of the larger recorded one; a live bag that has grown
// past the posterior still wins.
func (e *Engine) SeedPair(i, j int, p PairPosterior, overwrite bool) bool {
	if i == j {
		panic(fmt.Sprintf("crowd: SeedPair on identical items %d", i))
	}
	if p.N <= 0 {
		return false
	}
	ps := e.pair(keyOf(i, j))
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if live := ps.bag.pref.N(); live != 0 && (!overwrite || live > p.N) {
		return false
	}
	ps.bag.restore(p)
	ps.publishLocked()
	return true
}

// Grade purchases one graded microtask for item i and returns the grade.
// It costs one unit of TMC, like a pairwise microtask (Appendix B), and
// respects the spending cap: the second result is false — and nothing is
// purchased — when the cap is exhausted or the engine has degraded after
// a platform failure. The oracle must implement Grader.
func (e *Engine) Grade(i int) (float64, bool) {
	g, ok := e.oracle.(Grader)
	if !ok {
		panic("crowd: oracle does not support graded judgments")
	}
	e.gradeMu.Lock()
	defer e.gradeMu.Unlock()
	if e.admit(1) == 0 {
		return 0, false
	}
	rng := e.gradeRng[i]
	if rng == nil {
		rng = newStream(e.gradeSeed(i))
		e.gradeRng[i] = rng
	}
	v := g.Grade(&rng.Rand, i)
	e.graded.Add(1)
	if e.sink.Load() != nil {
		e.logBatch(i, -1, []float64{v})
	}
	if ins := e.ins; ins != nil {
		ins.Graded.Inc()
		ins.TMC.Inc()
	}
	return v, true
}

// Tick advances the latency clock by n batch rounds. Algorithms call it
// once per wave of parallel batches (§5.5), from the wave's control
// goroutine.
func (e *Engine) Tick(n int) {
	if n < 0 {
		panic(fmt.Sprintf("crowd: Tick with negative rounds %d", n))
	}
	e.rounds.Add(int64(n))
	if ins := e.ins; ins != nil {
		ins.Rounds.Add(int64(n))
	}
}

// TMC returns the total monetary cost so far: the number of microtasks
// purchased, pairwise and graded combined. At quiescence (no purchase in
// flight) TMC equals PairwiseTasks + GradedTasks; mid-purchase the total
// is reserved before the per-kind counter is bumped.
func (e *Engine) TMC() int64 { return e.tmc.Load() }

// PairwiseTasks returns the number of pairwise microtasks purchased.
func (e *Engine) PairwiseTasks() int64 { return e.pairCmp.Load() }

// GradedTasks returns the number of graded microtasks purchased.
func (e *Engine) GradedTasks() int64 { return e.graded.Load() }

// Rounds returns the latency clock: the number of batch rounds elapsed.
func (e *Engine) Rounds() int64 { return e.rounds.Load() }

// PairsTouched returns how many distinct pairs have a sample bag; useful
// for diagnostics and tests.
func (e *Engine) PairsTouched() int {
	n := 0
	for s := range e.shards {
		n += e.shards[s].count()
	}
	return n
}

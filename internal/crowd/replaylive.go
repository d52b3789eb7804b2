package crowd

import (
	"math/rand"
	"sync/atomic"
)

// ReplayThenLive is the checkpoint/resume oracle: it serves answers from
// a recorded audit log for as long as the log has them, then falls
// through to a live oracle. Re-driving a crashed query from its WriteLog
// output re-purchases nothing — every judgment the crashed run already
// paid for is replayed for free, and only demand beyond the checkpoint
// reaches the live crowd (counted by LiveTasks, the real money).
//
// Because a query's purchase pattern is deterministic for a fixed seed,
// the resumed query demands exactly the per-pair sample prefixes the
// crashed one bought; the log covers them and the live oracle only
// answers the remainder. Replayed answers do not consume the live
// oracle's random streams, so the post-checkpoint samples are fresh live
// draws — the resumed query is a valid (and typically identical-cost)
// continuation, though not guaranteed bit-identical to the run the crash
// interrupted.
type ReplayThenLive struct {
	replay *Replay
	live   Oracle
	kernel FallibleBatchOracle // kernelOf(live): the live oracle's purchase kernel
	tasks  atomic.Int64
	served atomic.Int64
}

// NewReplayThenLive builds the resume oracle from an audit log and the
// live oracle to continue on. The item count comes from the live oracle.
func NewReplayThenLive(log []Record, live Oracle) *ReplayThenLive {
	if live == nil {
		panic("crowd: NewReplayThenLive requires a live oracle")
	}
	return &ReplayThenLive{replay: NewReplay(live.NumItems(), log), live: live, kernel: kernelOf(live)}
}

// NumItems implements Oracle.
func (rl *ReplayThenLive) NumItems() int { return rl.live.NumItems() }

// ignoresStream forwards the live oracle's declaration: the replayed
// prefix never reads the stream, the live tail reads it unless the live
// oracle declares otherwise.
func (rl *ReplayThenLive) ignoresStream() bool { return ignoresStream(rl.live) }

// LiveTasks returns how many microtasks reached the live oracle — the
// spend beyond the replayed checkpoint.
func (rl *ReplayThenLive) LiveTasks() int64 { return rl.tasks.Load() }

// ReplayedServed returns how many recorded answers have been served from
// the log so far — together with LiveTasks it decomposes a resumed run's
// total demand into free history and new spend.
func (rl *ReplayThenLive) ReplayedServed() int64 { return rl.served.Load() }

// ReplayedRemaining returns how many recorded pairwise answers are still
// unused for the pair.
func (rl *ReplayThenLive) ReplayedRemaining(i, j int) int { return rl.replay.Remaining(i, j) }

// Preference implements Oracle: recorded answers first, then live.
func (rl *ReplayThenLive) Preference(rng *rand.Rand, i, j int) float64 {
	var v [1]float64
	if rl.replay.takeUpTo(i, j, v[:]) == 1 {
		rl.served.Add(1)
		return v[0]
	}
	rl.tasks.Add(1)
	return rl.live.Preference(rng, i, j)
}

// PreferencesPartial implements FallibleBatchOracle: the prefix of the
// batch comes from the log, the remainder from the live oracle's kernel.
// Replayed answers ignore rng (they are recorded) and cannot fail
// (history is already paid for); live answers consume rng exactly as
// sequential Preference calls would, and only they can come up short.
// LiveTasks counts the answers the live oracle actually delivered,
// mirroring the engine's charge-what-arrived accounting, so TMC equals
// replayed + live even across failures.
func (rl *ReplayThenLive) PreferencesPartial(rng *rand.Rand, i, j int, dst []float64) (int, error) {
	replayed := rl.replay.takeUpTo(i, j, dst)
	rl.served.Add(int64(replayed))
	rest := dst[replayed:]
	if len(rest) == 0 {
		return replayed, nil
	}
	filled, err := rl.kernel.PreferencesPartial(rng, i, j, rest)
	rl.tasks.Add(int64(filled))
	return replayed + filled, err
}

// Grade implements Grader: recorded grades first, then the live oracle,
// which must implement Grader once the log runs dry.
func (rl *ReplayThenLive) Grade(rng *rand.Rand, i int) float64 {
	if v, ok := rl.replay.takeGrade(i); ok {
		rl.served.Add(1)
		return v
	}
	rl.tasks.Add(1)
	return rl.live.(Grader).Grade(rng, i)
}

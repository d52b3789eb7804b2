package crowd

import "math/rand"

// Oracle simulates the crowd for one dataset: each call is one microtask
// answered by one independent worker.
//
// Implementations must be safe for concurrent calls on different pairs:
// the engine executes comparison waves on several goroutines, each passing
// its own pair-private rng. Stateless oracles (every dataset in this
// repository) are trivially safe; stateful ones (Replay) synchronize
// internally.
type Oracle interface {
	// NumItems returns the number of items the oracle can judge.
	NumItems() int
	// Preference returns one pairwise preference judgment v(o_i, o_j) in
	// [-1, 1]. A positive value means the worker prefers item i, a negative
	// value item j. Implementations must be antisymmetric in distribution:
	// Preference(rng, i, j) ~ -Preference(rng, j, i).
	Preference(rng *rand.Rand, i, j int) float64
}

// Grader is implemented by oracles that can also answer graded (absolute
// rating) microtasks, used by the graded judgment model and the Hybrid
// baselines. Grades are on the oracle's native scale; callers only compare
// averages, so the scale does not matter.
type Grader interface {
	Grade(rng *rand.Rand, i int) float64
}

// TruthOracle is implemented by oracles that know the underlying total
// order, used for ground-truth evaluation and for the infimum-cost
// calculator (never by the query algorithms themselves).
type TruthOracle interface {
	// TrueRank returns the 0-based rank of item i in the underlying total
	// order Ω (0 is best).
	TrueRank(i int) int
	// PairMoments returns the mean and standard deviation of the preference
	// distribution for the pair (i, j), oriented so a positive mean favors
	// item i.
	PairMoments(i, j int) (mu, sigma float64)
}

// FuncOracle adapts plain functions to the Oracle interface; handy in tests
// and examples.
type FuncOracle struct {
	N    int
	Pref func(rng *rand.Rand, i, j int) float64
}

// NumItems implements Oracle.
func (f FuncOracle) NumItems() int { return f.N }

// Preference implements Oracle.
func (f FuncOracle) Preference(rng *rand.Rand, i, j int) float64 {
	return f.Pref(rng, i, j)
}

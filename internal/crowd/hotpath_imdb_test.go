package crowd_test

import (
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

// The heavy hot-path case draws from the IMDb stand-in, which the crowd
// package cannot import from its own tests.
func init() {
	crowd.HeavyPairOracle = func() crowd.Oracle { return dataset.NewIMDb(1) }
}

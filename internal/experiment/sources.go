package experiment

import (
	"fmt"
	"math/rand"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

// DatasetNames lists the paper's evaluation datasets in report order.
var DatasetNames = []string{"imdb", "book", "jester", "photo"}

// MakeSource builds one of the paper's datasets by name with the given
// generation seed. Recognized names: imdb, book, jester, photo, peopleage,
// synthetic.
func MakeSource(name string, seed int64) dataset.Source {
	switch name {
	case "imdb":
		return dataset.NewIMDb(seed)
	case "book":
		return dataset.NewBook(seed)
	case "jester":
		return dataset.NewJester(seed)
	case "photo":
		return dataset.NewPhoto(seed)
	case "peopleage":
		return dataset.NewPeopleAge(seed)
	case "synthetic":
		return dataset.NewSynthetic(200, 0.3, seed)
	default:
		panic(fmt.Sprintf("experiment: unknown dataset %q", name))
	}
}

// newRunner wires a source to a fresh engine and Student-policy runner
// under the config's execution parameters.
func newRunner(src dataset.Source, cfg Config, runSeed int64) *compare.Runner {
	eng := crowd.NewEngine(src, rand.New(rand.NewSource(runSeed)))
	return compare.NewRunner(eng, compare.NewStudent(cfg.Alpha), compare.Params{
		B: cfg.B, I: cfg.I, Step: cfg.Eta,
	})
}

// newRunnerWithPolicy is newRunner with an explicit comparison policy
// (used by the Stein-vs-Student study, Figure 17).
func newRunnerWithPolicy(src dataset.Source, cfg Config, policy compare.Policy, runSeed int64) *compare.Runner {
	eng := crowd.NewEngine(src, rand.New(rand.NewSource(runSeed)))
	return compare.NewRunner(eng, policy, compare.Params{B: cfg.B, I: cfg.I, Step: cfg.Eta})
}

// subsetOf returns a random n-item subset of src (or src itself when n
// covers it), seeded independently of the crowd randomness.
func subsetOf(src dataset.Source, n int, seed int64) dataset.Source {
	if n >= src.NumItems() {
		return src
	}
	return dataset.RandomSubset(src, n, rand.New(rand.NewSource(seed)))
}

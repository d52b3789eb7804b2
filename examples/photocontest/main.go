// Photocontest: pick the best photos by replaying a pre-collected
// judgment database (the paper's Photo workload — every pair carries
// stored 8-point-Likert records from a real crowd run), and demonstrate
// judgment reuse: once a query has bought samples, re-ranking deeper
// prefixes is nearly free.
//
//	go run ./examples/photocontest
package main

import (
	"fmt"
	"log"

	"crowdtopk"
)

func main() {
	photos := crowdtopk.PhotoDataset(31)
	fmt.Printf("dataset: %s with %d photos; judgments replay stored Likert records\n\n",
		photos.Name(), photos.NumItems())

	// Compare the cheap-and-informative preference policy with the
	// binary (sign-only) one on the same task: the binary model discards
	// the strength of each judgment and pays for it (the paper's Table 3).
	for _, pol := range []crowdtopk.PolicyName{crowdtopk.Student, crowdtopk.HoeffdingBinary} {
		res, err := crowdtopk.Query(photos, crowdtopk.Options{
			K:      5,
			Policy: pol,
			Seed:   3,
		})
		if err != nil {
			log.Fatal(err)
		}
		q := crowdtopk.Evaluate(photos, res.TopK)
		fmt.Printf("policy=%-10s cost=%7d NDCG=%.3f top-5=%v\n", pol, res.TMC, q.NDCG, res.TopK)
	}

	// Single judgments against the contest favorite.
	favorite := crowdtopk.TrueTopK(photos, 1)[0]
	for _, challenger := range crowdtopk.TrueTopK(photos, 4)[1:] {
		j, err := crowdtopk.Judge(photos, challenger, favorite, crowdtopk.Options{Confidence: 0.9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("photo %3d vs favorite %3d: %-17s (%d microtasks)\n",
			challenger, favorite, j.Outcome, j.Workload)
	}
}

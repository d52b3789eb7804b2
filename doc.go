// Package crowdtopk answers crowdsourced top-k queries with
// confidence-aware pairwise preference judgments, implementing the
// Select-Partition-Rank (SPR) framework of Kou, Li, Wang, U and Gong,
// "Crowdsourced Top-k Queries by Confidence-Aware Pairwise Judgments"
// (SIGMOD 2017), together with the paper's baselines, datasets, and full
// experimental harness.
//
// # The problem
//
// Given N items whose quality only humans can judge (best translations,
// funniest jokes, most severe adverse drug reactions), find the k best by
// buying pairwise preference microtasks from a crowd: a worker sees two
// items and moves a slider in [-1, 1]. Each microtask costs money, so the
// query processor must decide which pairs to compare and how many
// judgments to buy per pair, subject to a per-comparison confidence level
// 1-α.
//
// # Quick start
//
//	oracle := crowdtopk.SyntheticDataset(100, 0.3, 42) // or your own Oracle
//	res, err := crowdtopk.Query(oracle, crowdtopk.Options{K: 10})
//	if err != nil { ... }
//	fmt.Println(res.TopK, res.TMC) // the 10 best items and what they cost
//
// Plug in a real crowd by implementing the Oracle interface: NumItems and
// Preference(rng, i, j), where Preference publishes one microtask and
// returns the worker's answer in [-1, 1].
//
// # What is inside
//
//   - Algorithms: SPR (the paper's contribution) and the confidence-aware
//     baselines TourTree, HeapSort, QuickSelect and PBR, selected via
//     Options.Algorithm.
//   - Comparison policies: Student's t (Algorithm 1, the default), Stein's
//     estimation (Algorithm 5), anytime Hoeffding for binary judgments and
//     the adaptive VoI and PAC schedules, selected by name via
//     Options.Policy (PolicyNames lists them).
//   - Datasets: synthetic stand-ins for the paper's IMDb, Book, Jester,
//     Photo and PeopleAge sources, with ground truth for evaluation.
//   - Judge: a single confidence-aware comparison COMP(o_i, o_j), usable
//     on its own for applications that just need reliable pairwise
//     verdicts at minimum cost.
//   - Sessions (NewSession): long-lived query contexts that reuse every
//     purchased judgment across queries, with audit logs, replay, and
//     confidence tiers (Session.Tiers).
//   - Deployment plumbing: asynchronous platform adapters (WrapPlatform),
//     worker-population models (WithWorkerPool), global spending caps
//     (Options.TotalBudget), and CSV loaders for real data dumps.
//   - An experiment harness (cmd/experiments) regenerating every table
//     and figure of the paper's evaluation section, plus ablations for
//     this library's own design decisions.
package crowdtopk

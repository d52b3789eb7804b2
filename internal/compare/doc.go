// Package compare implements the confidence-aware pairwise comparison
// processes COMP(o_i, o_j) of Kou et al. (SIGMOD 2017, §3 and Appendices D
// and E).
//
// A comparison process progressively purchases preference microtasks for a
// pair of items until a statistical test at confidence level 1−α can call a
// winner, or a per-pair budget B is exhausted (outcome: tie, i.e.
// indistinguishable under budget). One Policy owns that whole decision —
// the stopping rule and the sampling schedule — and NewPolicy builds it
// by name from one static table:
//
//   - student (the default): Algorithm 1 (STUDENTCOMP). The 1−α confidence
//     interval of the preference mean, x̄ ± t_{α/2,n−1}·S/√n, must exclude
//     the neutral value 0. student-onesided tests each direction with the
//     one-sided bound t_{α,n−1} (§3.1).
//   - stein: Algorithm 5 (STEINCOMP). Stein's two-stage estimation recast
//     progressively: stop as soon as S²·L⁻²·t²_{1−α/2,n−1} ≤ n with
//     L = |x̄| − ε. That is t·S/√n ≤ |x̄| − ε, Student's interval test up
//     to ε = 1e-9, so stein runs Student's rule under its own name
//     (TestSteinIsStudent keeps the paper's form as the reference).
//   - hoeffding: the pairwise *binary* judgment model of Busa-Fekete et
//     al., using the distribution-free Hoeffding interval over ±1 votes.
//     It needs no normality assumption but requires far larger workloads
//     (Table 3, Appendix D). hoeffding-pref applies the same interval to
//     the raw preferences (footnote 3).
//   - voi and pac: adaptive schedules (Chen–Jiao–Lin; Ren–Liu–Shroff) that
//     size each batch from the evidence and stop paying for pairs whose
//     verdict the remaining budget cannot fund.
//
// The first five run the paper's fixed schedule: the cold-start workload
// I, then batches of η, both read from the Runner's Params.
//
// Every policy stops on one interval rule: conclude when mean ±
// half-width excludes 0. They differ only in the half-width (the t,
// normal or anytime Hoeffding interval) and in the evidence floor below
// which they do not test. HalfWidth is part of Policy, so every comparison
// span records its confidence trajectory and every explain leaf its final
// width.
//
// A Runner binds a policy to a crowd.Engine and adds the paper's execution
// machinery: minimum initial workload I, per-pair budget B, batch step η
// (§5.5 microtask-level batch processing), latency ticking, and
// memoization of concluded comparisons so that every query phase reuses
// previously purchased judgments (§5.3).
package compare

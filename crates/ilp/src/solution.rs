//! Solver results.

use crate::expr::VarId;
use std::time::Duration;

/// Final status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found but optimality was not proven before a
    /// node/time limit was reached.
    Feasible,
    /// The model has no feasible assignment.
    Infeasible,
    /// The relaxation is unbounded in the optimisation direction.
    Unbounded,
    /// A limit was reached before any feasible solution was found.
    Unknown,
}

/// Search statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Nodes whose LP relaxation was abandoned on a time or iteration
    /// limit. These nodes are **not** explored: their subtrees are pruned
    /// without a bound, so any "Infeasible"/"Feasible" verdict with
    /// `limit_nodes > 0` is unproven (the outcome status already reflects
    /// that). Consumers attributing ILP-vs-heuristic quality should treat
    /// `limit_nodes > 0` as "the solver ran out of budget", not "the
    /// model was explored".
    pub limit_nodes: usize,
    /// Total simplex pivots across all LP relaxations.
    pub lp_iterations: usize,
    /// Full basis refactorizations (Markowitz sparse LU rebuilds)
    /// performed by the persistent simplex engine across all nodes.
    pub refactorizations: usize,
    /// Forrest–Tomlin basis updates applied in place (the cheap per-pivot
    /// path; see [`refactorizations`](Self::refactorizations) for the
    /// expensive one).
    pub ft_updates: usize,
    /// Forrest–Tomlin updates rejected by the stability test (each
    /// forces a refactorization; a high count signals an
    /// ill-conditioned relaxation).
    pub rejected_updates: usize,
    /// Dual simplex pivots across all warm re-solves: child nodes whose
    /// parent basis stayed dual feasible after the branching bound change
    /// restore feasibility dually instead of restarting primal phase 1.
    pub dual_pivots: usize,
    /// Node LP solves that started from a usable warm basis (the engine
    /// either reused its live factorization or installed the snapshot).
    pub warm_resolves: usize,
    /// Node LP solves whose supplied warm basis was rejected as stale or
    /// inconsistent, forcing a cold start from the slack basis. Should
    /// stay at (or near) zero — a nonzero count means parent snapshots
    /// are being invalidated somewhere.
    pub cold_restarts: usize,
    /// Constraints eliminated by the root presolve pass (zero when
    /// presolve is disabled via `MilpOptions::presolve`).
    pub presolve_rows: usize,
    /// Variables eliminated by the root presolve pass (fixed or
    /// substituted out; restored transparently in reported solutions).
    pub presolve_cols: usize,
    /// Variable bounds tightened by the root presolve pass.
    pub presolve_tightenings: usize,
    /// Integer bounds tightened by per-node propagation across all
    /// branch-and-bound nodes.
    pub node_tightenings: usize,
    /// Nodes pruned by per-node propagation alone — their LP relaxation
    /// was never solved.
    pub propagation_prunes: usize,
    /// Inert: kept only for the benchmark harness, which still reads
    /// these counters. Both are always zero.
    pub analysis: AnalysisStats,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Best proven bound on the optimum (in the model's sense); equals the
    /// incumbent objective when status is [`SolveStatus::Optimal`].
    pub best_bound: f64,
}

/// Inert counters kept only so the benchmark harness's
/// `ilp.analyze.*` rows keep compiling; the solver never sets them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Always zero.
    pub probes: usize,
    /// Always zero.
    pub conflict_edges: usize,
}

/// A feasible (integer) assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Objective value in the model's optimisation sense.
    pub objective: f64,
    pub(crate) values: Vec<f64>,
}

impl Solution {
    /// Value assigned to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Value of `v` rounded to the nearest integer — use for integer and
    /// binary variables.
    ///
    /// In debug builds this asserts the stored value is within
    /// integrality tolerance (`1e-6`) of the returned integer, so a call
    /// on a genuinely fractional (continuous) value fails loudly instead
    /// of silently rounding.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model, or (debug
    /// builds only) if the stored value is more than `1e-6` away from
    /// the nearest integer.
    pub fn value_int(&self, v: VarId) -> i64 {
        let raw = self.values[v.index()];
        let nearest = raw.round();
        debug_assert!(
            (raw - nearest).abs() <= 1e-6,
            "value_int on a fractional value: variable {} holds {raw}",
            v.index()
        );
        nearest as i64
    }

    /// `true` when binary/integer variable `v` rounds to a non-zero value.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn is_set(&self, v: VarId) -> bool {
        self.value_int(v) != 0
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Outcome of a branch-and-bound run: a status plus the incumbent, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOutcome {
    /// How the search ended.
    pub status: SolveStatus,
    /// Best feasible solution found (present for `Optimal` and `Feasible`).
    pub best: Option<Solution>,
    /// Search statistics.
    pub stats: SolveStats,
    /// Proof log of the run, present when
    /// [`MilpOptions::certificate`](crate::MilpOptions) was enabled and
    /// the verdict is certifiable (everything except `Unbounded`).
    /// Re-verify with [`crate::certify::certify_outcome`].
    pub certificate: Option<crate::certify::MilpCertificate>,
}

impl MilpOutcome {
    /// `true` when the status proves optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solution(values: Vec<f64>) -> Solution {
        Solution {
            objective: 0.0,
            values,
        }
    }

    #[test]
    fn value_int_rounds_near_integers() {
        let s = solution(vec![0.9999995, 2.0000004, -3.0000001]);
        assert_eq!(s.value_int(VarId(0)), 1);
        assert_eq!(s.value_int(VarId(1)), 2);
        assert_eq!(s.value_int(VarId(2)), -3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "value_int on a fractional value")]
    fn value_int_rejects_fractional_values() {
        let s = solution(vec![0.4]);
        let _ = s.value_int(VarId(0));
    }
}

//! Branch-and-bound driver on top of the simplex relaxation.

use crate::certify::{LeafCert, MilpCertificate, NodeCert};
use crate::error::IlpError;
use crate::model::{Model, Sense, VarKind};
use crate::presolve::{self, Postsolve, PresolveOutcome, PresolveStats, Propagator};
use crate::simplex::{Basis, LpCertificate, LpStatus};
use crate::solution::{MilpOutcome, Solution, SolveStats, SolveStatus};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`MilpSolver`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Abort the search after this wall-clock time; the best incumbent (if
    /// any) is returned with status [`SolveStatus::Feasible`].
    pub time_limit: Option<Duration>,
    /// Abort after this many branch-and-bound nodes.
    pub node_limit: Option<usize>,
    /// A value is considered integral when within this distance of an
    /// integer.
    pub integer_tol: f64,
    /// Known objective value of some feasible solution (in the model's
    /// sense). Used as an initial cutoff; the solution itself is *not*
    /// reconstructed — supply it for pruning when a heuristic already
    /// produced an incumbent.
    pub initial_incumbent: Option<f64>,
    /// Stop at the first feasible integer solution (useful for pure
    /// feasibility models); the outcome status is then
    /// [`SolveStatus::Feasible`] unless the tree was exhausted anyway.
    pub stop_at_first: bool,
    /// Run the static [`crate::presolve()`] pass before branch-and-bound
    /// (default `true`): the root model is reduced once, integer bounds
    /// are re-propagated at every node, and reported solutions are
    /// mapped back through the postsolve record. Disable to solve the
    /// model exactly as written (used by differential harnesses).
    pub presolve: bool,
    /// Record a proof log ([`MilpCertificate`]) of the run into
    /// [`MilpOutcome::certificate`], re-verifiable in exact arithmetic by
    /// [`crate::certify::certify_outcome`]. Certificate mode keeps every
    /// pruning decision provable: per-node bound propagation is disabled
    /// (its tightenings are unproved deductions), and verdicts presolve
    /// certifies on its own are re-proved by branch-and-bound on the
    /// original model. Off by default — proof logging costs memory
    /// (duals per leaf) and some speed.
    pub certificate: bool,
    /// Inert: kept only so the benchmark harness, which fills it from
    /// `ilp_model::symmetry_generators`, keeps compiling. The solver
    /// ignores it.
    pub symmetry: Vec<SignedPerm>,
}

/// A signed variable permutation, entry `i` holding `(σ(i), flip)`.
/// Inert: kept only as the type of [`MilpOptions::symmetry`] for the
/// benchmark harness; nothing in the solver reads one.
pub type SignedPerm = Vec<(usize, bool)>;

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            time_limit: None,
            node_limit: Some(2_000_000),
            integer_tol: 1e-6,
            initial_incumbent: None,
            stop_at_first: false,
            presolve: true,
            certificate: false,
            symmetry: Vec::new(),
        }
    }
}

/// Depth-first branch-and-bound MILP solver.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct MilpSolver {
    options: MilpOptions,
}

impl MilpSolver {
    /// A solver with default options.
    pub fn new() -> Self {
        MilpSolver::default()
    }

    /// A solver with explicit options.
    pub fn with_options(options: MilpOptions) -> Self {
        MilpSolver { options }
    }

    /// Sets the wall-clock limit and returns `self` for chaining.
    #[must_use]
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.options.time_limit = Some(limit);
        self
    }

    /// Sets the node limit and returns `self` for chaining.
    #[must_use]
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.options.node_limit = Some(limit);
        self
    }

    /// Sets an initial incumbent objective (model sense) for pruning.
    #[must_use]
    pub fn initial_incumbent(mut self, objective: f64) -> Self {
        self.options.initial_incumbent = Some(objective);
        self
    }

    /// Enables or disables the static presolve pass (on by default).
    #[must_use]
    pub fn presolve(mut self, enabled: bool) -> Self {
        self.options.presolve = enabled;
        self
    }

    /// Enables or disables proof logging (off by default); see
    /// [`MilpOptions::certificate`].
    #[must_use]
    pub fn certificate(mut self, enabled: bool) -> Self {
        self.options.certificate = enabled;
        self
    }

    /// Solves the model.
    ///
    /// Infeasibility/unboundedness are reported through
    /// [`MilpOutcome::status`], not as errors.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::BadModel`] when the model fails
    /// [`Model::validate`].
    pub fn solve(&self, model: &Model) -> Result<MilpOutcome, IlpError> {
        model.validate()?;
        let start = Instant::now();
        if !self.options.presolve {
            return Ok(self.branch_and_bound(model, model, None, PresolveStats::default(), start));
        }
        // Static presolve first: it may certify a terminal verdict (a
        // proof by interval arithmetic — no LP ever runs), solve the
        // model outright, or hand back a reduced model whose solutions
        // are lifted through the postsolve record.
        let pre = presolve::presolve(model);
        let pstats = pre.stats;
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let make_stats = |best_bound: f64| SolveStats {
            presolve_rows: pstats.rows_removed,
            presolve_cols: pstats.cols_removed,
            presolve_tightenings: pstats.tightenings,
            elapsed: start.elapsed(),
            best_bound,
            ..SolveStats::default()
        };
        // In certificate mode a verdict presolve certifies on its own
        // (pure interval arithmetic) is re-proved by branch-and-bound on
        // the *original* model: the resulting tree proof needs no
        // reduced-model equivalence argument, so `certify_outcome` can
        // check it exactly.
        if self.options.certificate
            && matches!(
                pre.outcome,
                PresolveOutcome::Infeasible { .. } | PresolveOutcome::Solved(_)
            )
        {
            return Ok(self.branch_and_bound(model, model, None, pstats, start));
        }
        match pre.outcome {
            PresolveOutcome::Infeasible { .. } => Ok(MilpOutcome {
                status: SolveStatus::Infeasible,
                best: None,
                stats: make_stats(sign * f64::NEG_INFINITY),
                certificate: None,
            }),
            PresolveOutcome::Unbounded => Ok(MilpOutcome {
                status: SolveStatus::Unbounded,
                best: None,
                stats: make_stats(sign * f64::NEG_INFINITY),
                certificate: None,
            }),
            PresolveOutcome::Solved(values) => {
                let objective = model.objective().eval(&values);
                Ok(MilpOutcome {
                    status: SolveStatus::Optimal,
                    best: Some(Solution { objective, values }),
                    stats: make_stats(objective),
                    certificate: None,
                })
            }
            PresolveOutcome::Reduced(reduced) => {
                Ok(self.branch_and_bound(model, &reduced, Some(&pre.postsolve), pstats, start))
            }
        }
    }

    /// Depth-first search over `solve_model` — the presolve-reduced model
    /// when presolve ran, the original model otherwise. Incumbents are
    /// lifted back through `postsolve` and objectives are always reported
    /// against `original`, so callers never observe the reduction.
    fn branch_and_bound(
        &self,
        original: &Model,
        solve_model: &Model,
        postsolve: Option<&Postsolve>,
        pstats: PresolveStats,
        start: Instant,
    ) -> MilpOutcome {
        // Hard wall-clock deadline, enforced down inside the simplex pivot
        // loop — the per-node check alone cannot stop a long single LP.
        let deadline = self.options.time_limit.map(|limit| start + limit);
        let n = solve_model.var_count();
        let sign = match solve_model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let model = solve_model;

        let is_int: Vec<bool> = model
            .vars()
            .iter()
            .map(|v| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .collect();
        let integral_objective = model.objective_is_integral();
        let tol = self.options.integer_tol;
        let cert_on = self.options.certificate;
        // Per-node integer bound propagation only runs when presolve is
        // on: it is the "reapply the bound-tightening reductions at every
        // node" half of the presolve design. Certificate mode disables it
        // — a propagated bound is an unproved deduction, and leaf proofs
        // must hold under root bounds plus branch decisions alone.
        let propagator = (postsolve.is_some() && !cert_on).then(|| Propagator::new(model));
        // Proof log: one NodeCert per branch-and-bound node, root first.
        let mut tree: Vec<NodeCert> = Vec::new();
        if cert_on {
            tree.push(NodeCert {
                parent: None,
                branch: None,
                leaf: None,
            });
        }
        // Set when a verdict could not be backed by LP evidence (the
        // engine declined to certify); the tree is then incomplete.
        let mut cert_failed = false;

        // The constraint matrix is lowered to CSC exactly once; every
        // node then re-solves the same prepared LP under tightened bound
        // vectors (the dense-tableau solver used to re-clone the full row
        // set per node). A single engine persists across all nodes so a
        // DFS child popped right after its parent reuses the live
        // factorization and pricing weights.
        let (lp, base_lower, base_upper) = model.to_sparse_lp();
        let mut engine = lp.engine();
        let obj_constant = model.objective().constant();
        engine.set_certify(cert_on);

        let mut stats = SolveStats {
            presolve_rows: pstats.rows_removed,
            presolve_cols: pstats.cols_removed,
            presolve_tightenings: pstats.tightenings,
            ..SolveStats::default()
        };
        let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-form obj, values)
                                                           // The user-facing incumbent value includes the objective constant
                                                           // (which presolve grows by every fixed variable's contribution);
                                                           // the search compares min-form objectives, so strip it here.
        let mut cutoff = self
            .options
            .initial_incumbent
            .map_or(f64::INFINITY, |u| sign * (u - obj_constant));
        let mut root_bound = f64::NEG_INFINITY;
        let mut hit_limit = false;

        // Each stack entry carries its parent's optimal basis (shared by
        // both children via Rc): warm-starting the child LP from it cuts
        // the per-node pivot count by an order of magnitude compared to
        // re-growing the basis from slacks at every node.
        type Node = (Vec<f64>, Vec<f64>, Option<Rc<Basis>>, usize);
        let mut stack: Vec<Node> = vec![(base_lower, base_upper, None, 0)];
        while let Some((mut lower, mut upper, warm, nid)) = stack.pop() {
            if let Some(limit) = self.options.node_limit {
                if stats.nodes >= limit {
                    hit_limit = true;
                    break;
                }
            }
            if let Some(limit) = self.options.time_limit {
                // The root node is always attempted: its LP enforces the
                // same deadline internally and bails out as TimeLimit, so
                // an exhausted budget still yields an honest limit count
                // instead of an empty run.
                if stats.nodes > 0 && start.elapsed() >= limit {
                    hit_limit = true;
                    break;
                }
            }
            // Integer bound propagation: exact floor/ceil deductions, so
            // a pruned node is pruned with certainty — no LP needed.
            if let Some(prop) = &propagator {
                match prop.propagate(&mut lower, &mut upper) {
                    None => {
                        stats.propagation_prunes += 1;
                        continue;
                    }
                    Some(t) => stats.node_tightenings += t,
                }
            }
            stats.nodes += 1;

            // An empty variable box is a trivially exact leaf proof; the
            // simplex also detects it, but without a Farkas ray.
            if cert_on {
                if let Some(j) = (0..n).find(|&j| lower[j] > upper[j]) {
                    tree[nid].leaf = Some(LeafCert::EmptyBox { var: j });
                    continue;
                }
            }

            let (sol, node_basis) = engine.solve(&lower, &upper, deadline, warm.as_deref());
            stats.lp_iterations += sol.iterations;
            match sol.status {
                LpStatus::Infeasible => {
                    if cert_on {
                        match engine.take_certificate() {
                            Some(LpCertificate::Infeasible { farkas }) => {
                                tree[nid].leaf = Some(LeafCert::Infeasible { farkas });
                            }
                            _ => cert_failed = true,
                        }
                    }
                    continue;
                }
                LpStatus::Unbounded => {
                    // Bounds only tighten below the root, so any unbounded
                    // node implies an unbounded relaxation.
                    stats.elapsed = start.elapsed();
                    let factor = engine.factor_stats();
                    stats.refactorizations = factor.refactorizations;
                    stats.ft_updates = factor.ft_updates;
                    stats.rejected_updates = factor.rejected_updates;
                    let es = engine.engine_stats();
                    stats.dual_pivots = es.dual_pivots;
                    stats.warm_resolves = es.warm_resolves;
                    stats.cold_restarts = es.cold_restarts;
                    stats.best_bound = f64::NEG_INFINITY * sign;
                    return MilpOutcome {
                        status: SolveStatus::Unbounded,
                        best: None,
                        stats,
                        certificate: None,
                    };
                }
                LpStatus::IterationLimit | LpStatus::TimeLimit => {
                    // The node's relaxation was cut short: its subtree is
                    // dropped without a bound, so count it as a limit hit
                    // (not as an explored node) and let the final status
                    // reflect the unproven search.
                    stats.limit_nodes += 1;
                    continue;
                }
                LpStatus::Optimal => {}
            }
            // In certificate mode an Optimal verdict comes with the final
            // simplex multipliers: the evidence for a Bound or Integral
            // leaf, should this node become one.
            let mut duals: Option<Vec<f64>> = None;
            if cert_on {
                if let Some(LpCertificate::Optimal { duals: d, .. }) = engine.take_certificate() {
                    duals = Some(d);
                }
            }
            if stats.nodes == 1 {
                root_bound = sol.objective;
            }
            // Bound pruning.
            let node_bound = sol.objective;
            let prune_threshold = if integral_objective {
                cutoff - 1.0 + 1e-6
            } else {
                cutoff - 1e-9
            };
            if node_bound > prune_threshold {
                if cert_on {
                    match duals.take() {
                        Some(d) => {
                            tree[nid].leaf = Some(LeafCert::Bound {
                                duals: d,
                                bound: node_bound,
                            });
                        }
                        None => cert_failed = true,
                    }
                }
                continue;
            }

            // Branching: most-fractional first; the first index wins ties.
            let mut branch: Option<(usize, f64, f64)> = None;
            for (j, &integer_var) in is_int.iter().enumerate().take(n) {
                if !integer_var {
                    continue;
                }
                let v = sol.x[j];
                let dist = (v - v.round()).abs();
                if dist > tol && branch.is_none_or(|(_, _, bd)| dist > bd) {
                    branch = Some((j, v, dist));
                }
            }
            let Some((j, v, _)) = branch else {
                // Integral: candidate incumbent.
                let mut values = sol.x.clone();
                for (x, &int) in values.iter_mut().zip(&is_int) {
                    if int {
                        *x = x.round();
                    }
                }
                let min_obj: f64 = lp
                    .objective()
                    .iter()
                    .zip(&values)
                    .map(|(c, x)| c * x)
                    .sum::<f64>();
                if cert_on {
                    match duals.take() {
                        Some(d) => {
                            tree[nid].leaf = Some(LeafCert::Integral {
                                x: values.clone(),
                                duals: d,
                                objective: min_obj,
                            });
                        }
                        None => cert_failed = true,
                    }
                }
                if min_obj < cutoff - 1e-9 {
                    cutoff = min_obj;
                    incumbent = Some((min_obj, values));
                    if self.options.stop_at_first {
                        hit_limit = !stack.is_empty();
                        break;
                    }
                }
                continue;
            };

            // Children: explore the side nearer the LP value first (LIFO).
            let parent_basis = node_basis.map(Rc::new);
            let floor = v.floor();
            let (down_id, up_id) = if cert_on {
                tree[nid].branch = Some((j, floor));
                let down_id = tree.len();
                tree.push(NodeCert {
                    parent: Some((nid, false)),
                    branch: None,
                    leaf: None,
                });
                let up_id = tree.len();
                tree.push(NodeCert {
                    parent: Some((nid, true)),
                    branch: None,
                    leaf: None,
                });
                (down_id, up_id)
            } else {
                (0, 0)
            };
            let mut down = (lower.clone(), upper.clone(), parent_basis.clone(), down_id);
            down.1[j] = floor;
            let mut up = (lower, upper, parent_basis, up_id);
            up.0[j] = floor + 1.0;
            if v - floor > 0.5 {
                stack.push(down);
                stack.push(up);
            } else {
                stack.push(up);
                stack.push(down);
            }
        }

        stats.elapsed = start.elapsed();
        let factor = engine.factor_stats();
        stats.refactorizations = factor.refactorizations;
        stats.ft_updates = factor.ft_updates;
        stats.rejected_updates = factor.rejected_updates;
        let es = engine.engine_stats();
        stats.dual_pivots = es.dual_pivots;
        stats.warm_resolves = es.warm_resolves;
        stats.cold_restarts = es.cold_restarts;
        let proved_optimal = !hit_limit && stats.limit_nodes == 0;
        let status = match (&incumbent, proved_optimal) {
            (Some(_), true) => SolveStatus::Optimal,
            (Some(_), false) => SolveStatus::Feasible,
            (None, true) => SolveStatus::Infeasible,
            (None, false) => SolveStatus::Unknown,
        };
        let certificate = cert_on.then(|| MilpCertificate {
            reduced: model.clone(),
            presolve: postsolve.map(Postsolve::certificate),
            tree: std::mem::take(&mut tree),
            incumbent_reduced: incumbent.as_ref().map(|(_, v)| v.clone()),
            initial_cutoff: self
                .options
                .initial_incumbent
                .map(|u| sign * (u - obj_constant)),
            complete: proved_optimal && !cert_failed,
        });
        let best = incumbent.map(|(_, values)| {
            // Lift the reduced-space incumbent back to the original
            // variables; the objective is always evaluated through the
            // original model so presolve never changes reported values.
            let values = match postsolve {
                Some(p) => p.restore(&values),
                None => values,
            };
            let objective = original.objective().eval(&values);
            Solution { objective, values }
        });
        stats.best_bound = if status == SolveStatus::Optimal {
            best.as_ref().map_or(f64::NAN, |b| b.objective)
        } else {
            sign * root_bound + obj_constant
        };
        MilpOutcome {
            status,
            best,
            stats,
            certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    #[test]
    fn knapsack_small() {
        let mut m = Model::new(Sense::Maximize);
        let items: Vec<_> = (0..5).map(|i| m.binary_var(format!("x{i}"))).collect();
        let weights = [2.0, 3.0, 4.0, 5.0, 9.0];
        let values = [3.0, 4.0, 5.0, 8.0, 10.0];
        let mut wexpr = LinExpr::new();
        let mut vexpr = LinExpr::new();
        for (i, &x) in items.iter().enumerate() {
            wexpr.add_term(x, weights[i]);
            vexpr.add_term(x, values[i]);
        }
        m.add_leq(wexpr, 10.0);
        m.set_objective(vexpr);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let best = out.best.unwrap();
        // Optimal: items 1 (w3 v4) + 3 (w5 v8) + 0 (w2 v3) = w10, v15.
        assert_eq!(best.objective.round() as i64, 15);
        let w: f64 = items
            .iter()
            .enumerate()
            .map(|(i, &x)| weights[i] * best.value(x))
            .sum();
        assert!(w <= 10.0 + 1e-6);
    }

    #[test]
    fn assignment_problem_is_tight() {
        // 3x3 assignment; LP relaxation is integral, so B&B should finish
        // at the root.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut x = vec![vec![]; 3];
        for (i, xi) in x.iter_mut().enumerate() {
            for j in 0..3 {
                xi.push(m.binary_var(format!("x{i}{j}")));
            }
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            let mut r = LinExpr::new();
            let mut c = LinExpr::new();
            for j in 0..3 {
                r.add_term(x[i][j], 1.0);
                c.add_term(x[j][i], 1.0);
                obj.add_term(x[i][j], cost[i][j]);
            }
            m.add_eq(r, 1.0);
            m.add_eq(c, 1.0);
        }
        m.set_objective(obj);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.best.unwrap().objective.round() as i64, 5);
    }

    #[test]
    fn set_cover() {
        // Universe {0..5}; sets: {0,1,2}, {1,3}, {2,4}, {3,4,5}, {0,5}.
        let sets: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![1, 3],
            vec![2, 4],
            vec![3, 4, 5],
            vec![0, 5],
        ];
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = (0..sets.len())
            .map(|i| m.binary_var(format!("s{i}")))
            .collect();
        for e in 0..6 {
            let mut cover = LinExpr::new();
            for (i, s) in sets.iter().enumerate() {
                if s.contains(&e) {
                    cover.add_term(xs[i], 1.0);
                }
            }
            m.add_geq(cover, 1.0);
        }
        let mut obj = LinExpr::new();
        for &x in &xs {
            obj.add_term(x, 1.0);
        }
        m.set_objective(obj);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.best.unwrap().objective.round() as i64, 2); // {0,1,2} + {3,4,5}
    }

    #[test]
    fn infeasible_binary_system() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 3.0);
        m.set_objective(x + y);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(out.best.is_none());
    }

    #[test]
    fn unbounded_integer_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Unbounded);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 10.0);
        let y = m.continuous_var("y", 0.0, 10.0);
        m.add_geq(x + y, 3.0);
        m.set_objective(2.0 * x + y);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let best = out.best.unwrap();
        assert!((best.objective - 3.0).abs() < 1e-6);
        assert!((best.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn negative_integer_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", -5.0, 5.0);
        m.add_geq(2.0 * x, -7.0); // x >= -3.5 -> x >= -3
        m.set_objective(LinExpr::from(x));
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.best.unwrap().value_int(x), -3);
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.add_geq(LinExpr::from(x), 1.0);
        m.set_objective(LinExpr::from(x) + 10.0);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert!((out.best.unwrap().objective - 11.0).abs() < 1e-9);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        // A model needing branching, with node limit 1: no incumbent yet.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..10).map(|i| m.binary_var(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            w.add_term(x, 3.0 + (i as f64) * 1.3);
            v.add_term(x, 5.0 + ((i * 7) % 4) as f64);
        }
        m.add_leq(w, 20.0);
        m.set_objective(v);
        let solver = MilpSolver::with_options(MilpOptions {
            node_limit: Some(1),
            ..MilpOptions::default()
        });
        let out = solver.solve(&m).unwrap();
        assert!(matches!(
            out.status,
            SolveStatus::Feasible | SolveStatus::Unknown
        ));
        assert!(out.stats.nodes <= 1);
    }

    #[test]
    fn limit_hit_nodes_reported_separately() {
        // A knapsack that needs branching, strangled by an already-tiny
        // time budget: every node's LP hits the deadline. Those nodes
        // must surface in `limit_nodes` — not masquerade as explored —
        // and the status must degrade to Unknown, never Infeasible.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..12).map(|i| m.binary_var(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            w.add_term(x, 2.0 + (i as f64) * 1.1);
            v.add_term(x, 3.0 + ((i * 5) % 7) as f64);
        }
        m.add_leq(w, 23.0);
        m.set_objective(v);
        let out = MilpSolver::new()
            .time_limit(Duration::from_nanos(1))
            .solve(&m)
            .unwrap();
        assert!(
            out.stats.limit_nodes >= 1,
            "deadline-starved LPs must be counted as limit hits"
        );
        assert!(
            out.stats.limit_nodes <= out.stats.nodes,
            "limit nodes are a subset of processed nodes"
        );
        assert_eq!(out.status, SolveStatus::Unknown);

        // The same model with a sane budget explores cleanly: no limit
        // nodes, proven optimum.
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.stats.limit_nodes, 0);
        assert_eq!(out.status, SolveStatus::Optimal);
    }

    #[test]
    fn initial_incumbent_prunes() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 1.0);
        m.set_objective(x + y);
        // Claim we already know a solution of value 1: solver must still
        // prove optimality (finding a solution of value 1 or better).
        let out = MilpSolver::new().initial_incumbent(1.0).solve(&m).unwrap();
        // With an integral objective and cutoff 1, nodes with bound > 0+eps
        // are pruned; the solver may end with no *stored* incumbent but
        // proven optimality means the cutoff was not beaten.
        assert!(matches!(
            out.status,
            SolveStatus::Optimal | SolveStatus::Infeasible
        ));
    }

    #[test]
    fn maximize_reports_user_sense_objective() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer_var("x", 0.0, 7.0);
        m.add_leq(2.0 * x, 9.0);
        m.set_objective(3.0 * x);
        let out = MilpSolver::new().solve(&m).unwrap();
        assert!(out.is_optimal());
        let best = out.best.unwrap();
        assert_eq!(best.value_int(x), 4);
        assert_eq!(best.objective.round() as i64, 12);
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.add_geq(LinExpr::from(x), 1.0);
        m.set_objective(LinExpr::from(x));
        // Presolve fixes x = 1 from the singleton row: zero nodes, and
        // the reduction is visible in the stats.
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.stats.nodes, 0);
        assert!(out.stats.presolve_rows >= 1);
        assert!(out.stats.presolve_cols >= 1);
        assert_eq!(out.stats.best_bound, 1.0);
        // With presolve off the same model must cost at least one node.
        let out = MilpSolver::new().presolve(false).solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!(out.stats.nodes >= 1);
        assert_eq!(out.stats.presolve_rows, 0);
        assert_eq!(out.stats.best_bound, 1.0);
    }

    #[test]
    fn presolve_and_raw_agree_on_knapsack() {
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..8).map(|i| m.binary_var(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            w.add_term(x, 2.0 + (i as f64) * 1.7);
            v.add_term(x, 4.0 + ((i * 3) % 5) as f64);
        }
        m.add_leq(w, 15.0);
        m.set_objective(v + 3.0);
        let on = MilpSolver::new().solve(&m).unwrap();
        let off = MilpSolver::new().presolve(false).solve(&m).unwrap();
        assert_eq!(on.status, SolveStatus::Optimal);
        assert_eq!(off.status, SolveStatus::Optimal);
        let (a, b) = (on.best.unwrap(), off.best.unwrap());
        assert!((a.objective - b.objective).abs() < 1e-6);
        assert_eq!(a.values().len(), b.values().len());
    }

    #[test]
    fn initial_incumbent_cutoff_respects_objective_constant() {
        // Minimise x + 100 with x ≥ 3 integer in [0, 10] plus a second
        // variable to keep presolve from solving it outright. A claimed
        // incumbent of 103 (the true optimum) must not prune the optimum
        // away: the cutoff must subtract the constant.
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 10.0);
        let y = m.integer_var("y", 0.0, 10.0);
        m.add_geq(x + y, 3.0);
        m.set_objective(x + y + 100.0);
        let out = MilpSolver::new()
            .initial_incumbent(103.0)
            .solve(&m)
            .unwrap();
        assert!(matches!(
            out.status,
            SolveStatus::Optimal | SolveStatus::Infeasible
        ));
        assert!((out.stats.best_bound - 103.0).abs() < 1e-6 || out.best.is_none());
        // Without the claimed incumbent the optimum is reported directly.
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.best.unwrap().objective - 103.0).abs() < 1e-6);
    }
}

//! The paper's ILP formulation of flow-path construction (Section III-B,
//! constraints (1)–(8)), solved with the in-workspace
//! [`fpva_ilp`] branch-and-bound solver.
//!
//! For each candidate path `m` the model has:
//!
//! * a binary `v[m][e]` per passable edge — "path m crosses site e"
//!   (constraint-variable `vᵐᵢⱼ` of the paper),
//! * a binary `c[m][cell]` per non-obstacle cell — "path m passes the
//!   cell" (`cᵐᵢⱼ`),
//! * a binary `pe[m][port]` per boundary port — paths enter at a source
//!   and leave at a sink,
//! * an integer flow `f[m][e] ∈ [−M, M]` per edge plus an injection
//!   `fp[m][src]` — the disjoint-loop exclusion of constraints (3)/(4):
//!   every on-path cell absorbs one unit that must originate at a source
//!   port, so a loop disconnected from the source cannot satisfy flow
//!   conservation (paper's equation (5) argument).
//!
//! Constraint (1) becomes "2·c = Σ incident v + Σ ports", constraint (2)
//! the coverage requirement, and the minimisation over the number of
//! paths (7)–(8) is realised by probing increasing path counts `k` and
//! returning the first feasible cover (the paper likewise re-solves with
//! increased `n_p` when infeasible).

use crate::error::AtpgError;
use crate::heuristic::PathCover;
use crate::path::FlowPath;
use fpva_grid::{CellId, CellKind, EdgeId, EdgeKind, Fpva, PortId, PortKind};
use fpva_ilp::{LinExpr, MilpOptions, MilpSolver, Model, Sense, SolveStatus, VarId};
use std::collections::BTreeMap;
use std::time::Duration;

/// Tuning of the exact engine.
#[derive(Debug, Clone)]
pub struct PathIlpConfig {
    /// Largest path count probed before giving up.
    pub max_paths: usize,
    /// Wall-clock budget per feasibility probe.
    pub time_limit: Duration,
    /// Node budget per feasibility probe.
    pub node_limit: usize,
    /// Solve each probe in proof-logging mode and audit the returned
    /// certificate with [`fpva_ilp::certify_outcome`] in exact rational
    /// arithmetic. Certified probes disable `stop_at_first` (a terminal
    /// verdict needs a complete tree), so expect more nodes per probe.
    pub certify: bool,
}

impl Default for PathIlpConfig {
    fn default() -> Self {
        PathIlpConfig {
            max_paths: 8,
            time_limit: Duration::from_secs(20),
            node_limit: 200_000,
            certify: false,
        }
    }
}

/// Variable handles for one candidate path. `BTreeMap` keeps lookup *and*
/// iteration deterministic (path extraction walks these maps).
struct PathVars {
    v: BTreeMap<EdgeId, VarId>,
    pe: BTreeMap<PortId, VarId>,
    c: BTreeMap<CellId, VarId>,
}

/// Builds the feasibility model "cover all valves with exactly `k` paths".
fn build_model(fpva: &Fpva, k: usize) -> (Model, Vec<PathVars>) {
    let mut model = Model::new(Sense::Minimize);
    let cells: Vec<CellId> = fpva
        .cells()
        .filter(|&c| fpva.cell_kind(c) != CellKind::Obstacle)
        .collect();
    let passable: Vec<EdgeId> = fpva
        .edges()
        .filter(|&(_, kind)| kind != EdgeKind::Wall)
        .map(|(e, _)| e)
        .collect();
    let big_m = cells.len() as f64 + 1.0;

    let mut all_vars = Vec::with_capacity(k);
    for m in 0..k {
        let mut v = BTreeMap::new();
        let mut f = BTreeMap::new();
        for &e in &passable {
            v.insert(e, model.binary_var(format!("v{m}_{e}")));
            // The paper declares f integer; continuous flow carries the
            // same disjoint-loop exclusion argument (equation (5) is a pure
            // balance identity) and keeps branching confined to v/pe.
            f.insert(e, model.continuous_var(format!("f{m}_{e}"), -big_m, big_m));
        }
        let mut pe = BTreeMap::new();
        let mut fp = BTreeMap::new();
        for (pid, port) in fpva.ports() {
            pe.insert(pid, model.binary_var(format!("pe{m}_{pid}")));
            if port.kind == PortKind::Source {
                fp.insert(
                    pid,
                    model.continuous_var(format!("fp{m}_{pid}"), 0.0, big_m),
                );
            }
        }
        let mut c = BTreeMap::new();
        for &cell in &cells {
            // c is determined by the degree identity (1): 2c = Σv + Σpe,
            // so integrality of v/pe forces c ∈ {0, 1} without branching.
            c.insert(cell, model.continuous_var(format!("c{m}_{cell}"), 0.0, 1.0));
        }

        // Constraint (1): an on-path cell is crossed by exactly two of its
        // incident sites (ports count as sites).
        for &cell in &cells {
            let mut deg = LinExpr::new();
            for (e, _) in fpva.neighbors(cell) {
                if let Some(&var) = v.get(&e) {
                    deg.add_term(var, 1.0);
                }
            }
            for (pid, port) in fpva.ports() {
                if port.cell == cell {
                    deg.add_term(pe[&pid], 1.0);
                }
            }
            deg.add_term(c[&cell], -2.0);
            model.add_eq(deg, 0.0);
        }
        // Each path uses exactly one source opening and one sink opening.
        let mut srcs = LinExpr::new();
        let mut snks = LinExpr::new();
        for (pid, port) in fpva.ports() {
            match port.kind {
                PortKind::Source => srcs.add_term(pe[&pid], 1.0),
                PortKind::Sink => snks.add_term(pe[&pid], 1.0),
            };
        }
        model.add_eq(srcs, 1.0);
        model.add_eq(snks, 1.0);

        // Constraint (3): flow only on used sites.
        for &e in &passable {
            model.add_leq(LinExpr::from(f[&e]) - big_m * v[&e], 0.0);
            model.add_geq(LinExpr::from(f[&e]) + big_m * v[&e], 0.0);
        }
        for (pid, &fvar) in &fp {
            model.add_leq(LinExpr::from(fvar) - big_m * pe[pid], 0.0);
        }
        // Constraint (4): every on-path cell absorbs one unit. Canonical
        // edge orientation: positive flow runs from the north-west endpoint
        // to the other one.
        for &cell in &cells {
            let mut balance = LinExpr::new();
            for (e, _) in fpva.neighbors(cell) {
                let Some(&fvar) = f.get(&e) else { continue };
                let (a, _) = e.endpoints();
                // +f into the far endpoint, -f out of the near one.
                if cell == a {
                    balance.add_term(fvar, -1.0);
                } else {
                    balance.add_term(fvar, 1.0);
                }
            }
            for (pid, port) in fpva.ports() {
                if port.kind == PortKind::Source && port.cell == cell {
                    balance.add_term(fp[&pid], 1.0);
                }
            }
            balance.add_term(c[&cell], -1.0);
            model.add_eq(balance, 0.0);
        }

        all_vars.push(PathVars { v, pe, c });
    }

    // Channel contiguity (the validator's no-bypass rule, implied by the
    // paper's Fig. 5(a) masking argument but absent from constraints
    // (1)–(8)): pressure spreads freely inside an always-open channel
    // component, so a path that leaves such a component and re-enters it
    // closes an implicit loop. A simple path visiting a component `C` in
    // `k` contiguous runs crosses C's boundary exactly `2k − t` times,
    // where `t` counts the path's endpoints (used port openings) inside
    // C — so contiguity (`k ≤ 1`) is exactly, for every multi-cell open
    // component C and every path m:
    //     Σ_{e ∈ δ(C)} v[m][e] + Σ_{ports p, cell(p) ∈ C} pe[m][p] ≤ 2.
    // Omitting the endpoint term would let a path that starts *and* ends
    // inside C split its visit in two on just 2 crossings.
    // (PR 4's engine never solved the channelled probes fast enough to
    // surface any of this; with the LU basis the k=2 probe on
    // `table1_5x5` otherwise returns a bypass "cover" the extractor must
    // reject.)
    let components = crate::connectivity::open_components(fpva);
    let mut comp_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for &cell in &cells {
        *comp_sizes
            .entry(components[fpva.cell_index(cell)])
            .or_insert(0) += 1;
    }
    for (&comp, &size) in &comp_sizes {
        if size < 2 {
            continue;
        }
        let boundary: Vec<EdgeId> = passable
            .iter()
            .copied()
            .filter(|&e| {
                let (a, b) = e.endpoints();
                (components[fpva.cell_index(a)] == comp) != (components[fpva.cell_index(b)] == comp)
            })
            .collect();
        for vars in &all_vars {
            let mut crossings = LinExpr::new();
            for &e in &boundary {
                crossings.add_term(vars.v[&e], 1.0);
            }
            for (pid, port) in fpva.ports() {
                if components[fpva.cell_index(port.cell)] == comp {
                    crossings.add_term(vars.pe[&pid], 1.0);
                }
            }
            model.add_leq(crossings, 2.0);
        }
    }

    // Constraint (2): every real valve covered by some path.
    for (_, e) in fpva.valves() {
        let mut cover = LinExpr::new();
        for vars in &all_vars {
            cover.add_term(vars.v[&e], 1.0);
        }
        model.add_geq(cover, 1.0);
    }

    // The probe is a pure feasibility question, but solving it with a
    // zero objective leaves the LP relaxation with no guidance at all:
    // fractional flow smears across the array and branch-and-bound has to
    // enumerate its way to integrality. Minimising the total number of
    // crossed sites pulls the relaxation towards short, consolidated
    // paths (any feasible integer point is still a valid cover, and
    // `stop_at_first` keeps the early-exit behaviour).
    let mut total_sites = LinExpr::new();
    for vars in &all_vars {
        for &var in vars.v.values() {
            total_sites.add_term(var, 1.0);
        }
    }
    model.set_objective(total_sites);

    // The k candidate paths are interchangeable, which makes the search
    // tree k!-fold symmetric. Ordering them by non-increasing length is
    // valid for every cover (relabel the paths) and prunes the mirrored
    // subtrees.
    for pair in all_vars.windows(2) {
        let mut diff = LinExpr::new();
        for &var in pair[0].v.values() {
            diff.add_term(var, 1.0);
        }
        for &var in pair[1].v.values() {
            diff.add_term(var, -1.0);
        }
        model.add_geq(diff, 0.0);
    }

    (model, all_vars)
}

/// Reconstructs the cell sequence of path `m` from a solved model.
fn extract_path(
    fpva: &Fpva,
    sol: &fpva_ilp::Solution,
    vars: &PathVars,
) -> Result<FlowPath, AtpgError> {
    let source = vars
        .pe
        .iter()
        .find(|(pid, &var)| fpva.port(**pid).kind == PortKind::Source && sol.is_set(var))
        .map(|(pid, _)| *pid)
        .ok_or_else(|| AtpgError::Solver {
            reason: "path without source port".into(),
        })?;
    let sink = vars
        .pe
        .iter()
        .find(|(pid, &var)| fpva.port(**pid).kind == PortKind::Sink && sol.is_set(var))
        .map(|(pid, _)| *pid)
        .ok_or_else(|| AtpgError::Solver {
            reason: "path without sink port".into(),
        })?;
    let goal = fpva.port(sink).cell;
    let mut cells = vec![fpva.port(source).cell];
    let mut prev_edge: Option<EdgeId> = None;
    loop {
        let cur = *cells.last().expect("non-empty");
        if cur == goal && (cells.len() > 1 || fpva.port(source).cell == goal) {
            break;
        }
        let next = fpva
            .neighbors(cur)
            .find(|&(e, _)| {
                Some(e) != prev_edge && vars.v.get(&e).is_some_and(|&var| sol.is_set(var))
            })
            .ok_or_else(|| AtpgError::Solver {
                reason: format!("path dead-ends at {cur}"),
            })?;
        prev_edge = Some(next.0);
        cells.push(next.1);
        if cells.len() > fpva.cell_count() + 1 {
            return Err(AtpgError::Solver {
                reason: "path extraction cycled".into(),
            });
        }
    }
    let _ = &vars.c; // c is implied by the walk; kept for debugging models
    FlowPath::new(fpva, source, sink, cells)
}

/// Aggregate solver effort of one [`min_path_cover_ilp_with_stats`] run,
/// exposed so callers (notably the `ablation` binary) can attribute
/// ILP-vs-greedy outcomes honestly: a probe that burned its budget is a
/// *limit hit*, not evidence about cover existence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpCoverStats {
    /// Feasibility probes attempted (one per candidate path count `k`).
    pub probes: usize,
    /// Probes that ended on a node/time limit without a definite answer.
    pub limit_probes: usize,
    /// Branch-and-bound nodes processed across all probes.
    pub nodes: usize,
    /// Nodes whose LP relaxation was cut short by the deadline or pivot
    /// budget (see `fpva_ilp::SolveStats::limit_nodes`).
    pub limit_nodes: usize,
    /// Simplex pivots across all probes.
    pub lp_iterations: usize,
    /// Full sparse-LU basis refactorizations across all probes.
    pub refactorizations: usize,
    /// Forrest–Tomlin basis updates applied in place across all probes.
    pub ft_updates: usize,
    /// Forrest–Tomlin updates rejected by the stability test.
    pub rejected_updates: usize,
    /// Dual simplex pivots across all probes' warm re-solves (child
    /// nodes restoring feasibility from the parent basis dually instead
    /// of restarting primal phase 1).
    pub dual_pivots: usize,
    /// Node LP solves started from a usable warm basis across all probes.
    pub warm_resolves: usize,
    /// Node LP solves whose warm basis was rejected into a cold slack
    /// start across all probes (should stay at or near zero).
    pub cold_restarts: usize,
    /// Constraints eliminated by static presolve across all probes.
    pub presolve_rows: usize,
    /// Variables eliminated by static presolve across all probes.
    pub presolve_cols: usize,
    /// Probes whose certificate passed the exact-arithmetic audit
    /// (zero unless [`PathIlpConfig::certify`] is set).
    pub certified_probes: usize,
    /// Branch-and-bound leaves re-proved exactly across all audited
    /// certificates.
    pub certificate_leaves: usize,
    /// Presolve actions audited across all certified probes.
    pub certificate_actions: usize,
    /// Probes whose certificate was rejected (or missing) — any non-zero
    /// value means a solver verdict could not be proven.
    pub certificate_failures: usize,
    /// Inert: kept only for the benchmark harness. Always zero.
    pub analysis_probes: usize,
    /// Inert: kept only for the benchmark harness. Always zero.
    pub conflict_edges: usize,
}

/// Builds the paper's "cover all valves with exactly `k` paths" model
/// without solving it — the entry point static analyses (`fpva-lint`,
/// presolve diagnostics) use to audit generated models.
pub fn cover_model(fpva: &Fpva, k: usize) -> Model {
    build_model(fpva, k).0
}

/// The constraint count [`cover_model`] is expected to produce for
/// `fpva` with `k` paths, derived structurally from the chip: per path,
/// two rows per passable edge (flow gating), two rows per non-obstacle
/// cell (degree + balance), one row per source port (injection gating),
/// two port-opening rows, and one contiguity row per multi-cell open
/// component; globally, one cover row per valve and `k − 1` symmetry
/// rows. `fpva-lint` checks the generated model against this formula —
/// a mismatch means model generation and chip structure disagree.
pub fn expected_constraint_count(fpva: &Fpva, k: usize) -> usize {
    let cells = fpva
        .cells()
        .filter(|&c| fpva.cell_kind(c) != CellKind::Obstacle)
        .count();
    let edges = fpva
        .edges()
        .filter(|&(_, kind)| kind != EdgeKind::Wall)
        .count();
    let sources = fpva.sources().count();
    let components = crate::connectivity::open_components(fpva);
    let mut comp_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for cell in fpva.cells() {
        if fpva.cell_kind(cell) != CellKind::Obstacle {
            *comp_sizes
                .entry(components[fpva.cell_index(cell)])
                .or_insert(0) += 1;
        }
    }
    let multi_cell = comp_sizes.values().filter(|&&s| s >= 2).count();
    k * (2 * cells + 2 * edges + 2 + sources + multi_cell) + fpva.valve_count() + (k - 1)
}

/// Lower bound on the number of paths any exact valve cover needs, from
/// the cut-set counting argument behind the paper's `(m−1)+(n−1)`
/// formula: a simple path visiting `t ≤ cell_count` cells traverses at
/// most `t − 1` lattice edges, and every valve sits on a lattice edge,
/// so one path covers at most `cell_count − 1` valves. The probe loop
/// starts here, and `fpva-lint` audits the model at this `k` (any
/// smaller `k` is provably infeasible).
pub fn min_cover_paths(fpva: &Fpva) -> usize {
    let per_path = fpva.cell_count().saturating_sub(1).max(1);
    fpva.valve_count().div_ceil(per_path).max(1)
}

/// Inert: kept only for the benchmark harness, which passes the result
/// to [`MilpOptions::symmetry`]. Always empty; the solver uses no
/// symmetry information.
pub fn symmetry_generators(_fpva: &Fpva, _k: usize) -> Vec<fpva_ilp::SignedPerm> {
    Vec::new()
}

/// Probes increasing path counts `k = lb, lb+1, …` and returns the first
/// feasible exact cover — the paper's minimisation strategy "(7)–(8), then
/// increase n_p when infeasible" run in the opposite (sound) direction.
///
/// # Errors
///
/// * [`AtpgError::MissingPorts`] — no source or sink;
/// * [`AtpgError::Solver`] — every probe up to
///   [`PathIlpConfig::max_paths`] was infeasible or hit its limit.
pub fn min_path_cover_ilp(fpva: &Fpva, config: &PathIlpConfig) -> Result<PathCover, AtpgError> {
    min_path_cover_ilp_with_stats(fpva, config).0
}

/// Like [`min_path_cover_ilp`], additionally reporting per-run solver
/// statistics (returned even when the cover search fails).
pub fn min_path_cover_ilp_with_stats(
    fpva: &Fpva,
    config: &PathIlpConfig,
) -> (Result<PathCover, AtpgError>, IlpCoverStats) {
    let mut stats = IlpCoverStats::default();
    if fpva.sources().next().is_none() || fpva.sinks().next().is_none() {
        return (Err(AtpgError::MissingPorts), stats);
    }
    if fpva.valve_count() == 0 {
        return (
            Ok(PathCover {
                paths: Vec::new(),
                uncovered: Vec::new(),
            }),
            stats,
        );
    }
    let lb = min_cover_paths(fpva);
    let mut limited = false;
    for k in lb..=config.max_paths {
        let (model, vars) = build_model(fpva, k);
        let solver = MilpSolver::with_options(MilpOptions {
            time_limit: Some(config.time_limit),
            node_limit: Some(config.node_limit),
            // A certified probe needs the whole tree as a proof; an
            // uncertified one can stop at the first cover.
            stop_at_first: !config.certify,
            certificate: config.certify,
            ..MilpOptions::default()
        });
        let outcome = match solver.solve(&model) {
            Ok(outcome) => outcome,
            Err(e) => {
                return (
                    Err(AtpgError::Solver {
                        reason: e.to_string(),
                    }),
                    stats,
                )
            }
        };
        stats.probes += 1;
        stats.nodes += outcome.stats.nodes;
        stats.limit_nodes += outcome.stats.limit_nodes;
        stats.lp_iterations += outcome.stats.lp_iterations;
        stats.refactorizations += outcome.stats.refactorizations;
        stats.ft_updates += outcome.stats.ft_updates;
        stats.rejected_updates += outcome.stats.rejected_updates;
        stats.dual_pivots += outcome.stats.dual_pivots;
        stats.warm_resolves += outcome.stats.warm_resolves;
        stats.cold_restarts += outcome.stats.cold_restarts;
        stats.presolve_rows += outcome.stats.presolve_rows;
        stats.presolve_cols += outcome.stats.presolve_cols;
        if config.certify
            && matches!(
                outcome.status,
                SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::Infeasible
            )
        {
            match fpva_ilp::certify_outcome(&model, &outcome) {
                Ok(summary) => {
                    stats.certified_probes += 1;
                    stats.certificate_leaves += summary.leaves;
                    stats.certificate_actions += summary.actions;
                }
                Err(_) => stats.certificate_failures += 1,
            }
        }
        match outcome.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let sol = outcome.best.expect("feasible outcome has incumbent");
                let paths = match vars
                    .iter()
                    .map(|pv| extract_path(fpva, &sol, pv))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(paths) => paths,
                    Err(e) => return (Err(e), stats),
                };
                return (
                    Ok(PathCover {
                        paths,
                        uncovered: Vec::new(),
                    }),
                    stats,
                );
            }
            SolveStatus::Infeasible => continue,
            SolveStatus::Unknown | SolveStatus::Unbounded => {
                stats.limit_probes += 1;
                limited = true;
                continue;
            }
        }
    }
    let reason = if limited {
        format!(
            "no cover proven within limits up to {} paths",
            config.max_paths
        )
    } else {
        format!("no cover exists with up to {} paths", config.max_paths)
    };
    (Err(AtpgError::Solver { reason }), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::CoverageTracker;
    use fpva_grid::{layouts, FpvaBuilder, Side};

    fn assert_exact_cover(fpva: &Fpva, cover: &PathCover) {
        let mut tracker = CoverageTracker::new(fpva);
        for p in &cover.paths {
            tracker.cover_all(p.valves(fpva));
        }
        assert!(tracker.is_complete(), "{} uncovered", tracker.remaining());
    }

    #[test]
    fn pipeline_needs_one_path() {
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 3, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let cover = min_path_cover_ilp(&f, &PathIlpConfig::default()).unwrap();
        assert_eq!(cover.paths.len(), 1);
        assert_exact_cover(&f, &cover);
    }

    #[test]
    fn two_by_two_needs_two_paths() {
        let f = layouts::full_array(2, 2);
        let cover = min_path_cover_ilp(&f, &PathIlpConfig::default()).unwrap();
        // 4 valves, longest simple corner-to-corner path covers 3 of them.
        assert_eq!(cover.paths.len(), 2);
        assert_exact_cover(&f, &cover);
    }

    #[test]
    fn three_by_three_exact() {
        let f = layouts::full_array(3, 3);
        let cover = min_path_cover_ilp(&f, &PathIlpConfig::default()).unwrap();
        assert_exact_cover(&f, &cover);
        assert!(cover.paths.len() <= 3, "{} paths", cover.paths.len());
        for p in &cover.paths {
            let unique: std::collections::HashSet<_> = p.cells().iter().collect();
            assert_eq!(unique.len(), p.len(), "ILP path must be simple");
        }
    }

    #[test]
    fn channels_are_usable_but_not_covered() {
        let f = FpvaBuilder::new(1, 4)
            .channel_horizontal(0, 1, 2)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 3, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(f.valve_count(), 2);
        let cover = min_path_cover_ilp(&f, &PathIlpConfig::default()).unwrap();
        assert_eq!(cover.paths.len(), 1);
        assert_exact_cover(&f, &cover);
    }

    #[test]
    fn expected_constraint_count_matches_generated_models() {
        for (fpva, k) in [
            (layouts::full_array(3, 3), 1),
            (layouts::full_array(4, 4), 2),
            (layouts::table1_5x5(), 2),
        ] {
            let model = cover_model(&fpva, k);
            assert_eq!(
                model.constraint_count(),
                expected_constraint_count(&fpva, k),
                "structural formula out of sync for k={k}"
            );
        }
    }

    #[test]
    fn min_cover_paths_never_exceeds_first_feasible_k() {
        // The cut-set lower bound must stay a *lower* bound: on every
        // Table I layout it may not exceed the path count the paper
        // reports as feasible, otherwise the probe loop would start
        // past the optimum and return an inflated cover.
        for entry in layouts::table1() {
            let lb = min_cover_paths(&entry.fpva);
            assert!(
                lb <= entry.paper_flow_paths,
                "table1_{}: lower bound {lb} exceeds the paper's {} paths",
                entry.name,
                entry.paper_flow_paths
            );
            assert!(lb >= 1, "table1_{}: bound must stay positive", entry.name);
        }
        // Exact values on chips small enough to reason about by hand.
        // full 2x2: 4 valves, 4 cells, ceil(4/3) = 2 — the counting
        // argument alone already forces the known two-path optimum.
        assert_eq!(min_cover_paths(&layouts::full_array(2, 2)), 2);
        assert_eq!(min_cover_paths(&layouts::full_array(3, 3)), 2);
        let pipeline = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 3, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(min_cover_paths(&pipeline), 1);
    }

    #[test]
    fn valveless_array_needs_no_paths() {
        let f = FpvaBuilder::new(1, 2)
            .channel_horizontal(0, 0, 1)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 1, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let cover = min_path_cover_ilp(&f, &PathIlpConfig::default()).unwrap();
        assert!(cover.paths.is_empty());
    }
}

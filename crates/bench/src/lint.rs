//! Static analysis of chips and their ILP cover models (`fpva-lint`).
//!
//! The checks mirror the failure modes the rest of the workspace can only
//! discover dynamically (by running ATPG or the MILP solver): valves that no
//! source→sink flow path can exercise, sinks that are unreachable even with
//! every valve open, valves without a closable cut (untestable stuck-at-1),
//! control-leak pairs with zero pressure observability, and cover models
//! whose constraint count deviates from the closed-form formula or whose
//! coefficients look numerically hostile. Everything here is static: no LP
//! is factorized and no simulation is run — the most expensive ingredient
//! is a breadth-first search or a presolve pass.

use std::collections::HashSet;
use std::fmt;
use std::time::Duration;

use fpva_atpg::{connectivity, cutset, ilp_model};
use fpva_grid::layouts;
use fpva_grid::{CellId, CellKind, EdgeId, Fpva};
use fpva_ilp::{
    certify_outcome, numerics_report, presolve, MilpOptions, MilpSolver, PresolveOutcome,
    SolveStatus,
};
use fpva_sim::ObservableLeaks;

/// How bad a [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected, informational output (e.g. presolve reduction summary).
    Info,
    /// Suspicious but not fatal: the chip works, with blind spots.
    Warning,
    /// The chip or model is broken; `fpva-lint` exits nonzero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Every check name a lint pass can emit. `fpva-lint --only` and
/// `--allow` accept exactly these names and reject anything else.
pub const CHECKS: &[&str] = &[
    "ports",
    "connectivity",
    "flow-paths",
    "cut-cover",
    "leak-observability",
    "model-shape",
    "numerics",
    "presolve",
    "path-dominance",
    "certify",
];

/// One finding of a lint pass over a chip or a cover model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// The chip or model the finding is about (e.g. `"table1_5x5"`).
    pub subject: String,
    /// Short machine-readable check name (e.g. `"cut-cover"`), one of
    /// [`CHECKS`].
    pub check: &'static str,
    /// Human-readable description, with coordinates where applicable.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}]: {}",
            self.severity, self.subject, self.check, self.message
        )
    }
}

/// The worst severity in `diags`, or `None` when the slice is empty.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Formats up to six edges as `(r,c)-(r,c)` coordinates, eliding the rest.
fn edge_list(edges: &[EdgeId]) -> String {
    const CAP: usize = 6;
    let mut parts: Vec<String> = edges
        .iter()
        .take(CAP)
        .map(std::string::ToString::to_string)
        .collect();
    if edges.len() > CAP {
        parts.push(format!("… {} more", edges.len() - CAP));
    }
    parts.join(", ")
}

/// Statically audits one chip.
///
/// Checks, in order: port presence, all-open sink reachability, stranded
/// flow cells, valves on no source→sink flow path, valves with no closable
/// cut (the `untestable_closed` set of a generated plan), and control-leak
/// pairs with zero observability.
pub fn lint_chip(name: &str, fpva: &Fpva) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let sources = connectivity::source_cells(fpva);
    let sinks = connectivity::sink_cells(fpva);
    if sources.is_empty() {
        push(
            Severity::Error,
            "ports",
            "chip has no pressure source port".into(),
        );
    }
    if sinks.is_empty() {
        push(
            Severity::Error,
            "ports",
            "chip has no pressure meter (sink) port".into(),
        );
    }
    if sources.is_empty() || sinks.is_empty() {
        return out;
    }

    // All-open reachability: the weakest possible requirement — if a sink
    // cannot see a source with every valve open, no test vector ever will.
    let open = HashSet::new();
    let from_src = connectivity::reachable_from(fpva, &sources, &open);
    let from_snk = connectivity::reachable_from(fpva, &sinks, &open);
    for (id, port) in fpva.sinks() {
        if !from_src[fpva.cell_index(port.cell)] {
            push(
                Severity::Error,
                "connectivity",
                format!(
                    "sink {id} at {} is unreachable from every source even with all valves open",
                    port.cell
                ),
            );
        }
    }
    let stranded: Vec<_> = fpva
        .cells()
        .filter(|&c| fpva.cell_kind(c) != CellKind::Obstacle && !from_src[fpva.cell_index(c)])
        .collect();
    if !stranded.is_empty() {
        push(
            Severity::Warning,
            "connectivity",
            format!(
                "{} flow cell(s) unreachable from any source, first {}",
                stranded.len(),
                stranded[0]
            ),
        );
    }

    // A valve both of whose endpoints are source- and sink-reachable can sit
    // on some source→sink walk; anything else is dead weight for flow tests.
    let dead: Vec<EdgeId> = fpva
        .valves()
        .filter(|&(_, e)| {
            let (a, b) = e.endpoints();
            ![a, b].into_iter().all(|c| {
                let ix = fpva.cell_index(c);
                from_src[ix] && from_snk[ix]
            })
        })
        .map(|(_, e)| e)
        .collect();
    if !dead.is_empty() {
        push(
            Severity::Warning,
            "flow-paths",
            format!(
                "{} valve(s) lie on no source→sink flow path: {}",
                dead.len(),
                edge_list(&dead)
            ),
        );
    }

    // Valves no source/sink cut can close: the plan generator would report
    // exactly these as `untestable_closed` (stuck-at-1 escapes).
    match cutset::cut_cover(fpva) {
        Ok(cover) if !cover.uncovered.is_empty() => {
            let edges: Vec<EdgeId> = cover.uncovered.iter().map(|&v| fpva.edge_of(v)).collect();
            push(
                Severity::Warning,
                "cut-cover",
                format!(
                    "{} valve(s) have no closable source/sink cut (untestable stuck-at-1): {}",
                    edges.len(),
                    edge_list(&edges)
                ),
            );
        }
        Ok(_) => {}
        Err(e) => push(
            Severity::Error,
            "cut-cover",
            format!("cut-set construction failed: {e}"),
        ),
    }

    // Control leaks the pressure meters can never observe.
    let pairs = ObservableLeaks::build(fpva).unobservable_pairs(fpva);
    if !pairs.is_empty() {
        push(
            Severity::Info,
            "leak-observability",
            format!(
                "{} adjacent valve pair(s) have control leaks with zero pressure observability",
                pairs.len()
            ),
        );
    }

    out
}

/// Statically audits the `k`-path ILP cover model of one chip.
///
/// Checks the generated constraint count against the closed-form formula,
/// flags numerically hostile coefficients, and runs presolve — both as a
/// reduction summary and as a certified feasibility screen (a presolve
/// `Infeasible`/`Unbounded` verdict on a cover model is always a chip bug).
pub fn lint_model(name: &str, fpva: &Fpva, k: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let model = ilp_model::cover_model(fpva, k);
    let expected = ilp_model::expected_constraint_count(fpva, k);
    if model.constraint_count() != expected {
        push(
            Severity::Error,
            "model-shape",
            format!(
                "k={k} cover model has {} constraints, closed-form count predicts {expected}",
                model.constraint_count()
            ),
        );
    }

    let rep = numerics_report(&model);
    if rep.tiny_coeffs > 0 || rep.huge_coeffs > 0 {
        push(
            Severity::Warning,
            "numerics",
            format!(
                "{} coefficient(s) below 1e-7 and {} above 1e7 (range [{:.3e}, {:.3e}])",
                rep.tiny_coeffs, rep.huge_coeffs, rep.min_abs_coeff, rep.max_abs_coeff
            ),
        );
    }

    let pre = presolve(&model);
    match pre.outcome {
        PresolveOutcome::Infeasible { reason } => push(
            Severity::Error,
            "presolve",
            format!("k={k} cover model certified infeasible without factorizing: {reason}"),
        ),
        PresolveOutcome::Unbounded => push(
            Severity::Error,
            "presolve",
            format!("k={k} cover model certified unbounded"),
        ),
        PresolveOutcome::Reduced(_) | PresolveOutcome::Solved(_) => push(
            Severity::Info,
            "presolve",
            format!(
                "k={k}: presolve removed {} of {} rows and {} of {} cols in {} pass(es)",
                pre.stats.rows_removed,
                model.constraint_count(),
                pre.stats.cols_removed,
                model.var_count(),
                pre.stats.passes
            ),
        ),
    }

    out
}

/// Ceiling on candidate paths enumerated by [`lint_paths`]; past it the
/// dominance check reports itself as partial instead of truncating
/// silently.
const PATH_ENUM_CAP: usize = 128;

/// Ceiling on DFS edge expansions of [`lint_paths`], a safety valve for
/// chips whose path space is huge but sink-sparse.
const PATH_STEP_CAP: usize = 200_000;

/// Branch-and-bound node budget per certified probe of
/// [`certify_models`] — bounds the proof tree the exact-arithmetic audit
/// must replay, since auditing costs roughly nodes × rows big-rational
/// operations.
const CERTIFY_NODE_BUDGET: usize = 2_000;

/// Depth-first enumeration of simple source→sink paths, recorded as
/// sorted edge lists. Returns `true` while under both caps.
fn enumerate_paths(
    fpva: &Fpva,
    cell: CellId,
    sinks: &HashSet<CellId>,
    visited: &mut [bool],
    edges: &mut Vec<EdgeId>,
    paths: &mut Vec<Vec<EdgeId>>,
    steps: &mut usize,
) -> bool {
    if sinks.contains(&cell) && !edges.is_empty() {
        if paths.len() == PATH_ENUM_CAP {
            return false;
        }
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        paths.push(sorted);
    }
    for (edge, next) in fpva.neighbors(cell) {
        if !connectivity::edge_passable(fpva, edge)
            || fpva.cell_kind(next) == CellKind::Obstacle
            || visited[fpva.cell_index(next)]
        {
            continue;
        }
        *steps += 1;
        if *steps > PATH_STEP_CAP {
            return false;
        }
        visited[fpva.cell_index(next)] = true;
        edges.push(edge);
        let under_cap = enumerate_paths(fpva, next, sinks, visited, edges, paths, steps);
        edges.pop();
        visited[fpva.cell_index(next)] = false;
        if !under_cap {
            return false;
        }
    }
    true
}

/// `true` when sorted slice `a` is a subset of sorted slice `b`.
fn is_subset(a: &[EdgeId], b: &[EdgeId]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

/// Detects duplicate and dominated candidate paths of the cover model.
///
/// Enumerates simple source→sink paths (the walks the k-path ILP chooses
/// among) and compares their edge sets pairwise: two candidates with
/// *identical* edge sets are duplicates (distinct port pairs routing the
/// same channel run), and a candidate whose edge set is a *strict subset*
/// of another's is dominated — every valve it can exercise, the superset
/// path exercises too, so it can only enlarge the search space, never the
/// cover. Both are warnings with `(r,c)-(r,c)` coordinates. Enumeration
/// is capped (`PATH_ENUM_CAP` paths / `PATH_STEP_CAP` expansions);
/// past a cap an info diagnostic marks the check as partial.
pub fn lint_paths(name: &str, fpva: &Fpva) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let sources = connectivity::source_cells(fpva);
    let sinks: HashSet<CellId> = connectivity::sink_cells(fpva).into_iter().collect();
    let mut paths: Vec<Vec<EdgeId>> = Vec::new();
    let mut steps = 0usize;
    let mut complete = true;
    let mut seen_starts: HashSet<CellId> = HashSet::new();
    for &start in &sources {
        if !seen_starts.insert(start) || fpva.cell_kind(start) == CellKind::Obstacle {
            continue;
        }
        let mut visited = vec![false; fpva.cell_count()];
        visited[fpva.cell_index(start)] = true;
        let mut edges = Vec::new();
        if !enumerate_paths(
            fpva,
            start,
            &sinks,
            &mut visited,
            &mut edges,
            &mut paths,
            &mut steps,
        ) {
            complete = false;
            break;
        }
    }
    if !complete {
        push(
            Severity::Info,
            "path-dominance",
            format!(
                "path enumeration truncated at {} path(s) / {steps} expansion(s); \
                 the dominance check is partial",
                paths.len()
            ),
        );
    }

    const REPORT_CAP: usize = 4;
    let mut flagged = vec![false; paths.len()];
    let mut extra = 0usize;
    for i in 0..paths.len() {
        for j in i + 1..paths.len() {
            let (kind, victim) = if paths[i] == paths[j] {
                ("duplicate of", j)
            } else if is_subset(&paths[i], &paths[j]) {
                ("dominated by", i)
            } else if is_subset(&paths[j], &paths[i]) {
                ("dominated by", j)
            } else {
                continue;
            };
            if flagged[victim] {
                continue;
            }
            flagged[victim] = true;
            if flagged.iter().filter(|&&f| f).count() > REPORT_CAP {
                extra += 1;
                continue;
            }
            let other = i + j - victim;
            push(
                Severity::Warning,
                "path-dominance",
                format!(
                    "candidate path {} is {kind} a {}-edge candidate {}",
                    edge_list(&paths[victim]),
                    paths[other].len(),
                    edge_list(&paths[other]),
                ),
            );
        }
    }
    if extra > 0 {
        push(
            Severity::Warning,
            "path-dominance",
            format!("{extra} further duplicate/dominated candidate path(s) elided"),
        );
    }
    out
}

/// Solves the chip's path-cover probes in proof-logging mode and audits
/// every returned certificate in exact rational arithmetic
/// ([`fpva_ilp::certify_outcome`]).
///
/// Up to three solves run per chip: one at `k = lb − 1`, *below* the
/// structural lower bound [`ilp_model::min_cover_paths`] — the verdict
/// must be `Infeasible` and its branch-and-bound proof must re-verify —
/// and the probe sequence at `k = lb` and `lb + 1`, whose
/// optimal/feasible/infeasible verdicts must carry certificates that
/// re-verify. A rejected
/// certificate is always an error (the solver asserted something it
/// cannot prove); a probe that exhausts `probe_budget` without a verdict
/// is only informational.
///
/// Certified solves additionally run under `CERTIFY_NODE_BUDGET`: a
/// proof tree is re-verified leaf by leaf in exact rational arithmetic,
/// so its audit cost scales with nodes × rows — a tree that outgrows the
/// budget would take longer to audit than to find. Probes that hit the
/// node budget return unproven verdicts (`Feasible`/`Unknown`), whose
/// incumbents are still audited exactly.
pub fn certify_models(name: &str, fpva: &Fpva, probe_budget: Duration) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let lb = ilp_model::min_cover_paths(fpva);
    if lb >= 2 {
        let k = lb - 1;
        let model = ilp_model::cover_model(fpva, k);
        let solver = MilpSolver::with_options(MilpOptions {
            time_limit: Some(probe_budget),
            node_limit: Some(CERTIFY_NODE_BUDGET),
            certificate: true,
            ..MilpOptions::default()
        });
        match solver.solve(&model) {
            Ok(outcome) => match outcome.status {
                SolveStatus::Infeasible => match certify_outcome(&model, &outcome) {
                    Ok(summary) => push(
                        Severity::Info,
                        "certify",
                        format!(
                            "k={k} (below the structural lower bound {lb}) proven \
                             infeasible; proof re-verified exactly ({} leaves, \
                             {} presolve action(s))",
                            summary.leaves, summary.actions
                        ),
                    ),
                    Err(e) => push(
                        Severity::Error,
                        "certify",
                        format!("k={k} infeasibility certificate rejected: {e}"),
                    ),
                },
                SolveStatus::Unknown => push(
                    Severity::Info,
                    "certify",
                    format!("k={k} infeasibility not proven within the probe budget"),
                ),
                other => push(
                    Severity::Error,
                    "certify",
                    format!(
                        "k={k} is below the structural lower bound {lb} yet the \
                         solver returned {other:?}"
                    ),
                ),
            },
            Err(e) => push(
                Severity::Error,
                "certify",
                format!("k={k} solve failed: {e}"),
            ),
        }
    }

    // Probe only k = lb and lb + 1: exact covers on the direct (flat)
    // formulation are open-ended — the paper's hierarchical flow exists
    // precisely because large direct models outgrow any solver budget —
    // so the audit pins its cost at two certified solves and reports
    // anything beyond as unprobed.
    let config = ilp_model::PathIlpConfig {
        certify: true,
        time_limit: probe_budget,
        node_limit: CERTIFY_NODE_BUDGET,
        max_paths: lb + 1,
    };
    let (cover, stats) = ilp_model::min_path_cover_ilp_with_stats(fpva, &config);
    if stats.certificate_failures > 0 {
        push(
            Severity::Error,
            "certify",
            format!(
                "{} of {} probe certificate(s) failed exact re-verification",
                stats.certificate_failures, stats.probes
            ),
        );
    } else if stats.certified_probes > 0 {
        push(
            Severity::Info,
            "certify",
            format!(
                "{} probe(s) certified exactly: {} branch-and-bound leaves re-proved, \
                 {} presolve action(s) audited",
                stats.certified_probes, stats.certificate_leaves, stats.certificate_actions
            ),
        );
    }
    match cover {
        Ok(c) => push(
            Severity::Info,
            "certify",
            format!("minimum certified cover uses {} path(s)", c.paths.len()),
        ),
        // Inconclusive, not wrong: either the budget ran out, or every
        // probed k was proven coverless — larger k are simply unprobed.
        Err(e) => push(
            Severity::Info,
            "certify",
            format!("no certified cover with at most {} path(s): {e}", lb + 1),
        ),
    }
    out
}

/// The chips exercised by the `examples/` binaries that are not already
/// Table I instances, with stable lint subject names.
pub fn example_chips() -> Vec<(&'static str, Fpva)> {
    vec![
        ("custom_biochip", layouts::custom_biochip()),
        ("full_3x3", layouts::full_array(3, 3)),
        ("full_10x10", layouts::full_array(10, 10)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_chips_lint_without_errors() {
        for entry in layouts::table1() {
            let diags = lint_chip(entry.name, &entry.fpva);
            assert!(
                max_severity(&diags) < Some(Severity::Error),
                "{}: unexpected lint error: {diags:?}",
                entry.name
            );
        }
    }

    #[test]
    fn custom_biochip_untestable_closed_flagged_with_coordinates() {
        let f = layouts::custom_biochip();
        let diags = lint_chip("custom_biochip", &f);
        let cut = diags
            .iter()
            .find(|d| d.check == "cut-cover")
            .expect("custom_biochip must trigger the cut-cover lint");
        assert_eq!(cut.severity, Severity::Warning);
        // The diagnostic must carry valve coordinates in `(r,c)-(r,c)` form.
        let uncovered = cutset::cut_cover(&f).unwrap().uncovered;
        assert!(!uncovered.is_empty());
        let first = f.edge_of(uncovered[0]).to_string();
        assert!(
            cut.message.contains(&first),
            "message {:?} lacks coordinate {first}",
            cut.message
        );
    }

    #[test]
    fn model_lint_is_clean_on_5x5() {
        let diags = lint_model("table1_5x5", &layouts::table1_5x5(), 2);
        assert!(
            max_severity(&diags) < Some(Severity::Error),
            "unexpected model lint error: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.check == "presolve" && d.severity == Severity::Info),
            "presolve summary missing: {diags:?}"
        );
    }

    #[test]
    fn chip_without_ports_is_an_error() {
        let f = fpva_grid::FpvaBuilder::new(3, 3).build().unwrap();
        let diags = lint_chip("portless", &f);
        assert_eq!(max_severity(&diags), Some(Severity::Error));
    }

    #[test]
    fn dominated_candidate_paths_flagged_with_coordinates() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        // Source at the west end, sinks midway and at the east end: the
        // short candidate's edge set is a strict subset of the long one's.
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::North, PortKind::Sink)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let diags = lint_paths("dominated", &f);
        let dom = diags
            .iter()
            .find(|d| d.check == "path-dominance" && d.severity == Severity::Warning)
            .expect("the midway-sink path must be flagged as dominated");
        assert!(
            dom.message.contains("dominated by") && dom.message.contains("(0,1)-(0,2)"),
            "message lacks verdict or coordinates: {:?}",
            dom.message
        );
    }

    #[test]
    fn full_arrays_have_no_dominated_candidates() {
        // Single source, single sink: two simple paths with the same
        // endpoints can never have nested edge sets.
        let diags = lint_paths("full_3x3", &layouts::full_array(3, 3));
        assert!(
            diags
                .iter()
                .all(|d| d.check != "path-dominance" || d.severity < Severity::Warning),
            "unexpected dominance warning: {diags:?}"
        );
    }

    #[test]
    fn certify_lint_proves_and_audits_two_by_two() {
        // 2×2 needs two paths: the probe sequence proves k=1 infeasible,
        // then k=2 optimal — both verdicts must re-verify exactly.
        let diags = certify_models(
            "full_2x2",
            &layouts::full_array(2, 2),
            Duration::from_secs(60),
        );
        assert!(
            max_severity(&diags) < Some(Severity::Error),
            "certificate audit failed: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.check == "certify" && d.message.contains("certified exactly")),
            "no certified probe reported: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("cover uses 2 path(s)")),
            "expected a two-path certified cover: {diags:?}"
        );
    }

    #[test]
    fn every_emitted_check_is_listed() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let portless = FpvaBuilder::new(3, 3).build().unwrap();
        let dominated = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::North, PortKind::Sink)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        // The chips `fpva-lint` audits, plus two that reach the error and
        // dominance findings no shipped chip triggers.
        let mut chips: Vec<(String, Fpva)> = layouts::table1()
            .into_iter()
            .map(|e| (format!("table1_{}", e.name), e.fpva))
            .chain(example_chips().into_iter().map(|(n, f)| (n.to_string(), f)))
            .collect();
        chips.push(("dominated".to_string(), dominated));
        let mut diags = lint_chip("portless", &portless);
        for (name, f) in &chips {
            diags.extend(lint_chip(name, f));
            diags.extend(lint_paths(name, f));
            diags.extend(lint_model(name, f, ilp_model::min_cover_paths(f)));
        }
        // Certifying the shipped chips takes minutes; the 2x2 reaches the
        // same `certify` check.
        diags.extend(certify_models(
            "full_2x2",
            &layouts::full_array(2, 2),
            Duration::from_secs(60),
        ));
        for d in &diags {
            assert!(CHECKS.contains(&d.check), "unlisted check: {d}");
        }
    }

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Info < Severity::Warning && Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(max_severity(&[]), None);
    }
}

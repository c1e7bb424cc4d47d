//! The `exact_cover` workload: the paper's exact path-cover MILP on full
//! 3×3, 4×4 and 5×5 arrays, and with exact-arithmetic certification on
//! 3×3 and 4×4. Every run finishes well inside its limits, so node counts
//! do not depend on timing.

use crate::measure::{secs, Report, Samples, SETUP_WINDOW};
use crate::trace::Tracer;
use crate::{passes, Run};
use fpva_atpg::ilp_model::{
    cover_model, min_cover_paths, min_path_cover_ilp_with_stats, symmetry_generators,
    IlpCoverStats, PathIlpConfig,
};
use fpva_atpg::CoverageTracker;
use fpva_grid::{layouts, Fpva};
use fpva_ilp::{certify_outcome, MilpOptions, MilpSolver, SolveStatus};
use std::collections::BTreeMap;
use std::time::Instant;

/// Array sizes solved without proof logging.
const PLAIN: [usize; 3] = [3, 4, 5];
/// Array sizes solved with `certify: true`.
const CERTIFIED: [usize; 2] = [3, 4];
/// The minimum path count every one of these arrays needs.
const PATHS: usize = 2;

struct Case {
    name: String,
    fpva: Fpva,
    config: PathIlpConfig,
}

fn cases() -> Vec<Case> {
    let case = |n: usize, certify: bool| Case {
        name: format!("full{n}{}", if certify { ".certified" } else { "" }),
        fpva: layouts::full_array(n, n),
        config: PathIlpConfig {
            certify,
            ..PathIlpConfig::default()
        },
    };
    PLAIN
        .iter()
        .map(|&n| case(n, false))
        .chain(CERTIFIED.iter().map(|&n| case(n, true)))
        .collect()
}

pub fn run(run: &Run, report: &mut Report, tracer: Option<&mut Tracer>) {
    let cases = report.sample_setup(SETUP_WINDOW, self::cases);
    match tracer {
        None => {
            passes(
                run.seconds,
                report,
                |report| {
                    report.sample_setup(SETUP_WINDOW, self::cases);
                },
                |report| untraced_pass(&cases, report),
            );
        }
        Some(tracer) => {
            let t0 = Instant::now();
            let untraced = untraced_pass(&cases, report);
            let mut traced = Vec::new();
            while traced.is_empty() || secs(t0) < run.seconds {
                traced.push(traced_pass(&cases, report, tracer));
            }
            crate::layer_metrics(
                report,
                tracer,
                &traced,
                untraced,
                &["ilp.model", "ilp.branch_bound", "ilp.certify"],
            );
            let nodes = report
                .counters
                .get("ilp.branch_bound.nodes")
                .copied()
                .unwrap_or(0);
            let bb = report.values["ilp.branch_bound.s"];
            report.value("ilp.branch_bound.nodes_per_s", nodes as f64 / bb);
        }
    }
    let layouts = report
        .timings
        .get("setup_s")
        .map_or(f64::NAN, Samples::median);
    report.value("grid.layouts.s", layouts);
}

/// The solver counters the benchmark tracks, in `IlpCoverStats` terms.
fn ilp_counters(s: &IlpCoverStats) -> [(&'static str, usize); 13] {
    [
        ("ilp.branch_bound.nodes", s.nodes),
        ("ilp.branch_bound.limit_probes", s.limit_probes),
        ("ilp.simplex.pivots", s.lp_iterations),
        ("ilp.simplex.dual_pivots", s.dual_pivots),
        ("ilp.simplex.cold_restarts", s.cold_restarts),
        ("ilp.lu.refactorizations", s.refactorizations),
        ("ilp.lu.ft_updates", s.ft_updates),
        ("ilp.presolve.rows", s.presolve_rows),
        ("ilp.presolve.cols", s.presolve_cols),
        ("ilp.analyze.probes", s.analysis_probes),
        ("ilp.analyze.conflict_edges", s.conflict_edges),
        ("ilp.certify.leaves", s.certificate_leaves),
        ("ilp.certify.failures", s.certificate_failures),
    ]
}

fn untraced_pass(cases: &[Case], report: &mut Report) -> f64 {
    let mut counters = BTreeMap::new();
    let (mut plain_s, mut certified_s) = (0.0, 0.0);
    for case in cases {
        let t0 = Instant::now();
        let out = report.call(&case.name, || {
            Ok::<_, ()>(min_path_cover_ilp_with_stats(&case.fpva, &case.config))
        });
        let t = secs(t0);
        if case.config.certify {
            certified_s += t;
        } else {
            plain_s += t;
        }
        let Some((cover, stats)) = out else { continue };
        let name = &case.name;
        let Some(cover) = report.call(name, || cover) else {
            continue;
        };
        let mut tracker = CoverageTracker::new(&case.fpva);
        for p in &cover.paths {
            tracker.cover_all(p.valves(&case.fpva));
        }
        let k = cover.paths.len();
        report.check(k == PATHS && tracker.is_complete(), || {
            format!(
                "{name}: {k} paths, cover complete: {}",
                tracker.is_complete()
            )
        });
        report.check(
            stats.certificate_failures == 0 && stats.limit_probes == 0,
            || {
                format!(
                    "{name}: {} certificate failures, {} limit probes",
                    stats.certificate_failures, stats.limit_probes
                )
            },
        );
        if case.config.certify {
            report.check(stats.certified_probes == stats.probes, || {
                format!(
                    "{name}: {} of {} probes certified",
                    stats.certified_probes, stats.probes
                )
            });
        }
        *counters.entry("vectors".to_owned()).or_insert(0) += k as u64;
        counters.insert(format!("ilp.nodes.{name}"), stats.nodes as u64);
        for (key, v) in ilp_counters(&stats) {
            *counters.entry(key.to_owned()).or_insert(0) += v as u64;
        }
    }
    report.phases("cover_s", plain_s, "certified_cover_s", certified_s);
    report.counters_from_pass(&counters);
    plain_s + certified_s
}

/// One cover run composed from the public layers, as
/// `min_path_cover_ilp_with_stats` does it: per probe `k`, the model and
/// its symmetry generators, the branch-and-bound solve, and (certified
/// runs) the exact audit. Returns the first feasible `k` and the summed
/// counters.
fn compose(case: &Case, tracer: &mut Tracer) -> Result<(usize, IlpCoverStats), String> {
    let fpva = &case.fpva;
    let c = &case.config;
    let mut s = IlpCoverStats::default();
    for k in min_cover_paths(fpva)..=c.max_paths {
        let (model, symmetry) = tracer.span("ilp.model", |_| {
            (cover_model(fpva, k), symmetry_generators(fpva, k))
        });
        let solver = MilpSolver::with_options(MilpOptions {
            time_limit: Some(c.time_limit),
            node_limit: Some(c.node_limit),
            stop_at_first: !c.certify,
            certificate: c.certify,
            symmetry,
            ..MilpOptions::default()
        });
        let outcome = tracer
            .span("ilp.branch_bound", |_| solver.solve(&model))
            .map_err(|e| e.to_string())?;
        let o = &outcome.stats;
        s.probes += 1;
        s.nodes += o.nodes;
        s.lp_iterations += o.lp_iterations;
        s.dual_pivots += o.dual_pivots;
        s.cold_restarts += o.cold_restarts;
        s.refactorizations += o.refactorizations;
        s.ft_updates += o.ft_updates;
        s.presolve_rows += o.presolve_rows;
        s.presolve_cols += o.presolve_cols;
        s.analysis_probes += o.analysis.probes;
        s.conflict_edges += o.analysis.conflict_edges;
        let terminal = matches!(
            outcome.status,
            SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::Infeasible
        );
        if c.certify && terminal {
            match tracer.span("ilp.certify", |_| certify_outcome(&model, &outcome)) {
                Ok(summary) => {
                    s.certified_probes += 1;
                    s.certificate_leaves += summary.leaves;
                }
                Err(_) => s.certificate_failures += 1,
            }
        }
        match outcome.status {
            SolveStatus::Optimal | SolveStatus::Feasible => return Ok((k, s)),
            SolveStatus::Infeasible => {}
            SolveStatus::Unknown | SolveStatus::Unbounded => s.limit_probes += 1,
        }
    }
    Err(format!("no cover up to {} paths", c.max_paths))
}

fn traced_pass(cases: &[Case], report: &mut Report, tracer: &mut Tracer) -> usize {
    let pass = tracer.next_pass();
    let composed: Vec<_> = tracer.span("pass", |tracer| {
        cases
            .iter()
            .map(|case| tracer.span("cover", |tracer| compose(case, tracer)))
            .collect()
    });
    let mut counters = BTreeMap::new();
    for (case, out) in cases.iter().zip(composed) {
        match out {
            Ok((k, stats)) => {
                *counters.entry("vectors".to_owned()).or_insert(0) += k as u64;
                counters.insert(format!("ilp.nodes.{}", case.name), stats.nodes as u64);
                for (key, v) in ilp_counters(&stats) {
                    *counters.entry(key.to_owned()).or_insert(0) += v as u64;
                }
            }
            Err(e) => {
                report.check(false, || format!("{}: traced cover: {e}", case.name));
            }
        }
    }
    // The composed layers must reproduce the library's own runs exactly.
    let first = report.counters.clone();
    report.check(counters == first, || {
        format!(
            "traced layers differ from min_path_cover_ilp_with_stats: {counters:?} vs {first:?}"
        )
    });
    pass
}

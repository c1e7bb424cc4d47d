//! The `table1` and `flow_layer` workloads: chip → `TestPlan` →
//! `TestSuite`, then the exhaustive audits, over a fixed chip set.

use crate::measure::{dur, secs, Report, Samples, SETUP_WINDOW};
use crate::trace::Tracer;
use crate::{passes, Run};
use fpva_atpg::cutset::cut_cover;
use fpva_atpg::hierarchy::{hierarchical_cover, HierarchyConfig};
use fpva_atpg::leakage::{leakage_vectors, pair_untestable, LeakageCover};
use fpva_atpg::{Atpg, AtpgConfig, CutSet, FlowPath, TestPlan};
use fpva_grid::{layouts, Fpva, ValveId};
use fpva_sim::{audit, CoverageReport, Fault, TestSuite};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed the plan generator derives its leakage-stage seed with, as in
/// `Atpg::generate`.
const LEAKAGE_SEED_MIX: u64 = 0x5EAF;

struct Chip {
    name: String,
    fpva: Fpva,
    /// Table I's cut-set count, checked against the plan.
    paper_cut_sets: Option<usize>,
}

struct Workload {
    chips: Vec<Chip>,
    config: AtpgConfig,
    /// `table1` audits leaks and tolerates certified-untestable faults;
    /// `flow_layer` requires complete plans.
    table1: bool,
}

fn table1_chips() -> Vec<Chip> {
    layouts::table1()
        .into_iter()
        .map(|e| Chip {
            name: e.name.to_owned(),
            fpva: e.fpva,
            paper_cut_sets: Some(e.paper_cut_sets),
        })
        .collect()
}

fn flow_layer_chips() -> Vec<Chip> {
    (10..=40)
        .map(|n| Chip {
            name: format!("full{n}"),
            fpva: layouts::full_array(n, n),
            paper_cut_sets: None,
        })
        .collect()
}

/// The three generator stages of one plan plus its suite, as composed by
/// the traced run.
struct Parts {
    paths: Vec<FlowPath>,
    uncovered_open: Vec<ValveId>,
    cuts: Vec<CutSet>,
    uncovered_closed: Vec<ValveId>,
    leak: LeakageCover,
    suite: TestSuite,
}

pub fn run(run: &Run, table1: bool, report: &mut Report, tracer: Option<&mut Tracer>) {
    let build = if table1 {
        table1_chips
    } else {
        flow_layer_chips
    };
    let chips = report.sample_setup(SETUP_WINDOW, build);
    let config = AtpgConfig {
        leakage: table1,
        ..AtpgConfig::default()
    };
    let w = Workload {
        chips,
        config,
        table1,
    };
    match tracer {
        None => {
            passes(
                run.seconds,
                report,
                |report| {
                    report.sample_setup(SETUP_WINDOW, build);
                },
                |report| untraced_pass(&w, report),
            );
        }
        Some(tracer) => traced_run(run, &w, report, tracer),
    }
    let layouts = report
        .timings
        .get("setup_s")
        .map_or(f64::NAN, Samples::median);
    report.value("grid.layouts.s", layouts);
}

/// One untraced pass: plan + suite per chip (`plan_s`), then the audits
/// (`audit_s`). Returns the pass's wall time.
fn untraced_pass(w: &Workload, report: &mut Report) -> f64 {
    let atpg = Atpg::with_config(w.config.clone());
    let mut counters = BTreeMap::new();
    let (mut plan_s, mut audit_s) = (0.0, 0.0);
    for chip in &w.chips {
        let t0 = Instant::now();
        let built = report.call(&format!("{}: plan", chip.name), || {
            atpg.generate(&chip.fpva).map(|plan| {
                let suite = plan.to_suite(&chip.fpva);
                (plan, suite)
            })
        });
        plan_s += secs(t0);
        let Some((plan, suite)) = built else { continue };
        let t0 = Instant::now();
        let audits = audit_chip(w, chip, &suite, report);
        audit_s += secs(t0);
        if let Some((single, leak)) = audits {
            check_plan(w, chip, &plan, &single, leak.as_ref(), report);
            count_plan(&mut counters, chip, &plan, &single, leak.as_ref());
        }
    }
    report.phases("plan_s", plan_s, "audit_s", audit_s);
    report.counters_from_pass(&counters);
    plan_s + audit_s
}

type Audits = (CoverageReport<Fault>, Option<CoverageReport<Fault>>);

fn audit_chip(w: &Workload, chip: &Chip, suite: &TestSuite, report: &mut Report) -> Option<Audits> {
    report.call(&format!("{}: audit", chip.name), || {
        let single = audit::single_fault_coverage(&chip.fpva, suite);
        let leak = w.table1.then(|| audit::leak_coverage(&chip.fpva, suite));
        Ok::<_, ()>((single, leak))
    })
}

fn check_plan(
    w: &Workload,
    chip: &Chip,
    plan: &TestPlan,
    single: &CoverageReport<Fault>,
    leak: Option<&CoverageReport<Fault>>,
    report: &mut Report,
) {
    let name = &chip.name;
    if w.table1 {
        // Every fault the audit misses must be one the plan lists as
        // untestable, and every listed pair must be physically untestable.
        let listed = |f: &Fault| match *f {
            Fault::StuckAt0(v) => plan.untestable_open().contains(&v),
            Fault::StuckAt1(v) => plan.untestable_closed().contains(&v),
            Fault::ControlLeak { actuator, victim } => {
                plan.untestable_pairs().contains(&(actuator, victim))
            }
        };
        let missed: Vec<&Fault> = single
            .undetected
            .iter()
            .chain(leak.into_iter().flat_map(|l| &l.undetected))
            .filter(|f| !listed(f))
            .collect();
        report.check(missed.is_empty(), || {
            format!("{name}: audit misses unlisted faults {missed:?}")
        });
        let bad: Vec<_> = plan
            .untestable_pairs()
            .iter()
            .filter(|&&(a, b)| !pair_untestable(&chip.fpva, a, b))
            .collect();
        report.check(bad.is_empty(), || {
            format!("{name}: listed leak pairs are testable {bad:?}")
        });
        if let Some(n_c) = chip.paper_cut_sets {
            let got = plan.cut_sets().len();
            report.check(got == n_c, || format!("{name}: n_c {got} != Table I {n_c}"));
        }
    } else {
        report.check(single.is_complete(), || {
            format!("{name}: single-fault audit misses {:?}", single.undetected)
        });
        let listed = untestable(plan);
        report.check(listed == 0, || {
            format!("{name}: {listed} untestable entries on a full array")
        });
    }
}

fn untestable(plan: &TestPlan) -> usize {
    plan.untestable_open().len() + plan.untestable_closed().len() + plan.untestable_pairs().len()
}

/// `n_p − 2·⌈n/b⌉` summed over both axes: flow paths beyond the one path
/// per row band and per column band that bands alone would need.
fn over_band_bound(fpva: &Fpva, paths: usize) -> i64 {
    let b = HierarchyConfig::default().resolved_block_size(fpva);
    let bands = fpva.rows().div_ceil(b) + fpva.cols().div_ceil(b);
    paths as i64 - bands as i64
}

fn count_plan(
    counters: &mut BTreeMap<String, u64>,
    chip: &Chip,
    plan: &TestPlan,
    single: &CoverageReport<Fault>,
    leak: Option<&CoverageReport<Fault>>,
) {
    let mut add = |k: &str, v: usize| *counters.entry(k.to_owned()).or_insert(0) += v as u64;
    add("vectors", plan.vector_count());
    add("untestable_faults", untestable(plan));
    add("atpg.hierarchy.paths", plan.flow_paths().len());
    add("atpg.hierarchy.uncovered", plan.untestable_open().len());
    add("atpg.cutset.cuts", plan.cut_sets().len());
    add("atpg.cutset.uncovered", plan.untestable_closed().len());
    add("atpg.leakage.vectors", plan.leakage_paths().len());
    add(
        "atpg.leakage.uncovered_pairs",
        plan.untestable_pairs().len(),
    );
    add("sim.audit.word_passes", single.stats.word_passes);
    if let Some(leak) = leak {
        add("sim.audit.word_passes", leak.stats.word_passes);
    }
    // Counters are unsigned; the bound excess can only be negative on
    // chips whose bands cover more than one axis band per path, which
    // the Table I and full arrays never do.
    let over = over_band_bound(&chip.fpva, plan.flow_paths().len()).max(0);
    add("atpg.hierarchy.over_band_bound", over as usize);
}

/// The plan stages called one at a time, with the seeds and tries
/// `Atpg::generate` uses, each inside its own span.
fn compose(w: &Workload, chip: &Chip, tracer: &mut Tracer) -> Result<Parts, String> {
    let c = &w.config;
    let fpva = &chip.fpva;
    let hc = HierarchyConfig {
        block_size: c.block_size,
        seed: c.seed,
        tries: c.tries,
    };
    let cover = tracer
        .span("atpg.hierarchy", |_| hierarchical_cover(fpva, &hc))
        .map_err(|e| format!("{e:?}"))?;
    let cut = tracer
        .span("atpg.cutset", |_| cut_cover(fpva))
        .map_err(|e| format!("{e:?}"))?;
    let leak = if c.leakage {
        tracer
            .span("atpg.leakage", |_| {
                leakage_vectors(fpva, &cover.paths, c.seed ^ LEAKAGE_SEED_MIX, c.tries)
            })
            .map_err(|e| format!("{e:?}"))?
    } else {
        LeakageCover {
            paths: Vec::new(),
            uncovered_pairs: Vec::new(),
        }
    };
    // `TestPlan::to_suite`: flow paths, then cut-sets, then leakage
    // vectors, with golden responses.
    let suite = tracer.span("sim.suite", |_| {
        let vectors = cover
            .paths
            .iter()
            .map(|p| p.to_vector(fpva))
            .chain(cut.cuts.iter().map(|k| k.to_vector(fpva)))
            .chain(leak.paths.iter().map(|p| p.to_vector(fpva)))
            .collect();
        TestSuite::new(fpva, vectors)
    });
    Ok(Parts {
        paths: cover.paths,
        uncovered_open: cover.uncovered,
        cuts: cut.cuts,
        uncovered_closed: cut.uncovered,
        leak,
        suite,
    })
}

/// Checks that the composed stages reproduce `Atpg::generate`'s plan
/// exactly.
fn same_plan(parts: &Parts, plan: &TestPlan, suite: &TestSuite) -> bool {
    parts.paths == plan.flow_paths()
        && parts.cuts == plan.cut_sets()
        && parts.leak.paths == plan.leakage_paths()
        && parts.leak.uncovered_pairs == plan.untestable_pairs()
        && parts.uncovered_open == plan.untestable_open()
        && parts.uncovered_closed == plan.untestable_closed()
        && parts.suite == *suite
}

fn traced_pass(w: &Workload, report: &mut Report, tracer: &mut Tracer, verify: bool) -> usize {
    let pass = tracer.next_pass();
    let mut composed: Vec<Result<Parts, String>> = Vec::with_capacity(w.chips.len());
    tracer.span("pass", |tracer| {
        for chip in &w.chips {
            composed.push(tracer.span("chip", |tracer| {
                let parts = compose(w, chip, tracer)?;
                tracer.span("sim.audit.single", |_| {
                    audit::single_fault_coverage(&chip.fpva, &parts.suite)
                });
                if w.table1 {
                    tracer.span("sim.audit.leak", |_| {
                        audit::leak_coverage(&chip.fpva, &parts.suite)
                    });
                }
                Ok(parts)
            }));
        }
    });
    // Phase totals of `Atpg::generate` (`GenerationStats`), to set next to
    // the traced spans of the same stages.
    let mut stats_phases = [0.0f64; 3];
    for (chip, parts) in w.chips.iter().zip(composed) {
        let parts = match parts {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || format!("{}: traced plan: {e}", chip.name));
                continue;
            }
        };
        if !verify {
            continue;
        }
        let atpg = Atpg::with_config(w.config.clone());
        let Some(plan) = report.call(&chip.name, || atpg.generate(&chip.fpva)) else {
            continue;
        };
        let suite = plan.to_suite(&chip.fpva);
        report.check(same_plan(&parts, &plan, &suite), || {
            format!("{}: traced stages differ from Atpg::generate", chip.name)
        });
        let s = plan.stats();
        stats_phases[0] += dur(s.t_paths);
        stats_phases[1] += dur(s.t_cuts);
        stats_phases[2] += dur(s.t_leakage);
    }
    if verify {
        for (name, stats) in ["atpg.hierarchy", "atpg.cutset", "atpg.leakage"]
            .into_iter()
            .zip(stats_phases)
        {
            let traced = tracer.total(pass, name);
            report.check(phase_times_agree(traced, stats), || {
                format!("{name}: traced {traced:.4}s vs GenerationStats {stats:.4}s")
            });
        }
    }
    pass
}

/// Wall-clock agreement between a traced stage and the matching
/// `GenerationStats` phase: within a factor of two, or 20 ms for stages
/// too short to time reliably.
fn phase_times_agree(traced: f64, stats: f64) -> bool {
    (traced - stats).abs() <= 0.02_f64.max(0.5 * traced.max(stats))
}

fn traced_run(run: &Run, w: &Workload, report: &mut Report, tracer: &mut Tracer) {
    let t0 = Instant::now();
    let untraced = untraced_pass(w, report);
    let mut traced = Vec::new();
    while traced.is_empty() || secs(t0) < run.seconds {
        traced.push(traced_pass(w, report, tracer, traced.is_empty()));
    }
    crate::layer_metrics(report, tracer, &traced, untraced, &LAYERS);
}

/// Span names reported as per-layer self times on these workloads.
const LAYERS: [&str; 6] = [
    "atpg.hierarchy",
    "atpg.cutset",
    "atpg.leakage",
    "sim.suite",
    "sim.audit.single",
    "sim.audit.leak",
];

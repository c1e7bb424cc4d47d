//! The `campaign` workload: the paper's Section IV fault-injection
//! experiment on all five Table I plans, plus the exhaustive
//! stuck-at-0 × stuck-at-1 pair audit on the same five. Plans, suites and `ChipContext` are
//! built in set-up, so a pass times only the bit kernel and the pool.

use crate::measure::{secs, Report, Samples};
use crate::trace::Tracer;
use crate::{passes, Run};
use fpva_atpg::Atpg;
use fpva_grid::{layouts, Fpva};
use fpva_sim::campaign::{self, CampaignConfig, CampaignRow, ChipContext};
use fpva_sim::{audit, KernelStats, TestSuite};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trials per fault count, as in the paper.
const TRIALS: usize = 10_000;
/// Fault counts, one campaign row each, as in the paper.
const FAULT_COUNTS: [usize; 5] = [1, 2, 3, 4, 5];
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

struct Chip {
    name: &'static str,
    fpva: Fpva,
    suite: TestSuite,
    ctx: ChipContext,
}

fn config(run: &Run, threads: usize) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        fault_counts: FAULT_COUNTS.to_vec(),
        seed: run.seed,
        include_control_leaks: true,
        threads,
        ..CampaignConfig::default()
    }
}

/// Chips, plans, suites and campaign contexts; `None` if a plan failed.
fn setup(run: &Run, report: &mut Report) -> Option<Vec<Chip>> {
    let (mut total, mut layouts_s, mut ctx_s) = (Samples::default(), 0.0, 0.0);
    let mut chips = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let entries = layouts::table1();
        let (layouts_t, mut ctx_t) = (secs(t0), 0.0);
        let mut built = Vec::new();
        for e in entries {
            let plan = report.call(e.name, || Atpg::new().generate(&e.fpva))?;
            let suite = plan.to_suite(&e.fpva);
            let t1 = Instant::now();
            let ctx = ChipContext::par_build(&e.fpva, run.threads);
            ctx_t += secs(t1);
            built.push(Chip {
                name: e.name,
                fpva: e.fpva,
                suite,
                ctx,
            });
        }
        total.push(secs(t0));
        layouts_s += layouts_t / SETUPS as f64;
        ctx_s += ctx_t / SETUPS as f64;
        chips = Some(built);
    }
    report.timings.insert("setup_s".to_owned(), total);
    report.value("grid.layouts.s", layouts_s);
    report.value("sim.campaign.ctx.s", ctx_s);
    chips
}

pub fn run(run: &Run, report: &mut Report, tracer: Option<&mut Tracer>) {
    let Some(chips) = setup(run, report) else {
        return;
    };
    let vectors: usize = chips.iter().map(|c| c.suite.len()).sum();
    let pairs: usize = chips
        .iter()
        .map(|c| {
            let nv = c.fpva.valve_count();
            nv * (nv - 1)
        })
        .sum();
    match tracer {
        None => {
            passes(
                run.seconds,
                report,
                |_| {},
                |report| untraced_pass(run, &chips, vectors, report),
            );
        }
        Some(tracer) => {
            let t0 = Instant::now();
            let untraced = untraced_pass(run, &chips, vectors, report);
            let mut traced = Vec::new();
            while traced.is_empty() || secs(t0) < run.seconds {
                traced.push(traced_pass(run, &chips, tracer));
            }
            let first = tracer.total(traced[0], "sim.campaign");
            check_determinism(run, &chips, first, report);
            crate::layer_metrics(
                report,
                tracer,
                &traced,
                untraced,
                &["sim.campaign", "sim.audit.pairs"],
            );
            let campaign_s = report.values["sim.campaign.s"];
            let pairs_s = report.values["sim.audit.pairs.s"];
            report.value("sim.campaign.trials_per_s", trials() as f64 / campaign_s);
            report.value("sim.audit.pairs_per_s", pairs as f64 / pairs_s);
        }
    }
    let blocks = report
        .counters
        .get("sim.bitsim.blocks")
        .copied()
        .unwrap_or(0);
    let lanes = report
        .counters
        .get("sim.bitsim.lanes")
        .copied()
        .unwrap_or(0);
    report.value(
        "sim.bitsim.lane_fill",
        lanes as f64 / (64 * blocks.max(1)) as f64,
    );
    let main = report
        .timings
        .get("campaign_s")
        .map_or(f64::NAN, Samples::median);
    let check = report
        .timings
        .get("pair_audit_s")
        .map_or(f64::NAN, Samples::median);
    report.value("trials_per_s", trials() as f64 / main);
    report.value("pairs_per_s", pairs as f64 / check);
}

fn trials() -> usize {
    TRIALS * FAULT_COUNTS.len() * layouts::table1().len()
}

fn check_rows(report: &mut Report, chip: &Chip, rows: &[CampaignRow]) {
    for row in rows {
        report.check(row.all_detected(), || {
            format!(
                "{}: {} of {} trials with {} faults escaped, e.g. {:?}",
                chip.name,
                row.trials - row.detected,
                row.trials,
                row.fault_count,
                row.escapes.first()
            )
        });
    }
}

fn add_stats(counters: &mut BTreeMap<String, u64>, prefix: &str, s: &KernelStats) {
    for (k, v) in [
        ("blocks", s.blocks),
        ("word_passes", s.word_passes),
        ("lanes", s.lanes),
    ] {
        *counters.entry(format!("{prefix}.{k}")).or_insert(0) += v as u64;
    }
}

fn untraced_pass(run: &Run, chips: &[Chip], vectors: usize, report: &mut Report) -> f64 {
    let config = config(run, run.threads);
    let mut counters = BTreeMap::new();
    counters.insert("vectors".to_owned(), vectors as u64);
    let t0 = Instant::now();
    let mut results = Vec::new();
    for chip in chips {
        let out = report.call(chip.name, || {
            Ok::<_, ()>(campaign::run_in(
                &chip.fpva,
                &chip.suite,
                &config,
                &chip.ctx,
            ))
        });
        results.push(out);
    }
    let campaign_s = secs(t0);
    let t0 = Instant::now();
    let mut audits = Vec::new();
    for chip in chips {
        let out = report.call(chip.name, || {
            Ok::<_, ()>(audit::two_fault_audit(&chip.fpva, &chip.suite, run.threads))
        });
        audits.push((chip, out));
    }
    let pairs_s = secs(t0);
    for (chip, out) in chips.iter().zip(results) {
        if let Some((rows, stats)) = out {
            check_rows(report, chip, &rows);
            add_stats(&mut counters, "sim.bitsim", &stats);
        }
    }
    for (chip, out) in audits {
        if let Some(r) = out {
            report.check(r.is_complete(), || {
                format!("{}: undetected pairs {:?}", chip.name, r.undetected)
            });
            *counters
                .entry("sim.audit.pairs.word_passes".to_owned())
                .or_insert(0) += r.stats.word_passes as u64;
        }
    }
    report.phases("campaign_s", campaign_s, "pair_audit_s", pairs_s);
    report.counters_from_pass(&counters);
    campaign_s + pairs_s
}

fn traced_pass(run: &Run, chips: &[Chip], tracer: &mut Tracer) -> usize {
    let config = config(run, run.threads);
    let pass = tracer.next_pass();
    tracer.span("pass", |tracer| {
        for chip in chips {
            tracer.span("sim.campaign", |_| {
                campaign::run_in(&chip.fpva, &chip.suite, &config, &chip.ctx)
            });
        }
        for chip in chips {
            tracer.span("sim.audit.pairs", |_| {
                audit::two_fault_audit(&chip.fpva, &chip.suite, run.threads)
            });
        }
    });
    pass
}

/// The determinism contract: rows and kernel counters at one worker equal
/// those at `run.threads` workers. Also yields `sim.exec.speedup`, the
/// one-worker time over the pooled time `pooled_s`.
fn check_determinism(run: &Run, chips: &[Chip], pooled_s: f64, report: &mut Report) {
    let (serial, pooled) = (config(run, 1), config(run, run.threads));
    let mut serial_s = 0.0;
    for chip in chips {
        let t0 = Instant::now();
        let one = campaign::run_in(&chip.fpva, &chip.suite, &serial, &chip.ctx);
        serial_s += secs(t0);
        let many = campaign::run_in(&chip.fpva, &chip.suite, &pooled, &chip.ctx);
        report.check(one == many, || {
            format!(
                "{}: campaign rows or kernel stats differ between 1 and {} workers",
                chip.name, run.threads
            )
        });
    }
    report.value("sim.exec.speedup", serial_s / pooled_s);
}

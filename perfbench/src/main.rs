//! End-to-end and per-layer benchmark of the FPVA workspace.
//!
//! `fpva-perfbench --workload <table1|flow_layer|campaign|exact_cover>
//! --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]`
//!
//! Runs one workload in a closed loop (one pass over a fixed input set,
//! repeated until `--seconds` have elapsed), checks every output it times,
//! and prints one JSON object on its last line. With `--trace 1` it calls
//! the layers one at a time inside spans and reports per-layer self times
//! and counters instead; the spans go to `--trace-out`. `perfbench/run.py`
//! builds this binary and turns its output into the benchmark's result.

mod campaign;
mod exact_cover;
mod measure;
mod plans;
mod trace;

use measure::{secs, Report, Samples};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Settings of one run.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads for the campaign and pair audit pools: one per CPU.
    pub threads: usize,
}

/// Runs `setup` and then `pass` until `seconds` have elapsed, at least
/// once (the last pass may overrun), and records the median over the
/// passes of each pass's peak resident set as `peak_rss_mb`.
pub fn passes(
    seconds: f64,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report),
    mut pass: impl FnMut(&mut Report) -> f64,
) {
    let t0 = Instant::now();
    let mut peaks = Samples::default();
    while peaks.len() == 0 || secs(t0) < seconds {
        setup(report);
        measure::reset_peak_rss();
        pass(report);
        peaks.push(measure::peak_rss_mib().unwrap_or(f64::NAN));
    }
    report.value("peak_rss_mb", peaks.median());
}

/// Per-layer self times (median over the traced passes) and the tracing
/// overhead against one untraced pass of the same work.
pub fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    traced: &[usize],
    untraced: f64,
    layers: &[&'static str],
) {
    for layer in layers {
        let mut s = Samples::default();
        for &pass in traced {
            s.push(tracer.self_times(pass).get(layer).copied().unwrap_or(0.0));
        }
        report.value(&format!("{layer}.s"), s.median());
    }
    let mut total = Samples::default();
    for &pass in traced {
        total.push(tracer.total(pass, "pass"));
    }
    report.value("trace.overhead", total.median() / untraced - 1.0);
}

struct Args {
    workload: String,
    run: Run,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: Run {
            seed,
            seconds,
            threads: fpva_sim::exec::resolve_threads(0),
        },
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fpva-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::new);
    let run = &args.run;
    match args.workload.as_str() {
        "table1" => plans::run(run, true, &mut report, tracer.as_mut()),
        "flow_layer" => plans::run(run, false, &mut report, tracer.as_mut()),
        "campaign" => campaign::run(run, &mut report, tracer.as_mut()),
        "exact_cover" => exact_cover::run(run, &mut report, tracer.as_mut()),
        w => {
            eprintln!("fpva-perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    }
    if let (Some(tracer), Some(path)) = (&tracer, &args.trace_out) {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            eprintln!("fpva-perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    for (k, v) in report.counters.clone() {
        report.value(&k, v as f64);
    }
    report.value(
        "fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let meta = [
        ("workload", measure::quote(&args.workload)),
        ("seed", run.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", measure::num(run.seconds)),
        ("threads", run.threads.to_string()),
        ("nproc", run.threads.to_string()),
    ];
    println!("{}", report.to_json(&meta));
    ExitCode::SUCCESS
}

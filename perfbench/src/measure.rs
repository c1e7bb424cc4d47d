//! Run bookkeeping: timing samples, checked operations, counters and the
//! JSON result that `run.py` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seconds of set-up builds timed before each pass on workloads whose
/// set-up is too short to time once.
pub const SETUP_WINDOW: f64 = 0.2;

/// Wall-clock samples of one timing, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.0.push(seconds);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest whole percentile with at least ten samples beyond it,
    /// and the sample at that rank; `None` below 20 samples.
    pub fn tail(&self) -> Option<(usize, f64)> {
        let v = self.sorted();
        let n = v.len();
        if n < 20 {
            return None;
        }
        let pct = (100 * (n - 10)) / n;
        let rank = (pct * n).div_ceil(100).clamp(1, n) - 1;
        Some((pct, v[rank]))
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

pub fn dur(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (timed calls and their output checks).
    pub attempted: u64,
    /// Operations that panicked, returned an error or failed a check.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Timings by metric name.
    pub timings: BTreeMap<String, Samples>,
    /// Non-timing metric values by name (rates, counts, ratios).
    pub values: BTreeMap<String, f64>,
    /// Deterministic counters; they must repeat exactly across passes and
    /// runs.
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    pub fn time(&mut self, name: &str, seconds: f64) {
        self.timings
            .entry(name.to_owned())
            .or_default()
            .push(seconds);
    }

    /// Records one pass's two phases under their names and their sum as
    /// `pass_s`.
    pub fn phases(&mut self, main: &str, main_s: f64, check: &str, check_s: f64) {
        self.time(main, main_s);
        self.time(check, check_s);
        self.time("pass_s", main_s + check_s);
    }

    /// Times `build` once per repetition, at least once and until
    /// `window` seconds have passed, adds each time to `setup_s`, and
    /// returns the last result built. Workloads whose set-up takes
    /// microseconds call this before every pass, so `setup_s` samples the
    /// machine over the whole run, as `pass_s` does.
    pub fn sample_setup<T>(&mut self, window: f64, mut build: impl FnMut() -> T) -> T {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            let built = std::hint::black_box(build());
            self.time("setup_s", secs(t0));
            if secs(start) >= window {
                return built;
            }
        }
    }

    pub fn value(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_owned(), v);
    }

    /// Records one checked operation: `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Runs one timed call; a panic or an `Err` counts as a failed
    /// operation and yields `None`. The call itself is counted by the
    /// output check that follows it, so only failures are counted here.
    pub fn call<T, E: std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.check(false, || format!("{what}: error {e:?}"));
                None
            }
            Err(_) => {
                self.check(false, || format!("{what}: panicked"));
                None
            }
        }
    }

    /// Folds one pass's counters in: the first pass sets them, every later
    /// pass must reproduce them exactly.
    pub fn counters_from_pass(&mut self, pass: &BTreeMap<String, u64>) {
        if self.counters.is_empty() {
            self.counters = pass.clone();
            return;
        }
        let same = self.counters == *pass;
        let first = self.counters.clone();
        self.check(same, || {
            format!("deterministic counters changed between passes: {first:?} vs {pass:?}")
        });
    }

    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut s = String::from("{");
        for (k, v) in meta {
            let _ = write!(s, "{}:{},", quote(k), v);
        }
        let _ = write!(
            s,
            "\"attempted\":{},\"failed\":{},\"failures\":[{}],",
            self.attempted,
            self.failed,
            self.failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(",")
        );
        s.push_str("\"timings\":{");
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(k, t)| {
                let tail = t
                    .tail()
                    .map_or("null".to_owned(), |(p, v)| format!("[{p},{}]", num(v)));
                format!(
                    "{}:{{\"median\":{},\"samples\":{},\"tail\":{tail}}}",
                    quote(k),
                    num(t.median()),
                    t.len()
                )
            })
            .collect();
        s.push_str(&timings.join(","));
        s.push_str("},\"values\":{");
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
            .collect();
        s.push_str(&values.join(","));
        s.push_str("},\"counters\":{");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        s.push_str(&counters.join(","));
        s.push_str("}}");
        s
    }
}

/// A JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, where the platform allows it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

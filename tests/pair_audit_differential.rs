//! Differential tests for the pairwise two-fault audit: the bit-parallel
//! kernel (activation pruning plus single-fault table lookups) must report
//! the same `total` and the same `undetected` list, byte for byte and in
//! the same order, as the scalar oracle.
//!
//! Each chip is audited under its full plan suite and under prefixes of
//! it, so that many pairs stay undetected and the list is a real check.
//! The 5x5 and 10x10 Table I chips and the multi-sink example chip run on
//! every `cargo test`; 15x15 is `#[ignore]`d (the scalar oracle dominates
//! debug runs) and run by CI in release via `--include-ignored`.

use fpva::sim::audit;
use fpva::{layouts, Atpg, Fpva, SimKernel, TestSuite};

/// The chip's plan suite and its prefixes of ½, ¼ and 5 vectors.
fn suites(fpva: &Fpva) -> Vec<TestSuite> {
    let full = Atpg::new()
        .generate(fpva)
        .expect("plan generates")
        .to_suite(fpva);
    let n = full.len();
    let mut lens = vec![n, n / 2, n / 4, 5];
    lens.retain(|&len| len <= n);
    lens.dedup();
    lens.into_iter()
        .map(|len| TestSuite::new(fpva, full.vectors()[..len].to_vec()))
        .collect()
}

/// Bit-parallel vs scalar on every suite; the bit-parallel report must
/// also be identical, stats included, at 1, 2 and 8 threads.
fn differential_on(name: &str, fpva: &Fpva) {
    let mut escaped = 0;
    for suite in suites(fpva) {
        let len = suite.len();
        let bit = audit::two_fault_audit_with(fpva, &suite, 1, SimKernel::BitParallel);
        let scalar = audit::two_fault_audit_with(fpva, &suite, 2, SimKernel::Scalar);
        assert_eq!(bit.total, scalar.total, "{name}, {len} vectors");
        assert_eq!(bit.undetected, scalar.undetected, "{name}, {len} vectors");
        escaped += bit.undetected.len();
        for threads in [2, 8] {
            assert_eq!(
                audit::two_fault_audit_with(fpva, &suite, threads, SimKernel::BitParallel),
                bit,
                "{name}, {len} vectors, {threads} threads"
            );
        }
    }
    assert!(escaped > 0, "{name}: no prefix left a pair undetected");
}

#[test]
fn pair_audit_matches_scalar_oracle_on_5x5() {
    differential_on("5x5", &layouts::table1_5x5());
}

#[test]
fn pair_audit_matches_scalar_oracle_on_10x10() {
    differential_on("10x10", &layouts::table1_10x10());
}

#[test]
fn pair_audit_matches_scalar_oracle_on_multi_sink_biochip() {
    differential_on("custom_biochip", &layouts::custom_biochip());
}

/// Run by CI in release mode
/// (`cargo test --release --test pair_audit_differential -- --include-ignored`).
#[test]
#[ignore = "the scalar oracle on 15x15 dominates debug runs; CI runs it in release"]
fn pair_audit_matches_scalar_oracle_on_15x15() {
    differential_on("15x15", &layouts::table1_15x15());
}

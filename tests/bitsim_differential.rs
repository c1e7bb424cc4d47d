//! Differential tests for the bit-parallel simulation kernel: the
//! word-parallel bitset BFS must reproduce the scalar oracle's campaign
//! rows **byte for byte** — same detections, same escapes, same order —
//! on every Table I layout and on the multi-sink example chip, for every
//! lane packing (trial counts off the 64-lane boundary included).
//!
//! The fast tests here run on every `cargo test`; the full five-layout
//! sweep is `#[ignore]`d (plan generation on the large arrays dominates
//! debug runs) and exercised in release by CI via `--include-ignored`.

use fpva::sim::campaign::{self, CampaignConfig};
use fpva::{layouts, Atpg, CampaignRow, Fpva, SimKernel, TestSuite};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The 5x5 Table I array with its generated suite, built once — plan
/// generation dominates the edge-case tests otherwise.
fn planned_5x5() -> &'static (Fpva, TestSuite) {
    static PLANNED: OnceLock<(Fpva, TestSuite)> = OnceLock::new();
    PLANNED.get_or_init(|| {
        let fpva = layouts::table1_5x5();
        let suite = Atpg::new()
            .generate(&fpva)
            .expect("5x5 plan generates")
            .to_suite(&fpva);
        (fpva, suite)
    })
}

/// Runs the same campaign under both kernels and asserts row equality.
fn assert_kernels_agree(fpva: &Fpva, suite: &TestSuite, base: &CampaignConfig) -> Vec<CampaignRow> {
    let with_kernel = |kernel| CampaignConfig {
        kernel,
        ..base.clone()
    };
    let scalar = campaign::run(fpva, suite, &with_kernel(SimKernel::Scalar));
    let bit = campaign::run(fpva, suite, &with_kernel(SimKernel::BitParallel));
    assert_eq!(
        scalar, bit,
        "bit-parallel rows diverged from the scalar oracle"
    );
    scalar
}

/// Plans a suite and checks scalar/bit row equality on one layout.
fn differential_on(name: &str, fpva: &Fpva, trials: usize) {
    let suite = Atpg::new()
        .generate(fpva)
        .unwrap_or_else(|e| panic!("{name}: plan generates: {e}"))
        .to_suite(fpva);
    let config = CampaignConfig {
        trials,
        fault_counts: vec![1, 3],
        seed: 0x1eaf_5eed ^ trials as u64,
        threads: 1,
        ..Default::default()
    };
    let rows = assert_kernels_agree(fpva, &suite, &config);
    assert_eq!(rows.len(), 2, "{name}: one row per fault count");
    for row in &rows {
        assert_eq!(row.trials, trials, "{name}");
    }
}

#[test]
fn rows_match_scalar_oracle_on_small_table1_layouts() {
    differential_on("5x5", &layouts::table1_5x5(), 70);
    differential_on("10x10", &layouts::table1_10x10(), 40);
}

#[test]
fn rows_match_scalar_oracle_on_multi_sink_biochip() {
    // The irregular multi-sink chip: channels, an obstacle, sinks on two
    // different edges — exercises multi-seed forward floods and the
    // multi-port response comparison per lane.
    differential_on("custom_biochip", &layouts::custom_biochip(), 70);
}

/// The full Table I sweep, 30x30 included. Run by CI in release mode
/// (`cargo test --release --test bitsim_differential -- --include-ignored`).
#[test]
#[ignore = "plan generation on the large arrays dominates debug runs; CI runs it in release"]
fn rows_match_scalar_oracle_on_all_table1_layouts() {
    for entry in layouts::table1() {
        differential_on(entry.name, &entry.fpva, 70);
    }
}

/// `detect_block`, plain and with the single-fault table, against
/// `TestSuite::detects` on real plan suites, with control leaks in the
/// fault mix; the plan's cut and leakage vectors leave each fault kind
/// dormant on some vectors and active on others.
#[test]
fn detect_block_matches_suite_detects_on_plan_suites() {
    use fpva::sim::{campaign::random_fault_set, BitSimulator, LoweredChip, SingleFaultTable};
    use rand::{rngs::StdRng, SeedableRng};
    let biochip = layouts::custom_biochip();
    let biochip_suite = Atpg::new()
        .generate(&biochip)
        .expect("biochip plan generates")
        .to_suite(&biochip);
    let (fpva_5x5, suite_5x5) = planned_5x5();
    for (fpva, suite) in [(fpva_5x5, suite_5x5), (&biochip, &biochip_suite)] {
        let chip = LoweredChip::build(fpva);
        let table = SingleFaultTable::build(&chip, suite);
        let mut rng = StdRng::seed_from_u64(17);
        let sets: Vec<_> = (0..200)
            .map(|i| random_fault_set(fpva, &mut rng, i % 5 + 1, true))
            .collect();
        let mut sim = BitSimulator::new(&chip);
        for block in sets.chunks(64) {
            let plain = sim.detect_block(suite, block);
            let looked_up = sim.detect_block_with(suite, &table, block);
            for (lane, set) in block.iter().enumerate() {
                let oracle = suite.detects(fpva, set);
                assert_eq!(plain >> lane & 1 == 1, oracle, "{set:?}");
                assert_eq!(looked_up >> lane & 1 == 1, oracle, "{set:?}");
            }
        }
        assert!(sim.stats().pruned_passes > 0, "no vector was pruned");
    }
}

#[test]
fn lane_packing_edge_cases_match_scalar_oracle() {
    let (fpva, suite) = planned_5x5();
    // 63/65/70 straddle the 64-lane word boundary, so the trailing block
    // of each row is partial; 64 is exactly one full word (live mask all
    // ones); 1 is a single-lane block.
    for trials in [1, 63, 64, 65, 70] {
        let config = CampaignConfig {
            trials,
            fault_counts: vec![2],
            seed: 7,
            threads: 1,
            ..Default::default()
        };
        let rows = assert_kernels_agree(fpva, suite, &config);
        assert_eq!(rows[0].trials, trials);
    }
}

#[test]
fn empty_universe_is_undefined_under_the_bit_kernel() {
    let (fpva, suite) = planned_5x5();
    let config = CampaignConfig {
        trials: 0,
        fault_counts: vec![1],
        kernel: SimKernel::BitParallel,
        ..Default::default()
    };
    let rows = campaign::run(fpva, suite, &config);
    assert_eq!(rows[0].detection_rate(), None, "zero trials is a no-op");
    assert_eq!(rows[0].detected, 0);
    assert!(rows[0].escapes.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // For arbitrary seeds (hence arbitrary fault mixes, control leaks
    // included) and a trial count off the lane boundary, the kernels
    // agree row for row — and stay thread-count invariant on top.
    #[test]
    fn kernels_agree_for_any_seed(seed in any::<u64>()) {
        let (fpva, suite) = planned_5x5();
        let config = |threads| CampaignConfig {
            trials: 45,
            fault_counts: vec![1, 2],
            seed,
            threads,
            ..Default::default()
        };
        let serial = assert_kernels_agree(fpva, suite, &config(1));
        let pooled = assert_kernels_agree(fpva, suite, &config(4));
        prop_assert_eq!(serial, pooled);
    }
}

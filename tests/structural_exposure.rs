//! Differential tests for the structural single-fault table: every bit of
//! `SingleFaultTable` (one bridge DFS per vector) must equal the scalar
//! oracle's verdict for the stuck-at fault the vector activates on that
//! valve, and on the Table I chips the 64-lane flood verdict of
//! `BitSimulator::detect_block`.
//!
//! The generated chips are seeded: 1x1 to 12x12 arrays with obstacles,
//! channel segments, one to four sources and sinks on any side, ports
//! sharing a cell and port-less islands, under random and plan vectors.
//! The sweep over all five Table I plans is `#[ignore]`d (plan generation
//! on the large arrays dominates debug runs) and run by CI in release via
//! `--include-ignored`.

use fpva::grid::{PortKind, Side};
use fpva::sim::{audit, respond, BitSimulator, LoweredChip, SingleFaultTable};
use fpva::{
    layouts, Atpg, Fault, FaultSet, Fpva, FpvaBuilder, SimKernel, TestSuite, TestVector, ValveId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stuck-at fault `vector` activates on `v`.
fn active_fault(vector: &TestVector, v: ValveId) -> FaultSet {
    let fault = if vector.is_open(v) {
        Fault::StuckAt0(v)
    } else {
        Fault::StuckAt1(v)
    };
    FaultSet::try_from_faults(vec![fault]).expect("single fault is valid")
}

/// Exposed / examined bits of a check, so a sweep can prove it was not
/// vacuous.
#[derive(Default)]
struct Tally {
    exposed: usize,
    bits: usize,
}

/// Every (vector, valve) bit of the table against scalar `respond`, and
/// the table-based audits against the scalar kernel.
fn check_against_scalar(name: &str, fpva: &Fpva, suite: &TestSuite, tally: &mut Tally) {
    let table = SingleFaultTable::build(&LoweredChip::build(fpva), suite);
    assert_eq!(table.stats().structural_passes, suite.len(), "{name}");
    assert_eq!(table.stats().word_passes, 0, "{name}");
    for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
        let listed: Vec<ValveId> = table.exposed(i).collect();
        for (v, _) in fpva.valves() {
            let set = active_fault(vector, v);
            let oracle = respond(fpva, vector, &set) != *golden;
            assert_eq!(table.exposes(i, v), oracle, "{name}: vector {i}, {set:?}");
            assert_eq!(listed.contains(&v), oracle, "{name}: vector {i}, {v}");
            tally.exposed += usize::from(oracle);
            tally.bits += 1;
        }
    }
    for (bit, scalar) in [
        (
            audit::single_fault_coverage_with(fpva, suite, SimKernel::BitParallel),
            audit::single_fault_coverage_with(fpva, suite, SimKernel::Scalar),
        ),
        (
            audit::leak_coverage_with(fpva, suite, SimKernel::BitParallel),
            audit::leak_coverage_with(fpva, suite, SimKernel::Scalar),
        ),
    ] {
        assert_eq!(bit.total, scalar.total, "{name}");
        assert_eq!(bit.undetected, scalar.undetected, "{name}");
        assert_eq!(bit.stats.structural_passes, suite.len(), "{name}");
    }
}

/// Every (vector, valve) bit of the table against the 64-lane flood of
/// `BitSimulator::detect_block` on single-fault sets, one vector at a
/// time.
fn check_against_floods(name: &str, fpva: &Fpva, suite: &TestSuite) {
    let chip = LoweredChip::build(fpva);
    let table = SingleFaultTable::build(&chip, suite);
    let mut sim = BitSimulator::new(&chip);
    let mut exposed = 0;
    for (i, vector) in suite.vectors().iter().enumerate() {
        let one = TestSuite::new(fpva, vec![vector.clone()]);
        let valves: Vec<ValveId> = fpva.valves().map(|(v, _)| v).collect();
        for block in valves.chunks(64) {
            let sets: Vec<FaultSet> = block.iter().map(|&v| active_fault(vector, v)).collect();
            let mask = sim.detect_block(&one, &sets);
            for (lane, &v) in block.iter().enumerate() {
                let flood = mask >> lane & 1 == 1;
                assert_eq!(table.exposes(i, v), flood, "{name}: vector {i}, {v}");
                exposed += usize::from(flood);
            }
        }
    }
    assert!(exposed > 0, "{name}: no vector exposes any fault");
}

/// A boundary cell of a `rows × cols` array and a side of it facing
/// off-chip.
fn boundary_port(rng: &mut StdRng, rows: usize, cols: usize) -> (usize, usize, Side) {
    match rng.gen_range(0..4) {
        0 => (0, rng.gen_range(0..cols), Side::North),
        1 => (rows - 1, rng.gen_range(0..cols), Side::South),
        2 => (rng.gen_range(0..rows), 0, Side::West),
        _ => (rng.gen_range(0..rows), cols - 1, Side::East),
    }
}

/// The off-chip sides of boundary cell `(row, col)`.
fn outward_sides(row: usize, col: usize, rows: usize, cols: usize) -> Vec<Side> {
    let mut sides = Vec::new();
    if row == 0 {
        sides.push(Side::North);
    }
    if row == rows - 1 {
        sides.push(Side::South);
    }
    if col == 0 {
        sides.push(Side::West);
    }
    if col == cols - 1 {
        sides.push(Side::East);
    }
    sides
}

/// A random chip the builder accepts: up to two obstacles and two channel
/// segments, one to four sources and sinks on random sides, a quarter of
/// the ports on the cell of an earlier port. Layouts the builder rejects
/// (overlaps, a port on an obstacle, a duplicate port) are redrawn.
fn random_chip(rng: &mut StdRng) -> Fpva {
    loop {
        let rows = rng.gen_range(1..13);
        let cols = rng.gen_range(1..13);
        let mut b = FpvaBuilder::new(rows, cols);
        for _ in 0..rng.gen_range(0..3) {
            let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            let (h, w): (usize, usize) = (rng.gen_range(0..4), rng.gen_range(0..4));
            b = b.obstacle(r, c, (r + h).min(rows - 1), (c + w).min(cols - 1));
        }
        for _ in 0..rng.gen_range(0..3) {
            if rng.gen_range(0..2) == 0 && cols >= 2 {
                let c0 = rng.gen_range(0..cols - 1);
                let c1 = rng.gen_range(c0 + 1..cols);
                b = b.channel_horizontal(rng.gen_range(0..rows), c0, c1);
            } else if rows >= 2 {
                let r0 = rng.gen_range(0..rows - 1);
                let r1 = rng.gen_range(r0 + 1..rows);
                b = b.channel_vertical(rng.gen_range(0..cols), r0, r1);
            }
        }
        let mut cells: Vec<(usize, usize)> = Vec::new();
        let sources = rng.gen_range(1..5);
        let sinks = rng.gen_range(1..5);
        for p in 0..sources + sinks {
            let kind = if p < sources {
                PortKind::Source
            } else {
                PortKind::Sink
            };
            let (row, col, side) = if !cells.is_empty() && rng.gen_range(0..4) == 0 {
                let (row, col) = cells[rng.gen_range(0..cells.len())];
                let sides = outward_sides(row, col, rows, cols);
                (row, col, sides[rng.gen_range(0..sides.len())])
            } else {
                boundary_port(rng, rows, cols)
            };
            cells.push((row, col));
            b = b.port(row, col, side, kind);
        }
        if let Ok(fpva) = b.build() {
            return fpva;
        }
    }
}

/// Random vectors whose open density spans mostly-closed to mostly-open.
fn random_vectors(fpva: &Fpva, rng: &mut StdRng, count: usize) -> Vec<TestVector> {
    (0..count)
        .map(|k| {
            let open_in_4 = k % 3 + 1;
            TestVector::from_open_valves(
                fpva.valve_count(),
                fpva.valves()
                    .map(|(v, _)| v)
                    .filter(|_| rng.gen_range(0..4usize) < open_in_4),
            )
        })
        .collect()
}

/// Hand-picked corner cases: a 1x1 chip with its source and sink on one
/// cell, thin strips, a chip split by an obstacle wall into a ported half
/// and a port-less island, and a chip whose sink sits on a source cell.
fn corner_chips() -> Vec<(&'static str, Fpva)> {
    let chips = [
        (
            "1x1 shared cell",
            FpvaBuilder::new(1, 1)
                .port(0, 0, Side::West, PortKind::Source)
                .port(0, 0, Side::East, PortKind::Sink),
        ),
        (
            "1x2 strip",
            FpvaBuilder::new(1, 2)
                .port(0, 0, Side::North, PortKind::Source)
                .port(0, 1, Side::South, PortKind::Sink),
        ),
        (
            "6x1 strip, two sinks",
            FpvaBuilder::new(6, 1)
                .port(0, 0, Side::North, PortKind::Source)
                .port(3, 0, Side::East, PortKind::Sink)
                .port(5, 0, Side::South, PortKind::Sink),
        ),
        (
            "5x5 with a port-less island",
            FpvaBuilder::new(5, 5)
                .obstacle(0, 2, 4, 2)
                .channel_vertical(4, 0, 2)
                .port(0, 0, Side::West, PortKind::Source)
                .port(4, 1, Side::South, PortKind::Sink),
        ),
        (
            "4x4 sink on a source cell",
            FpvaBuilder::new(4, 4)
                .channel_horizontal(1, 0, 2)
                .port(0, 0, Side::West, PortKind::Source)
                .port(0, 0, Side::North, PortKind::Sink)
                .port(3, 3, Side::East, PortKind::Sink)
                .port(3, 0, Side::South, PortKind::Source),
        ),
    ];
    chips
        .into_iter()
        .map(|(name, b)| (name, b.build().expect("corner chip is valid")))
        .collect()
}

#[test]
fn corner_chips_match_scalar_oracle() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut tally = Tally::default();
    for (name, fpva) in corner_chips() {
        let mut vectors = vec![
            TestVector::all_open(fpva.valve_count()),
            TestVector::all_closed(fpva.valve_count()),
        ];
        vectors.extend(random_vectors(&fpva, &mut rng, 12));
        check_against_scalar(name, &fpva, &TestSuite::new(&fpva, vectors), &mut tally);
        if let Ok(plan) = Atpg::new().generate(&fpva) {
            check_against_scalar(name, &fpva, &plan.to_suite(&fpva), &mut tally);
        }
    }
    assert!(tally.exposed > 0 && tally.exposed < tally.bits);
}

/// `rounds` seeded random chips, each under random vectors and, when one
/// generates, its plan suite.
fn generated_sweep(seed: u64, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut planned = 0;
    for round in 0..rounds {
        let fpva = random_chip(&mut rng);
        let name = format!(
            "seed {seed} round {round}: {}x{}, {} valves",
            fpva.rows(),
            fpva.cols(),
            fpva.valve_count()
        );
        let vectors = random_vectors(&fpva, &mut rng, 8);
        check_against_scalar(&name, &fpva, &TestSuite::new(&fpva, vectors), &mut tally);
        if let Ok(plan) = Atpg::new().generate(&fpva) {
            check_against_scalar(&name, &fpva, &plan.to_suite(&fpva), &mut tally);
            planned += 1;
        }
    }
    assert!(tally.exposed > 0 && tally.exposed < tally.bits);
    assert!(planned > 0, "no generated chip got a plan");
}

#[test]
fn generated_chips_match_scalar_oracle() {
    generated_sweep(16, 12);
}

#[test]
#[ignore = "a 200-chip sweep; run in release with --include-ignored"]
fn many_generated_chips_match_scalar_oracle() {
    generated_sweep(61, 200);
}

#[test]
fn small_plans_match_flood_build() {
    for (name, fpva) in [
        ("5x5", layouts::table1_5x5()),
        ("custom_biochip", layouts::custom_biochip()),
    ] {
        let suite = Atpg::new()
            .generate(&fpva)
            .expect("plan generates")
            .to_suite(&fpva);
        check_against_floods(name, &fpva, &suite);
    }
}

#[test]
#[ignore = "plans all five Table I chips; run in release with --include-ignored"]
fn table1_plans_match_flood_build() {
    for entry in layouts::table1() {
        let suite = Atpg::new()
            .generate(&entry.fpva)
            .expect("plan generates")
            .to_suite(&entry.fpva);
        check_against_floods(entry.name, &entry.fpva, &suite);
    }
}

/// A suite whose golden responses come from another chip must fail
/// loudly, not build a table of wrong answers.
#[test]
#[should_panic(expected = "golden response disagrees with the chip")]
fn suite_of_another_chip_is_rejected() {
    // Same valves, but `b` meters its source cell: pressure that `a`'s
    // sink never sees under an all-closed vector.
    let a = FpvaBuilder::new(1, 3)
        .port(0, 0, Side::West, PortKind::Source)
        .port(0, 2, Side::East, PortKind::Sink)
        .build()
        .unwrap();
    let b = FpvaBuilder::new(1, 3)
        .port(0, 0, Side::West, PortKind::Source)
        .port(0, 0, Side::North, PortKind::Sink)
        .build()
        .unwrap();
    let suite = TestSuite::new(&a, vec![TestVector::all_closed(a.valve_count())]);
    SingleFaultTable::build(&LoweredChip::build(&b), &suite);
}

//! Golden digests of generated test plans.
//!
//! Every randomised stage of plan generation draws from a seeded `StdRng`,
//! so a plan is a pure function of the chip and the configuration. These
//! tests pin an FNV-1a digest of the generator outputs: any change that
//! shifts the RNG stream or the search order of a routing kernel changes
//! a digest and fails here, loudly, instead of silently moving Table I.
//!
//! The debug run covers the small chips only; the large ones are
//! `#[ignore]`d and run in release with
//! `cargo test --release --test plan_digest -- --include-ignored`.
//! On a mismatch the failure message prints the computed table, so an
//! intended plan change can be re-pinned after review.

use fpva::atpg::baseline::{baseline_vectors, BaselineSuite};
use fpva::atpg::heuristic::greedy_cover;
use fpva::{layouts, Atpg, AtpgConfig, CutSet, FlowPath, TestPlan, ValveId};

/// 64-bit FNV-1a over a canonical little-endian encoding.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn tag(&mut self, tag: &str) {
        self.bytes(tag.as_bytes());
    }

    fn paths(&mut self, tag: &str, paths: &[FlowPath]) {
        self.tag(tag);
        self.num(paths.len());
        for p in paths {
            self.num(p.source().0);
            self.num(p.sink().0);
            self.num(p.len());
            for c in p.cells() {
                self.num(c.row);
                self.num(c.col);
            }
        }
    }

    fn valves(&mut self, tag: &str, valves: &[ValveId]) {
        self.tag(tag);
        self.num(valves.len());
        for v in valves {
            self.num(v.index());
        }
    }

    fn cuts(&mut self, cuts: &[CutSet]) {
        self.tag("cuts");
        self.num(cuts.len());
        for c in cuts {
            self.valves("cut", c.valves());
        }
    }

    fn plan(&mut self, plan: &TestPlan) {
        self.paths("flow", plan.flow_paths());
        self.cuts(plan.cut_sets());
        self.paths("leak", plan.leakage_paths());
        self.valves("open", plan.untestable_open());
        self.valves("closed", plan.untestable_closed());
        self.tag("pairs");
        self.num(plan.untestable_pairs().len());
        for &(a, b) in plan.untestable_pairs() {
            self.num(a.index());
            self.num(b.index());
        }
    }

    fn baseline(&mut self, suite: &BaselineSuite) {
        self.tag("vectors");
        self.num(suite.vectors.len());
        for v in &suite.vectors {
            self.num(v.len());
            let open: Vec<ValveId> = v.iter_open().collect();
            self.valves("vector", &open);
        }
        self.valves("skipped", &suite.skipped);
    }
}

/// The digest of one named case:
/// * `table1/<name>` — `Atpg::new()` on a Table I chip;
/// * `flow_layer/full<n>` — the leakage-off default plan of full n×n;
/// * `greedy/full30` — `greedy_cover(full 30×30, 7, 64)`;
/// * `baseline/10x10` — `baseline_vectors(table1_10x10, 5, 48)`.
fn digest(case: &str) -> u64 {
    let mut h = Fnv::new();
    if let Some(name) = case.strip_prefix("table1/") {
        let entry = layouts::table1()
            .into_iter()
            .find(|e| e.name == name)
            .expect("Table I chip");
        h.plan(&Atpg::new().generate(&entry.fpva).expect("plan"));
    } else if let Some(n) = case.strip_prefix("flow_layer/full") {
        let n: usize = n.parse().expect("array size");
        let config = AtpgConfig {
            leakage: false,
            ..AtpgConfig::default()
        };
        let plan = Atpg::with_config(config)
            .generate(&layouts::full_array(n, n))
            .expect("plan");
        h.plan(&plan);
    } else if case == "greedy/full30" {
        let cover = greedy_cover(&layouts::full_array(30, 30), 7, 64).expect("cover");
        h.paths("flow", &cover.paths);
        h.valves("open", &cover.uncovered);
    } else if case == "baseline/10x10" {
        let suite = baseline_vectors(&layouts::table1_10x10(), 5, 48).expect("baseline");
        h.baseline(&suite);
    } else {
        panic!("unknown case {case}");
    }
    h.0
}

/// Golden digests. Speed rewrites of the routing and cut-set kernels must
/// reproduce every plan byte for byte; an intended plan change re-pins the
/// affected cases, with old and new values and the reason in CHANGES.md.
const GOLDEN: &[(&str, u64)] = &[
    ("table1/5x5", 0xa630f439250016d5),
    ("table1/10x10", 0x44be3776fe5df553),
    ("table1/15x15", 0x3397a31bce3da4a2),
    ("table1/20x20", 0xeb8b412b8824a975),
    ("table1/30x30", 0x2f160d6b1bd1f057),
    ("baseline/10x10", 0x4b2f1c3b61f116cf),
    ("greedy/full30", 0xd9c37f00396522d2),
    ("flow_layer/full10", 0x8144251d2fd798fc),
    ("flow_layer/full11", 0x892196fe2776b576),
    ("flow_layer/full12", 0xc8fb1734785b5ca2),
    ("flow_layer/full13", 0x9a1ddd298f9c1e2c),
    ("flow_layer/full14", 0xf1d299f3d3bef37c),
    ("flow_layer/full15", 0x21d54cc197c88850),
    ("flow_layer/full16", 0xf6c81463506b9a9a),
    ("flow_layer/full17", 0xe8a076076f29bf22),
    ("flow_layer/full18", 0x4fc3f9a112e95a94),
    ("flow_layer/full19", 0x41d7700e44ba5f3c),
    ("flow_layer/full20", 0xd65c9ff28349ca38),
    ("flow_layer/full21", 0x4a5b6aa0ea1145bc),
    ("flow_layer/full22", 0xdd0a39108411df90),
    ("flow_layer/full23", 0x83a6a202c6859a46),
    ("flow_layer/full24", 0x4ca794c731b66c90),
    ("flow_layer/full25", 0x0269187533d9ce56),
    ("flow_layer/full26", 0x4dfb49f248d00982),
    ("flow_layer/full27", 0xb8cd8a99f9298b10),
    ("flow_layer/full28", 0x678d1af823a2f6c6),
    ("flow_layer/full29", 0x2c18b623cb6baaac),
    ("flow_layer/full30", 0x57fb5c60ecac0ee4),
    ("flow_layer/full31", 0xf47cfc76a6f4b434),
    ("flow_layer/full32", 0xd401f289eebebedc),
    ("flow_layer/full33", 0xc7b66ad6bd96e1be),
    ("flow_layer/full34", 0xcbe0dbe59b51ddb6),
    ("flow_layer/full35", 0xf9f435fc38088c2c),
    ("flow_layer/full36", 0xbf58232b47ca080e),
    ("flow_layer/full37", 0xed719b32f0708fd4),
    ("flow_layer/full38", 0x84badfdc2b1f3974),
    ("flow_layer/full39", 0xac0b9760903a6ff8),
    ("flow_layer/full40", 0xc58c9e72c752acc6),
];

/// Cases cheap enough for the debug-profile test run.
fn small_cases() -> Vec<String> {
    let mut cases: Vec<String> = ["table1/5x5", "table1/10x10", "baseline/10x10"]
        .map(String::from)
        .to_vec();
    cases.extend((10..=14).map(|n| format!("flow_layer/full{n}")));
    cases
}

fn large_cases() -> Vec<String> {
    let mut cases: Vec<String> = ["table1/15x15", "table1/20x20", "table1/30x30"]
        .map(String::from)
        .to_vec();
    cases.extend((15..=40).map(|n| format!("flow_layer/full{n}")));
    cases.push("greedy/full30".into());
    cases
}

fn check(cases: &[String]) {
    let computed: Vec<(&str, u64)> = cases.iter().map(|c| (c.as_str(), digest(c))).collect();
    let mismatches: Vec<&str> = computed
        .iter()
        .filter(|&&(case, d)| GOLDEN.iter().find(|(g, _)| *g == case).map(|&(_, g)| g) != Some(d))
        .map(|&(case, _)| case)
        .collect();
    let table: String = computed
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "plan digests changed for {mismatches:?}; computed:\n{table}"
    );
}

#[test]
fn small_plans_match_golden_digests() {
    check(&small_cases());
}

#[test]
#[ignore = "large chips: run in release with --include-ignored"]
fn large_plans_match_golden_digests() {
    check(&large_cases());
}

#[test]
fn golden_table_lists_every_case_once() {
    let mut all = small_cases();
    all.extend(large_cases());
    all.sort();
    let mut pinned: Vec<String> = GOLDEN.iter().map(|(c, _)| (*c).to_string()).collect();
    pinned.sort();
    assert_eq!(all, pinned);
}

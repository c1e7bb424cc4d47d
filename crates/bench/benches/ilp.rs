//! Criterion bench for the in-workspace MILP solver: the paper's exact
//! path-cover formulation (constraints (1)–(8)) at subblock scale, plus
//! an LU-focused warm-start chain that times the basis-maintenance path
//! (Forrest–Tomlin updates with policy-driven refactorization) in
//! isolation from branch-and-bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpva_atpg::ilp_model::{min_path_cover_ilp, PathIlpConfig};
use fpva_grid::layouts;
use fpva_ilp::fixtures;
use fpva_ilp::simplex::SparseLp;
use std::hint::black_box;

fn bench_exact_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_exact_path_cover");
    group.sample_size(10);
    for n in [2usize, 3] {
        let f = layouts::full_array(n, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{n}")),
            &f,
            |b, f| {
                b.iter(|| min_path_cover_ilp(black_box(f), &PathIlpConfig::default()).unwrap());
            },
        );
    }
    group.finish();
}

/// The branch-and-bound access pattern without branch-and-bound: one
/// persistent engine re-solving the shared `fpva_ilp::fixtures`
/// multi-knapsack chain (the exact workload `ilp_differential` verifies
/// against the dense oracle), warm-started from the previous basis every
/// step. Dominated by FTRAN/BTRAN through the LU factors and the
/// Forrest–Tomlin update per pivot — the tentpole's hot path.
fn bench_lu_warm_start_chain(c: &mut Criterion) {
    let p = fixtures::multi_knapsack_lp();
    let prepared = SparseLp::from_problem(&p);

    let mut group = c.benchmark_group("ilp_lu_basis");
    group.bench_function("warm_start_chain/64_resolves", |b| {
        b.iter(|| {
            let mut engine = prepared.engine();
            let mut basis = None;
            for step in 0..64usize {
                let (lower, upper) = fixtures::chain_bounds(step);
                let (sol, nb) = engine.solve(&lower, &upper, None, basis.as_ref());
                black_box(sol.objective);
                if let Some(nb) = nb {
                    basis = Some(nb);
                }
            }
            engine.factor_stats().ft_updates
        });
    });
    group.finish();
}

/// The child-node re-solve pattern in isolation: one cold parent solve,
/// then 64 single-bound-change re-solves warm-started from the parent
/// basis — each should go through the dual simplex (the parent basis
/// stays dual feasible under a bound change), making this the tentpole's
/// benchmark: dual pricing + bound-flipping ratio test + FT update per
/// pivot, no primal phase 1.
fn bench_dual_resolves(c: &mut Criterion) {
    let p = fixtures::multi_knapsack_lp();
    let prepared = SparseLp::from_problem(&p);

    let mut group = c.benchmark_group("ilp_dual_simplex");
    group.bench_function("dual_resolve/64_bound_changes", |b| {
        b.iter(|| {
            let mut engine = prepared.engine();
            let (parent, basis) = engine.solve(&p.lower, &p.upper, None, None);
            black_box(parent.objective);
            let basis = basis.expect("parent solve is optimal");
            for step in 0..64usize {
                let mut lower = p.lower.clone();
                let mut upper = p.upper.clone();
                let j = step % fixtures::CHAIN_VARS;
                if step % 2 == 0 {
                    lower[j] = 2.0;
                } else {
                    upper[j] = 3.0;
                }
                let (sol, _) = engine.solve(&lower, &upper, None, Some(&basis));
                black_box(sol.objective);
            }
            engine.engine_stats().dual_pivots
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_cover,
    bench_lu_warm_start_chain,
    bench_dual_resolves
);
criterion_main!(benches);

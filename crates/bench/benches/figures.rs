//! One regeneration benchmark per paper figure.
//!
//! Each bench runs the same pipeline as the corresponding `subcomp-exp`
//! binary on a reduced grid, so `cargo bench` both times and re-validates
//! (via the embedded shape checks) every figure of the evaluation:
//! Figures 4, 5 (Section 3.2) and Figures 7–11 (Section 5).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::WarmStart;
use subcomp_core::workspace::SolveWorkspace;
use subcomp_exp::figures::{fig10, fig11, fig4, fig5, fig7, fig8, fig9, panel};
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::sweep::{ContinuationSolver, EqGrid, GridContext};

fn bench_section3_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/section3");
    g.sample_size(10);
    let prices = fig4::default_prices(26);
    g.bench_function("fig4", |b| {
        b.iter(|| {
            let fig = fig4::compute(std::hint::black_box(&prices)).unwrap();
            fig.check_shape().unwrap();
            fig
        })
    });
    g.bench_function("fig5", |b| {
        b.iter(|| {
            let fig = fig5::compute(std::hint::black_box(&prices)).unwrap();
            fig.check_shape().unwrap();
            fig
        })
    });
    g.finish();
}

fn bench_section5_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/section5");
    g.sample_size(10);
    // The shared equilibrium panel dominates the cost; bench it once and
    // then each figure's extraction + shape validation on a precomputed
    // panel.
    let qs = [0.0, 0.5, 2.0];
    let prices: Vec<f64> = (0..9).map(|k| 0.1 + 0.2375 * k as f64).collect();
    g.bench_function("panel(3q x 9p)", |b| {
        b.iter(|| panel::compute_on(std::hint::black_box(&qs), &prices, 1).unwrap())
    });
    let p = panel::compute_on(&qs, &prices, 3).unwrap();
    g.bench_function("fig7", |b| {
        b.iter(|| {
            let f = fig7::compute(std::hint::black_box(&p));
            f.check_shape().unwrap();
            f
        })
    });
    g.bench_function("fig8", |b| {
        b.iter(|| {
            let f = fig8::compute(std::hint::black_box(&p));
            fig8::check_shape(&f).unwrap().unwrap();
            f
        })
    });
    g.bench_function("fig9", |b| {
        b.iter(|| {
            let f = fig9::compute(std::hint::black_box(&p));
            fig9::check_shape(&f).unwrap().unwrap();
            f
        })
    });
    g.bench_function("fig10", |b| {
        b.iter(|| {
            let f = fig10::compute(std::hint::black_box(&p));
            fig10::check_shape(&f, 0).unwrap().unwrap();
            f
        })
    });
    g.bench_function("fig11", |b| {
        b.iter(|| {
            let f = fig11::compute(std::hint::black_box(&p));
            fig11::check_shape(&f, 0, 2).unwrap().unwrap();
            f
        })
    });
    g.finish();
}

/// Tracks the continuation win itself as a trajectory point: the same
/// 3×9 grid solved through the [`ContinuationSolver`] continuation engine
/// (`continuation`) versus point-by-point cold solves of the *same*
/// solver configuration on the same reused workspace (`cold`). The ratio
/// of the two ids is the warm-start speedup — committed to
/// `BENCH_figures.json` so a regression in continuation quality (e.g.
/// seeds stopping to help) shows up in review, not just a one-time claim
/// in a PR description.
fn bench_panel_warm_vs_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/panel/warm_vs_cold");
    g.sample_size(10);
    let system = section5_system();
    let qs = [0.0, 0.5, 2.0];
    let prices: Vec<f64> = (0..9).map(|k| 0.1 + 0.2375 * k as f64).collect();
    let solver = ContinuationSolver::default();
    g.bench_function("continuation", |b| {
        let mut ctx = GridContext::new(&system);
        let mut grid = EqGrid::empty();
        b.iter(|| {
            solver.solve_seq_into(&mut ctx, std::hint::black_box(&qs), &prices, &mut grid).unwrap();
            grid.cold_solves()
        })
    });
    g.bench_function("cold", |b| {
        let mut game = SubsidyGame::new(system.clone(), 0.0, 0.0).unwrap();
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            let mut sweeps = 0usize;
            for &q in std::hint::black_box(&qs[..]) {
                game.set_cap(q).unwrap();
                for &p in &prices {
                    game.set_price(p).unwrap();
                    let stats = solver.solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
                    sweeps += stats.iterations;
                }
            }
            sweeps
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(400)).measurement_time(Duration::from_secs(2));
    targets = bench_section3_figures, bench_section5_figures, bench_panel_warm_vs_cold
}
criterion_main!(benches);

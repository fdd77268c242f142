//! Lane-engine equivalence tier: the SoA lane engine against the scalar
//! reference, on randomized ensembles.
//!
//! Three contracts (see `tests/README.md`, "The lane tier"):
//!
//! 1. **Bit-identity vs the scalar solver.** Per lane, a `LaneSolver`
//!    solve is bit-for-bit the scalar `NashSolver::default()` solve of
//!    that lane's game from the zero profile — same probe sequence
//!    through the shared best-response engine bodies, same φ-solves, same
//!    population cache bits, and so the same `phi_solves` and
//!    `br_fallbacks` counters.
//! 2. **Bit-identity vs the default batch.** Lane-mode `BatchSolver`
//!    results equal the cold scalar `BatchSolver` bit for bit.
//! 3. **Structural determinism.** Lane-mode batch results are
//!    bit-identical across thread counts AND lane-block sizes: lane
//!    assignment is a pure function of the item list and `K`, and lanes
//!    never read each other's state.

use proptest::prelude::*;
use subcomp::exp::scenarios::{farm_game, random_specs};
use subcomp::exp::sweep::BatchSolver;
use subcomp::game::game::SubsidyGame;
use subcomp::game::lane::{LaneGame, LaneSolver, LaneWorkspace};
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::structure::SplitMix64;
use subcomp::game::workspace::SolveWorkspace;
use subcomp::model::aggregation::build_system;

/// A random same-shape ensemble: `lanes` games of `n` providers each,
/// with independent specs, capacity, price and cap per lane.
fn ensemble(n: usize, lanes: usize, seed: u64) -> Vec<SubsidyGame> {
    let mut rng = SplitMix64::new(seed);
    (0..lanes)
        .map(|_| {
            let specs = random_specs(n, rng.next_u64());
            let mu = 0.4 + 1.6 * rng.next_f64();
            let p = 0.2 + 1.0 * rng.next_f64();
            let q = 0.1 + 0.9 * rng.next_f64();
            SubsidyGame::new(build_system(&specs, mu).unwrap(), p, q).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lane_solve_is_bit_identical_to_scalar_threshold_solver(
        n in 2usize..=5,
        lanes in 2usize..=6,
        seed in 0u64..(1u64 << 48),
    ) {
        let games = ensemble(n, lanes, seed);
        let refs: Vec<&SubsidyGame> = games.iter().collect();
        let lane_game = LaneGame::from_games(&refs).expect("exp-family games are lane-eligible");
        let mut lw = LaneWorkspace::new();
        LaneSolver::default().solve_into(&lane_game, &mut lw);

        let scalar = NashSolver::default();
        let mut ws = SolveWorkspace::new();
        for (l, game) in games.iter().enumerate() {
            match (scalar.solve_into(game, WarmStart::Zero, &mut ws), lw.result_of(l)) {
                (Ok(stats), Ok(lane_stats)) => {
                    prop_assert_eq!(lane_stats.iterations, stats.iterations);
                    prop_assert_eq!(lane_stats.residual.to_bits(), stats.residual.to_bits());
                    // Same probe sequence, hence the same work counts.
                    prop_assert!(stats.phi_solves > 0);
                    prop_assert_eq!(lane_stats.phi_solves, stats.phi_solves);
                    prop_assert_eq!(lane_stats.br_fallbacks, stats.br_fallbacks);
                    for (a, b) in lw.subsidies_of(l, n).iter().zip(ws.subsidies()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for (a, b) in lw.utilities_of(l, n).iter().zip(ws.utilities()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    prop_assert_eq!(lw.phi_of(l).to_bits(), ws.state().phi.to_bits());
                }
                // A lane that fails must fail exactly like its scalar twin.
                (Err(scalar_err), Err(lane_err)) => prop_assert_eq!(scalar_err, lane_err),
                (scalar_out, lane_out) => prop_assert!(
                    false,
                    "lane {} outcome diverged: scalar {:?} vs lane {:?}",
                    l, scalar_out, lane_out
                ),
            }
        }
    }

    #[test]
    fn lane_batch_is_bit_identical_to_the_default_batch(
        n in 2usize..=5,
        lanes in 2usize..=6,
        seed in 0u64..(1u64 << 48),
    ) {
        let games = ensemble(n, lanes, seed);
        let lane_results = BatchSolver::default().with_lanes(4).solve_games(&games);
        let scalar_results = BatchSolver::default().cold().solve_games(&games);
        for (l, (lane, scalar)) in lane_results.iter().zip(&scalar_results).enumerate() {
            let (lane, scalar) = (lane.as_ref().unwrap(), scalar.as_ref().unwrap());
            prop_assert!(lane.converged && scalar.converged);
            prop_assert_eq!(lane.iterations, scalar.iterations);
            prop_assert_eq!(lane.residual.to_bits(), scalar.residual.to_bits());
            for i in 0..n {
                prop_assert!(
                    lane.subsidies[i].to_bits() == scalar.subsidies[i].to_bits(),
                    "lane {} CP {}: lane {} vs scalar {}",
                    l, i, lane.subsidies[i], scalar.subsidies[i]
                );
            }
        }
    }

    #[test]
    fn lane_blocking_edge_cases_are_bit_identical(
        n in 2usize..=4,
        count in 1usize..=9,
        seed in 0u64..(1u64 << 40),
    ) {
        // K exceeding the ensemble (one undersized block), K=1 (every
        // block partial relative to any larger K), and a K that leaves a
        // partial trailing chunk all pack the same games — results must
        // not depend on the chunking at all.
        let games = ensemble(n, count, seed);
        let reference = BatchSolver::default().with_lanes(64).solve_games(&games);
        for k in [1, 2, count, count + 1] {
            let other = BatchSolver::default().with_lanes(k).solve_games(&games);
            for (l, (a, b)) in reference.iter().zip(&other).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                prop_assert!(a.iterations == b.iterations, "K={} game {}", k, l);
                for (x, y) in a.subsidies.iter().zip(&b.subsidies) {
                    prop_assert!(x.to_bits() == y.to_bits(), "K={} game {}", k, l);
                }
            }
        }
    }

    #[test]
    fn lane_mode_is_bit_identical_across_threads_and_lane_blocks(
        count in 6usize..=24,
        seed in 0u64..(1u64 << 32),
    ) {
        // A mixed-shape ensemble (the farm definition: n varies per game),
        // so lane grouping, short trailing blocks and the scalar-fallback
        // scatter path are all exercised.
        let indices: Vec<u64> = (0..count as u64).collect();
        let solve = |threads: usize, k: usize| {
            BatchSolver::default().with_threads(threads).with_lanes(k).run(
                &indices,
                |&i| farm_game(seed, i, 2, 6),
                |_, ws, stats| (ws.subsidies().to_vec(), stats.iterations),
            )
        };
        let reference = solve(1, 4);
        for (threads, k) in [(1, 1), (1, 7), (1, 64), (4, 4), (8, 1), (3, 64)] {
            let other = solve(threads, k);
            for (a, b) in reference.iter().zip(&other) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                prop_assert!(a.1 == b.1, "iteration count drifted at threads={} lanes={}", threads, k);
                for (x, y) in a.0.iter().zip(&b.0) {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "subsidy bits drifted at threads={} lanes={}", threads, k
                    );
                }
            }
        }
    }
}

/// Deterministic pins for the lane-blocking edge cases, cheap enough to
/// read as documentation: an oversized `K` collapses to one undersized
/// block, a trailing partial chunk stays in the lane engine, and
/// lane-ineligible games (the non-paper clamped-price convention) fall
/// back to scalar solves without disturbing result order.
mod blocking_pins {
    use super::*;

    /// Bit-compares two batch outcomes game by game.
    fn assert_bit_identical(
        a: &[subcomp::num::error::NumResult<subcomp::game::nash::NashSolution>],
        b: &[subcomp::num::error::NumResult<subcomp::game::nash::NashSolution>],
        label: &str,
    ) {
        assert_eq!(a.len(), b.len(), "{label}: result count");
        for (l, (x, y)) in a.iter().zip(b).enumerate() {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.iterations, y.iterations, "{label}: game {l} iterations");
            assert!(x.converged && y.converged, "{label}: game {l} convergence");
            for (s, t) in x.subsidies.iter().zip(&y.subsidies) {
                assert_eq!(s.to_bits(), t.to_bits(), "{label}: game {l} subsidy bits");
            }
        }
    }

    #[test]
    fn oversized_lane_block_collapses_to_one_undersized_block() {
        let games = ensemble(3, 5, 41);
        let exact = BatchSolver::default().with_lanes(5).solve_games(&games);
        let oversized = BatchSolver::default().with_lanes(64).solve_games(&games);
        assert_bit_identical(&exact, &oversized, "K=64 over 5 games");
    }

    #[test]
    fn partial_trailing_block_stays_in_the_lane_engine() {
        // 7 same-shape games with K=4: blocks of 4 and 3. The trailing
        // 3-lane block must produce the same bits as an exact-fit run —
        // short blocks are first-class, not a scalar detour.
        let games = ensemble(3, 7, 43);
        let chunked = BatchSolver::default().with_lanes(4).solve_games(&games);
        let exact = BatchSolver::default().with_lanes(7).solve_games(&games);
        assert_bit_identical(&chunked, &exact, "K=4 over 7 games");
    }

    #[test]
    fn ineligible_games_fall_back_to_scalar_threshold_solves_in_order() {
        // Alternate eligible and clamped-price (lane-ineligible) games.
        // Every game — either path — must match its own cold scalar
        // solve bit for bit, in the original order.
        let games: Vec<SubsidyGame> = ensemble(3, 6, 47)
            .into_iter()
            .enumerate()
            .map(|(i, g)| if i % 2 == 0 { g.with_clamped_price(true) } else { g })
            .collect();
        assert!(games[0].clamps_effective_price() && !games[1].clamps_effective_price());

        let batch = BatchSolver::default().with_lanes(4).solve_games(&games);
        let scalar = NashSolver::default();
        let mut ws = SolveWorkspace::new();
        for (l, (game, got)) in games.iter().zip(&batch).enumerate() {
            let stats = scalar.solve_into(game, WarmStart::Zero, &mut ws).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.iterations, stats.iterations, "game {l}");
            for (s, t) in got.subsidies.iter().zip(ws.subsidies()) {
                assert_eq!(s.to_bits(), t.to_bits(), "game {l} subsidy bits");
            }
        }
    }
}

//! The game as a variational inequality (the Theorem 4/6 formulation).
//!
//! By Proposition 1.4.2 of Facchinei–Pang (cited in the paper's proofs),
//! the Nash equilibria of the subsidization game coincide with the
//! solutions of `VI(F, K)` where `F = −u` (negated marginal utilities) and
//! `K = [0, q]^N`: find `s ∈ K` with `(x − s)ᵀ F(s) ≥ 0 ∀x ∈ K`.
//!
//! Two classical solvers are provided — fixed-step **projection**
//! (`s ← Π_K(s − γ F(s))`) and Korpelevich **extragradient** — as
//! independent cross-checks on the best-response solvers in [`crate::nash`].
//! The natural-residual map `‖s − Π_K(s − F(s))‖_∞` doubles as an
//! equilibrium certificate.

use crate::game::SubsidyGame;
use crate::workspace::SolveWorkspace;
use subcomp_num::linalg::vector::{clamp_in_place, step_into, sub_inf_norm};
use subcomp_num::{NumError, NumResult};

/// Configuration for the VI solvers.
#[derive(Debug, Clone, Copy)]
pub struct ViConfig {
    /// Step size `γ > 0`.
    pub step: f64,
    /// Convergence threshold on the natural residual.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for ViConfig {
    fn default() -> Self {
        ViConfig { step: 0.15, tol: 1e-9, max_iter: 20_000 }
    }
}

fn project(game: &SubsidyGame, s: &mut [f64]) {
    for (i, si) in s.iter_mut().enumerate() {
        *si = si.clamp(0.0, game.effective_cap(i));
    }
}

/// The VI map `F(s) = −u(s)`.
pub fn vi_map(game: &SubsidyGame, s: &[f64]) -> NumResult<Vec<f64>> {
    Ok(game.marginal_utilities(s)?.iter().map(|u| -u).collect())
}

/// Natural residual `‖s − Π_K(s − F(s))‖_∞`; zero exactly at solutions.
pub fn natural_residual(game: &SubsidyGame, s: &[f64]) -> NumResult<f64> {
    let f = vi_map(game, s)?;
    let mut proj: Vec<f64> = s.iter().zip(&f).map(|(si, fi)| si - fi).collect();
    project(game, &mut proj);
    Ok(s.iter().zip(&proj).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max))
}

/// Health summary of one VI solve; the solution itself stays in the
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViStats {
    /// Natural residual at the solution.
    pub natural_residual: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the residual met the tolerance.
    pub converged: bool,
}

/// Fixed-step projection method. Converges for co-coercive maps; on this
/// game the step default is conservative enough in practice, and the
/// method is used as a cross-check rather than the primary solver. Zero
/// heap allocation once the workspace is warm; on success the solution
/// stays in `ws` ([`SolveWorkspace::subsidies`] /
/// [`SolveWorkspace::state`]).
pub fn projection_solve_into(
    game: &SubsidyGame,
    s0: &[f64],
    cfg: &ViConfig,
    ws: &mut SolveWorkspace,
) -> NumResult<ViStats> {
    game.validate(s0)?;
    ws.ensure(game);
    ws.s.copy_from_slice(s0);
    clamp_in_place(&mut ws.s, 0.0, &ws.caps);
    let mut residual = f64::INFINITY;
    for iter in 0..cfg.max_iter {
        game.vi_map_into(&ws.s, &mut ws.prices, &mut ws.scratch, &mut ws.state, &mut ws.vi_f)?;
        step_into(&ws.s, &ws.vi_f, cfg.step, &mut ws.next);
        clamp_in_place(&mut ws.next, 0.0, &ws.caps);
        residual = sub_inf_norm(&ws.s, &ws.next) / cfg.step;
        std::mem::swap(&mut ws.s, &mut ws.next);
        if residual <= cfg.tol {
            return finish_vi(game, ws, iter + 1);
        }
    }
    Err(NumError::MaxIterations { max_iter: cfg.max_iter, residual })
}

/// Korpelevich extragradient: a predictor step probes `F`, the corrector
/// applies it — convergent for merely monotone maps, at twice the cost
/// per iteration. Zero heap allocation once the workspace is warm.
pub fn extragradient_solve_into(
    game: &SubsidyGame,
    s0: &[f64],
    cfg: &ViConfig,
    ws: &mut SolveWorkspace,
) -> NumResult<ViStats> {
    game.validate(s0)?;
    ws.ensure(game);
    ws.s.copy_from_slice(s0);
    clamp_in_place(&mut ws.s, 0.0, &ws.caps);
    let mut residual = f64::INFINITY;
    for iter in 0..cfg.max_iter {
        game.vi_map_into(&ws.s, &mut ws.prices, &mut ws.scratch, &mut ws.state, &mut ws.vi_f)?;
        step_into(&ws.s, &ws.vi_f, cfg.step, &mut ws.vi_pred);
        clamp_in_place(&mut ws.vi_pred, 0.0, &ws.caps);
        game.vi_map_into(
            &ws.vi_pred,
            &mut ws.prices,
            &mut ws.scratch,
            &mut ws.state,
            &mut ws.vi_f,
        )?;
        step_into(&ws.s, &ws.vi_f, cfg.step, &mut ws.next);
        clamp_in_place(&mut ws.next, 0.0, &ws.caps);
        residual = sub_inf_norm(&ws.s, &ws.next) / cfg.step;
        std::mem::swap(&mut ws.s, &mut ws.next);
        if residual <= cfg.tol {
            return finish_vi(game, ws, iter + 1);
        }
    }
    Err(NumError::MaxIterations { max_iter: cfg.max_iter, residual })
}

/// Terminal bookkeeping shared by the VI engines: solve the state at the
/// converged iterate and compute the natural residual, all in workspace
/// buffers (`vi_f` holds `F(s)`, `vi_pred` the projected probe).
fn finish_vi(game: &SubsidyGame, ws: &mut SolveWorkspace, iterations: usize) -> NumResult<ViStats> {
    game.vi_map_into(&ws.s, &mut ws.prices, &mut ws.scratch, &mut ws.state, &mut ws.vi_f)?;
    for i in 0..ws.s.len() {
        ws.vi_pred[i] = ws.s[i] - ws.vi_f[i];
    }
    clamp_in_place(&mut ws.vi_pred, 0.0, &ws.caps);
    let nr = sub_inf_norm(&ws.s, &ws.vi_pred);
    Ok(ViStats { natural_residual: nr, iterations, converged: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::NashSolver;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    /// Solves with `engine` on a fresh workspace and returns it.
    fn solved(
        engine: fn(&SubsidyGame, &[f64], &ViConfig, &mut SolveWorkspace) -> NumResult<ViStats>,
        game: &SubsidyGame,
        s0: &[f64],
        cfg: &ViConfig,
    ) -> NumResult<(ViStats, SolveWorkspace)> {
        let mut ws = SolveWorkspace::for_game(game);
        let stats = engine(game, s0, cfg, &mut ws)?;
        Ok((stats, ws))
    }

    fn paper_game(p: f64, q: f64) -> SubsidyGame {
        let mut specs = Vec::new();
        for &v in &[0.5, 1.0] {
            for &alpha in &[2.0, 5.0] {
                for &beta in &[2.0, 5.0] {
                    specs.push(ExpCpSpec::unit(alpha, beta, v));
                }
            }
        }
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap()
    }

    #[test]
    fn projection_agrees_with_best_response() {
        let game = paper_game(0.7, 0.6);
        let br = NashSolver::default().solve(&game).unwrap();
        let (stats, vi) =
            solved(projection_solve_into, &game, &[0.0; 8], &ViConfig::default()).unwrap();
        assert!(stats.converged);
        for i in 0..8 {
            assert!(
                (br.subsidies[i] - vi.subsidies()[i]).abs() < 1e-5,
                "CP {i}: BR {} vs VI {}",
                br.subsidies[i],
                vi.subsidies()[i]
            );
        }
    }

    #[test]
    fn extragradient_agrees_with_projection() {
        let game = paper_game(0.5, 1.0);
        let cfg = ViConfig::default();
        let (_, pj) = solved(projection_solve_into, &game, &[0.1; 8], &cfg).unwrap();
        let (_, eg) = solved(extragradient_solve_into, &game, &[0.4; 8], &cfg).unwrap();
        for i in 0..8 {
            assert!((pj.subsidies()[i] - eg.subsidies()[i]).abs() < 1e-5, "CP {i}");
        }
    }

    #[test]
    fn natural_residual_zero_at_solution_positive_elsewhere() {
        let game = paper_game(0.6, 0.5);
        let (sol, _) =
            solved(projection_solve_into, &game, &[0.0; 8], &ViConfig::default()).unwrap();
        assert!(sol.natural_residual < 1e-7);
        let off = natural_residual(&game, &[0.0; 8]).unwrap();
        assert!(off > 1e-3, "residual at the origin should be large, got {off}");
    }

    #[test]
    fn vi_map_is_negated_marginal_utility() {
        let game = paper_game(0.5, 1.0);
        let s = vec![0.2; 8];
        let f = vi_map(&game, &s).unwrap();
        let u = game.marginal_utilities(&s).unwrap();
        for i in 0..8 {
            assert_eq!(f[i], -u[i]);
        }
    }

    #[test]
    fn tiny_budget_errors_out() {
        let game = paper_game(0.5, 1.0);
        let cfg = ViConfig { max_iter: 2, ..Default::default() };
        assert!(matches!(
            solved(projection_solve_into, &game, &[0.0; 8], &cfg),
            Err(NumError::MaxIterations { .. })
        ));
    }
}

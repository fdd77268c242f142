//! Lane-batched Nash solving: K same-shape games advanced in lockstep.
//!
//! [`LaneGame`] packs K [`SubsidyGame`]s of identical market shape over a
//! [`LaneSystem`] (structure-of-arrays parameters, one distinct-`β` table
//! per lane); [`LaneSolver`] runs the Gauss–Seidel best-response sweep
//! *column-outer, lanes-inner*: for each provider column `i`, every
//! still-active lane computes its best response through the same
//! [`nash_br_core`] engine body the scalar [`crate::nash::NashSolver`]
//! runs. Converged lanes freeze — their
//! iterate, state and utilities are assembled once and never touched
//! again — while iteration continues until the active mask is empty.
//!
//! **Equivalence contract.** Per lane, the solver is *bit-identical* to
//! `NashSolver::default()` solving that lane's game from
//! [`crate::nash::WarmStart::Zero`]: the probe sequences are the
//! literal shared engine bodies, the φ-solves mirror the scalar kernel
//! expression-for-expression, and the population cache holds exactly the
//! bits `populations_for` would recompute (`exp` is pure). Lanes never
//! read each other's slices, so results are independent of how a batch is
//! blocked into lanes and of which thread solves which block — the
//! bit-identity contracts `tests/lane_equivalence.rs` pins.
//!
//! One deliberate difference from the scalar solver: sweep exhaustion
//! does not abort the batch. A lane that fails to converge (or whose
//! probe errors) is reported through [`LaneWorkspace::result_of`] while
//! its lane-mates finish normally — per-lane independence would otherwise
//! be lost.
//!
//! The lane-wide residual loop is hand-tiled in fixed-width chunks the
//! autovectorizer lowers to vector code; the pinned stable toolchain
//! has no `std::simd`, so there is no explicit SIMD path. Tiling only
//! reorders the max-reduction of the residual, which is
//! order-independent — values are unchanged. Plain copies use
//! `copy_from_slice` (a single `memcpy`).

use crate::best_response::{nash_br_core, BrConfig, BrObjective};
use crate::game::SubsidyGame;
use crate::nash::SolveStats;
use crate::workspace::SolveWorkspace;
use subcomp_model::lane::LaneSystem;
use subcomp_num::{NumError, NumResult};

/// Fixed tile width for the lane-wide residual loop.
const LANE_TILE: usize = 8;

/// `max_j |a_j − b_j|` in fixed-width chunks; the max-reduction is
/// order-independent, so this equals the sequential `sub_inf_norm`.
#[inline]
fn sup_diff_tiled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / LANE_TILE;
    let mut acc = [0.0f64; LANE_TILE];
    for c in 0..chunks {
        let base = c * LANE_TILE;
        for k in 0..LANE_TILE {
            acc[k] = acc[k].max((a[base + k] - b[base + k]).abs());
        }
    }
    let mut r = acc.iter().fold(0.0f64, |m, &v| m.max(v));
    for k in chunks * LANE_TILE..a.len() {
        r = r.max((a[k] - b[k]).abs());
    }
    r
}

/// K same-shape subsidy games over a [`LaneSystem`].
#[derive(Debug, Clone)]
pub struct LaneGame {
    system: LaneSystem,
    /// ISP price `p` per lane.
    price: Vec<f64>,
    /// Regulatory cap `q` per lane.
    cap: Vec<f64>,
}

impl LaneGame {
    /// Packs games into lanes. Returns `None` when the batch is not
    /// lane-eligible (see [`LaneSystem::from_systems`]) or any game uses
    /// the non-paper clamped-price convention — callers fall back to the
    /// scalar path.
    pub fn from_games(games: &[&SubsidyGame]) -> Option<LaneGame> {
        if games.iter().any(|g| g.clamps_effective_price()) {
            return None;
        }
        let systems: Vec<&subcomp_model::system::System> =
            games.iter().map(|g| g.system()).collect();
        let system = LaneSystem::from_systems(&systems)?;
        Some(LaneGame {
            system,
            price: games.iter().map(|g| g.price()).collect(),
            cap: games.iter().map(|g| g.cap()).collect(),
        })
    }

    /// Number of lanes K.
    pub fn lanes(&self) -> usize {
        self.system.lanes()
    }

    /// Providers per lane.
    pub fn n(&self) -> usize {
        self.system.n()
    }

    /// The packed physical systems.
    pub fn system(&self) -> &LaneSystem {
        &self.system
    }

    /// One lane's ISP price `p`.
    pub fn price_of(&self, lane: usize) -> f64 {
        self.price[lane]
    }

    /// One lane's effective strategy bound `min(q, v_i)` — the scalar
    /// [`SubsidyGame::effective_cap`] expression.
    pub fn effective_cap(&self, lane: usize, i: usize) -> f64 {
        self.cap[lane].min(self.system.profitability(lane, i))
    }
}

/// [`BrObjective`] over one (lane, provider) pair: probes overwrite
/// `m[i]` only, mirroring the scalar `utility_probe`/`marginal_probe`
/// expression-for-expression (unclamped effective price — `from_games`
/// declines clamped games).
struct LaneBrObjective<'a> {
    game: &'a LaneGame,
    lane: usize,
    i: usize,
    /// This lane's population cache (length `n`).
    m: &'a mut [f64],
    /// Per-lane `e^{-βφ}` scratch.
    exp: &'a mut [f64],
}

impl BrObjective for LaneBrObjective<'_> {
    fn cap(&self) -> f64 {
        self.game.effective_cap(self.lane, self.i)
    }

    fn utility(&mut self, si: f64) -> NumResult<f64> {
        let sys = self.game.system();
        let (lane, i) = (self.lane, self.i);
        self.m[i] = sys.population(lane, i, self.game.price[lane] - si);
        let phi = sys.solve_phi(lane, self.m, self.exp)?;
        let lambda_i = sys.lambda_of(lane, i, phi);
        Ok((sys.profitability(lane, i) - si) * (self.m[i] * lambda_i))
    }

    fn marginal(&mut self, si: f64) -> NumResult<f64> {
        let sys = self.game.system();
        let (lane, i) = (self.lane, self.i);
        self.m[i] = sys.population(lane, i, self.game.price[lane] - si);
        let phi = sys.solve_phi(lane, self.m, self.exp)?;
        let lambda_i = sys.lambda_of(lane, i, phi);
        let theta_ii = self.m[i] * lambda_i;
        let dg_dphi = sys.dgap_dphi(lane, phi, self.m, self.exp);
        // The scalar `marginal_from_parts` body (unclamped branch).
        let t_i = self.game.price[lane] - si;
        let dm_dsi = -sys.dm_dt(lane, i, t_i);
        let dphi_dsi = lambda_i * dm_dsi / dg_dphi;
        let dlambda = sys.dlambda_dphi(lane, i, phi);
        let dtheta_dsi = dm_dsi * lambda_i + self.m[i] * dlambda * dphi_dsi;
        Ok(-theta_ii + (sys.profitability(lane, i) - si) * dtheta_dsi)
    }
}

/// Reusable buffers plus per-lane results for [`LaneSolver::solve_into`].
/// All per-provider arrays are lane-major (`lane * n + j`); buffers only
/// grow, so one workspace hops between batches of any shape and warm
/// solves allocate nothing (pinned by `tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct LaneWorkspace {
    /// Current iterate; converged lanes hold their equilibrium.
    s: Vec<f64>,
    /// Next iterate under construction.
    next: Vec<f64>,
    /// Population cache: `m[lane*n+j] = m_j(p_lane − s_j)` of the iterate
    /// the Gauss–Seidel basis currently holds.
    m: Vec<f64>,
    /// Shared `e^{-βφ}` scratch (one best response runs at a time).
    exp: Vec<f64>,
    /// Active mask: `true` while a lane is still iterating.
    active: Vec<bool>,
    /// Per-lane stats (valid once the lane froze or sweeps ran out).
    stats: Vec<SolveStats>,
    /// Per-lane probe error, if one occurred.
    errors: Vec<Option<NumError>>,
    /// Converged per-provider throughputs `λ_j(φ)`.
    lambda: Vec<f64>,
    /// Converged per-provider aggregate throughputs `θ_j = m_j λ_j`.
    theta_i: Vec<f64>,
    /// Converged utilities `(v_j − s_j) θ_j`.
    utilities: Vec<f64>,
    /// Converged utilization per lane.
    phi: Vec<f64>,
    /// Converged gap slope per lane.
    dg_dphi: Vec<f64>,
}

impl LaneWorkspace {
    /// An empty workspace; buffers are sized lazily on first solve.
    pub fn new() -> LaneWorkspace {
        LaneWorkspace::default()
    }

    /// Sizes every buffer for `game` (allocation-free once warm).
    fn ensure(&mut self, game: &LaneGame) {
        let total = game.lanes() * game.n();
        self.s.resize(total, 0.0);
        self.next.resize(total, 0.0);
        self.m.resize(total, 0.0);
        self.lambda.resize(total, 0.0);
        self.theta_i.resize(total, 0.0);
        self.utilities.resize(total, 0.0);
        self.exp.resize(self.exp.len().max(game.system().max_distinct_betas()), 0.0);
        self.active.resize(game.lanes(), false);
        self.stats.resize(game.lanes(), SolveStats::default());
        self.errors.resize(game.lanes(), None);
        self.phi.resize(game.lanes(), 0.0);
        self.dg_dphi.resize(game.lanes(), 0.0);
    }

    /// One lane's equilibrium subsidies.
    pub fn subsidies_of(&self, lane: usize, n: usize) -> &[f64] {
        &self.s[lane * n..lane * n + n]
    }

    /// One lane's equilibrium utilities.
    pub fn utilities_of(&self, lane: usize, n: usize) -> &[f64] {
        &self.utilities[lane * n..lane * n + n]
    }

    /// One lane's converged utilization `φ`.
    pub fn phi_of(&self, lane: usize) -> f64 {
        self.phi[lane]
    }

    /// One lane's outcome: the solve stats on convergence, the probe
    /// error if one occurred, or `MaxIterations` mirroring the scalar
    /// solver's exhaustion error.
    pub fn result_of(&self, lane: usize) -> NumResult<SolveStats> {
        if let Some(err) = &self.errors[lane] {
            return Err(err.clone());
        }
        let stats = self.stats[lane];
        if !stats.converged {
            return Err(NumError::MaxIterations {
                max_iter: stats.iterations,
                residual: stats.residual,
            });
        }
        Ok(stats)
    }

    /// Copies one lane's solution into a scalar [`SolveWorkspace`] —
    /// subsidies, full congestion state and utilities land exactly where
    /// a scalar solve would leave them, so downstream consumers
    /// (equilibrium verification, welfare) run unchanged on either path.
    pub fn export_into(&self, game: &LaneGame, lane: usize, out: &mut SolveWorkspace) {
        let n = game.n();
        let base = lane * n;
        out.s.resize(n, 0.0);
        out.s.copy_from_slice(&self.s[base..base + n]);
        out.utilities.resize(n, 0.0);
        out.utilities.copy_from_slice(&self.utilities[base..base + n]);
        out.state.phi = self.phi[lane];
        out.state.dg_dphi = self.dg_dphi[lane];
        out.state.m.resize(n, 0.0);
        out.state.m.copy_from_slice(&self.m[base..base + n]);
        out.state.lambda.resize(n, 0.0);
        out.state.lambda.copy_from_slice(&self.lambda[base..base + n]);
        out.state.theta_i.resize(n, 0.0);
        out.state.theta_i.copy_from_slice(&self.theta_i[base..base + n]);
    }
}

/// Lockstep Gauss–Seidel over a [`LaneGame`], mirroring the scalar
/// [`crate::nash::NashSolver`] defaults (damping 1, tolerance `1e-9`,
/// 600 sweeps, threshold best responses with grid-scan fallback).
#[derive(Debug, Clone, Copy)]
pub struct LaneSolver {
    /// Damping `ω ∈ (0, 1]`: `s ← (1−ω) s + ω BR(s)`.
    pub damping: f64,
    /// Convergence threshold on the per-lane sup-norm sweep update.
    pub tol: f64,
    /// Maximum sweeps.
    pub max_sweeps: usize,
    /// Grid-fallback configuration for profiles the threshold engine
    /// declines.
    pub br: BrConfig,
}

impl Default for LaneSolver {
    fn default() -> Self {
        LaneSolver { damping: 1.0, tol: 1e-9, max_sweeps: 600, br: BrConfig::default() }
    }
}

impl LaneSolver {
    /// Sets the sup-norm convergence tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the sweep budget.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Solves every lane from the zero profile (the paper's baseline
    /// start). Returns the number of lanes that converged; per-lane
    /// outcomes are read back through [`LaneWorkspace::result_of`].
    /// Allocation-free on a warm workspace.
    pub fn solve_into(&self, game: &LaneGame, ws: &mut LaneWorkspace) -> usize {
        let lanes = game.lanes();
        let n = game.n();
        ws.ensure(game);
        ws.s[..lanes * n].fill(0.0);
        for lane in 0..lanes {
            let base = lane * n;
            for j in 0..n {
                // The scalar populations_for expression at the zero start.
                ws.m[base + j] = game.system.population(lane, j, game.price[lane] - ws.s[base + j]);
            }
            ws.active[lane] = true;
            ws.stats[lane] = SolveStats { residual: f64::INFINITY, ..SolveStats::default() };
            ws.errors[lane] = None;
        }
        let mut remaining = lanes;
        for sweep in 0..self.max_sweeps {
            if remaining == 0 {
                break;
            }
            for lane in 0..lanes {
                if ws.active[lane] {
                    let base = lane * n;
                    ws.next[base..base + n].copy_from_slice(&ws.s[base..base + n]);
                }
            }
            // Column-outer, lanes-inner: provider i best-responds in every
            // active lane before the sweep moves to provider i + 1.
            for i in 0..n {
                for lane in 0..lanes {
                    if !ws.active[lane] {
                        continue;
                    }
                    let base = lane * n;
                    let hint = ws.s[base + i];
                    let obj = LaneBrObjective {
                        game,
                        lane,
                        i,
                        m: &mut ws.m[base..base + n],
                        exp: &mut ws.exp,
                    };
                    match nash_br_core(obj, hint, &self.br) {
                        Ok(br) => {
                            ws.stats[lane].phi_solves += br.phi_solves;
                            ws.stats[lane].br_fallbacks += usize::from(br.fallback);
                            ws.next[base + i] =
                                (1.0 - self.damping) * ws.s[base + i] + self.damping * br.s;
                            // Restore the cache invariant: m reflects the
                            // Gauss–Seidel basis (the updated `next`).
                            ws.m[base + i] = game.system.population(
                                lane,
                                i,
                                game.price[lane] - ws.next[base + i],
                            );
                        }
                        Err(e) => {
                            ws.active[lane] = false;
                            ws.errors[lane] = Some(e);
                            let stats = &mut ws.stats[lane];
                            (stats.iterations, stats.residual) = (sweep + 1, f64::INFINITY);
                            remaining -= 1;
                        }
                    }
                }
            }
            for lane in 0..lanes {
                if !ws.active[lane] {
                    continue;
                }
                let base = lane * n;
                let residual = sup_diff_tiled(&ws.s[base..base + n], &ws.next[base..base + n]);
                let (s_block, next_block) = (&mut ws.s[base..base + n], &ws.next[base..base + n]);
                s_block.copy_from_slice(next_block);
                let stats = &mut ws.stats[lane];
                (stats.iterations, stats.residual) = (sweep + 1, residual);
                if residual <= self.tol {
                    ws.active[lane] = false;
                    remaining -= 1;
                    stats.converged = true;
                    if let Err(e) = finish_lane(game, ws, lane) {
                        ws.errors[lane] = Some(e);
                        ws.stats[lane].converged = false;
                    }
                }
            }
        }
        for lane in 0..lanes {
            ws.active[lane] = false;
        }
        (0..lanes).filter(|&l| ws.stats[l].converged).count()
    }
}

/// Assembles one converged lane's state and utilities, mirroring the
/// scalar convergence epilogue (`state_into` + `utility_at_state`): the
/// populations are recomputed from the final iterate, the fixed point
/// re-solved once, and `λ`, `θ_i`, `dg/dφ` assembled from one exp fill.
fn finish_lane(game: &LaneGame, ws: &mut LaneWorkspace, lane: usize) -> NumResult<()> {
    let n = game.n();
    let base = lane * n;
    for j in 0..n {
        ws.m[base + j] = game.system.population(lane, j, game.price[lane] - ws.s[base + j]);
    }
    let phi = game.system.solve_phi(lane, &ws.m[base..base + n], &mut ws.exp)?;
    let dg_dphi = game.system.state_into(
        lane,
        phi,
        &ws.m[base..base + n],
        &mut ws.exp,
        &mut ws.lambda[base..base + n],
        &mut ws.theta_i[base..base + n],
    );
    ws.phi[lane] = phi;
    ws.dg_dphi[lane] = dg_dphi;
    for j in 0..n {
        ws.utilities[base + j] =
            (game.system.profitability(lane, j) - ws.s[base + j]) * ws.theta_i[base + j];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::{NashSolver, WarmStart};
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn game(mu: f64, p: f64, q: f64, bump: f64) -> SubsidyGame {
        let specs = [
            ExpCpSpec::unit(2.0 + bump, 2.0, 1.0),
            ExpCpSpec::unit(5.0, 3.0 + bump, 0.6),
            ExpCpSpec::unit(3.0, 3.0 + bump, 1.0),
        ];
        SubsidyGame::new(build_system(&specs, mu).unwrap(), p, q).unwrap()
    }

    #[test]
    fn lane_solve_is_bit_identical_to_scalar_threshold_solver() {
        let games = [game(1.0, 0.6, 0.8, 0.0), game(1.3, 0.9, 1.2, 0.5), game(0.7, 0.4, 0.3, 1.0)];
        let refs: Vec<&SubsidyGame> = games.iter().collect();
        let lane_game = LaneGame::from_games(&refs).expect("paper-family games are eligible");
        let mut lw = LaneWorkspace::new();
        let converged = LaneSolver::default().solve_into(&lane_game, &mut lw);
        assert_eq!(converged, games.len());

        let scalar = NashSolver::default();
        let mut ws = SolveWorkspace::new();
        for (l, g) in games.iter().enumerate() {
            let stats = scalar.solve_into(g, WarmStart::Zero, &mut ws).unwrap();
            let lane_stats = lw.result_of(l).unwrap();
            assert_eq!(lane_stats.iterations, stats.iterations, "lane {l} iteration drift");
            assert_eq!(
                lane_stats.residual.to_bits(),
                stats.residual.to_bits(),
                "lane {l} residual drift"
            );
            for (a, b) in lw.subsidies_of(l, g.n()).iter().zip(ws.subsidies()) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {l} subsidy drift");
            }
            for (a, b) in lw.utilities_of(l, g.n()).iter().zip(ws.utilities()) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {l} utility drift");
            }
            assert_eq!(lw.phi_of(l).to_bits(), ws.state().phi.to_bits());
        }
    }

    #[test]
    fn results_do_not_depend_on_lane_blocking() {
        // Lanes never read each other's slices: solving [g0, g1, g2] as
        // one 3-lane batch or as {[g0], [g1, g2]} gives identical bits.
        let games = [game(1.0, 0.6, 0.8, 0.0), game(1.3, 0.9, 1.2, 0.5), game(0.7, 0.4, 0.3, 1.0)];
        let refs: Vec<&SubsidyGame> = games.iter().collect();
        let all = LaneGame::from_games(&refs).unwrap();
        let mut lw_all = LaneWorkspace::new();
        LaneSolver::default().solve_into(&all, &mut lw_all);

        let first = LaneGame::from_games(&refs[..1]).unwrap();
        let rest = LaneGame::from_games(&refs[1..]).unwrap();
        let mut lw_split = LaneWorkspace::new();
        LaneSolver::default().solve_into(&first, &mut lw_split);
        let n = games[0].n();
        let s0: Vec<f64> = lw_split.subsidies_of(0, n).to_vec();
        LaneSolver::default().solve_into(&rest, &mut lw_split);
        for (a, b) in lw_all.subsidies_of(0, n).iter().zip(&s0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for l in 0..2 {
            for (a, b) in lw_all.subsidies_of(l + 1, n).iter().zip(lw_split.subsidies_of(l, n)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn export_matches_scalar_workspace() {
        let games = [game(1.0, 0.6, 0.8, 0.0), game(1.3, 0.9, 1.2, 0.5)];
        let refs: Vec<&SubsidyGame> = games.iter().collect();
        let lane_game = LaneGame::from_games(&refs).unwrap();
        let mut lw = LaneWorkspace::new();
        LaneSolver::default().solve_into(&lane_game, &mut lw);
        let scalar = NashSolver::default();
        let mut want = SolveWorkspace::new();
        let mut got = SolveWorkspace::new();
        for (l, g) in games.iter().enumerate() {
            scalar.solve_into(g, WarmStart::Zero, &mut want).unwrap();
            lw.export_into(&lane_game, l, &mut got);
            assert_eq!(got.subsidies(), want.subsidies());
            assert_eq!(got.utilities(), want.utilities());
            assert_eq!(got.state().phi.to_bits(), want.state().phi.to_bits());
            assert_eq!(got.state().dg_dphi.to_bits(), want.state().dg_dphi.to_bits());
            assert_eq!(got.state().theta_i, want.state().theta_i);
            assert_eq!(got.state().m, want.state().m);
            assert_eq!(got.state().lambda, want.state().lambda);
        }
    }

    #[test]
    fn tiled_residual_matches_reference() {
        let a: Vec<f64> = (0..19).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..19).map(|i| (i as f64 * 0.3).cos()).collect();
        let want = subcomp_num::linalg::vector::sub_inf_norm(&a, &b);
        assert_eq!(sup_diff_tiled(&a, &b).to_bits(), want.to_bits());
    }

    #[test]
    fn declines_clamped_games() {
        let g = game(1.0, 0.6, 0.8, 0.0).with_clamped_price(true);
        assert!(LaneGame::from_games(&[&g]).is_none());
    }
}

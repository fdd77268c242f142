//! Single-provider best responses.
//!
//! Provider `i`'s best response solves `max_{s_i ∈ [0, q]} U_i(s_i; s_{-i})`
//! — the inner problem of Definition 3. Because `U_i < 0 = U_i(v_i)` for
//! `s_i > v_i` (a subsidy above the per-unit profit burns money on every
//! byte), the search interval shrinks to `[0, min(q, v_i)]` without loss.
//!
//! Each utility evaluation requires re-solving the congestion fixed point.
//! The Nash solvers iterate the Theorem 3 threshold engine
//! (`nash_best_response_into`): a root of the analytic marginal utility.
//! The grid scan ([`best_response`]) is the robust fallback for profiles
//! the threshold engine declines and the public reference: a coarse scan
//! localizes the maximum (corner solutions at both ends are *expected*
//! equilibria per Theorem 3), then Brent polishing refines interior
//! candidates.

use crate::game::SubsidyGame;
use std::cell::RefCell;
use subcomp_model::system::StateScratch;
use subcomp_num::optimize::maximize_scalar_reusing_ends;
use subcomp_num::roots::Bracket;
use subcomp_num::{NumError, NumResult, Tolerance};

/// Outcome of a best-response computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The maximizing subsidy.
    pub s: f64,
    /// The utility achieved.
    pub utility: f64,
    /// Objective evaluations spent (each solves a fixed point).
    pub evaluations: usize,
}

/// One best response of the Nash iteration: the subsidy alone, since the
/// iteration reads nothing else and the utility would cost one more
/// fixed-point solve, plus the work it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BrStep {
    /// The best-response subsidy.
    pub s: f64,
    /// Fixed points solved, the probes of a declined threshold included.
    pub phi_solves: usize,
    /// Whether the threshold engine declined and the grid scan answered.
    pub fallback: bool,
}

/// Configuration for the grid-scan best-response search.
#[derive(Debug, Clone, Copy)]
pub struct BrConfig {
    /// Grid points for the localization scan.
    pub grid: usize,
    /// Polish tolerance.
    pub tol: Tolerance,
}

impl Default for BrConfig {
    fn default() -> Self {
        BrConfig { grid: 24, tol: Tolerance::new(1e-11, 1e-11).with_max_iter(120) }
    }
}

/// Computes provider `i`'s best response to the profile `s` (the value of
/// `s[i]` itself is ignored) by the grid scan, allocating throwaway
/// buffers. `evaluations` counts every fixed-point solve, the marginal
/// refinement's included (duplicate endpoint evaluations are reused, not
/// recomputed).
pub fn best_response(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    cfg: &BrConfig,
) -> NumResult<BestResponse> {
    // The components other than `i` never change, so validate once. A
    // failure maps to the same error an objective that is non-finite
    // everywhere surfaces.
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "grid_scan objective", at: 0.0 });
    }
    let mut m = Vec::new();
    let mut scratch = game.system().make_scratch();
    game.populations_for(s, &mut m);
    let mut obj =
        Counted { obj: GameBrObjective { game, i, m: &mut m, scratch: &mut scratch }, solves: 0 };
    let (s, utility) = grid_br_core(&mut obj, cfg)?;
    Ok(BestResponse { s, utility, evaluations: obj.solves })
}

/// A single-provider objective the two best-response engines below
/// maximize: the utility `U_i(s_i; s_{-i})` and its analytic marginal
/// `u_i(s_i)`, with every other coordinate frozen. The scalar solvers
/// implement it over a [`SubsidyGame`] plus cached populations; the lane
/// engine implements it over one lane of a structure-of-arrays batch.
/// Both run the *identical* engine bodies, so the lane path cannot drift
/// from the scalar reference by construction.
pub(crate) trait BrObjective {
    /// Search upper bound `min(q, v_i)`.
    fn cap(&self) -> f64;
    /// `U_i` at `s_i` (solves the congestion fixed point).
    fn utility(&mut self, si: f64) -> NumResult<f64>;
    /// `u_i = ∂U_i/∂s_i` at `s_i` (solves the fixed point).
    fn marginal(&mut self, si: f64) -> NumResult<f64>;
}

/// [`BrObjective`] over a scalar game: probes overwrite `m[i]` only (the
/// frozen components' populations are precomputed by the caller).
struct GameBrObjective<'a> {
    game: &'a SubsidyGame,
    i: usize,
    m: &'a mut Vec<f64>,
    scratch: &'a mut StateScratch,
}

impl BrObjective for GameBrObjective<'_> {
    fn cap(&self) -> f64 {
        self.game.effective_cap(self.i)
    }
    fn utility(&mut self, si: f64) -> NumResult<f64> {
        self.game.utility_probe(self.i, si, self.m, self.scratch)
    }
    fn marginal(&mut self, si: f64) -> NumResult<f64> {
        self.game.marginal_probe(self.i, si, self.m, self.scratch)
    }
}

/// A [`BrObjective`] counting the fixed points its probes solve: the one
/// place best-response work is counted, whichever engine runs.
struct Counted<O> {
    obj: O,
    solves: usize,
}

impl<O: BrObjective> BrObjective for Counted<O> {
    fn cap(&self) -> f64 {
        self.obj.cap()
    }
    fn utility(&mut self, si: f64) -> NumResult<f64> {
        self.solves += 1;
        self.obj.utility(si)
    }
    fn marginal(&mut self, si: f64) -> NumResult<f64> {
        self.solves += 1;
        self.obj.marginal(si)
    }
}

/// One best response of the Nash iteration over a scalar game: validates
/// the profile once, caches the frozen components' populations in `m`
/// (they do not depend on `s_i`, so each probe recomputes only `m[i]` and
/// the congestion fixed point), then runs [`nash_br_core`].
pub(crate) fn nash_best_response_into(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    hint: f64,
    cfg: &BrConfig,
    m: &mut Vec<f64>,
    scratch: &mut StateScratch,
) -> NumResult<BrStep> {
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "threshold best-response profile", at: 0.0 });
    }
    game.populations_for(s, m);
    nash_br_core(GameBrObjective { game, i, m, scratch }, hint, cfg)
}

/// The best-response body both Nash solvers run, scalar and lane alike:
/// the Theorem 3 threshold engine, and the grid scan for a provider whose
/// marginal it declines. Agrees with [`best_response`] to the shared root
/// tolerance (~1e-12) at interior optima and exactly at corners; it is
/// not bit-identical (different probe sequence).
pub(crate) fn nash_br_core<O: BrObjective>(obj: O, hint: f64, cfg: &BrConfig) -> NumResult<BrStep> {
    let mut obj = Counted { obj, solves: 0 };
    if let Some(s) = threshold_br_core(&mut obj, hint)? {
        return Ok(BrStep { s, phi_solves: obj.solves, fallback: false });
    }
    let (s, _) = grid_br_core(&mut obj, cfg)?;
    Ok(BrStep { s, phi_solves: obj.solves, fallback: true })
}

/// The grid-scan engine body, generic over the objective (see
/// [`BrObjective`]): grid localization, Brent polish of the cell, then
/// (for interior maximizers, which value-comparison locates only to
/// ~sqrt(eps)) a root-finding refinement of the *analytic* marginal
/// utility `u_i(s_i) = 0` — the ~1e-12 accuracy the sensitivity analysis
/// (Theorem 6) needs. Returns the maximizer and its utility.
fn grid_br_core<O: BrObjective>(obj: &mut O, cfg: &BrConfig) -> NumResult<(f64, f64)> {
    let hi = obj.cap();
    let buffers = RefCell::new(obj);
    let f = |si: f64| buffers.borrow_mut().utility(si).unwrap_or(f64::NEG_INFINITY);
    let m = maximize_scalar_reusing_ends(&f, 0.0, hi, cfg.grid, cfg.tol)?;
    let mut best = (m.x, m.value);
    let interior_margin = 1e-5 * (1.0 + hi);
    if m.x > interior_margin && m.x < hi - interior_margin {
        let u_of = |si: f64| buffers.borrow_mut().marginal(si).unwrap_or(f64::NAN);
        let mut delta = 16.0 * interior_margin;
        let mut bracket = None;
        for _ in 0..8 {
            let a = (m.x - delta).max(0.0);
            let b = (m.x + delta).min(hi);
            let (ua, ub) = (u_of(a), u_of(b));
            if ua.is_finite() && ub.is_finite() && ua >= 0.0 && ub <= 0.0 {
                bracket = Some((Bracket::new(a, b), ua, ub));
                break;
            }
            delta *= 2.0;
        }
        if let Some((br, ua, ub)) = bracket {
            if let Ok(root) = subcomp_num::roots::brent_seeded(
                &mut |si| u_of(si),
                br,
                ua,
                ub,
                Tolerance::new(1e-13, 1e-13).with_max_iter(120),
            ) {
                let refined = root.x.clamp(0.0, hi);
                let val = f(refined);
                if val.is_finite() && val >= best.1 - 1e-12 {
                    best = (refined, val);
                }
            }
        }
    }
    Ok(best)
}

/// Theorem 3 threshold best response: instead of a grid scan, exploit the
/// paper's own characterization `s_i* = min{τ_i, min(q, v_i)}`, where the
/// marginal utility `u_i(s_i)` has a single `+ → −` sign change at the
/// threshold `τ_i` (Assumptions 1–2 guarantee this structure). Three
/// marginal probes classify the corners; an interior threshold is a Brent
/// root of the *analytic* `u_i`, seeded near `hint` (the continuation
/// iterate) so nearby grid points converge in a handful of probes. Every
/// exit returns after the last marginal probe: no utility is solved for,
/// except on a zero-width box, where one utility solve is the only probe
/// and surfaces a failing fixed point as an error.
///
/// Returns `Ok(None)` when the observed signs do not match the single-
/// crossing structure (non-finite probes, a non-exponential family
/// violating the assumptions numerically) — [`nash_br_core`] then falls
/// back to the robust grid scan, so this path can never *wrongly* answer,
/// only decline.
fn threshold_br_core<O: BrObjective>(obj: &mut O, hint: f64) -> NumResult<Option<f64>> {
    let hi = obj.cap();
    if hi <= 0.0 {
        obj.utility(0.0)?;
        return Ok(Some(0.0));
    }
    let mut u_of = |si: f64| obj.marginal(si).unwrap_or(f64::NAN);
    // Corner classification (Theorem 3's KKT cases).
    let u0 = u_of(0.0);
    if !u0.is_finite() {
        return Ok(None);
    }
    if u0 <= 0.0 {
        // τ_i ≤ 0: the margin loss dominates from the start.
        return Ok(Some(0.0));
    }
    let u_hi = u_of(hi);
    if !u_hi.is_finite() {
        return Ok(None);
    }
    if u_hi >= 0.0 {
        // τ_i ≥ min(q, v_i): pinned at the effective cap.
        return Ok(Some(hi));
    }
    // Interior threshold: u(0) > 0 > u(hi). Shrink the bracket around the
    // continuation hint first — under continuation the root moved O(Δp)
    // from `hint`, so a tight bracket usually survives and Brent finishes
    // in a few probes. Fall back to the full interval otherwise.
    let hint = hint.clamp(0.0, hi);
    let u_hint = u_of(hint);
    if !u_hint.is_finite() {
        return Ok(None);
    }
    if u_hint == 0.0 {
        return Ok(Some(hint));
    }
    let delta = 1e-2 * (1.0 + hi);
    let (br, ua, ub) = if u_hint > 0.0 {
        let b = (hint + delta).min(hi);
        let ub = if b < hi { u_of(b) } else { u_hi };
        if ub.is_finite() && ub <= 0.0 {
            (Bracket::new(hint, b), u_hint, ub)
        } else {
            (Bracket::new(hint, hi), u_hint, u_hi)
        }
    } else {
        let a = (hint - delta).max(0.0);
        let ua = if a > 0.0 { u_of(a) } else { u0 };
        if ua.is_finite() && ua >= 0.0 {
            (Bracket::new(a, hint), ua, u_hint)
        } else {
            (Bracket::new(0.0, hint), u0, u_hint)
        }
    };
    let Ok(root) = subcomp_num::roots::brent_seeded(
        &mut u_of,
        br,
        ua,
        ub,
        Tolerance::new(1e-13, 1e-13).with_max_iter(120),
    ) else {
        return Ok(None);
    };
    Ok(Some(root.x.clamp(0.0, hi)))
}

/// The maximum utility any provider can gain by unilaterally deviating
/// from `s` — the *deviation gap*, zero exactly at a Nash equilibrium.
/// Returns `(gap, argmax_provider)`.
pub fn deviation_gap(game: &SubsidyGame, s: &[f64], cfg: &BrConfig) -> NumResult<(f64, usize)> {
    game.validate(s)?;
    let us = game.utilities(s)?;
    let mut worst = (0.0f64, 0usize);
    for i in 0..game.n() {
        let br = best_response(game, i, s, cfg)?;
        let gain = br.utility - us[i];
        if gain > worst.0 {
            worst = (gain, i);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn single_cp_game(alpha: f64, v: f64, p: f64, q: f64) -> SubsidyGame {
        let sys = build_system(&[ExpCpSpec::unit(alpha, 2.0, v)], 1.0).unwrap();
        SubsidyGame::new(sys, p, q).unwrap()
    }

    #[test]
    fn monopolist_interior_best_response() {
        // With one CP and weak congestion feedback, the optimum is near the
        // no-feedback solution s* = v - 1/alpha (from d/ds[(v-s)e^{alpha s}]).
        let g = single_cp_game(8.0, 1.0, 1.0, 2.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        let no_feedback = 1.0 - 1.0 / 8.0;
        assert!(br.s > 0.5 && br.s <= no_feedback + 1e-6, "br = {}", br.s);
        // Must be a stationary point: u_i ~ 0 there.
        let u = g.marginal_utility(0, &[br.s]).unwrap();
        assert!(u.abs() < 1e-4, "marginal utility at BR = {u}");
    }

    #[test]
    fn unprofitable_cp_does_not_subsidize() {
        // alpha small, v small: margin loss dominates, corner at 0.
        let g = single_cp_game(0.5, 0.3, 0.5, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert_eq!(br.s, 0.0);
        // Theorem 3's corner condition: u_i <= 0 at s_i = 0.
        assert!(g.marginal_utility(0, &[0.0]).unwrap() <= 1e-10);
    }

    #[test]
    fn tight_cap_binds() {
        // Strong demand response, low cap: corner at q.
        let g = single_cp_game(8.0, 1.0, 1.0, 0.2);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert!((br.s - 0.2).abs() < 1e-9, "br = {}", br.s);
        assert!(g.marginal_utility(0, &[0.2]).unwrap() >= -1e-10);
    }

    #[test]
    fn best_response_never_exceeds_profitability() {
        let g = single_cp_game(10.0, 0.4, 1.0, 2.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert!(br.s <= 0.4 + 1e-12);
    }

    #[test]
    fn best_response_beats_grid() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        for k in 0..=50 {
            let s = k as f64 * 0.02;
            let u = g.utility(0, &[s]).unwrap();
            assert!(br.utility >= u - 1e-9, "grid point {s} beats BR");
        }
    }

    #[test]
    fn deviation_gap_zero_at_br_fixed_point() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        let (gap, _) = deviation_gap(&g, &[br.s], &BrConfig::default()).unwrap();
        assert!(gap < 1e-8, "gap = {gap}");
    }

    #[test]
    fn deviation_gap_positive_off_equilibrium() {
        let g = single_cp_game(8.0, 1.0, 1.0, 2.0);
        let (gap, who) = deviation_gap(&g, &[0.0], &BrConfig::default()).unwrap();
        assert!(gap > 1e-3, "gap = {gap}");
        assert_eq!(who, 0);
    }

    #[test]
    fn threshold_br_agrees_with_grid_scan() {
        // Theorem 3's threshold characterization must land on the same
        // answer as the robust grid-scan engine — exactly at corners,
        // to root tolerance at interior optima — across corner, interior
        // and cap-pinned regimes, with and without a useful hint.
        let cases = [
            (0.5, 0.3, 0.5, 1.0),  // corner at 0
            (8.0, 1.0, 1.0, 2.0),  // interior
            (8.0, 1.0, 1.0, 0.2),  // pinned at cap
            (5.0, 1.0, 0.8, 1.0),  // interior, moderate elasticity
            (10.0, 0.4, 1.0, 2.0), // pinned at v < q
        ];
        for (alpha, v, p, q) in cases {
            let g = single_cp_game(alpha, v, p, q);
            let grid = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
            for hint in [0.0, 0.5 * grid.s, grid.s, g.effective_cap(0)] {
                let mut m = Vec::new();
                let mut scratch = g.system().make_scratch();
                let cfg = BrConfig::default();
                let thr = nash_best_response_into(&g, 0, &[0.0], hint, &cfg, &mut m, &mut scratch)
                    .unwrap();
                assert!(!thr.fallback, "exponential family satisfies the Theorem 3 structure");
                assert!(
                    (thr.s - grid.s).abs() < 1e-9,
                    "(α={alpha}, v={v}, p={p}, q={q}, hint={hint}): threshold {} vs grid {}",
                    thr.s,
                    grid.s
                );
                assert!((g.utility(0, &[thr.s]).unwrap() - grid.utility).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn threshold_br_zero_width_box() {
        let g = single_cp_game(5.0, 1.0, 0.8, 0.0);
        let mut m = Vec::new();
        let mut scratch = g.system().make_scratch();
        let thr =
            nash_best_response_into(&g, 0, &[0.0], 0.3, &BrConfig::default(), &mut m, &mut scratch)
                .unwrap();
        assert_eq!(thr, BrStep { s: 0.0, phi_solves: 1, fallback: false });
    }

    #[test]
    fn two_player_responses_interact() {
        // CP 1's best response shrinks when CP 0 floods the system
        // (congestion externality, Lemma 3).
        let sys =
            build_system(&[ExpCpSpec::unit(6.0, 1.0, 1.0), ExpCpSpec::unit(6.0, 8.0, 1.0)], 1.0)
                .unwrap();
        let g = SubsidyGame::new(sys, 0.8, 1.0).unwrap();
        let br_alone = best_response(&g, 1, &[0.0, 0.0], &BrConfig::default()).unwrap();
        let br_crowded = best_response(&g, 1, &[0.9, 0.0], &BrConfig::default()).unwrap();
        assert!(br_crowded.utility < br_alone.utility);
    }
}

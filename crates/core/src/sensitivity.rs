//! Equilibrium sensitivity analysis (Theorem 6).
//!
//! Near a regular equilibrium, `s(p, q)` is differentiable with
//!
//! ```text
//! ∂s_i/∂q = 0                                  i ∈ N⁻ (pinned at 0)
//! ∂s_i/∂q = 1                                  i ∈ N⁺ (pinned at q)
//! ∂s_i/∂q = −Σ_k ψ_{ik} Σ_{j∈N⁺} ∂u_k/∂s_j     i ∈ Ñ  (interior)
//!
//! ∂s_i/∂p = 0                                  i ∉ Ñ
//! ∂s_i/∂p = −Σ_k ψ_{ik} ∂u_k/∂p                i ∈ Ñ
//! ```
//!
//! with `Ψ = (∇_s̃ ũ)^{-1}`, the inverse Jacobian of interior marginal
//! utilities. This module classifies the active sets, assembles the
//! Jacobian (central differences of the *analytic* `u`), inverts it by LU,
//! and reports both derivative vectors. Degenerate equilibria (a pinned
//! provider with `u_i = 0`, violating strict complementarity) are flagged
//! rather than silently differentiated.

use crate::equilibrium::PIN_TOL;
use crate::game::{Axis, SubsidyGame};
use crate::structure::marginal_utility_jacobian;
use subcomp_model::system::{StateScratch, SystemState};
use subcomp_num::linalg::lu::LuDecomposition;
use subcomp_num::{NumError, NumResult};

/// Strict-complementarity tolerance: a pinned provider whose marginal
/// utility is within this bound of zero makes the equilibrium *degenerate*
/// — the active set is about to change and one-sided derivatives are the
/// best Theorem 6 can offer. [`Sensitivity::compute`] flags such
/// equilibria (`regular = false`); [`Sensitivity::directional`] refuses to
/// differentiate them.
pub const DEGENERATE_U_TOL: f64 = 1e-6;

/// The boundary classification `N⁻ / Ñ / N⁺` of an equilibrium profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// Providers pinned at `s_i = 0`.
    pub lower: Vec<usize>,
    /// Interior providers (`0 < s_i < q`).
    pub interior: Vec<usize>,
    /// Providers pinned at `s_i = q`.
    pub upper: Vec<usize>,
}

impl ActiveSet {
    /// Classifies a profile against the box `[0, q]` with tolerance
    /// [`PIN_TOL`].
    ///
    /// The classification is *total* (every index lands in exactly one
    /// set) and *order-independent* (membership depends only on `(s_i, q)`,
    /// never on which corner is tested first). The subtle case is the
    /// degenerate box `q ≤ 2·PIN_TOL`, where the two pin conditions
    /// overlap and a provider can satisfy both: there each provider is
    /// assigned to the *nearer* corner (ties to the lower one), instead of
    /// letting the first-tested condition win.
    pub fn classify(s: &[f64], q: f64) -> ActiveSet {
        let mut lower = Vec::new();
        let mut interior = Vec::new();
        let mut upper = Vec::new();
        let degenerate = q <= 2.0 * PIN_TOL;
        for (i, &si) in s.iter().enumerate() {
            if degenerate {
                // Both corners are within PIN_TOL of each other; the
                // interior is empty by construction.
                if si <= q - si {
                    lower.push(i);
                } else {
                    upper.push(i);
                }
            } else if si <= PIN_TOL {
                lower.push(i);
            } else if si >= q - PIN_TOL {
                upper.push(i);
            } else {
                interior.push(i);
            }
        }
        ActiveSet { lower, interior, upper }
    }
}

/// Reusable buffers for the finite-difference leg of the sensitivity
/// engine ([`Sensitivity::axis_shift_into`]): the two probe outputs plus
/// the price/scratch/state buffers the allocation-free marginal-utility
/// evaluation threads through. After warm-up (one call per game size) a
/// probe performs zero heap allocation — pinned in `tests/alloc_free.rs`.
#[derive(Debug, Clone, Default)]
pub struct FdWorkspace {
    up: Vec<f64>,
    um: Vec<f64>,
    prices: Vec<f64>,
    scratch: StateScratch,
    state: SystemState,
}

impl FdWorkspace {
    /// Creates an empty workspace; buffers size themselves on first use
    /// and only ever grow, so one workspace serves games of any size.
    pub fn new() -> FdWorkspace {
        FdWorkspace::default()
    }
}

/// Theorem 6 sensitivities at an equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Active-set partition used.
    pub active: ActiveSet,
    /// `∂s_i/∂q` per provider.
    pub ds_dq: Vec<f64>,
    /// `∂s_i/∂p` per provider.
    pub ds_dp: Vec<f64>,
    /// Whether strict complementarity held (no pinned provider with
    /// `u_i ≈ 0`); when false the derivatives are one-sided at best.
    pub regular: bool,
}

impl Sensitivity {
    /// Computes Theorem 6's formulas at the (solved) equilibrium `s`.
    pub fn compute(game: &SubsidyGame, s: &[f64]) -> NumResult<Sensitivity> {
        game.validate(s)?;
        let n = game.n();
        let q = game.cap();
        let active = ActiveSet::classify(s, q);
        let u = game.marginal_utilities(s)?;

        // Regularity (strict complementarity): pinned providers must have
        // strictly one-sided marginal utility.
        let regular = degenerate_pin(&active, &u).is_none();

        let mut ds_dq = vec![0.0; n];
        let mut ds_dp = vec![0.0; n];
        for &i in &active.upper {
            ds_dq[i] = 1.0;
        }
        if !active.interior.is_empty() {
            let jac = marginal_utility_jacobian(game, s)?;
            let sub = jac.submatrix(&active.interior)?;
            let lu = LuDecomposition::new(&sub)?;
            // One clone for the whole call (the caller's game stays
            // shared); the in-place probe+restore inside `axis_rhs`
            // keeps it bit-exact across both axes.
            let mut probe = game.clone();
            let mut fd = FdWorkspace::new();

            // ∂s̃/∂q = −Ψ · (Σ_{j∈N⁺} ∂u_k/∂s_j)_k  — solve instead of
            // invert (the rhs is identically zero when nobody pins at q).
            if !active.upper.is_empty() {
                let rhs = axis_rhs(&mut probe, s, Axis::Cap, &active, &jac, &mut fd)?;
                let sol = lu.solve(&rhs)?;
                for (slot, &i) in active.interior.iter().enumerate() {
                    ds_dq[i] = -sol[slot];
                }
            }

            // ∂s̃/∂p = −Ψ ∂ũ/∂p with ∂u/∂p by central difference.
            let rhs = axis_rhs(&mut probe, s, Axis::Price, &active, &jac, &mut fd)?;
            let sol = lu.solve(&rhs)?;
            for (slot, &i) in active.interior.iter().enumerate() {
                ds_dp[i] = -sol[slot];
            }
        }
        Ok(Sensitivity { active, ds_dq, ds_dp, regular })
    }

    /// The Theorem 6 directional derivative `∂s/∂θ` of the equilibrium
    /// along an arbitrary parameter axis `θ` — the generalization of
    /// [`Sensitivity::compute`]'s `ds_dq`/`ds_dp` columns to the capacity
    /// `µ` (Theorem 1 direction) and per-provider profitabilities `v_j`
    /// (Theorem 5 direction). This is the tangent the predictor-corrector
    /// continuation engine feeds into
    /// [`crate::nash::WarmStart::Tangent`].
    ///
    /// Structure per Theorem 6: providers pinned at `s_i = 0` do not move
    /// (`∂s_i/∂θ = 0`); providers pinned at `s_i = q` move one-for-one
    /// with the cap (`∂s_i/∂q = 1`) and not at all with any other axis;
    /// interior providers solve `∂s̃/∂θ = −Ψ ∂ũ/∂θ` with
    /// `Ψ = (∇_s̃ ũ)^{-1}`. For [`Axis::Cap`] and [`Axis::Price`] the
    /// result coincides with `compute`'s `ds_dq`/`ds_dp`; for the other
    /// axes `∂u/∂θ` is a central difference of the *analytic* marginal
    /// utilities under the in-place reparameterization
    /// ([`SubsidyGame::set_mu`]/[`SubsidyGame::set_profitability`]).
    ///
    /// The FD leg is **clone-free**: the game is probed in place
    /// (`θ₀ ± h`) through [`Sensitivity::axis_shift_into`] and restored
    /// to exactly `θ₀` before returning — which is why the receiver is
    /// `&mut`. On return the game is bit-identical to what was passed
    /// in, on error paths included (axis writes are pure parameter
    /// stores, so the restore is exact).
    ///
    /// # Errors
    /// A degenerate equilibrium — a pinned provider with `u_i ≈ 0`,
    /// violating strict complementarity — is refused with a domain error
    /// rather than silently differentiated: the one-sided derivative a
    /// continuation step would extrapolate from it is wrong on one side.
    pub fn directional(game: &mut SubsidyGame, s: &[f64], axis: Axis) -> NumResult<Vec<f64>> {
        game.validate(s)?;
        if let Axis::Profitability(j) = axis {
            if j >= game.n() {
                return Err(NumError::DimensionMismatch { expected: game.n(), actual: j });
            }
        }
        let n = game.n();
        let q = game.cap();
        let active = ActiveSet::classify(s, q);
        let u = game.marginal_utilities(s)?;
        if let Some(&i) = degenerate_pin(&active, &u) {
            return Err(NumError::Domain {
                what: "degenerate equilibrium: pinned provider with u_i = 0 \
                       (strict complementarity fails; derivatives are one-sided)",
                value: u[i],
            });
        }

        let mut ds = vec![0.0; n];
        if axis == Axis::Cap {
            for &i in &active.upper {
                ds[i] = 1.0;
            }
        }
        // Interior providers are the only ones that move through Ψ — and
        // along the cap axis the right-hand side is identically zero when
        // nobody pins at q, so the Jacobian/LU work is skipped there too.
        if active.interior.is_empty() || (axis == Axis::Cap && active.upper.is_empty()) {
            return Ok(ds);
        }
        let jac = marginal_utility_jacobian(game, s)?;
        let sub = jac.submatrix(&active.interior)?;
        let lu = LuDecomposition::new(&sub)?;
        let mut fd = FdWorkspace::new();
        let rhs = axis_rhs(game, s, axis, &active, &jac, &mut fd)?;
        let sol = lu.solve(&rhs)?;
        for (slot, &i) in active.interior.iter().enumerate() {
            ds[i] = -sol[slot];
        }
        Ok(ds)
    }

    /// The finite-difference marginal-utility shift `∂u/∂θ` under the
    /// in-place reparameterization, written into `out` — the FD
    /// cross-check leg of [`Sensitivity::directional`], exposed so
    /// resident engines can pin it. Clone-free probe+restore: the axis
    /// is written to `θ₀ ± h` in place and **always restored to exactly
    /// `θ₀`** before returning, error paths included (axis writes are
    /// pure parameter stores, so the restore is bit-exact). After `ws`
    /// warm-up the probe performs zero heap allocation (pinned in
    /// `tests/alloc_free.rs`).
    ///
    /// # Errors
    /// [`Axis::Cap`] is refused — the cap moves the feasible box, not
    /// the marginal utilities, so it has no FD leg (its Theorem 6
    /// right-hand side is a Jacobian column sum instead).
    pub fn axis_shift_into(
        game: &mut SubsidyGame,
        s: &[f64],
        axis: Axis,
        ws: &mut FdWorkspace,
        out: &mut Vec<f64>,
    ) -> NumResult<()> {
        if axis == Axis::Cap {
            return Err(NumError::Domain {
                what: "the cap axis has no finite-difference leg \
                       (it moves the box, not the marginal utilities)",
                value: f64::NAN,
            });
        }
        if let Axis::Profitability(j) = axis {
            if j >= game.n() {
                return Err(NumError::DimensionMismatch { expected: game.n(), actual: j });
            }
        }
        let theta0 = axis.value(game);
        // Respect each axis' domain: price/profitability live on
        // [0, ∞), capacity on (0, ∞).
        let h = match axis {
            Axis::Mu => (1e-6 * (1.0 + theta0)).min(0.5 * theta0),
            _ => 1e-6 * (1.0 + theta0),
        };
        let hi = theta0 + h;
        let lo = (theta0 - h).max(if axis == Axis::Mu { 0.5 * theta0 } else { 0.0 });
        let probes = (|| {
            axis.apply(game, hi)?;
            game.marginal_utilities_into(
                s,
                &mut ws.prices,
                &mut ws.scratch,
                &mut ws.state,
                &mut ws.up,
            )?;
            axis.apply(game, lo)?;
            game.marginal_utilities_into(
                s,
                &mut ws.prices,
                &mut ws.scratch,
                &mut ws.state,
                &mut ws.um,
            )
        })();
        // Restore θ₀ *before* surfacing any probe error, so the game
        // comes back unchanged whatever happened.
        let restored = axis.apply(game, theta0);
        probes?;
        restored?;
        let denom = hi - lo;
        out.resize(game.n(), 0.0);
        for (o, (&u, &m)) in out.iter_mut().zip(ws.up.iter().zip(&ws.um)) {
            *o = (u - m) / denom;
        }
        Ok(())
    }

    /// Tests the equilibrium `s` for degeneracy *without* differentiating:
    /// `Ok(Some(active_set))` when a pinned provider violates strict
    /// complementarity (the exact condition [`Sensitivity::directional`]
    /// refuses with a domain error), `Ok(None)` when differentiation is
    /// admissible. The serving layer answers degenerate sensitivity reads
    /// with the returned partition (a typed, recoverable reply) instead of
    /// failing the request — the same fallback ladder the µ-sweep uses.
    pub fn degeneracy(game: &SubsidyGame, s: &[f64]) -> NumResult<Option<ActiveSet>> {
        game.validate(s)?;
        let active = ActiveSet::classify(s, game.cap());
        let u = game.marginal_utilities(s)?;
        Ok(degenerate_pin(&active, &u).is_some().then_some(active))
    }
}

/// The first pinned provider violating strict complementarity, if any —
/// the one degeneracy test [`Sensitivity::compute`],
/// [`Sensitivity::directional`] and [`Sensitivity::degeneracy`] all share,
/// so their verdicts can never drift apart.
fn degenerate_pin<'a>(active: &'a ActiveSet, u: &[f64]) -> Option<&'a usize> {
    active.lower.iter().chain(&active.upper).find(|&&i| u[i].abs() <= DEGENERATE_U_TOL)
}

/// The Theorem 6 right-hand side `(∂u_k/∂θ)_{k ∈ Ñ}` for one axis — the
/// single implementation [`Sensitivity::compute`] and
/// [`Sensitivity::directional`] both solve against (the agreement test
/// pins them bit-identical, so the FD constants live in exactly one
/// place). For the cap axis this is the pinned-provider column sum
/// `Σ_{j∈N⁺} ∂u_k/∂s_j` read off the Jacobian; for every other axis the
/// clone-free in-place probe+restore [`Sensitivity::axis_shift_into`]
/// gathered over the interior set.
fn axis_rhs(
    game: &mut SubsidyGame,
    s: &[f64],
    axis: Axis,
    active: &ActiveSet,
    jac: &subcomp_num::linalg::Matrix,
    fd: &mut FdWorkspace,
) -> NumResult<Vec<f64>> {
    match axis {
        // ∂s̃/∂q: the pinned-at-q providers drag their neighbours.
        Axis::Cap => Ok(active
            .interior
            .iter()
            .map(|&k| active.upper.iter().map(|&j| jac[(k, j)]).sum::<f64>())
            .collect()),
        _ => {
            let mut shift = Vec::new();
            Sensitivity::axis_shift_into(game, s, axis, fd, &mut shift)?;
            Ok(active.interior.iter().map(|&k| shift[k]).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::NashSolver;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    /// A copy of `game` with `axis` moved to `value`.
    fn moved(game: &SubsidyGame, axis: Axis, value: f64) -> SubsidyGame {
        let mut game = game.clone();
        axis.apply(&mut game, value).unwrap();
        game
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

    fn solve(game: &SubsidyGame) -> Vec<f64> {
        NashSolver::default().with_tol(1e-10).solve(game).unwrap().subsidies
    }

    #[test]
    fn active_set_classification() {
        let a = ActiveSet::classify(&[0.0, 0.5, 1.0, 1e-9, 1.0 - 1e-9], 1.0);
        assert_eq!(a.lower, vec![0, 3]);
        assert_eq!(a.interior, vec![1]);
        assert_eq!(a.upper, vec![2, 4]);
    }

    #[test]
    fn degenerate_box_classification_is_total_and_order_independent() {
        // q ≤ 2·PIN_TOL: both pin conditions overlap, so a provider can
        // satisfy both. The classification must still assign each index to
        // exactly one set, by corner proximity (ties to lower) rather than
        // by whichever condition happens to be tested first.
        let q = 1e-8;
        let s = [0.0, 1e-8, 4e-9, 6e-9, 5e-9];
        let a = ActiveSet::classify(&s, q);
        assert_eq!(a.lower, vec![0, 2, 4], "nearer (or tied with) the 0 corner");
        assert_eq!(a.upper, vec![1, 3], "strictly nearer the q corner");
        assert!(a.interior.is_empty(), "a degenerate box has no interior");
        let total = a.lower.len() + a.interior.len() + a.upper.len();
        assert_eq!(total, s.len(), "classification must be total");
        let mut all: Vec<usize> =
            a.lower.iter().chain(&a.interior).chain(&a.upper).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), s.len(), "no index may appear in two sets");
        // q = 0 exactly: everyone sits on both corners at once; ties go low.
        let z = ActiveSet::classify(&[0.0, 0.0], 0.0);
        assert_eq!(z.lower, vec![0, 1]);
        assert!(z.upper.is_empty() && z.interior.is_empty());
    }

    #[test]
    fn sensitivity_computes_on_a_degenerate_box_equilibrium() {
        // Regression at q ≈ 0: before the proximity rule, classification
        // near the overlapping corners depended on test order; Theorem 6's
        // formulas must still come out total and finite here.
        let game = paper_game(0.6, 1e-8);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.active.interior.is_empty());
        assert_eq!(
            sens.active.lower.len() + sens.active.upper.len(),
            8,
            "every provider classified exactly once"
        );
        for &i in &sens.active.upper {
            assert_eq!(sens.ds_dq[i], 1.0);
        }
        for &i in &sens.active.lower {
            assert_eq!(sens.ds_dq[i], 0.0);
        }
    }

    #[test]
    fn ds_dq_matches_finite_difference_of_equilibria() {
        // A setting with all three sets populated: moderate price, cap
        // binding for the most aggressive CPs.
        let q = 0.35;
        let game = paper_game(0.6, q);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        let s_hi = solve(&moved(&game, Axis::Cap, q + h));
        let s_lo = solve(&moved(&game, Axis::Cap, q - h));
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (sens.ds_dq[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd} (active: {:?})",
                sens.ds_dq[i],
                sens.active
            );
        }
    }

    #[test]
    fn ds_dp_matches_finite_difference_of_equilibria() {
        let p = 0.9;
        let game = paper_game(p, 1.0);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        let s_hi = solve(&moved(&game, Axis::Price, p + h));
        let s_lo = solve(&moved(&game, Axis::Price, p - h));
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (sens.ds_dp[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd}",
                sens.ds_dp[i]
            );
        }
    }

    #[test]
    fn pinned_at_cap_moves_one_for_one_with_q() {
        // Small p, small q: everyone profitable is pinned; Theorem 6 says
        // ds/dq = 1 for them.
        let game = paper_game(0.2, 0.1);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(!sens.active.upper.is_empty());
        for &i in &sens.active.upper {
            assert_eq!(sens.ds_dq[i], 1.0);
        }
        for &i in &sens.active.lower {
            assert_eq!(sens.ds_dq[i], 0.0);
            assert_eq!(sens.ds_dp[i], 0.0);
        }
    }

    #[test]
    fn corollary1_nonnegative_ds_dq() {
        // Under off-diagonal monotonicity (checked in structure tests for
        // this game), Corollary 1 gives ds/dq >= 0 for every provider.
        for (p, q) in [(0.4, 0.3), (0.6, 0.35), (0.8, 0.5)] {
            let game = paper_game(p, q);
            let s = solve(&game);
            let sens = Sensitivity::compute(&game, &s).unwrap();
            for i in 0..8 {
                assert!(sens.ds_dq[i] >= -1e-8, "(p={p}, q={q}) CP {i}: ds/dq = {}", sens.ds_dq[i]);
            }
        }
    }

    #[test]
    fn regularity_flag_on_clean_equilibrium() {
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.regular, "paper equilibrium should satisfy strict complementarity");
    }

    #[test]
    fn directional_matches_compute_on_price_and_cap() {
        let mut game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.regular);
        let dq = Sensitivity::directional(&mut game, &s, Axis::Cap).unwrap();
        let dp = Sensitivity::directional(&mut game, &s, Axis::Price).unwrap();
        // Same Jacobian, same LU, same right-hand sides — bit-identical.
        assert_eq!(dq, sens.ds_dq);
        assert_eq!(dp, sens.ds_dp);
    }

    #[test]
    fn ds_dmu_matches_finite_difference_of_equilibria() {
        // Theorem 1's comparative statics through the Theorem 6 system:
        // the directional derivative along µ must match re-solved
        // equilibria at perturbed capacities.
        let mut game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let ds = Sensitivity::directional(&mut game, &s, Axis::Mu).unwrap();
        let h = 1e-4;
        let s_hi = solve(&moved(&game, Axis::Mu, 1.0 + h));
        let s_lo = solve(&moved(&game, Axis::Mu, 1.0 - h));
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (ds[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd}",
                ds[i]
            );
        }
    }

    #[test]
    fn ds_dv_matches_finite_difference_of_equilibria() {
        // Theorem 5's direction: bump one provider's profitability and
        // compare the whole equilibrium response against the directional
        // derivative ∂s/∂v_j.
        let mut game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        // One interior provider (its own subsidy responds) and one pinned
        // provider (its neighbours still respond through the Jacobian).
        let mut probes = Vec::new();
        if let Some(&j) = sens.active.interior.first() {
            probes.push(j);
        }
        if let Some(&j) = sens.active.upper.first() {
            probes.push(j);
        }
        assert!(!probes.is_empty(), "test setting must populate at least one probe set");
        for j in probes {
            let ds = Sensitivity::directional(&mut game, &s, Axis::Profitability(j)).unwrap();
            let v = game.profitability(j);
            let s_hi = solve(&moved(&game, Axis::Profitability(j), v + h));
            let s_lo = solve(&moved(&game, Axis::Profitability(j), v - h));
            for i in 0..8 {
                let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
                assert!(
                    (ds[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                    "v[{j}], CP {i}: theorem {} vs fd {fd}",
                    ds[i]
                );
            }
        }
    }

    #[test]
    fn directional_rejects_degenerate_equilibrium() {
        // Build a genuinely degenerate equilibrium: solve an interior best
        // response, then set the cap exactly there — the provider is
        // pinned at q with u_i ≈ 0, violating strict complementarity.
        use subcomp_model::aggregation::ExpCpSpec;
        let sys = build_system(&[ExpCpSpec::unit(8.0, 2.0, 1.0)], 1.0).unwrap();
        let free = SubsidyGame::new(sys.clone(), 1.0, 2.0).unwrap();
        let s_star = NashSolver::default().with_tol(1e-10).solve(&free).unwrap().subsidies[0];
        assert!(s_star > 0.1 && s_star < 2.0 - 0.1, "interior by construction");
        let mut pinned = SubsidyGame::new(sys, 1.0, s_star).unwrap();
        let s = solve(&pinned);
        assert!((s[0] - s_star).abs() < 1e-6, "the cap now binds exactly at the old optimum");
        // compute() flags it; directional() refuses to differentiate it.
        let sens = Sensitivity::compute(&pinned, &s).unwrap();
        assert!(!sens.regular, "pinned provider with u = 0 must be flagged degenerate");
        for axis in [Axis::Cap, Axis::Price, Axis::Mu, Axis::Profitability(0)] {
            let err = Sensitivity::directional(&mut pinned, &s, axis);
            assert!(err.is_err(), "degenerate equilibrium must error along {}", axis.describe());
        }
        // degeneracy() agrees with both, returning the partition instead
        // of an error — the serving layer's typed-reply source.
        let active = Sensitivity::degeneracy(&pinned, &s)
            .unwrap()
            .expect("degenerate equilibrium must be detected");
        assert_eq!(active, ActiveSet::classify(&s, pinned.cap()));
        assert!(active.upper.contains(&0), "the pinned provider sits in N+");
        // A regular equilibrium reports None.
        assert!(Sensitivity::degeneracy(&free, &solve(&free)).unwrap().is_none());
    }

    #[test]
    fn directional_validates_inputs() {
        let mut game = paper_game(0.6, 0.35);
        let s = solve(&game);
        assert!(Sensitivity::directional(&mut game, &s, Axis::Profitability(99)).is_err());
        assert!(Sensitivity::directional(&mut game, &[0.0; 3], Axis::Mu).is_err());
    }

    #[test]
    fn all_interior_case_has_zero_dq_except_psi_terms() {
        // Large cap: nobody pinned at q; N+ empty makes ds/dq = 0 for
        // interior providers (Theorem 6 with empty sum).
        let game = paper_game(0.9, 2.0);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.active.upper.is_empty());
        for &i in &sens.active.interior {
            assert!(sens.ds_dq[i].abs() < 1e-9);
        }
    }
}

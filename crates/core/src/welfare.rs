//! System welfare and its decomposition (Section 5.2, Corollary 2).
//!
//! The paper measures welfare as the CPs' gross profit `W = Σ_i v_i θ_i`:
//! it internalizes the subsidy transfer (a subsidy moves money from CP to
//! user to ISP without destroying value) and proxies user welfare through
//! CP value. [`WelfareBreakdown`] additionally reports where the money
//! flows — user payments, subsidy outlays, ISP revenue, net CP utility —
//! which the examples use to tell the two-sided-market story.
//!
//! Corollary 2's marginal-welfare condition at a policy point is
//! implemented in [`corollary2`].

use crate::game::SubsidyGame;
use subcomp_model::system::SystemState;
use subcomp_num::{NumError, NumResult};

/// System welfare `W = Σ_i v_i θ_i` at a solved state.
pub fn welfare(game: &SubsidyGame, state: &SystemState) -> f64 {
    (0..game.n()).map(|i| game.profitability(i) * state.theta_i[i]).sum()
}

/// Full monetary decomposition of a strategy profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WelfareBreakdown {
    /// Gross CP profit `W = Σ v_i θ_i` (the paper's welfare metric).
    pub welfare: f64,
    /// Per-provider contribution `v_i θ_i`.
    pub per_cp: Vec<f64>,
    /// ISP revenue `p θ`.
    pub isp_revenue: f64,
    /// What users pay out of pocket, `Σ t_i θ_i` (`t_i = p − s_i`).
    pub user_payments: f64,
    /// What CPs pay in subsidies, `Σ s_i θ_i`.
    pub subsidy_outlay: f64,
    /// Net CP utility `Σ (v_i − s_i) θ_i = W − outlay`.
    pub cp_net_utility: f64,
}

impl WelfareBreakdown {
    /// Computes the breakdown at profile `s`.
    pub fn compute(game: &SubsidyGame, s: &[f64]) -> NumResult<WelfareBreakdown> {
        game.validate(s)?;
        let state = game.state(s)?;
        let n = game.n();
        let per_cp: Vec<f64> = (0..n).map(|i| game.profitability(i) * state.theta_i[i]).collect();
        let w: f64 = per_cp.iter().sum();
        let outlay: f64 = s.iter().zip(&state.theta_i).map(|(si, th)| si * th).sum();
        let isp_revenue = game.price() * state.theta();
        Ok(WelfareBreakdown {
            welfare: w,
            per_cp,
            isp_revenue,
            user_payments: isp_revenue - outlay,
            subsidy_outlay: outlay,
            cp_net_utility: w - outlay,
        })
    }
}

/// Consumer surplus per provider, under the valuation-distribution
/// reading of Assumption 2 (the paper cites it: `m(t)` is the mass of
/// users whose valuation exceeds `t`).
///
/// A user with valuation `u ≥ t_i` enjoys surplus `u − t_i` per unit of
/// traffic; integrating over the population gives the classic
/// `CS_i = λ_i ∫_{t_i}^∞ m_i(u) du` — per-user traffic rate times the
/// area under the demand curve above the effective price. The integral
/// is evaluated by adaptive Simpson with an adaptive tail cutoff, so it
/// works for every demand family, not only the exponential one (whose
/// closed form `m₀ e^{-αt}/α` the tests cross-check).
///
/// The paper's welfare `W = Σ v_i θ_i` deliberately proxies user welfare
/// through CP profits; this function makes the user side explicit so the
/// examples can report a full `W + CS` picture.
pub fn consumer_surplus(game: &SubsidyGame, state: &SystemState, s: &[f64]) -> NumResult<Vec<f64>> {
    let n = game.n();
    if s.len() != n || state.n() != n {
        return Err(NumError::DimensionMismatch { expected: n, actual: s.len().min(state.n()) });
    }
    let p = game.price();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t_i = p - s[i];
        let demand = game.system().cp(i).demand();
        // Expand the upper limit until the demand tail is negligible.
        let mut hi = t_i.max(0.0) + 1.0;
        let scale = demand.m(t_i).max(1e-300);
        for _ in 0..60 {
            if demand.m(hi) <= 1e-10 * scale {
                break;
            }
            hi = t_i.max(0.0) + (hi - t_i.max(0.0)) * 2.0;
        }
        let mass = subcomp_num::quad::adaptive_simpson(&|u| demand.m(u), t_i, hi, 1e-10)?;
        out.push(state.lambda[i] * mass);
    }
    Ok(out)
}

/// The two sides of Corollary 2's marginal-welfare condition.
///
/// With `w_i = λ_i dm_i/dq` and `dφ/dq > 0`, welfare increases in `q` iff
///
/// ```text
/// Σ_i (w_i / Σ_k w_k) v_i  >  Σ_i (−ε^{λ_i}_{m_i}) v_i.
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Corollary2 {
    /// Weights `w_i = λ_i · dm_i/dq`.
    pub w: Vec<f64>,
    /// The population-gain side (left-hand side).
    pub lhs: f64,
    /// The congestion-loss side (right-hand side).
    pub rhs: f64,
    /// `dφ/dq` used (the corollary presumes it positive).
    pub dphi_dq: f64,
    /// Direct evaluation of `dW/dq` from the same ingredients.
    pub dw_dq: f64,
}

impl Corollary2 {
    /// Whether the corollary predicts increasing welfare.
    pub fn predicts_increase(&self) -> bool {
        self.lhs > self.rhs
    }
}

/// Evaluates Corollary 2 at an equilibrium, given the total derivatives
/// `dt_i/dq` of effective prices (from Theorem 8's chain through `p(q)`
/// and `s(p, q)`; pass `−∂s_i/∂q` for the fixed-price case).
pub fn corollary2(
    game: &SubsidyGame,
    state: &SystemState,
    s: &[f64],
    dt_dq: &[f64],
) -> NumResult<Corollary2> {
    let n = game.n();
    if dt_dq.len() != n || s.len() != n {
        return Err(NumError::DimensionMismatch { expected: n, actual: dt_dq.len().min(s.len()) });
    }
    let p = game.price();
    let mut w = Vec::with_capacity(n);
    let mut dm_dq = Vec::with_capacity(n);
    for i in 0..n {
        let t_i = p - s[i];
        let dm = game.system().cp(i).demand().dm_dt(t_i) * dt_dq[i];
        dm_dq.push(dm);
        w.push(state.lambda[i] * dm);
    }
    let dphi_dq: f64 = w.iter().sum::<f64>() / state.dg_dphi;
    let w_total: f64 = w.iter().sum();
    let lhs = if w_total != 0.0 {
        (0..n).map(|i| w[i] / w_total * game.profitability(i)).sum()
    } else {
        0.0
    };
    // RHS: Σ (−ε^{λ_i}_{m_i}) v_i with ε^{λ_i}_{m_i} = m_i λ_i'(φ)/(dg/dφ).
    let rhs = (0..n)
        .map(|i| {
            let eps = state.m[i] * game.system().cp(i).throughput().dlambda_dphi(state.phi)
                / state.dg_dphi;
            -eps * game.profitability(i)
        })
        .sum();
    // Direct dW/dq from the same chain (Corollary 2's proof line):
    // dW/dq = Σ v_i (m_i λ_i' dφ/dq + w_i).
    let dw_dq = (0..n)
        .map(|i| {
            let dlam = game.system().cp(i).throughput().dlambda_dphi(state.phi);
            game.profitability(i) * (state.m[i] * dlam * dphi_dq + w[i])
        })
        .sum();
    Ok(Corollary2 { w, lhs, rhs, dphi_dq, dw_dq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::NashSolver;
    use crate::sensitivity::Sensitivity;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

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
    fn breakdown_accounting_identities() {
        let game = paper_game(0.6, 0.5);
        let eq = NashSolver::default().solve(&game).unwrap();
        let b = WelfareBreakdown::compute(&game, &eq.subsidies).unwrap();
        // Money conservation: users + CP subsidies = ISP revenue.
        assert!((b.user_payments + b.subsidy_outlay - b.isp_revenue).abs() < 1e-10);
        // CP net = gross - outlay.
        assert!((b.cp_net_utility - (b.welfare - b.subsidy_outlay)).abs() < 1e-10);
        // Per-CP sums to total.
        assert!((b.per_cp.iter().sum::<f64>() - b.welfare).abs() < 1e-12);
    }

    #[test]
    fn welfare_higher_with_subsidies_at_fixed_price() {
        // Corollary 1 + Corollary 2 story at fixed p: allowing subsidies
        // raises W versus the q = 0 baseline.
        let p = 0.6;
        let base = paper_game(p, 0.0);
        let eq0 = NashSolver::default().solve(&base).unwrap();
        let w0 = welfare(&base, &eq0.state);
        let dereg = paper_game(p, 1.0);
        let eq1 = NashSolver::default().solve(&dereg).unwrap();
        let w1 = welfare(&dereg, &eq1.state);
        assert!(w1 > w0, "deregulated welfare {w1} must beat baseline {w0}");
    }

    #[test]
    fn corollary2_matches_finite_difference_fixed_price() {
        // Fixed price: dt_i/dq = -ds_i/dq. Compare dW/dq with re-solved
        // equilibria at q ± h.
        let (p, q) = (0.6, 0.35);
        let game = paper_game(p, q);
        let solver = NashSolver::default().with_tol(1e-10);
        let eq = solver.solve(&game).unwrap();
        let sens = Sensitivity::compute(&game, &eq.subsidies).unwrap();
        let dt_dq: Vec<f64> = sens.ds_dq.iter().map(|d| -d).collect();
        let c2 = corollary2(&game, &eq.state, &eq.subsidies, &dt_dq).unwrap();

        let h = 1e-4;
        let whi = {
            let mut g = game.clone();
            g.set_cap(q + h).unwrap();
            let e = solver.solve(&g).unwrap();
            welfare(&g, &e.state)
        };
        let wlo = {
            let mut g = game.clone();
            g.set_cap(q - h).unwrap();
            let e = solver.solve(&g).unwrap();
            welfare(&g, &e.state)
        };
        let fd = (whi - wlo) / (2.0 * h);
        assert!(
            (c2.dw_dq - fd).abs() < 3e-2 * (1.0 + fd.abs()),
            "corollary {} vs fd {fd}",
            c2.dw_dq
        );
        // Condition consistency: sign(dW/dq) agrees with lhs vs rhs when
        // dphi/dq > 0.
        if c2.dphi_dq > 1e-9 {
            assert_eq!(c2.predicts_increase(), c2.dw_dq > 0.0);
        }
    }

    #[test]
    fn corollary2_dphi_dq_positive_under_deregulation() {
        // Corollary 1: utilization rises with q at fixed price.
        let game = paper_game(0.6, 0.35);
        let eq = NashSolver::default().solve(&game).unwrap();
        let sens = Sensitivity::compute(&game, &eq.subsidies).unwrap();
        let dt_dq: Vec<f64> = sens.ds_dq.iter().map(|d| -d).collect();
        let c2 = corollary2(&game, &eq.state, &eq.subsidies, &dt_dq).unwrap();
        assert!(c2.dphi_dq > 0.0);
    }

    #[test]
    fn dimension_checks() {
        let game = paper_game(0.5, 0.5);
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!(corollary2(&game, &eq.state, &eq.subsidies, &[0.0; 3]).is_err());
        assert!(consumer_surplus(&game, &eq.state, &[0.0; 3]).is_err());
    }

    #[test]
    fn consumer_surplus_matches_exponential_closed_form() {
        // For m(t) = e^{-alpha t}: integral above t is e^{-alpha t}/alpha,
        // so CS_i = lambda_i e^{-alpha t_i} / alpha_i = theta_i / (m_i alpha_i) * m_i...
        // = lambda_i m(t_i)/alpha_i.
        let game = paper_game(0.6, 0.5);
        let eq = NashSolver::default().solve(&game).unwrap();
        let cs = consumer_surplus(&game, &eq.state, &eq.subsidies).unwrap();
        let alphas = [2.0, 2.0, 5.0, 5.0, 2.0, 2.0, 5.0, 5.0];
        for i in 0..8 {
            let expect = eq.state.lambda[i] * eq.state.m[i] / alphas[i];
            assert!(
                (cs[i] - expect).abs() < 1e-6 * (1.0 + expect),
                "CP {i}: {} vs closed form {expect}",
                cs[i]
            );
        }
    }

    #[test]
    fn subsidies_raise_consumer_surplus() {
        // Users are the unambiguous winners of subsidization at fixed p:
        // cheaper access and more of them enjoying it.
        let p = 0.6;
        let banned = paper_game(p, 0.0);
        let eq0 = NashSolver::default().solve(&banned).unwrap();
        let cs0: f64 = consumer_surplus(&banned, &eq0.state, &eq0.subsidies).unwrap().iter().sum();
        let open = paper_game(p, 1.0);
        let eq1 = NashSolver::default().solve(&open).unwrap();
        let cs1: f64 = consumer_surplus(&open, &eq1.state, &eq1.subsidies).unwrap().iter().sum();
        // Note: congestion lowers lambda, but the direct price effect
        // dominates in the paper's setting.
        assert!(cs1 > cs0, "consumer surplus must rise: {cs0} -> {cs1}");
    }
}

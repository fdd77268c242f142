//! Property tests on the game layer: equilibrium existence, feasibility,
//! certificates, and comparative statics across random markets.

use proptest::prelude::*;
use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::NashSolver;
use subcomp_core::vi::natural_residual;
use subcomp_core::welfare::WelfareBreakdown;
use subcomp_model::aggregation::{build_system, ExpCpSpec};

fn market_strategy() -> impl Strategy<Value = Vec<ExpCpSpec>> {
    proptest::collection::vec(
        (0.8f64..6.0, 0.8f64..6.0, 0.1f64..1.2)
            .prop_map(|(alpha, beta, v)| ExpCpSpec::unit(alpha, beta, v)),
        2..=4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn equilibrium_exists_and_certifies(
        specs in market_strategy(),
        p in 0.1f64..1.2,
        q in 0.05f64..1.0,
    ) {
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap();
        let eq = NashSolver::default().with_tol(1e-8).solve(&game).unwrap();
        // Three independent certificates agree.
        let kkt = verify_equilibrium(&game, &eq.subsidies).unwrap();
        prop_assert!(kkt.is_equilibrium(1e-4));
        let nr = natural_residual(&game, &eq.subsidies).unwrap();
        prop_assert!(nr < 1e-5, "natural residual {nr}");
    }

    #[test]
    fn money_is_conserved_at_equilibrium(
        specs in market_strategy(),
        p in 0.1f64..1.2,
        q in 0.0f64..1.0,
    ) {
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap();
        let eq = NashSolver::default().solve(&game).unwrap();
        let b = WelfareBreakdown::compute(&game, &eq.subsidies).unwrap();
        prop_assert!((b.user_payments + b.subsidy_outlay - b.isp_revenue).abs() < 1e-9);
        prop_assert!(b.cp_net_utility >= -1e-9);
        prop_assert!(b.welfare >= b.cp_net_utility - 1e-9);
    }

    #[test]
    fn subsidies_weakly_increase_with_cap(
        specs in market_strategy(),
        p in 0.2f64..1.0,
        q in 0.1f64..0.6,
    ) {
        // Corollary 1's ∂s/∂q ≥ 0 observed between re-solved equilibria.
        let sys = build_system(&specs, 1.0).unwrap();
        let solver = NashSolver::default().with_tol(1e-9);
        let tight = solver.solve(&SubsidyGame::new(sys.clone(), p, q).unwrap()).unwrap();
        let loose = solver.solve(&SubsidyGame::new(sys, p, q + 0.2).unwrap()).unwrap();
        for i in 0..tight.subsidies.len() {
            prop_assert!(
                loose.subsidies[i] >= tight.subsidies[i] - 1e-6,
                "CP {i}: {} -> {}", tight.subsidies[i], loose.subsidies[i]
            );
        }
    }

    #[test]
    fn raising_one_profitability_never_lowers_its_subsidy(
        specs in market_strategy(),
        p in 0.2f64..1.0,
        bump in 0.1f64..0.8,
    ) {
        // Theorem 5 across random markets.
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, 1.0).unwrap();
        let solver = NashSolver::default().with_tol(1e-9);
        let base = solver.solve(&game).unwrap();
        let mut richer = game.clone();
        richer.set_profitability(0, specs[0].v + bump).unwrap();
        let after = solver.solve(&richer).unwrap();
        prop_assert!(
            after.subsidies[0] >= base.subsidies[0] - 1e-6,
            "{} -> {}", base.subsidies[0], after.subsidies[0]
        );
    }

    #[test]
    fn clamped_and_unclamped_agree_when_subsidies_below_price(
        specs in market_strategy(),
        p in 0.8f64..1.5,
    ) {
        // With q well below p the clamp never binds; both conventions
        // must produce the same equilibrium.
        let q = 0.3;
        let sys = build_system(&specs, 1.0).unwrap();
        let plain = SubsidyGame::new(sys.clone(), p, q).unwrap();
        let clamped = SubsidyGame::new(sys, p, q).unwrap().with_clamped_price(true);
        let solver = NashSolver::default().with_tol(1e-9);
        let a = solver.solve(&plain).unwrap();
        let b = solver.solve(&clamped).unwrap();
        for i in 0..a.subsidies.len() {
            prop_assert!((a.subsidies[i] - b.subsidies[i]).abs() < 1e-6);
        }
    }
}

//! Quickstart: build a market, solve the subsidization equilibrium, and
//! read off who subsidizes, what the ISP earns, and where welfare goes.
//!
//! Run with: `cargo run --example quickstart`

use subcomp::game::equilibrium::verify_equilibrium;
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::NashSolver;
use subcomp::game::welfare::WelfareBreakdown;
use subcomp::model::aggregation::{build_system, ExpCpSpec};

fn main() {
    // A small content market: a video giant, a social network, and a
    // startup, all sharing one access ISP of capacity 1.
    //   alpha = price sensitivity of users, beta = congestion sensitivity
    //   of traffic, v = profit per unit of traffic.
    let specs = [
        ExpCpSpec::unit(4.0, 2.0, 1.0), // "video": elastic users, profitable
        ExpCpSpec::unit(2.0, 3.0, 0.7), // "social": stickier users
        ExpCpSpec::unit(5.0, 4.0, 0.2), // "startup": elastic users, thin margins
    ];
    let names = ["video", "social", "startup"];
    let system = build_system(&specs, 1.0).expect("valid market");

    // ISP charges p = 0.6 per unit of traffic; the regulator allows
    // subsidies up to q = 0.5.
    let game = SubsidyGame::new(system, 0.6, 0.5).expect("valid game");

    // Solve the Nash equilibrium of the subsidization competition.
    let eq = NashSolver::default().solve(&game).expect("equilibrium");
    println!("subsidization equilibrium (p = {}, q = {}):", game.price(), game.cap());
    for i in 0..game.n() {
        println!(
            "  {:>8}: subsidy {:.4}  users {:.4}  throughput {:.4}  utility {:.4}",
            names[i], eq.subsidies[i], eq.state.m[i], eq.state.theta_i[i], eq.utilities[i]
        );
    }
    println!("  utilization {:.4}, ISP revenue {:.4}", eq.state.phi, eq.isp_revenue(&game));

    // Verify it really is an equilibrium (Theorem 3 KKT certificate).
    let report = verify_equilibrium(&game, &eq.subsidies).expect("verification");
    println!(
        "equilibrium certificate: max KKT residual {:.2e}, max threshold residual {:.2e}",
        report.max_kkt_residual, report.max_threshold_residual
    );

    // Where does the money go?
    let b = WelfareBreakdown::compute(&game, &eq.subsidies).expect("breakdown");
    println!("money flows per unit time:");
    println!("  users pay        {:.4}", b.user_payments);
    println!("  CPs subsidize    {:.4}", b.subsidy_outlay);
    println!("  ISP receives     {:.4}", b.isp_revenue);
    println!("  CP gross profit  {:.4} (the paper's welfare metric W)", b.welfare);

    // Compare against the regulated baseline q = 0.
    let mut regulated = game.clone();
    regulated.set_cap(0.0).expect("baseline game");
    let baseline = NashSolver::default().solve(&regulated).expect("baseline equilibrium");
    println!(
        "vs q = 0 baseline: ISP revenue {:.4} -> {:.4}, welfare {:.4} -> {:.4}",
        baseline.isp_revenue(&game),
        eq.isp_revenue(&game),
        baseline.welfare(&game),
        eq.welfare(&game)
    );
}

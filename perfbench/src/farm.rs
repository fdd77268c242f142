//! `farm`: the `solve_farm` ensemble (`farm_game`, n ∈ 2..12) through
//! `BatchSolver` in lane mode (K = 16) on 2 workers, every game
//! certified with `verify_equilibrium` inside the timed loop.
//!
//! The client submits batches of [`GAMES`] games and waits for each; the
//! run cycles over [`ENSEMBLES`] consecutive slices of the seeded
//! ensemble, so one run averages over several lane-block orders.

use crate::trace::{Tracer, ROOT};
use crate::util::{self, Checks};
use crate::{Outcome, RunCfg, WorkCounts};
use std::sync::Mutex;
use std::time::Instant;
use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::nash::SolveStats;
use subcomp_core::welfare::welfare;
use subcomp_exp::scenarios::farm_game;
use subcomp_exp::sweep::BatchSolver;
use subcomp_num::NumResult;

pub const GAMES: usize = 512;
pub const ENSEMBLES: usize = 16;
pub const LANES: usize = 16;
pub const WORKERS: usize = 2;
pub const N_MIN: usize = 2;
pub const N_MAX: usize = 12;
const SETUP_REPS: usize = 5;
const WARMUP_GAMES: usize = 64;
/// Unit-cost keys of one game in a lane block, by provider count.
pub const LANE_KEYS: [&str; N_MAX - N_MIN + 1] = [
    "lane_game.n2",
    "lane_game.n3",
    "lane_game.n4",
    "lane_game.n5",
    "lane_game.n6",
    "lane_game.n7",
    "lane_game.n8",
    "lane_game.n9",
    "lane_game.n10",
    "lane_game.n11",
    "lane_game.n12",
];

/// Game indices of ensemble slice `e`.
pub fn ensemble(e: usize) -> Vec<u64> {
    (e * GAMES..(e + 1) * GAMES).map(|k| k as u64).collect()
}

pub fn solver(workers: usize) -> BatchSolver {
    BatchSolver::default().with_threads(workers).with_lanes(LANES)
}

/// What the farm keeps per game.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub n: usize,
    iterations: usize,
    residual: f64,
    pub max_kkt: f64,
    welfare: f64,
    theta: f64,
    /// When the answer was ready (the game's latency ends here).
    pub done: Instant,
    /// Start and end of the certificate check.
    pub verify: (Instant, Instant),
}

/// The bit-level aggregate of one batch, reduced in item order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Aggregate {
    pub solved: usize,
    pub failed: usize,
    pub uncertified: usize,
    iter_total: usize,
    iter_max: usize,
    residual_max: u64,
    pub kkt_max: u64,
    welfare_sum: u64,
    theta_sum: u64,
}

/// One batch: `(stats, build spans)`. Build spans are only collected
/// when `spans` is set.
pub fn batch(
    solver: &BatchSolver,
    seed: u64,
    indices: &[u64],
    spans: bool,
) -> (Vec<NumResult<Stat>>, Vec<(Instant, Instant)>) {
    let builds = Mutex::new(Vec::with_capacity(if spans { indices.len() } else { 0 }));
    let results = solver.run(
        indices,
        |&k| {
            let t0 = Instant::now();
            let game = farm_game(seed, k, N_MIN, N_MAX);
            if spans {
                builds
                    .lock()
                    .expect("build-span lock is never poisoned")
                    .push((t0, Instant::now()));
            }
            game
        },
        |game, ws, stats: SolveStats| {
            let v0 = Instant::now();
            // NaN marks a certificate that could not be computed.
            let max_kkt =
                verify_equilibrium(game, ws.subsidies()).map_or(f64::NAN, |r| r.max_kkt_residual);
            let v1 = Instant::now();
            Stat {
                n: game.n(),
                iterations: stats.iterations,
                residual: stats.residual,
                max_kkt,
                welfare: welfare(game, ws.state()),
                theta: ws.state().theta(),
                done: v1,
                verify: (v0, v1),
            }
        },
    );
    (results, builds.into_inner().expect("build-span lock is never poisoned"))
}

pub fn aggregate(results: &[NumResult<Stat>]) -> Aggregate {
    let mut agg = Aggregate::default();
    let (mut residual, mut kkt, mut welfare, mut theta) = (0f64, 0f64, 0f64, 0f64);
    for r in results {
        match r {
            Ok(s) => {
                agg.solved += 1;
                agg.iter_total += s.iterations;
                agg.iter_max = agg.iter_max.max(s.iterations);
                residual = residual.max(s.residual);
                if s.max_kkt <= crate::serve::KKT_TOL {
                    kkt = kkt.max(s.max_kkt);
                } else {
                    agg.uncertified += 1;
                }
                welfare += s.welfare;
                theta += s.theta;
            }
            Err(_) => agg.failed += 1,
        }
    }
    agg.residual_max = residual.to_bits();
    agg.kkt_max = kkt.to_bits();
    agg.welfare_sum = welfare.to_bits();
    agg.theta_sum = theta.to_bits();
    agg
}

pub fn run(cfg: &RunCfg, mut tracer: Option<&mut Tracer>) -> NumResult<Outcome> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    // Set-up: the ensemble slices, the solver, and a warm-up batch.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut slices = Vec::new();
    let mut warm_bad = 0usize;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        slices = (0..ENSEMBLES).map(ensemble).collect::<Vec<_>>();
        let (warm, _) = batch(&solver(WORKERS), cfg.seed, &slices[0][..WARMUP_GAMES], false);
        setup_s.push(t0.elapsed().as_secs_f64());
        let agg = aggregate(&warm);
        warm_bad += agg.failed + agg.uncertified;
    }

    checks.expect(
        "warmup_batches",
        warm_bad == 0,
        format!("{SETUP_REPS} × {WARMUP_GAMES} games, {warm_bad} failed or uncertified"),
    );
    let farm = solver(WORKERS);
    // Per slice, the fastest of its passes: (ns, time to answer per game).
    let mut best: Vec<Option<(f64, Vec<f64>)>> = vec![None; ENSEMBLES];
    let mut seen: Vec<Option<Aggregate>> = vec![None; ENSEMBLES];
    let mut repeats_ok = true;
    let (mut failed, mut uncertified, mut games) = (0u64, 0u64, 0u64);
    let mut kkt_max = 0f64;
    let (mut traced_ns, mut traced_games, mut plain_ns, mut plain_games) = (0f64, 0u64, 0f64, 0u64);
    let mut per_n = [0f64; N_MAX - N_MIN + 1];
    let deadline = Instant::now() + cfg.window;
    for pass in 0usize.. {
        let e = pass % ENSEMBLES;
        let traced = tracer.is_some() && pass % 4 == 1;
        let t0 = Instant::now();
        let (results, builds) = batch(&farm, cfg.seed, &slices[e], traced);
        let t1 = Instant::now();
        let pass_ns = (t1 - t0).as_nanos() as f64;
        if best[e].as_ref().is_none_or(|(ns, _)| pass_ns < *ns) {
            let lat = results.iter().flatten().map(|r| (r.done - t0).as_nanos() as f64).collect();
            best[e] = Some((pass_ns, lat));
        }
        let agg = aggregate(&results);
        failed += agg.failed as u64;
        uncertified += agg.uncertified as u64;
        games += results.len() as u64;
        kkt_max = kkt_max.max(f64::from_bits(agg.kkt_max));
        match seen[e] {
            Some(prev) => repeats_ok &= prev == agg,
            None => seen[e] = Some(agg),
        }
        if traced {
            if let Some(t) = tracer.as_deref_mut() {
                let span = t.record("farm.batch", ROOT, t0, t1, results.len() as u32);
                for &(b0, b1) in &builds {
                    t.record("exp.scenarios.farm_game", span, b0, b1, 1);
                }
                for r in results.iter().flatten() {
                    t.record("core.equilibrium.verify", span, r.verify.0, r.verify.1, 1);
                    per_n[r.n - N_MIN] += 1.0;
                }
            }
            traced_ns += (t1 - t0).as_nanos() as f64;
            traced_games += results.len() as u64;
        } else {
            plain_ns += (t1 - t0).as_nanos() as f64;
            plain_games += results.len() as u64;
        }
        if t1 >= deadline {
            break;
        }
    }
    let rss = util::peak_rss_mb();
    out.attempted = games;
    out.failed = failed;

    checks.expect(
        "no_uncertified_games",
        uncertified == 0,
        format!("{uncertified} uncertified, max KKT {kkt_max:.3e}"),
    );
    checks.expect("repeated_batches_bit_identical", repeats_ok, "aggregates of repeated slices");
    let first = seen[0].expect("the window runs at least one batch");
    let (single, _) = batch(&solver(1), cfg.seed, &slices[0], false);
    checks.expect(
        "one_worker_batch_bit_identical",
        aggregate(&single) == first,
        format!("slice 0 ({GAMES} games) on 1 worker against {WORKERS}"),
    );

    out.derived.put("fail_frac", failed as f64 / (games.max(1) as f64), "ratio");
    let solved: Vec<&(f64, Vec<f64>)> = best.iter().flatten().collect();
    let best_ns: f64 = solved.iter().map(|(ns, _)| ns).sum();
    let lat: Vec<f64> = solved.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    let gps = (solved.len() * GAMES) as f64 / best_ns * 1e9;
    out.derived.put("slices_timed", solved.len() as f64, "count");
    out.derived.put("latency_samples", lat.len() as f64, "count");
    out.derived.put("batches", (games / GAMES as u64) as f64, "count");

    let m = &mut out.metrics;
    if tracer.is_none() {
        let figures = util::Figures {
            ops_per_s: gps,
            answers_per_s: gps,
            p50_ns: util::quantile(&lat, 0.50),
            p99_ns: util::quantile(&lat, 0.99),
        };
        util::put_e2e(m, figures, &setup_s, rss);
    } else {
        m.put("core.equilibrium.max_kkt", kkt_max, "1");
        out.overhead_frac = (traced_ns / traced_games.max(1) as f64)
            / (plain_ns / plain_games.max(1) as f64).max(1e-9)
            - 1.0;
        // Building is serial on the client thread; the lane blocks and
        // the certificates run on the workers.
        let mut counts =
            vec![("farm.build", traced_games as f64), ("farm.verify", traced_games as f64)];
        counts.extend(LANE_KEYS.iter().zip(per_n).map(|(k, n)| (*k, n)));
        let mut parallel = vec![("farm.verify", WORKERS as f64)];
        parallel.extend(LANE_KEYS.iter().map(|k| (*k, WORKERS as f64)));
        out.work = WorkCounts { measured_ns: traced_ns, counts, parallel };
    }
    out.checks = checks;
    Ok(out)
}

//! Layer probes of the traced run: each layer's public entry point timed
//! in a loop of its own, on inputs derived from the run's seed. They give
//! the per-layer unit costs, and the unit costs let the reconciliation
//! predict a traced window's time as Σ count × unit cost.

use crate::farm::{self, LANE_KEYS, N_MAX, N_MIN};
use crate::serve::{self, KKT_TOL};
use crate::trace::{Tracer, ROOT};
use crate::util::{self, Metrics};
use crate::{adopt, RunCfg, WorkCounts, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use subcomp_core::best_response::best_response;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::lane::{LaneGame, LaneSolver, LaneWorkspace};
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::sensitivity::Sensitivity;
use subcomp_core::workspace::{SolveBudget, SolveWorkspace};
use subcomp_exp::adoption::{step_population, LoopConfig};
use subcomp_exp::scenarios::{farm_game, section5_specs};
use subcomp_exp::server::{fingerprint, Reply, Request, ShardedConfig, ShardedServer, Source};
use subcomp_model::aggregation::build_system;
use subcomp_model::system::SystemState;
use subcomp_num::{NumError, NumResult};
use subcomp_sim::adoption::{Population, TickDrive, TypeSpec};

/// Hot keys the solver probes visit.
const KEYS: usize = 16;
/// Bytes one adoption step touches per user, from the SoA array widths:
/// reads `uid` (u64), `valuation` (f64) and `state` (u8), writes `state`.
const STEP_BYTES_PER_USER: f64 = 8.0 + 8.0 + 1.0 + 1.0;

/// Unit costs in ns per operation, plus the per-layer metrics.
pub struct Units {
    costs_ns: BTreeMap<&'static str, f64>,
    pub metrics: Metrics,
}

impl Units {
    /// Σ count × unit cost (÷ workers where the work ran in parallel),
    /// with one line per term.
    pub fn predict(&self, work: &WorkCounts) -> (f64, Vec<String>) {
        let mut total = 0.0;
        let mut lines = Vec::new();
        for &(key, count) in &work.counts {
            if count == 0.0 {
                continue;
            }
            let unit = self.costs_ns.get(key).copied().unwrap_or(0.0);
            let workers = work.parallel.iter().find(|(k, _)| *k == key).map_or(1.0, |(_, w)| *w);
            let term = count * unit / workers;
            total += term;
            lines.push(format!(
                "{key}: {count:.1} × {:.3} µs{} = {:.3} ms",
                unit / 1e3,
                if workers > 1.0 { format!(" ÷ {workers} workers") } else { String::new() },
                term / 1e6
            ));
        }
        (total, lines)
    }
}

fn solve_err(what: &'static str) -> NumError {
    NumError::Domain { what, value: f64::NAN }
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> NumResult<Units> {
    let mut units = Units { costs_ns: BTreeMap::new(), metrics: Metrics::default() };
    hot_key_probes(cfg, tracer, &mut units)?;
    server_probes(cfg, tracer, &mut units)?;
    farm_probes(cfg, tracer, &mut units)?;
    adoption_probes(cfg, tracer, &mut units)?;
    loop_probe(cfg, tracer, &mut units)?;
    Ok(units)
}

/// L0–L2 and the fingerprint at the hot keys of the serve stream (the
/// workload's own stream for `serve-churn`, the `serve-hot` stream
/// otherwise): φ, one best response per provider, Nash from zero and
/// from the previous key's equilibrium, directional sensitivities.
fn hot_key_probes(cfg: &RunCfg, tracer: &mut Tracer, units: &mut Units) -> NumResult<()> {
    let spec = serve::spec(match cfg.workload {
        Workload::ServeChurn => Workload::ServeChurn,
        _ => Workload::ServeHot,
    });
    let keys = serve::hot_keys(&serve::stream(&spec, serve::pass_seed(cfg.seed, 0))?, KEYS);
    let base = serve::section5_game();
    let games: Vec<SubsidyGame> =
        keys.iter().map(|&(p, q, mu)| serve::game_at(&base, p, q, mu)).collect::<NumResult<_>>()?;
    let solver = NashSolver::default();
    let parent = tracer.open("probe.hot_keys", ROOT);

    let (mut cold_ns, mut warm_ns, mut sweeps) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold_ws = SolveWorkspace::new();
    let mut warm_ws = SolveWorkspace::new();
    let mut equilibria: Vec<Vec<f64>> = Vec::with_capacity(games.len());
    for (k, game) in games.iter().enumerate() {
        let t0 = Instant::now();
        let stats = solver.solve_into_budgeted(
            game,
            WarmStart::Zero,
            &mut cold_ws,
            SolveBudget::unlimited(),
        )?;
        let t1 = Instant::now();
        tracer.record("core.nash.cold", parent, t0, t1, 1);
        cold_ns.push((t1 - t0).as_nanos() as f64);
        sweeps.push(stats.iterations as f64);
        equilibria.push(cold_ws.subsidies().to_vec());
        if k == 0 {
            solver.solve_into(game, WarmStart::Zero, &mut warm_ws)?;
            continue;
        }
        // Warm from the previous key's equilibrium, as a server slot is.
        let t0 = Instant::now();
        let stats = solver.solve_into_budgeted(
            game,
            WarmStart::Previous,
            &mut warm_ws,
            SolveBudget::unlimited(),
        )?;
        let t1 = Instant::now();
        tracer.record("core.nash.warm", parent, t0, t1, 1);
        warm_ns.push((t1 - t0).as_nanos() as f64);
        sweeps.push(stats.iterations as f64);
    }

    let (mut phi_ns, mut br_ns, mut br_evals, mut dir_ns, mut fp_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    const PHI_REPS: u32 = 200;
    const FP_REPS: u32 = 1_000;
    for (game, s) in games.iter().zip(&equilibria) {
        let system = game.system();
        let m = system.populations(&game.effective_prices(s))?;
        let mut scratch = system.make_scratch();
        let mut state = SystemState::empty();
        let t0 = Instant::now();
        for _ in 0..PHI_REPS {
            system.solve_state_into(black_box(&m), &mut scratch, &mut state)?;
        }
        let t1 = Instant::now();
        tracer.record("model.phi", parent, t0, t1, PHI_REPS);
        phi_ns.push((t1 - t0).as_nanos() as f64 / f64::from(PHI_REPS));

        for i in 0..game.n() {
            let t0 = Instant::now();
            let br = best_response(game, i, s, &solver.br)?;
            let t1 = Instant::now();
            tracer.record("core.best_response", parent, t0, t1, 1);
            br_ns.push((t1 - t0).as_nanos() as f64);
            br_evals.push(br.evaluations as f64);
        }

        for axis in [Axis::Price, Axis::Cap, Axis::Mu] {
            let mut g = game.clone();
            let t0 = Instant::now();
            let ok = Sensitivity::directional(&mut g, s, axis).is_ok();
            let t1 = Instant::now();
            if ok {
                tracer.record("core.sensitivity.directional", parent, t0, t1, 1);
                dir_ns.push((t1 - t0).as_nanos() as f64);
            }
        }

        let t0 = Instant::now();
        for _ in 0..FP_REPS {
            black_box(fingerprint(black_box(game))?);
        }
        let t1 = Instant::now();
        tracer.record("exp.server.fingerprint", parent, t0, t1, FP_REPS);
        fp_ns.push((t1 - t0).as_nanos() as f64 / f64::from(FP_REPS));
    }
    tracer.close(parent, games.len() as u32);

    let m = &mut units.metrics;
    m.put("model.phi_us", util::mean(&phi_ns) / 1e3, "us");
    m.put("core.best_response.eval_us", util::mean(&br_ns) / 1e3, "us");
    m.put("core.best_response.phi_evals_mean", util::mean(&br_evals), "count");
    m.put("core.nash.cold_ms", util::mean(&cold_ns) / 1e6, "ms");
    m.put("core.nash.warm_ms", util::mean(&warm_ns) / 1e6, "ms");
    m.put("core.nash.sweeps_mean", util::mean(&sweeps), "count");
    m.put("core.nash.sweeps_max", sweeps.iter().copied().fold(0.0, f64::max), "count");
    m.put("core.sensitivity.directional_us", util::mean(&dir_ns) / 1e3, "us");
    m.put("exp.server.fingerprint_ns", util::mean(&fp_ns), "ns");
    Ok(())
}

fn serve_ok(server: &mut ShardedServer, direct: bool, req: Request) -> NumResult<(f64, Reply)> {
    let t0 = Instant::now();
    let reply = if direct { server.serve_direct(0, req) } else { server.serve(0, req) };
    let dt = t0.elapsed().as_nanos() as f64;
    reply.map(|r| (dt, r)).map_err(|_| solve_err("server probe: request failed"))
}

/// Server-level unit costs on one resident §5 market behind one shard,
/// client and shard on one CPU: lock-free read, cached read through the shard, axis write,
/// sensitivity, and warm and cold re-solves at the hot keys.
fn server_probes(cfg: &RunCfg, tracer: &mut Tracer, units: &mut Units) -> NumResult<()> {
    let spec = serve::spec(match cfg.workload {
        Workload::ServeChurn => Workload::ServeChurn,
        _ => Workload::ServeHot,
    });
    let keys = serve::hot_keys(&serve::stream(&spec, serve::pass_seed(cfg.seed, 0))?, KEYS);
    // The same placement as the serve workloads' window.
    let _placed = util::OneCpu::enter(0);
    let parent = tracer.open("probe.server", ROOT);
    let timed = |tracer: &mut Tracer,
                 name: &'static str,
                 server: &mut ShardedServer,
                 reps: usize,
                 direct: bool,
                 req: Request,
                 expect: Option<Source>|
     -> NumResult<Vec<f64>> {
        let t0 = Instant::now();
        let mut v = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (dt, reply) = serve_ok(server, direct, req)?;
            if let (Some(want), Reply::Equilibrium { source, .. }) = (expect, &reply) {
                if *source != want {
                    return Err(solve_err("server probe: read left its answer path"));
                }
            }
            v.push(dt);
        }
        tracer.record(name, parent, t0, Instant::now(), reps as u32);
        Ok(v)
    };

    let mut server = ShardedServer::new(
        vec![(0, serve::section5_game())],
        &ShardedConfig { shards: 1, pool: 2, cache: 64 },
    )?;
    serve_ok(&mut server, false, Request::Equilibrium)?;
    let lockfree = timed(
        tracer,
        "probe.lockfree",
        &mut server,
        20_000,
        false,
        Request::Equilibrium,
        Some(Source::LockFree),
    )?;
    let direct = timed(
        tracer,
        "probe.direct_hit",
        &mut server,
        4_000,
        true,
        Request::Equilibrium,
        Some(Source::CacheHit),
    )?;
    let sens = timed(
        tracer,
        "probe.sensitivity",
        &mut server,
        400,
        false,
        Request::Sensitivity { axis: Axis::Mu },
        None,
    )?;
    let update = timed(
        tracer,
        "probe.update",
        &mut server,
        4_000,
        false,
        Request::Update { axis: Axis::Price, value: 0.6 },
        None,
    )?;
    drop(server);

    // Warm and cold re-solves: no cache, so every read after a key
    // switch solves — warm from the slot's previous key, or from zero
    // after the market is cooled.
    let mut server = ShardedServer::new(
        vec![(0, serve::section5_game())],
        &ShardedConfig { shards: 1, pool: 2, cache: 0 },
    )?;
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    for &(p, q, mu) in &keys {
        for (axis, value) in [(Axis::Price, p), (Axis::Cap, q), (Axis::Mu, mu)] {
            serve_ok(&mut server, false, Request::Update { axis, value })?;
        }
        warm.extend(timed(
            tracer,
            "probe.warm_resolve",
            &mut server,
            1,
            true,
            Request::Equilibrium,
            None,
        )?);
        server.cool_market(0).map_err(|_| solve_err("server probe: cool failed"))?;
        cold.extend(timed(
            tracer,
            "probe.cold_resolve",
            &mut server,
            1,
            true,
            Request::Equilibrium,
            Some(Source::Cold),
        )?);
    }
    drop(server);
    tracer.close(parent, 1);

    let warm_ns = util::mean(&warm[1..]);
    let costs = &mut units.costs_ns;
    costs.insert("lockfree", util::mean(&lockfree));
    costs.insert("cache_hit", util::mean(&direct));
    costs.insert("sensitivity", util::mean(&sens));
    costs.insert("update", util::mean(&update));
    costs.insert("warm", warm_ns);
    costs.insert("tangent", warm_ns);
    costs.insert("partial", warm_ns);
    costs.insert("cold", util::mean(&cold));
    units.metrics.put("exp.server.sharded.direct_hit_us", util::median(&direct) / 1e3, "us");
    Ok(())
}

/// The farm's layers on slice 0 of the ensemble: `farm_game`, the
/// certificate, one lane block per provider count, and the batch at 1
/// and at 2 workers (the thread-scaling baseline).
fn farm_probes(cfg: &RunCfg, tracer: &mut Tracer, units: &mut Units) -> NumResult<()> {
    let parent = tracer.open("probe.farm", ROOT);
    let slice = farm::ensemble(0);
    type Pass = (f64, Vec<farm::Stat>, Vec<(Instant, Instant)>);
    let mut pass = |workers: usize| -> NumResult<Pass> {
        let t0 = Instant::now();
        let (results, builds) = farm::batch(&farm::solver(workers), cfg.seed, &slice, true);
        let t1 = Instant::now();
        let span = tracer.record(
            if workers == 1 { "probe.farm.batch_1_worker" } else { "probe.farm.batch_2_workers" },
            parent,
            t0,
            t1,
            slice.len() as u32,
        );
        for &(b0, b1) in &builds {
            tracer.record("exp.scenarios.farm_game", span, b0, b1, 1);
        }
        let stats: Vec<farm::Stat> = results.into_iter().collect::<NumResult<_>>()?;
        for s in &stats {
            tracer.record("core.equilibrium.verify", span, s.verify.0, s.verify.1, 1);
        }
        Ok(((t1 - t0).as_secs_f64(), stats, builds))
    };
    let (t1, stats, builds) = pass(1)?;
    let (t2, _, _) = pass(farm::WORKERS)?;

    let build_ns: Vec<f64> = builds.iter().map(|(a, b)| (*b - *a).as_nanos() as f64).collect();
    let verify_ns: Vec<f64> =
        stats.iter().map(|s| (s.verify.1 - s.verify.0).as_nanos() as f64).collect();
    let max_kkt = stats.iter().map(|s| s.max_kkt).fold(0.0, f64::max);

    // One lane block per provider count, built from the slice's games.
    let games: Vec<SubsidyGame> =
        slice.iter().map(|&k| farm_game(cfg.seed, k, N_MIN, N_MAX)).collect::<NumResult<_>>()?;
    let nash = NashSolver::default();
    let lane = LaneSolver {
        damping: nash.damping,
        tol: nash.tol,
        max_sweeps: nash.max_sweeps,
        br: nash.br,
    };
    let mut lw = LaneWorkspace::new();
    let (mut block_ns, mut lane_sweeps) = (Vec::new(), Vec::new());
    for (n, key) in (N_MIN..=N_MAX).zip(LANE_KEYS) {
        let block: Vec<&SubsidyGame> =
            games.iter().filter(|g| g.n() == n).take(farm::LANES).collect();
        let Some(lane_game) = LaneGame::from_games(&block) else { continue };
        let t0 = Instant::now();
        lane.solve_into(&lane_game, &mut lw);
        let t1 = Instant::now();
        tracer.record("core.lane.block", parent, t0, t1, block.len() as u32);
        let dt = (t1 - t0).as_nanos() as f64;
        block_ns.push(dt);
        units.costs_ns.insert(key, dt / block.len() as f64);
        for l in 0..block.len() {
            lane_sweeps.push(lw.result_of(l)?.iterations as f64);
        }
    }
    tracer.close(parent, 1);

    units.costs_ns.insert("farm.build", util::mean(&build_ns));
    units.costs_ns.insert("farm.verify", util::mean(&verify_ns));
    let m = &mut units.metrics;
    m.put("core.equilibrium.verify_us", util::mean(&verify_ns) / 1e3, "us");
    if max_kkt > KKT_TOL {
        return Err(solve_err("farm probe: a game failed its certificate"));
    }
    m.put("core.equilibrium.max_kkt", max_kkt, "1");
    m.put("core.lane.block_ms", util::mean(&block_ns) / 1e6, "ms");
    m.put("core.lane.sweeps_mean", util::mean(&lane_sweeps), "count");
    m.put("core.lane.sweeps_max", lane_sweeps.iter().copied().fold(0.0, f64::max), "count");
    m.put("exp.sweep.scaling_eff", t1 / (farm::WORKERS as f64 * t2), "ratio");
    m.put("exp.scenarios.farm_game_us", util::mean(&build_ns) / 1e3, "us");
    Ok(())
}

/// `Population::build` and `step_population` on one 1M-user cohort of
/// the adoption workload's market, driven at its first equilibrium, at 1
/// and at 2 threads.
fn adoption_probes(cfg: &RunCfg, tracer: &mut Tracer, units: &mut Units) -> NumResult<()> {
    const STEPS: usize = 7;
    let parent = tracer.open("probe.adoption", ROOT);
    let specs = section5_specs();
    let types: Vec<TypeSpec> =
        specs.iter().map(|s| TypeSpec { mass: s.m0, alpha: s.alpha }).collect();
    let lc = LoopConfig::default();
    let hazards = subcomp_sim::adoption::AdoptionParams { seed: cfg.seed, ..lc.hazards };
    let t0 = Instant::now();
    let mut pop = Population::build(&types, adopt::USERS, adopt::CHUNK, hazards)?;
    let t1 = Instant::now();
    tracer.record("sim.adoption.build", parent, t0, t1, 1);
    let build_s = (t1 - t0).as_secs_f64();

    let game = SubsidyGame::new(build_system(&specs, adopt::MU)?, adopt::PRICE, adopt::CAP)?;
    let eq = NashSolver::default().solve(&game)?;
    let mut drive = TickDrive::uniform(specs.len(), 0.0);
    for i in 0..specs.len() {
        drive.t_eff[i] = (adopt::PRICE - eq.subsidies[i]).max(0.0);
        drive.gain[i] = 1.0 + lc.gamma * eq.state.theta_i[i];
    }
    let mut step = |threads: usize, name: &'static str| -> NumResult<Vec<f64>> {
        let mut v = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let t0 = Instant::now();
            step_population(&mut pop, threads, &drive)?;
            let t1 = Instant::now();
            tracer.record(name, parent, t0, t1, adopt::USERS as u32);
            v.push((t1 - t0).as_nanos() as f64);
        }
        Ok(v)
    };
    let one = util::median(&step(1, "sim.adoption.step_1_thread")?);
    let two = util::median(&step(2, "sim.adoption.step_2_threads")?);
    tracer.close(parent, 1);

    units.costs_ns.insert("adopt.step", one);
    let m = &mut units.metrics;
    m.put("sim.adoption.step_ms", one / 1e6, "ms");
    m.put("sim.adoption.step_ns_per_user", one / adopt::USERS as f64, "ns");
    m.put("sim.adoption.step_bytes_per_user", STEP_BYTES_PER_USER, "B");
    m.put("sim.adoption.step_scaling_eff", one / (2.0 * two), "ratio");
    m.put("sim.adoption.build_s", build_s, "s");
    Ok(())
}

/// The closed adoption loop of `adopt-1m` (2 × 1M users), ticked
/// [`LOOP_TICKS`] times after its set-up ticks, so every traced run
/// measures the L5 loop whichever workload it drives.
fn loop_probe(cfg: &RunCfg, tracer: &mut Tracer, units: &mut Units) -> NumResult<()> {
    const LOOP_TICKS: u32 = 25;
    let parent = tracer.open("probe.adoption_loop", ROOT);
    let (mut lp, _, _) = adopt::build(cfg.seed, 1)?;
    for _ in 0..adopt::WARMUP_TICKS {
        lp.tick().map_err(util::num_err)?;
    }
    let before = lp.sources();
    let mut tick_ns = Vec::with_capacity(LOOP_TICKS as usize);
    for _ in 0..LOOP_TICKS {
        let t0 = Instant::now();
        lp.tick().map_err(util::num_err)?;
        let t1 = Instant::now();
        tracer.record("exp.adoption.tick", parent, t0, t1, 1);
        tick_ns.push((t1 - t0).as_nanos() as f64);
    }
    let after = lp.sources();
    tracer.close(parent, LOOP_TICKS);

    let m = &mut units.metrics;
    m.put("exp.adoption.tick_ms", util::mean(&tick_ns) / 1e6, "ms");
    for (name, a, b) in [
        ("exp.adoption.src.lockfree", before.lockfree, after.lockfree),
        ("exp.adoption.src.cache", before.cache, after.cache),
        ("exp.adoption.src.tangent", before.tangent, after.tangent),
        ("exp.adoption.src.warm", before.warm, after.warm),
        ("exp.adoption.src.cold", before.cold, after.cold),
        ("exp.adoption.src.partial", before.partial, after.partial),
    ] {
        m.put(name, (b - a) as f64, "count");
    }
    Ok(())
}

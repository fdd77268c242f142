//! `adopt-1m`: the closed adoption loop over the §5 market — 2 cohorts
//! of 1,000,000 users, chunk 16384, 1 fan-out thread, 2 shards, tangent
//! seeding on, demand write-back every 5 ticks — ticked by one client.

use crate::trace::{Tracer, ROOT};
use crate::util::{self, Checks};
use crate::{Outcome, RunCfg, WorkCounts};
use std::time::Instant;
use subcomp_exp::adoption::{AdoptionLoop, LoopConfig, SourceCounts};
use subcomp_exp::scenarios::section5_specs;
use subcomp_exp::server::ShardReport;
use subcomp_num::NumResult;

pub const COHORTS: usize = 2;
pub const USERS: usize = 1_000_000;
pub const CHUNK: usize = 16_384;
pub const MU: f64 = 3.0;
pub const PRICE: f64 = 0.6;
pub const CAP: f64 = 0.8;
const DEMAND_EVERY: u64 = 5;
const SETUP_REPS: usize = 5;
/// Ticks run during set-up (through the first demand write-back).
pub const WARMUP_TICKS: u64 = DEMAND_EVERY;
/// Minimum timed ticks, and the trajectory prefix the replay re-runs.
const MIN_TICKS: u64 = 100;
/// Ticks per chunk; the traced run traces one chunk in four.
const CHUNK_TICKS: u64 = 10;

pub fn loop_config(seed: u64, threads: usize) -> LoopConfig {
    LoopConfig {
        seed,
        cohorts: COHORTS,
        users: USERS,
        chunk: CHUNK,
        threads,
        demand_every: DEMAND_EVERY,
        seed_tangent: true,
        shards: 2,
        ..Default::default()
    }
}

/// Builds a loop (pinning its shard threads) and returns it with the
/// build time, pinning excluded.
pub fn build(seed: u64, threads: usize) -> NumResult<(AdoptionLoop, f64, bool)> {
    let before = util::thread_ids();
    let t0 = Instant::now();
    let lp = AdoptionLoop::new(&section5_specs(), MU, PRICE, CAP, &loop_config(seed, threads))?;
    let built = t0.elapsed().as_secs_f64();
    Ok((lp, built, util::pin_new_threads(&before)))
}

/// One tick folded into the trajectory checksum (the `adopt_sim` fold).
fn tick(lp: &mut AdoptionLoop, checksum: &mut u64) -> bool {
    match lp.tick() {
        Ok(s) => {
            *checksum = util::fnv_fold(*checksum, s.tick);
            *checksum = util::fnv_fold(*checksum, s.adopted);
            *checksum = util::fnv_fold(*checksum, s.mass.to_bits());
            true
        }
        Err(_) => false,
    }
}

fn delta(a: SourceCounts, b: SourceCounts) -> SourceCounts {
    SourceCounts {
        lockfree: b.lockfree - a.lockfree,
        cache: b.cache - a.cache,
        tangent: b.tangent - a.tangent,
        warm: b.warm - a.warm,
        cold: b.cold - a.cold,
        partial: b.partial - a.partial,
    }
}

pub fn run(cfg: &RunCfg, mut tracer: Option<&mut Tracer>) -> NumResult<Outcome> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut warm_sums = Vec::with_capacity(SETUP_REPS);
    let mut warm_ok = true;
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (mut lp, built, pinned) = build(cfg.seed, 1)?;
        let t0 = Instant::now();
        let mut sum = util::FNV_OFFSET;
        let ok = (0..WARMUP_TICKS).all(|_| tick(&mut lp, &mut sum));
        setup_s.push(built + t0.elapsed().as_secs_f64());
        warm_ok &= ok;
        warm_sums.push(sum);
        state = Some((lp, sum, pinned));
    }
    let (mut lp, mut sum, pinned) = state.expect("at least one set-up");
    checks.expect("warmup_ticks", warm_ok, format!("{WARMUP_TICKS} ticks per set-up"));
    checks.expect(
        "warmup_checksum_repeats",
        warm_sums.windows(2).all(|w| w[0] == w[1]),
        format!("{} set-ups, checksums {:x?}", warm_sums.len(), warm_sums),
    );
    out.notes.push(format!(
        "placement: shard s pinned to cpu s mod {} ({}), client unpinned",
        util::nproc(),
        if pinned { "pinned" } else { "pinning unavailable, unpinned" }
    ));

    let sources_before = lp.sources();
    let reports_before = lp.server_mut().shard_reports().map_err(util::num_err)?;
    let mut win =
        util::Window::new((cfg.window.as_secs_f64() * 400.0) as usize + MIN_TICKS as usize);
    let mut failed = 0u64;
    let mut sum_at_check = None;
    let (mut traced_ns, mut traced_ticks, mut plain_ns, mut plain_ticks) = (0f64, 0u64, 0f64, 0u64);
    let mut traced_writebacks = 0u64;
    let start = Instant::now();
    let deadline = start + cfg.window;
    let mut end = start;
    let mut ticks = 0u64;
    'window: for chunk_no in 0u64.. {
        let traced = tracer.is_some() && chunk_no % 4 == 1;
        let chunk_span = match tracer.as_deref_mut() {
            Some(t) if traced => t.open("adopt.chunk", ROOT),
            _ => ROOT,
        };
        let chunk_t0 = Instant::now();
        let answers_before = lp.sources().total();
        for _ in 0..CHUNK_TICKS {
            let t0 = Instant::now();
            let ok = tick(&mut lp, &mut sum);
            let t1 = Instant::now();
            win.sample((t1 - t0).as_nanos() as f64);
            ticks += 1;
            end = t1;
            if !ok {
                failed += 1;
                break 'window;
            }
            if traced {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("exp.adoption.tick", chunk_span, t0, t1, 1);
                }
                if lp.ticks() % DEMAND_EVERY == 0 {
                    traced_writebacks += 1;
                }
            }
            if ticks == MIN_TICKS {
                sum_at_check = Some(sum);
            }
        }
        let chunk_ns = (end - chunk_t0).as_nanos() as f64;
        win.chunk(CHUNK_TICKS as f64, (lp.sources().total() - answers_before) as f64, chunk_ns);
        if traced {
            if let Some(t) = tracer.as_deref_mut() {
                t.close(chunk_span, CHUNK_TICKS as u32);
            }
            traced_ns += chunk_ns;
            traced_ticks += CHUNK_TICKS;
        } else {
            plain_ns += chunk_ns;
            plain_ticks += CHUNK_TICKS;
        }
        if end >= deadline && ticks >= MIN_TICKS {
            break;
        }
    }
    let rss = util::peak_rss_mb();
    let src = delta(sources_before, lp.sources());
    let reports_after = lp.server_mut().shard_reports().map_err(util::num_err)?;
    out.attempted = ticks;
    out.failed = failed;
    drop(lp);

    checks.expect("no_partial_answers", src.partial == 0, format!("{} partial", src.partial));
    // The replay at 2 fan-out threads must retrace the same trajectory.
    if let Some(expected) = sum_at_check {
        let (mut replay, _, _) = build(cfg.seed, 2)?;
        let mut replayed = util::FNV_OFFSET;
        let ok = (0..WARMUP_TICKS + MIN_TICKS).all(|_| tick(&mut replay, &mut replayed));
        checks.expect(
            "two_thread_replay_checksum",
            ok && replayed == expected,
            format!(
                "{} ticks: 1 thread {expected:016x}, 2 threads {replayed:016x}",
                WARMUP_TICKS + MIN_TICKS
            ),
        );
    }

    // Server-side counters also see the solves inside write-back submits,
    // which the loop's own source tallies do not.
    let total = |f: fn(&ShardReport) -> u64| {
        reports_after.iter().map(f).sum::<u64>() - reports_before.iter().map(f).sum::<u64>()
    };
    let (hits, misses, evictions) =
        (total(|r| r.cache.hits), total(|r| r.cache.misses), total(|r| r.cache.evictions));
    let solves = [
        total(|r| r.stats.cache_hits),
        total(|r| r.stats.tangent_solves),
        total(|r| r.stats.warm_solves),
        total(|r| r.stats.cold_solves),
    ];
    out.derived.put("fail_frac", failed as f64 / (ticks.max(1) as f64), "ratio");
    out.derived.put("tick_p50_ms", util::quantile(win.samples(), 0.50) / 1e6, "ms");
    out.derived.put("tick_p90_ms", util::quantile(win.samples(), 0.90) / 1e6, "ms");
    out.derived.put("users_stepped_per_s", win.rates().0 * (COHORTS * USERS) as f64, "1/s");
    util::put_sample_counts(&mut out.derived, &win);

    let m = &mut out.metrics;
    if tracer.is_none() {
        util::put_e2e(m, win.figures(), &setup_s, rss);
    } else {
        let tick_ms = traced_ns / traced_ticks.max(1) as f64 / 1e6;
        m.put("exp.adoption.tick_ms", tick_ms, "ms");
        m.put("exp.adoption.src.lockfree", src.lockfree as f64, "count");
        m.put("exp.adoption.src.cache", src.cache as f64, "count");
        m.put("exp.adoption.src.tangent", src.tangent as f64, "count");
        m.put("exp.adoption.src.warm", src.warm as f64, "count");
        m.put("exp.adoption.src.cold", src.cold as f64, "count");
        m.put("exp.adoption.src.partial", src.partial as f64, "count");
        m.put("exp.server.cache_hit_ratio", hits as f64 / ((hits + misses).max(1) as f64), "ratio");
        m.put("exp.server.cache_evictions", evictions as f64, "count");
        out.overhead_frac = (traced_ns / traced_ticks.max(1) as f64)
            / (plain_ns / plain_ticks.max(1) as f64).max(1e-9)
            - 1.0;
        // Per cohort-tick: one step, one sensitivity and one µ write; per
        // write-back a submit and a profitability write (each priced as
        // one write round trip). The answer mix is the window's counters
        // scaled to the traced ticks.
        let cohort_ticks = (traced_ticks * COHORTS as u64) as f64;
        let share = |n: u64| n as f64 * traced_ticks as f64 / ticks.max(1) as f64;
        let writebacks = (traced_writebacks * COHORTS as u64) as f64;
        out.work = WorkCounts {
            measured_ns: traced_ns,
            counts: vec![
                ("adopt.step", cohort_ticks),
                ("sensitivity", cohort_ticks),
                ("update", cohort_ticks + 2.0 * writebacks),
                ("lockfree", share(src.lockfree)),
                ("cache_hit", share(solves[0])),
                ("tangent", share(solves[1])),
                ("warm", share(solves[2])),
                ("cold", share(solves[3])),
            ],
            parallel: Vec::new(),
        };
    }
    out.checks = checks;
    Ok(out)
}

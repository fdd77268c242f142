//! `serve-hot` and `serve-churn`: one client in a closed loop over
//! `ShardedServer::serve`, 8 resident §5 markets on 2 shards.
//!
//! The request stream comes from the repository's load generator
//! (`generate_multi`). A run makes [`PASSES`] passes, each over its own
//! stream drawn from the run's seed. Each pass sets up from scratch —
//! generates its stream, builds the server, serves a warm-up prefix — and
//! then times the stream past the prefix (wrapping around at its end:
//! every request carries absolute values, so a wrapped stream is as valid
//! as a fresh one). The first pass runs for its share of the window and
//! fixes the number of requests for all; the run reports the median pass
//! rate and quantiles over every request ([`util::Passes`]). Each pass
//! runs its whole loop on one CPU ([`util::OneCpu`]).

use crate::trace::{Tracer, ROOT};
use crate::util::{self, Checks, Metrics};
use crate::{Outcome, RunCfg, WorkCounts, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::snapshot::EqSnapshot;
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::server::{
    fold_reply, generate_multi, LoadGenConfig, Reply, Request, ShardReport, ShardedConfig,
    ShardedServer, Source,
};
use subcomp_num::NumResult;

pub const MARKETS: usize = 8;
pub const SHARDS: usize = 2;
const POOL: usize = 2;
/// Passes over the same work per run; each sets up from scratch.
const PASSES: usize = 8;
/// Theorem 3 certificate threshold on the KKT residual.
pub const KKT_TOL: f64 = 1e-8;

/// One serve workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    keys: usize,
    skew: f64,
    read: f64,
    sens: f64,
    cache: usize,
    /// Generated requests per market.
    per_market: usize,
    /// Requests served during set-up, before the window opens.
    warmup: usize,
    /// Requests past the warm-up prefix that the 1-shard replay re-serves.
    replay_extra: usize,
    /// Requests per chunk; the traced run traces one chunk in four of
    /// its last pass.
    chunk: usize,
}

pub fn spec(w: Workload) -> Spec {
    match w {
        Workload::ServeChurn => Spec {
            keys: 64,
            skew: 0.5,
            read: 0.6,
            sens: 0.1,
            cache: 16,
            per_market: 4_000,
            warmup: 800,
            replay_extra: 1_200,
            chunk: 64,
        },
        _ => Spec {
            keys: 8,
            skew: 1.0,
            read: 0.8,
            sens: 0.1,
            cache: 64,
            per_market: 50_000,
            warmup: 20_000,
            replay_extra: 20_000,
            chunk: 1_024,
        },
    }
}

/// The stream seed of pass `pass` of a run under `seed`: distinct for
/// every (seed, pass) pair.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(PASSES as u64).wrapping_add(pass as u64)
}

pub fn stream(spec: &Spec, seed: u64) -> NumResult<Vec<(u64, Request)>> {
    let cfg = LoadGenConfig {
        requests: spec.per_market,
        seed,
        read_fraction: spec.read,
        sensitivity_fraction: spec.sens,
        hot_keys: spec.keys,
        skew: spec.skew,
    };
    generate_multi(&cfg, MARKETS)
}

/// The §5 market at the paper's operating point (p = 0.6, q = 0.8).
pub fn section5_game() -> SubsidyGame {
    SubsidyGame::new(section5_system(), 0.6, 0.8).expect("the §5 market is valid")
}

/// The §5 market moved to a hot key's (price, cap, µ).
pub fn game_at(base: &SubsidyGame, price: f64, cap: f64, mu: f64) -> NumResult<SubsidyGame> {
    let mut game = base.clone();
    Axis::Price.apply(&mut game, price)?;
    Axis::Cap.apply(&mut game, cap)?;
    Axis::Mu.apply(&mut game, mu)?;
    Ok(game)
}

/// The distinct (price, cap, µ) operating points a stream visits, in
/// order of first visit: every key switch writes price, cap and µ of one
/// market in that order.
pub fn hot_keys(stream: &[(u64, Request)], max: usize) -> Vec<(f64, f64, f64)> {
    let mut pending = [(f64::NAN, f64::NAN); MARKETS];
    let mut keys: Vec<(f64, f64, f64)> = Vec::new();
    for (m, req) in stream {
        let slot = &mut pending[*m as usize % MARKETS];
        match req {
            Request::Update { axis: Axis::Price, value } => slot.0 = *value,
            Request::Update { axis: Axis::Cap, value } => slot.1 = *value,
            Request::Update { axis: Axis::Mu, value } => {
                let key = (slot.0, slot.1, *value);
                let seen = keys.iter().any(|k| {
                    k.0.to_bits() == key.0.to_bits()
                        && k.1.to_bits() == key.1.to_bits()
                        && k.2.to_bits() == key.2.to_bits()
                });
                if !seen && key.0.is_finite() && key.1.is_finite() {
                    keys.push(key);
                    if keys.len() == max {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    keys
}

/// Builds the server over fresh §5 markets; returns it with its build
/// time. Its shard threads inherit the calling thread's CPU list.
fn build_server(spec: &Spec, shards: usize) -> NumResult<(ShardedServer, Duration)> {
    let t0 = Instant::now();
    let markets = (0..MARKETS as u64).map(|id| (id, section5_game())).collect();
    let server =
        ShardedServer::new(markets, &ShardedConfig { shards, pool: POOL, cache: spec.cache })?;
    Ok((server, t0.elapsed()))
}

/// How a reply is classified for the per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    LockFree,
    Eq(Source),
    Sensitivity,
    Update,
}

const KINDS: usize = 8;

impl Kind {
    fn of(reply: &Reply) -> Kind {
        match reply {
            Reply::Updated { .. } => Kind::Update,
            Reply::Equilibrium { source: Source::LockFree, .. } => Kind::LockFree,
            Reply::Equilibrium { source, .. } => Kind::Eq(*source),
            Reply::Sensitivity { .. } | Reply::Degenerate { .. } => Kind::Sensitivity,
        }
    }

    fn index(self) -> usize {
        match self {
            Kind::LockFree => 0,
            Kind::Eq(Source::LockFree) | Kind::Eq(Source::CacheHit) => 1,
            Kind::Eq(Source::Warm) => 2,
            Kind::Eq(Source::Tangent) => 3,
            Kind::Eq(Source::Cold) => 4,
            Kind::Eq(Source::Partial) => 5,
            Kind::Sensitivity => 6,
            Kind::Update => 7,
        }
    }
}

/// Span names and unit-cost keys, by [`Kind::index`].
const SPAN: [&str; KINDS] = [
    "exp.server.sharded.lockfree",
    "exp.server.src.cache_hit",
    "exp.server.src.warm",
    "exp.server.src.tangent",
    "exp.server.src.cold",
    "exp.server.src.partial",
    "exp.server.sensitivity",
    "exp.server.sharded.update",
];
const COST_KEY: [&str; KINDS] =
    ["lockfree", "cache_hit", "warm", "tangent", "cold", "partial", "sensitivity", "update"];

/// The source of an answer-bearing reply.
fn source_of(reply: &Reply) -> Option<Source> {
    match reply {
        Reply::Updated { .. } => None,
        Reply::Equilibrium { source, .. }
        | Reply::Sensitivity { source, .. }
        | Reply::Degenerate { source, .. } => Some(*source),
    }
}

/// The snapshot a reply carries, if a solve (not a cache) produced it.
fn solved_snapshot(reply: &Reply) -> Option<&Arc<EqSnapshot>> {
    match (reply, source_of(reply)) {
        (
            Reply::Equilibrium { snap, .. }
            | Reply::Sensitivity { snap, .. }
            | Reply::Degenerate { snap, .. },
            Some(Source::Warm | Source::Cold | Source::Tangent | Source::Partial),
        ) => Some(snap),
        _ => None,
    }
}

/// Theorem 3 certificates of solved snapshots, checked in batches
/// between chunks — outside every timed interval — so that the snapshots
/// do not pile up and peak RSS does not grow with the requests served.
#[derive(Default)]
struct Certificates {
    pending: Vec<Arc<EqSnapshot>>,
    checked: usize,
    uncertified: usize,
    partial: usize,
    max_kkt: f64,
}

impl Certificates {
    fn check(&mut self, base: &SubsidyGame) {
        for snap in self.pending.drain(..) {
            let kkt = game_at(base, snap.price(), snap.cap(), snap.mu())
                .and_then(|g| verify_equilibrium(&g, snap.subsidies()))
                .map_or(f64::NAN, |r| r.max_kkt_residual);
            if kkt <= KKT_TOL {
                self.max_kkt = self.max_kkt.max(kkt);
            } else {
                self.uncertified += 1;
            }
            if !snap.stats().converged {
                self.partial += 1;
            }
            self.checked += 1;
        }
    }
}

fn cache_totals(reports: &[ShardReport]) -> (u64, u64, u64) {
    reports.iter().fold((0, 0, 0), |(h, m, e), r| {
        (h + r.cache.hits, m + r.cache.misses, e + r.cache.evictions)
    })
}

/// Serves the first `n` requests of `stream` (wrapping around its end)
/// from scratch on a fresh server with `shards` shards: the reply checksum
/// and the failure count.
fn replay(
    spec: &Spec,
    shards: usize,
    stream: &[(u64, Request)],
    n: usize,
) -> NumResult<(u64, u64)> {
    let (mut server, _) = build_server(spec, shards)?;
    let mut sum = 0u64;
    let mut failed = 0u64;
    for (m, req) in stream.iter().cycle().take(n) {
        match server.serve(*m, *req) {
            Ok(reply) => sum = fold_reply(sum, *m, &reply),
            Err(_) => failed += 1,
        }
    }
    Ok((sum, failed))
}

pub fn run(cfg: &RunCfg, mut tracer: Option<&mut Tracer>) -> NumResult<Outcome> {
    let spec = spec(cfg.workload);
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    // Passes: each sets up from scratch (generate its own stream, build
    // the server, serve the warm-up prefix) and then times the requests
    // past the prefix. The first pass runs chunks for its share of the
    // window; the others run exactly as many.
    let pass_budget = cfg.window / PASSES as u32;
    let mut passes = util::Passes::default();
    let mut pass_chunks: Option<usize> = None;
    let mut setup_s = Vec::with_capacity(PASSES);
    let mut first_pass_sum = None;
    let (mut warm_failed, mut failed, mut served) = (0u64, 0u64, 0u64);
    let base = section5_game();
    let mut certs = Certificates::default();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut kind_n = [0u64; KINDS];
    let mut kind_ns = [0f64; KINDS];
    let mut sens_solves = [0u64; KINDS];
    let mut lockfree_ns: Vec<f64> = Vec::new();
    let mut shard_n = [0u64; SHARDS];
    let (mut traced_ns, mut traced_ops, mut plain_ns, mut plain_ops) = (0f64, 0u64, 0f64, 0u64);
    let check_at = spec.warmup + spec.replay_extra;
    let mut placements = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let placed = util::OneCpu::enter(pass);
        placements.push(placed.cpu());
        let t0 = Instant::now();
        let stream = stream(&spec, pass_seed(cfg.seed, pass))?;
        let generated = t0.elapsed();
        let (mut server, built) = build_server(&spec, SHARDS)?;
        let t1 = Instant::now();
        let mut sum = 0u64;
        for (m, req) in &stream[..spec.warmup] {
            match server.serve(*m, *req) {
                Ok(reply) => {
                    sum = fold_reply(sum, *m, &reply);
                    if let Some(snap) = solved_snapshot(&reply) {
                        certs.pending.push(Arc::clone(snap));
                    }
                }
                Err(_) => warm_failed += 1,
            }
        }
        setup_s.push((generated + built + t1.elapsed()).as_secs_f64());
        certs.check(&base);

        // The timed pass.
        let len = stream.len();
        let cache_before = cache_totals(&server.shard_reports().map_err(util::num_err)?);
        let mut idx = spec.warmup;
        let mut eq_answers = 0u64;
        let mut sum_at_check = None;
        let start = Instant::now();
        let mut end = start;
        let mut chunk_no = 0usize;
        while pass_chunks.map_or(end - start < pass_budget, |n| chunk_no < n) {
            let traced = tracer.is_some() && pass == PASSES - 1 && chunk_no % 4 == 1;
            let chunk_span = match tracer.as_deref_mut() {
                Some(t) if traced => t.open("serve.chunk", ROOT),
                _ => ROOT,
            };
            let chunk_t0 = Instant::now();
            let answers_before = eq_answers;
            for _ in 0..spec.chunk {
                let (m, req) = stream[idx % len];
                idx += 1;
                let t0 = Instant::now();
                let result = server.serve(m, req);
                let t1 = Instant::now();
                passes.sample((t1 - t0).as_nanos() as u64);
                match result {
                    Ok(reply) => {
                        sum = fold_reply(sum, m, &reply);
                        let kind = Kind::of(&reply);
                        if kind != Kind::Update {
                            eq_answers += 1;
                        }
                        if let Some(snap) = solved_snapshot(&reply) {
                            certs.pending.push(Arc::clone(snap));
                        }
                        if traced {
                            let k = kind.index();
                            let dt = (t1 - t0).as_nanos() as f64;
                            kind_n[k] += 1;
                            kind_ns[k] += dt;
                            if kind == Kind::Sensitivity {
                                // A sensitivity read that had to solve first.
                                if let Some(src) =
                                    source_of(&reply).filter(|s| *s != Source::CacheHit)
                                {
                                    sens_solves[Kind::Eq(src).index()] += 1;
                                }
                            }
                            if kind == Kind::LockFree {
                                lockfree_ns.push(dt);
                            } else {
                                shard_n[server.shard_of(m).unwrap_or(0) % SHARDS] += 1;
                            }
                            if let Some(t) = tracer.as_deref_mut() {
                                t.record(SPAN[k], chunk_span, t0, t1, 1);
                            }
                        }
                    }
                    Err(_) => failed += 1,
                }
                if idx == check_at {
                    sum_at_check = Some(sum);
                }
                end = t1;
            }
            let chunk_ns = (end - chunk_t0).as_nanos() as f64;
            certs.check(&base);
            passes.chunk(spec.chunk as f64, (eq_answers - answers_before) as f64, chunk_ns);
            if traced {
                if let Some(t) = tracer.as_deref_mut() {
                    t.close(chunk_span, spec.chunk as u32);
                }
                traced_ns += chunk_ns;
                traced_ops += spec.chunk as u64;
            } else if pass == PASSES - 1 {
                plain_ns += chunk_ns;
                plain_ops += spec.chunk as u64;
            }
            chunk_no += 1;
        }
        passes.end_pass();
        pass_chunks.get_or_insert(chunk_no);
        let cache_after = cache_totals(&server.shard_reports().map_err(util::num_err)?);
        hits += cache_after.0 - cache_before.0;
        misses += cache_after.1 - cache_before.1;
        evictions += cache_after.2 - cache_before.2;
        served += (idx - spec.warmup) as u64;
        // A pass shorter than the replay prefix replays the whole pass.
        first_pass_sum
            .get_or_insert((sum_at_check.map_or(idx, |_| check_at), sum_at_check.unwrap_or(sum)));
        drop(server);
        drop(placed);
    }
    let rss = util::peak_rss_mb();
    out.attempted = served;
    out.failed = failed;

    // Output checks, outside the window.
    checks.expect("warmup_no_failures", warm_failed == 0, format!("{warm_failed} failed"));
    checks.expect(
        "p99_sample_count",
        passes.samples() >= 1_000,
        format!("{} samples", passes.samples()),
    );
    // The first pass's stream served again from scratch, on 2 shards (a
    // repetition) and on 1.
    let (check_n, check_sum) = first_pass_sum.expect("at least one pass");
    let first = stream(&spec, pass_seed(cfg.seed, 0))?;
    let (again, again_failed) = replay(&spec, SHARDS, &first, check_n)?;
    checks.expect(
        "repeat_checksum",
        again == check_sum && again_failed == 0,
        format!("{check_n} requests: pass 0 {check_sum:016x}, again {again:016x}"),
    );
    let (one, one_failed) = replay(&spec, 1, &first, check_n)?;
    checks.expect(
        "one_shard_replay_checksum",
        one == check_sum && one_failed == 0,
        format!("{check_n} requests: 2 shards {check_sum:016x}, 1 shard {one:016x}"),
    );
    out.notes.push(format!(
        "placement: each pass's client and shard threads on one cpu, pass k on the k-th of {} \
         (mod their number); per pass {:?} (None: confinement unavailable)",
        util::nproc(),
        placements
    ));
    let max_kkt = certs.max_kkt;
    checks.expect(
        "kkt_certificates",
        certs.uncertified == 0,
        format!(
            "{} solved snapshots, max KKT {max_kkt:.3e}, {} over {KKT_TOL:e}",
            certs.checked, certs.uncertified
        ),
    );
    checks.expect("no_partial_answers", certs.partial == 0, format!("{} partial", certs.partial));

    let hit_ratio = hits as f64 / ((hits + misses) as f64).max(1.0);
    out.derived.put("fail_frac", failed as f64 / (served as f64).max(1.0), "ratio");
    out.derived.put("latency_samples", passes.samples() as f64, "count");
    out.notes.push(format!("passes: requests/s {:.0?}", passes.pass_rates()));
    out.derived.put("cache_hit_ratio", hit_ratio, "ratio");
    out.derived.put("max_kkt", max_kkt, "1");

    let m = &mut out.metrics;
    if tracer.is_none() {
        util::put_e2e(m, passes.figures(), &setup_s, rss);
    } else {
        window_metrics(m, &kind_n, &kind_ns, &lockfree_ns, &shard_n);
        m.put("exp.server.cache_hit_ratio", hit_ratio, "ratio");
        m.put("exp.server.cache_evictions", evictions as f64, "count");
        m.put("core.equilibrium.max_kkt", max_kkt, "1");
        out.overhead_frac = (traced_ns / traced_ops.max(1) as f64)
            / (plain_ns / plain_ops.max(1) as f64).max(1e-9)
            - 1.0;
        out.work = WorkCounts {
            measured_ns: traced_ns,
            counts: (0..KINDS)
                .map(|k| (COST_KEY[k], (kind_n[k] + sens_solves[k]) as f64))
                .collect(),
            parallel: Vec::new(),
        };
    }
    out.checks = checks;
    Ok(out)
}

fn window_metrics(
    m: &mut Metrics,
    kind_n: &[u64; KINDS],
    kind_ns: &[f64; KINDS],
    lockfree_ns: &[f64],
    shard_n: &[u64; SHARDS],
) {
    let mean_us = |k: usize| kind_ns[k] / (kind_n[k].max(1) as f64) / 1e3;
    for (k, src) in [(1, "cache_hit"), (2, "warm"), (3, "tangent"), (4, "cold"), (5, "partial")] {
        m.put(format!("exp.server.src.{src}.count"), kind_n[k] as f64, "count");
        m.put(format!("exp.server.src.{src}.mean_us"), mean_us(k), "us");
    }
    m.put("exp.server.sensitivity.count", kind_n[6] as f64, "count");
    m.put("exp.server.sensitivity.mean_us", mean_us(6), "us");
    m.put("exp.server.sharded.lockfree.count", kind_n[0] as f64, "count");
    m.put("exp.server.sharded.lockfree.p50_ns", util::median(lockfree_ns), "ns");
    m.put("exp.server.sharded.update.count", kind_n[7] as f64, "count");
    m.put("exp.server.sharded.update.mean_us", mean_us(7), "us");
    let shard_total: u64 = shard_n.iter().sum();
    let busiest = shard_n.iter().copied().max().unwrap_or(0);
    m.put(
        "exp.server.sharded.max_shard_share",
        busiest as f64 / (shard_total.max(1) as f64),
        "ratio",
    );
}

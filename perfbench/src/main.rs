//! `perfbench` — the repository benchmark: four workloads timed end to
//! end, plus a traced run that times each layer from outside.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-hot|serve-churn|adopt-1m|farm> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before timing starts; the program
//! under test only receives them. With `--trace 0` the run reports the
//! end-to-end metrics of [`E2E`]; with `--trace 1` it reports the
//! per-layer metrics of [`LAYER`] instead. Either way the last stdout
//! line is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! and every output check of the workload has run. See `README.md` for
//! the workload table and the metric definitions.

mod adopt;
mod farm;
mod probes;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;
use util::{Checks, Metrics};

/// End-to-end metrics: name, unit. Every workload reports all of them
/// (definitions per workload in the README).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("games_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit. A metric whose layer
/// the workload does not drive reads 0.
pub const LAYER: &[(&str, &str)] = &[
    ("model.phi_us", "us"),
    ("core.best_response.eval_us", "us"),
    ("core.best_response.phi_evals_mean", "count"),
    ("core.nash.cold_ms", "ms"),
    ("core.nash.warm_ms", "ms"),
    ("core.nash.sweeps_mean", "count"),
    ("core.nash.sweeps_max", "count"),
    ("core.sensitivity.directional_us", "us"),
    ("core.equilibrium.verify_us", "us"),
    ("core.equilibrium.max_kkt", "1"),
    ("core.lane.block_ms", "ms"),
    ("core.lane.sweeps_mean", "count"),
    ("core.lane.sweeps_max", "count"),
    ("exp.sweep.scaling_eff", "ratio"),
    ("exp.scenarios.farm_game_us", "us"),
    ("exp.server.fingerprint_ns", "ns"),
    ("exp.server.cache_hit_ratio", "ratio"),
    ("exp.server.cache_evictions", "count"),
    ("exp.server.src.cache_hit.count", "count"),
    ("exp.server.src.cache_hit.mean_us", "us"),
    ("exp.server.src.warm.count", "count"),
    ("exp.server.src.warm.mean_us", "us"),
    ("exp.server.src.tangent.count", "count"),
    ("exp.server.src.tangent.mean_us", "us"),
    ("exp.server.src.cold.count", "count"),
    ("exp.server.src.cold.mean_us", "us"),
    ("exp.server.src.partial.count", "count"),
    ("exp.server.src.partial.mean_us", "us"),
    ("exp.server.sensitivity.count", "count"),
    ("exp.server.sensitivity.mean_us", "us"),
    ("exp.server.sharded.lockfree.count", "count"),
    ("exp.server.sharded.lockfree.p50_ns", "ns"),
    ("exp.server.sharded.update.count", "count"),
    ("exp.server.sharded.update.mean_us", "us"),
    ("exp.server.sharded.direct_hit_us", "us"),
    ("exp.server.sharded.max_shard_share", "ratio"),
    ("sim.adoption.step_ms", "ms"),
    ("sim.adoption.step_ns_per_user", "ns"),
    ("sim.adoption.step_bytes_per_user", "B"),
    ("sim.adoption.step_scaling_eff", "ratio"),
    ("sim.adoption.build_s", "s"),
    ("exp.adoption.tick_ms", "ms"),
    ("exp.adoption.serve_ms", "ms"),
    ("exp.adoption.src.lockfree", "count"),
    ("exp.adoption.src.cache", "count"),
    ("exp.adoption.src.tangent", "count"),
    ("exp.adoption.src.warm", "count"),
    ("exp.adoption.src.cold", "count"),
    ("exp.adoption.src.partial", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reconcile_measured_ms", "ms"),
    ("trace.reconcile_predicted_ms", "ms"),
    ("trace.reconcile_gap", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeChurn,
    Adopt1m,
    Farm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-churn" => Some(Workload::ServeChurn),
            "adopt-1m" => Some(Workload::Adopt1m),
            "farm" => Some(Workload::Farm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::Adopt1m => "adopt-1m",
            Workload::Farm => "farm",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
}

/// What a traced window hands the reconciliation: the measured time of
/// the traced operations and the work they did, as counts.
#[derive(Debug, Clone, Default)]
pub struct WorkCounts {
    pub measured_ns: f64,
    /// (unit-cost key, count) pairs; the probes price each key.
    pub counts: Vec<(&'static str, f64)>,
    /// Divides the summed cost: work that ran on this many workers.
    pub parallel: Vec<(&'static str, f64)>,
}

/// Everything a workload run returns.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// End-to-end metrics (untraced) or window-derived per-layer metrics
    /// (traced).
    pub metrics: Metrics,
    /// Figures that only apply to this workload, printed for
    /// humans (`tick_p50_ms`, `users_stepped_per_s`, `fail_frac`, …).
    pub derived: Metrics,
    pub work: WorkCounts,
    pub overhead_frac: f64,
    pub notes: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve-hot|serve-churn|adopt-1m|farm> --seed N \
         --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (RunCfg, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 600.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(workload), Some(seed), Some(seconds), Some(traced)) => {
            (RunCfg { workload, seed, window: Duration::from_secs_f64(seconds) }, traced)
        }
        _ => usage(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The traced run's second half: layer probes, the reconciliation, the
/// per-layer metrics that need both, the span table and the span dump.
fn finish_traced(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) {
    let units = probes::run(cfg, tracer).unwrap_or_else(|e| {
        eprintln!("perfbench: layer probes failed: {e}");
        std::process::exit(1);
    });
    let (predicted_ns, lines) = units.predict(&out.work);
    let measured_ns = out.work.measured_ns;
    let gap = (measured_ns - predicted_ns) / measured_ns.max(1.0);
    println!(
        "reconciliation ({}): Σ count × unit cost against the traced window",
        cfg.workload.name()
    );
    for line in lines {
        println!("  {line}");
    }
    println!(
        "  predicted {:.3} ms, measured {:.3} ms, gap {:+.1}%{}",
        predicted_ns / 1e6,
        measured_ns / 1e6,
        gap * 100.0,
        if gap.abs() > 0.25 { "  ** FLAG: gap over 25% **" } else { "" }
    );
    // A value measured in the workload's own window wins over the
    // probe's (e.g. the certificate maximum).
    for m in units.metrics.0 {
        if !out.metrics.0.iter().any(|w| w.name == m.name) {
            out.metrics.0.push(m);
        }
    }
    let value = |name: &str| out.metrics.0.iter().find(|m| m.name == name).map(|m| m.value);
    if let (Some(tick), Some(step)) = (value("exp.adoption.tick_ms"), value("sim.adoption.step_ms"))
    {
        out.metrics.put("exp.adoption.serve_ms", tick - adopt::COHORTS as f64 * step, "ms");
    }
    out.metrics.put("trace.overhead_frac", out.overhead_frac, "ratio");
    out.metrics.put("trace.reconcile_measured_ms", measured_ns / 1e6, "ms");
    out.metrics.put("trace.reconcile_predicted_ms", predicted_ns / 1e6, "ms");
    out.metrics.put("trace.reconcile_gap", gap, "ratio");
    out.metrics.put("trace.spans", tracer.spans().len() as f64, "count");
    println!("layer spans (name: spans, ops, total ms, self ms):");
    for (name, t) in tracer.summary() {
        println!(
            "  {name}: {} spans, {} ops, {:.3} ms total, {:.3} ms self",
            t.spans,
            t.ops,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path =
        PathBuf::from(format!("perfbench/out/trace-{}-{}.csv", cfg.workload.name(), cfg.seed));
    match tracer.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

fn main() {
    let (cfg, traced) = parse_args();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs_f64(),
        u8::from(traced),
        util::nproc()
    );
    let mut tracer = traced.then(|| Tracer::new((cfg.window.as_secs_f64() * 60_000.0) as usize));
    let mut out = match cfg.workload {
        Workload::ServeHot | Workload::ServeChurn => serve::run(&cfg, tracer.as_mut()),
        Workload::Adopt1m => adopt::run(&cfg, tracer.as_mut()),
        Workload::Farm => farm::run(&cfg, tracer.as_mut()),
    }
    .unwrap_or_else(|e| {
        eprintln!("perfbench: {} failed before reporting: {e}", cfg.workload.name());
        std::process::exit(1);
    });

    let reported = match tracer.as_mut() {
        Some(tracer) => {
            finish_traced(&cfg, tracer, &mut out);
            LAYER
        }
        None => E2E,
    };

    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.derived.0 {
        println!("derived {} = {} {}", m.name, m.value, m.unit);
    }
    for c in &out.checks.0 {
        println!("check {}: {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }

    // Exactly the declared metric list, in declared order.
    let values: BTreeMap<&str, f64> =
        out.metrics.0.iter().map(|m| (m.name.as_str(), m.value)).collect();
    let mut correct = out.checks.all_ok() && out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::with_capacity(reported.len());
    for (name, unit) in reported {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            println!("check metric {name}: FAILED (not finite)");
            correct = false;
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{E2E, LAYER};

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let declared: Vec<(String, String)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let expected: Vec<(String, String)> =
            E2E.iter().chain(LAYER).map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared, expected);
    }
}

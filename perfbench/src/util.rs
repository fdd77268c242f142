//! Small shared helpers: quantiles, process memory, thread placement and
//! the metric list a run reports.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample;
/// 0 for an empty one.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Latencies in whole nanoseconds as a histogram of fixed size: 1 ns
/// buckets below 2048 ns, then 1024 buckets per power of two (0.1%
/// wide). Memory does not grow with the samples recorded, so peak RSS
/// does not depend on how many operations a run manages.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

/// Values below this get a bucket each.
const EXACT: u64 = 2048;
const SUB_BITS: u32 = 10;

impl Default for Histogram {
    fn default() -> Histogram {
        // Up to 2^48 ns, about three days.
        Histogram { counts: vec![0; Histogram::index(1 << 48) + 1], total: 0 }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (EXACT + (u64::from(exp) - 11) * (1 << SUB_BITS) + sub) as usize
    }

    /// The values bucket `i` holds: `lo..hi`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < EXACT {
            return (i, i + 1);
        }
        let exp = (i - EXACT) / (1 << SUB_BITS) + 11;
        let width = 1u64 << (exp - u64::from(SUB_BITS));
        let lo = (1u64 << exp) + ((i - EXACT) % (1 << SUB_BITS)) * width;
        (lo, lo + width)
    }

    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns.min(1 << 48));
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q` quantile. The whole nanosecond `v` stands for the interval
    /// `[v − 0.5, v + 0.5)`, and inside its bucket the quantile is placed
    /// in proportion to the rank it needs: a plain quantile of a sample in
    /// which one value repeats many times would snap to that value, this
    /// one moves with the share of samples on either side of it. 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 >= rank {
                let (lo, hi) = Self::bounds(i);
                let frac = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 - 0.5 + frac * (hi - lo) as f64;
            }
            below += n;
        }
        unreachable!("the rank lies within the recorded total")
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel thread ids of this process, ascending.
pub fn thread_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect::<Vec<u32>>()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Pins the threads that appeared since `before` was taken — the shard
/// threads a `ShardedServer` just spawned, in spawn order — one per CPU,
/// shard `s` on CPU `s mod nproc`. The client thread stays unpinned.
///
/// Without this the scheduler decides per run whether the router and a
/// shard share a core, and every serve metric flips between two modes
/// (see the README). Returns false when pinning is unavailable (one CPU,
/// no `/proc`, no `taskset`); the run then proceeds unpinned.
pub fn pin_new_threads(before: &[u32]) -> bool {
    let cpus = nproc();
    if cpus < 2 {
        return false;
    }
    let fresh: Vec<u32> = thread_ids().into_iter().filter(|t| !before.contains(t)).collect();
    if fresh.is_empty() {
        return false;
    }
    fresh.iter().enumerate().all(|(s, tid)| {
        std::process::Command::new("taskset")
            .args(["-p", "-c", &(s % cpus).to_string(), &tid.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|st| st.success())
    })
}

/// The calling thread's kernel id, from `/proc/thread-self`.
fn current_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

fn taskset(tid: &str, cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-p", "-c", cpus, tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|st| st.success())
}

/// CPUs of a kernel CPU list such as `0-3,6`.
fn cpu_list(text: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Confines the calling thread to one CPU while it lives, and with it
/// every thread it spawns meanwhile (a new thread inherits its parent's
/// CPU list); drop restores the calling thread's former CPU list.
///
/// The serve workloads are a closed loop: the client waits for each
/// reply, so at most one of its threads is runnable at a time and one CPU
/// holds the whole loop. Across CPUs every hand-off to a shard must wake
/// an idle virtual CPU, which on a shared host costs whatever the host's
/// load makes it cost (see the README's Observations).
pub struct OneCpu {
    tid: String,
    former: Option<String>,
    cpu: Option<usize>,
}

impl OneCpu {
    /// Confines the thread to the `nth` CPU (modulo their number) of its
    /// current CPU list.
    pub fn enter(nth: usize) -> OneCpu {
        let tid = current_tid().unwrap_or_default();
        let former = std::fs::read_to_string("/proc/thread-self/status").ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        });
        let cpus = former.as_deref().map(cpu_list).unwrap_or_default();
        let cpu = (!cpus.is_empty() && !tid.is_empty()).then(|| cpus[nth % cpus.len()]);
        match cpu.filter(|c| taskset(&tid, &c.to_string())) {
            Some(cpu) => OneCpu { tid, former, cpu: Some(cpu) },
            None => OneCpu { tid, former: None, cpu: None },
        }
    }

    /// The CPU the thread is confined to; `None` when confinement is
    /// unavailable (no `/proc`, no `taskset`) and the run goes unconfined.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(cpus) = &self.former {
            taskset(&self.tid, cpus);
        }
    }
}

/// The timed window of a run made of passes: each pass serves requests
/// of its own stream, and the run pools them.
///
/// Rates are the median of the passes' rates. Outside load only ever slows
/// work down and on a shared host comes in stretches of seconds, so a
/// slow stretch has to cover half of the passes to move a rate. Latency
/// quantiles are taken over every request of every pass: at serve-churn
/// the median falls between the two modes of the update round-trip, and
/// where it lands depends on the request mix, which pooling several
/// streams steadies.
#[derive(Debug, Default)]
pub struct Passes {
    lat: Histogram,
    /// (operations, answers, ns) of the pass in progress and of each
    /// closed pass.
    current: (f64, f64, f64),
    closed: Vec<(f64, f64, f64)>,
}

impl Passes {
    pub fn sample(&mut self, ns: u64) {
        self.lat.record(ns);
    }

    /// Closes a chunk of `ops` operations (`answers` of them equilibrium
    /// answers) that took `ns`.
    pub fn chunk(&mut self, ops: f64, answers: f64, ns: f64) {
        self.current.0 += ops;
        self.current.1 += answers;
        self.current.2 += ns;
    }

    pub fn end_pass(&mut self) {
        self.closed.push(std::mem::take(&mut self.current));
    }

    /// Samples behind the latency quantiles.
    pub fn samples(&self) -> u64 {
        self.lat.len()
    }

    /// Operations/s of each pass, in order.
    pub fn pass_rates(&self) -> Vec<f64> {
        self.closed.iter().map(|p| p.0 / p.2 * 1e9).collect()
    }

    pub fn figures(&self) -> Figures {
        let answer_rates: Vec<f64> = self.closed.iter().map(|p| p.1 / p.2 * 1e9).collect();
        Figures {
            ops_per_s: median(&self.pass_rates()),
            answers_per_s: median(&answer_rates),
            p50_ns: self.lat.quantile(0.50),
            p99_ns: self.lat.quantile(0.99),
        }
    }
}

/// A serving error as a numerical one, for the benchmark's own `?`s.
pub fn num_err(err: subcomp_exp::server::ServeError) -> subcomp_num::NumError {
    match err {
        subcomp_exp::server::ServeError::Num(e) => e,
        _ => subcomp_num::NumError::Domain { what: "serving error", value: f64::NAN },
    }
}

/// The timed window's record: one latency sample per operation, grouped
/// into the chunks the workload runs.
///
/// The machine this runs on is shared: load from outside the process
/// slows whole stretches of a run by 10–50%. So the window is cut into
/// sub-windows of at least [`SUB_WINDOW_S`] and the run reports its
/// faster half: rates and latency quantiles pooled over the half of the
/// sub-windows with the highest operation rate. Outside load only ever
/// slows a sub-window down, so the faster half tracks the program's own
/// cost.
#[derive(Debug)]
pub struct Window {
    lat_ns: Vec<f64>,
    /// (samples so far, operations, answers, ns) per chunk.
    chunks: Vec<(usize, f64, f64, f64)>,
}

/// Shortest sub-window.
pub const SUB_WINDOW_S: f64 = 0.25;

impl Window {
    /// A window whose sample buffer is allocated and touched up front, so
    /// peak RSS does not depend on how many operations the run manages.
    pub fn new(expected_samples: usize) -> Window {
        // Written, not just allocated: zeroed pages would stay unmapped.
        let mut lat_ns = Vec::with_capacity(expected_samples);
        lat_ns.resize(expected_samples, -1.0);
        lat_ns.clear();
        Window { lat_ns, chunks: Vec::with_capacity(1 << 12) }
    }

    pub fn sample(&mut self, ns: f64) {
        self.lat_ns.push(ns);
    }

    /// Closes a chunk of `ops` operations (`answers` of them equilibrium
    /// answers) that took `ns`.
    pub fn chunk(&mut self, ops: f64, answers: f64, ns: f64) {
        self.chunks.push((self.lat_ns.len(), ops, answers, ns));
    }

    pub fn samples(&self) -> &[f64] {
        &self.lat_ns
    }

    /// Consecutive chunk groups of at least [`SUB_WINDOW_S`]: (sample
    /// range, ops, answers, ns). A short tail joins the last group.
    fn groups(&self) -> Vec<SubWindow> {
        let mut out: Vec<SubWindow> = Vec::new();
        let (mut from, mut ops, mut answers, mut ns) = (0usize, 0.0, 0.0, 0.0);
        for &(upto, o, a, t) in &self.chunks {
            ops += o;
            answers += a;
            ns += t;
            if ns >= SUB_WINDOW_S * 1e9 {
                out.push((from..upto, ops, answers, ns));
                (from, ops, answers, ns) = (upto, 0.0, 0.0, 0.0);
            }
        }
        if ns > 0.0 {
            match out.last_mut() {
                Some(last) => {
                    last.0.end = self.lat_ns.len();
                    last.1 += ops;
                    last.2 += answers;
                    last.3 += ns;
                }
                None => out.push((from..self.lat_ns.len(), ops, answers, ns)),
            }
        }
        out
    }

    /// Operations/s of each sub-window, in order.
    pub fn sub_window_rates(&self) -> Vec<f64> {
        self.groups().iter().map(|g| g.1 / g.3 * 1e9).collect()
    }

    /// The faster half of the sub-windows by operation rate, grown from
    /// the fastest down until it also holds `min_samples` samples.
    fn faster_half(&self, min_samples: usize) -> Vec<SubWindow> {
        let mut groups = self.groups();
        groups.sort_by(|a, b| (b.1 / b.3).total_cmp(&(a.1 / a.3)));
        let half = groups.len().div_ceil(2);
        let (mut kept, mut samples) = (0, 0);
        for g in &groups {
            if kept >= half && samples >= min_samples {
                break;
            }
            kept += 1;
            samples += g.0.len();
        }
        groups.truncate(kept);
        groups
    }

    /// Operations/s and answers/s over the faster half of the window.
    pub fn rates(&self) -> (f64, f64) {
        let (ops, answers, ns) = self
            .faster_half(0)
            .iter()
            .fold((0.0, 0.0, 0.0), |acc, g| (acc.0 + g.1, acc.1 + g.2, acc.2 + g.3));
        (ops / ns * 1e9, answers / ns * 1e9)
    }

    /// The `q` latency quantile over the faster half of the window, which
    /// is grown to hold at least ten samples beyond `q`.
    pub fn latency(&self, q: f64) -> f64 {
        let min_samples = (10.0 / (1.0 - q)).ceil() as usize;
        let pooled: Vec<f64> = self
            .faster_half(min_samples)
            .into_iter()
            .flat_map(|g| self.lat_ns[g.0].iter().copied())
            .collect();
        quantile(&pooled, q)
    }
}

/// A sub-window: (sample range, operations, answers, ns).
type SubWindow = (std::ops::Range<usize>, f64, f64, f64);

/// A window's rates and latency quantiles, as the run reports them.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub ops_per_s: f64,
    pub answers_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl Window {
    pub fn figures(&self) -> Figures {
        let (ops_per_s, answers_per_s) = self.rates();
        Figures { ops_per_s, answers_per_s, p50_ns: self.latency(0.50), p99_ns: self.latency(0.99) }
    }
}

/// The end-to-end metrics every workload reports.
pub fn put_e2e(m: &mut Metrics, f: Figures, setup_s: &[f64], rss_mb: f64) {
    m.put("setup_s", median(setup_s), "s");
    m.put("throughput_rps", f.ops_per_s, "1/s");
    m.put("games_per_s", f.answers_per_s, "1/s");
    m.put("latency_p50_us", f.p50_ns / 1e3, "us");
    m.put("latency_p99_us", f.p99_ns / 1e3, "us");
    m.put("peak_rss_mb", rss_mb, "MB");
}

/// Sample counts behind the latency figures, for the human report.
pub fn put_sample_counts(d: &mut Metrics, w: &Window) {
    d.put("latency_samples", w.samples().len() as f64, "count");
    d.put("latency_p99_whole_window_us", quantile(w.samples(), 0.99) / 1e3, "us");
    let rates = w.sub_window_rates();
    d.put("rate_sub_windows", rates.len() as f64, "count");
    for (q, name) in
        [(0.0, "rate_min"), (0.5, "rate_median"), (0.75, "rate_p75"), (1.0, "rate_max")]
    {
        d.put(name, quantile(&rates, q), "1/s");
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list with a terse push.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// One named correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn expect(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.0.push(Check { name, ok, detail: detail.into() });
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }
}

/// FNV-1a over one 64-bit word (the adoption trajectory fold).
pub fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(cpu_list("0-1"), vec![0, 1]);
        assert_eq!(cpu_list("0,2-3, 5\n"), vec![0, 2, 3, 5]);
        assert_eq!(cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn histogram_buckets_cover_every_value_once() {
        for ns in [0, 1, 2047, 2048, 2049, 4095, 4096, 123_456_789, 1 << 40] {
            let (lo, hi) = Histogram::bounds(Histogram::index(ns));
            assert!(lo <= ns && ns < hi, "{ns} in {lo}..{hi}");
            assert!((hi - lo) as f64 <= (ns as f64 / 1024.0).max(1.0));
        }
        assert_eq!(Histogram::bounds(Histogram::index(2048)), (2048, 2050));
    }

    #[test]
    fn histogram_quantile_moves_inside_a_repeated_value() {
        let quantile = |values: &[u64], q: f64| {
            let mut h = Histogram::default();
            values.iter().for_each(|&v| h.record(v));
            h.quantile(q)
        };
        // Half of the samples below 86 ns, half of those at 86 ns.
        assert_eq!(quantile(&[85, 85, 86, 86], 0.5), 85.5);
        assert!((quantile(&[85, 86, 86, 86], 0.5) - (85.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(quantile(&[7], 0.99), 7.49);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Above 2048 ns a bucket is 0.1% wide.
        let v: Vec<u64> = (0..1000).map(|i| 1_000_000 + i * 1000).collect();
        assert!((quantile(&v, 0.5) - 1_500_000.0).abs() < 1_500.0);
    }

    #[test]
    fn passes_report_median_rates_and_pooled_quantiles() {
        let mut p = Passes::default();
        // Three passes of two 2-operation chunks; the second is slow.
        for (lat, ns) in [([1, 1, 3, 3], 4.0), ([2, 2, 9, 9], 12.0), ([1, 1, 3, 3], 5.0)] {
            for c in 0..2 {
                p.sample(lat[2 * c]);
                p.sample(lat[2 * c + 1]);
                p.chunk(2.0, 1.0, ns / 2.0);
            }
            p.end_pass();
        }
        let f = p.figures();
        // Pass rates 1e9, 1/3 e9 and 0.8e9 per second: the median is 0.8e9.
        assert!((f.ops_per_s - 0.8e9).abs() < 1e-3);
        assert!((f.answers_per_s - 0.4e9).abs() < 1e-3);
        // Twelve samples: 1 1 1 1 2 2 3 3 3 3 9 9; rank 6 ends bucket 2.
        assert_eq!(p.samples(), 12);
        assert_eq!(f.p50_ns, 2.5);
    }

    #[test]
    fn window_reports_its_faster_half() {
        let mut w = Window::new(128);
        // Four 0.3 s chunks of 30 operations; the second is slowed to 0.6 s.
        for (ns, lat) in [(0.3e9, 1.0), (0.6e9, 5.0), (0.3e9, 1.0), (0.3e9, 1.0)] {
            for _ in 0..30 {
                w.sample(lat);
            }
            w.chunk(30.0, 15.0, ns);
        }
        assert!((w.rates().0 - 100.0).abs() < 1e-9);
        assert_eq!(w.latency(0.5), 1.0);
        // A p99 needs 1000 samples: the half grows to the whole window.
        assert_eq!(w.latency(0.99), 5.0);
    }
}

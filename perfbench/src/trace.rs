//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into the
//! program: a name, start, end, parent span and the number of
//! operations the span covers (1 for a single call, N for a probe loop).
//! Spans stay in a `Vec` until the run ends; [`Tracer::write`] then
//! dumps them as CSV and [`Tracer::summary`] folds them into per-name
//! totals with self time (duration minus the union of the child spans'
//! intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name fold of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub spans: u64,
    pub ops: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.ns(Instant::now());
        self.push(Span { name, parent, start_ns: now, end_ns: now, count: 1 })
    }

    pub fn close(&mut self, id: u32, count: u32) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Records a finished span from timestamps taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        count: u32,
    ) -> u32 {
        let span = Span { name, parent, start_ns: self.ns(start), end_ns: self.ns(end), count };
        self.push(span)
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by the union of its children's intervals.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.ops += u64::from(s.count);
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one CSV row: `id,parent,name,start_ns,end_ns,count`
    /// (`parent` is empty for a root span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns,count")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(w, "{id},{parent},{},{},{},{}", s.name, s.start_ns, s.end_ns, s.count)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(4);
        let base = t.origin;
        let at = |ns: u64| base + std::time::Duration::from_nanos(ns);
        let p = t.record("parent", ROOT, at(0), at(100), 1);
        t.record("child", p, at(10), at(40), 1);
        t.record("child", p, at(30), at(60), 1); // overlaps the first
        t.record("child", p, at(90), at(120), 1); // clipped at the parent's end
        let sum = t.summary();
        assert_eq!(sum["parent"].total_ns, 100);
        assert_eq!(sum["parent"].self_ns, 100 - 50 - 10);
        assert_eq!(sum["child"].spans, 3);
    }
}

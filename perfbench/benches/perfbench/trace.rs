//! In-memory spans recorded around calls into each layer, written out
//! when the benchmark ends.
//!
//! A span has a name (`layer.operation`), a trace id shared by the spans
//! of one session, a parent, and start/end offsets from the recorder's
//! epoch. Self time is a span's duration minus the time its children
//! cover; the children of one span never overlap (each recorder belongs
//! to one thread), so that is the sum of their durations.

use crate::stats::{Dist, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread, kept in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from explicit instants; returns its index
    /// (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in later by [`Recorder::close`]
    /// (for parents, which end after their children).
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, trace, parent, now, now)
    }

    pub fn close(&mut self, idx: usize) {
        let end = self.ns(Instant::now());
        self.spans[idx].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, trace, parent, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }
}

/// Per-name totals over a set of spans.
pub struct Breakdown {
    /// name → (count, total ns, self ns)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Σ root durations, and Σ self time of roots that have children
    /// (the part of a session or loop no layer span explains).
    pub root_ns: u64,
    pub root_self_ns: u64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
            has_child[p] = true;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let (mut root_ns, mut root_self_ns) = (0, 0);
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
        if s.parent.is_none() {
            root_ns += s.dur_ns();
            // A root with no children is itself one layer's call, wholly
            // accounted for; only container roots leave time unexplained.
            if has_child[i] {
                root_self_ns += self_ns;
            }
        }
    }
    Breakdown {
        by_name,
        root_ns,
        root_self_ns,
    }
}

impl Breakdown {
    /// Share of root wall time no layer span accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.root_self_ns as f64 / self.root_ns as f64
        }
    }

    /// Count, total and self time per span name.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        for (name, &(count, total, self_ns)) in &self.by_name {
            let mut e = Json::object();
            e.int("count", count)
                .num("total_ms", total as f64 / 1e6)
                .num("self_ms", self_ns as f64 / 1e6);
            o.obj(name, e);
        }
        o
    }
}

/// Durations (µs) of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Dist {
    let mut d = Dist::default();
    for s in spans.iter().filter(|s| s.name == name) {
        d.push(s.dur_ns() as f64 / 1e3);
    }
    d
}

/// Writes every span as a tab-separated line: name, trace, parent index
/// (-1 for roots), start ns, end ns.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\ttrace\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.trace, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

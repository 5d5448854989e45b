//! Percentiles, host stamp and the hand-rolled JSON the benchmark prints.

use std::fmt::Write as _;

/// Percentiles tried for a distribution's tail, highest first. The tail
/// reported is the highest one with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
const TAIL_MIN_BEYOND: usize = 10;

/// A set of measured values (one unit, one meaning).
#[derive(Debug, Default, Clone)]
pub struct Dist {
    values: Vec<f64>,
    sorted: bool,
}

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().fold(0.0, |a, v| a + v)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`p` in percent); 0 for an empty set.
    pub fn pct(&mut self, p: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    /// Samples strictly beyond the nearest-rank `p`-th percentile.
    fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n - rank.clamp(1, n)
    }

    /// The highest percentile with at least ten samples beyond it.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let p = TAIL_CANDIDATES
            .into_iter()
            .find(|&p| self.beyond(p) >= TAIL_MIN_BEYOND)?;
        Some((p, self.pct(p)))
    }

    /// `{"n": .., "p50": .., "tail_pct": .., "tail": ..}` — the median and
    /// the best-supported tail, with the sample count behind them.
    pub fn summary(&mut self) -> Json {
        let mut o = Json::object();
        o.int("n", self.len() as u64);
        o.num("p50", self.pct(50.0));
        if let Some((p, v)) = self.tail() {
            o.num("tail_pct", p);
            o.num("tail", v);
        }
        o
    }
}

/// A minimal JSON value builder: objects keep insertion order.
#[derive(Debug, Clone)]
pub struct Json {
    body: String,
    first: bool,
}

impl Json {
    pub fn object() -> Self {
        Self {
            body: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.body.push_str(", ");
        }
        self.first = false;
        let _ = write!(self.body, "{}: ", quote(key));
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        self.body.push_str(&number(v));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.body.push_str(&v.to_string());
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(&quote(v));
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn obj(&mut self, key: &str, v: Json) -> &mut Self {
        self.key(key);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Ordered `(name, unit, value)` metrics, printed under `"metrics"`.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.entries.push((name, unit, value));
    }

    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.entries.iter().map(|&(name, unit, _)| (name, unit))
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        for &(name, unit, value) in &self.entries {
            let mut m = Json::object();
            m.num("value", value).str("unit", unit);
            o.obj(name, m);
        }
        o
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the numbers come from: host, toolchain and source revision.
pub fn host_stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let mut o = Json::object();
    o.str("workload", workload)
        .int("seed", seed)
        .int("seconds", seconds)
        .bool("trace", trace)
        .int("nproc", nproc as u64)
        .str("cpu_model", &cpu)
        .str("rustc", &rustc_version())
        .str("commit", &git_commit());
    o
}

/// The version of the `rustc` that cargo runs (`$RUSTC`, else the one on
/// the path).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The checked-out commit, read from the repository's `.git` without
/// running git (the benchmark may run from a plain export).
fn git_commit() -> String {
    let git = crate::workload::repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

/// Checks the percentile and number formatting rules on known inputs.
pub fn self_check() -> Result<(), String> {
    let mut d = Dist::default();
    for v in 1..=100 {
        d.push(f64::from(v));
    }
    let got = (d.pct(50.0), d.pct(90.0), d.pct(99.0), d.tail());
    // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
    if got != (50.0, 90.0, 99.0, Some((90.0, 90.0))) {
        return Err(format!("nearest-rank percentiles of 1..=100: {got:?}"));
    }
    let mut few = Dist::default();
    for v in 0..12 {
        few.push(f64::from(v));
    }
    if let Some(t) = few.tail() {
        return Err(format!("12 samples support no tail, got {t:?}"));
    }
    for (v, want) in [
        (1.0, "1.0"),
        (0.123_456_789_012_345_67, "0.12345678901234566"),
    ] {
        if number(v) != want {
            return Err(format!("{v} prints as {}, not {want}", number(v)));
        }
    }
    Ok(())
}

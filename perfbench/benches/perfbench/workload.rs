//! Workload inputs: the tables, the request mixes, the in-process query
//! each wire request denotes, and the exact-answer oracle.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::datagen::{DatasetSpec, WorkloadFamily};
use rapidviz::needletail::{NeedleTail, Table};
use rapidviz::{Aggregate, AlgorithmChoice, QueryAnswer, VizQuery};
use rapidviz_serve::{FilterSpec, Frame, QueryRequest, ServerConfig, WireAnswer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Groups per table: the paper's default `k`.
pub const GROUPS: usize = 20;

/// Seed of the dataset *specification* (per-group mixture components).
/// It is fixed so that every run measures the same instance difficulty
/// (the closest pair of group means sets how many samples certification
/// takes); `--seed` varies the rows drawn from it and every query seed.
const SPEC_SEED: u64 = 2015;

/// The workloads. `inprocess_large` runs on demand; `BENCHMARK.json`
/// lists the two wire workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireDashboard,
    WireResume,
    InprocessLarge,
}

impl Kind {
    pub const NAMES: [&'static str; 3] = ["wire_dashboard", "wire_resume", "inprocess_large"];

    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "wire_dashboard" => Some(Kind::WireDashboard),
            "wire_resume" => Some(Kind::WireResume),
            "inprocess_large" => Some(Kind::InprocessLarge),
            _ => None,
        }
    }

    pub fn is_wire(self) -> bool {
        self != Kind::InprocessLarge
    }

    /// Table rows: 100k for the wire workloads, so serving costs dominate
    /// (and sessions run long enough to cut); 1M for the in-process one,
    /// so its working set (~15 MB of values, codes and bitmaps) outgrows
    /// L2 while a run still holds a few dozen sessions. Smoke mode
    /// shrinks only the in-process table.
    pub fn rows(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Kind::InprocessLarge, false) => 1_000_000,
            (Kind::InprocessLarge, true) => 200_000,
            _ => 100_000,
        }
    }
}

/// The repository root: the parent of this package, which cargo names in
/// `CARGO_MANIFEST_DIR` when it runs the benchmark (from the package
/// directory); the working directory otherwise.
pub fn repo_root() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's table: a paper-default Mixture dataset, rows drawn
/// from `seed`.
pub fn table(kind: Kind, smoke: bool, seed: u64) -> Table {
    let spec = DatasetSpec::generate(WorkloadFamily::Mixture, GROUPS, kind.rows(smoke), SPEC_SEED);
    spec.to_table(&mut StdRng::seed_from_u64(mix(seed, 1)))
}

/// One set-up of the system under test.
pub struct Setup {
    pub engine: NeedleTail,
    /// Seconds `NeedleTail::new` took.
    pub build_s: f64,
}

/// Generates the table and builds the engine over it.
pub fn build_engine(kind: Kind, smoke: bool, seed: u64) -> Setup {
    let table = table(kind, smoke, seed);
    let t = Instant::now();
    let engine = NeedleTail::new(table, &["g"]).expect("engine builds over the g column");
    Setup {
        engine,
        build_s: t.elapsed().as_secs_f64(),
    }
}

/// Server settings for the wire workloads: the defaults a deployment
/// gets, on an ephemeral loopback port.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    }
}

/// Dashboard filters: a few `IN` subsets, few enough to stay in the
/// engine's plan cache.
const FILTERS: [&[&str]; 3] = [
    &["g1", "g4", "g7", "g10", "g13"],
    &["g2", "g8", "g14", "g17"],
    &["g0", "g5", "g11", "g16", "g19"],
];

/// Samples per active group per round for the wire mix (`spr=64`).
const WIRE_SPR: u64 = 64;
/// Sample caps for the wire SUM and COUNT queries. SUM's Algorithm 4
/// takes one sample per active group per round whatever `spr` says, so
/// its cap also bounds its round (and frame) count.
const SUM_CAP: u64 = 20_000;
const COUNT_CAP: u64 = 40_000;
const COUNT_RESOLUTION_PCT: f64 = 2.0;

/// Distinct requests in the wire pool; dashboards cycle through it, so
/// repeats hit warm plan caches like a real dashboard refresh does.
const WIRE_POOL: u64 = 48;

/// The wire request pool: mostly AVG/IFOCUS at `spr=64` (some filtered),
/// some IREFINE and ROUNDROBIN, and capped SUM and COUNT.
pub fn wire_pool(seed: u64) -> Vec<QueryRequest> {
    (0..WIRE_POOL)
        .map(|i| {
            let mut r = QueryRequest::avg("g", "y", mix(seed, 100 + i));
            r.samples_per_round = Some(WIRE_SPR);
            match i % 12 {
                1 | 6 | 10 => {
                    let subset = FILTERS[(i as usize / 4) % FILTERS.len()];
                    r.filter = Some(FilterSpec::In(
                        "g".to_owned(),
                        subset.iter().map(|s| (*s).to_owned()).collect(),
                    ));
                }
                3 => {
                    r.aggregate = Aggregate::Sum;
                    r.max_samples = Some(SUM_CAP);
                }
                5 => r.algorithm = AlgorithmChoice::IRefine,
                7 => {
                    r.aggregate = Aggregate::Count;
                    r.max_samples = Some(COUNT_CAP);
                    r.resolution_pct = Some(COUNT_RESOLUTION_PCT);
                }
                9 => r.algorithm = AlgorithmChoice::RoundRobin,
                _ => {}
            }
            r
        })
        .collect()
}

/// The in-process mix: IFOCUS at default rounds, with one ROUNDROBIN and
/// one IREFINE on the first IFOCUS query's seed (the paper's cost
/// comparison), then further IFOCUS queries on fresh seeds.
pub fn inprocess_request(seed: u64, i: u64) -> QueryRequest {
    let (algorithm, query_seed) = match i {
        0 => (AlgorithmChoice::IFocus, mix(seed, 200)),
        1 => (AlgorithmChoice::RoundRobin, mix(seed, 200)),
        2 => (AlgorithmChoice::IRefine, mix(seed, 200)),
        n => (AlgorithmChoice::IFocus, mix(seed, 200 + n)),
    };
    let mut r = QueryRequest::avg("g", "y", query_seed);
    r.algorithm = algorithm;
    r
}

/// The in-process query a wire request denotes, built exactly as the
/// server builds it (including the per-client sample clamp), so a wire
/// answer and `execute` on this query must agree bit for bit.
pub fn viz_query<'a>(engine: &'a NeedleTail, req: &QueryRequest, wire: bool) -> VizQuery<'a> {
    let mut q = VizQuery::new(engine);
    for col in &req.group_by {
        q = q.group_by(col.clone());
    }
    q = match req.aggregate {
        Aggregate::Avg => q.avg(req.measure.clone()),
        Aggregate::Sum => q.sum(req.measure.clone()),
        Aggregate::Count => q.count(req.measure.clone()),
    };
    q = q.algorithm(req.algorithm);
    if let Some(f) = &req.filter {
        q = q.filter(f.to_predicate());
    }
    if let Some(d) = req.delta {
        q = q.delta(d);
    }
    if let Some(r) = req.resolution_pct {
        q = q.resolution_pct(r);
    }
    if let Some(b) = req.bound {
        q = q.bound(b);
    }
    if let Some(s) = req.samples_per_round {
        q = q.samples_per_round(s);
    }
    if wire {
        let cap = server_config().per_client_max_samples;
        q = q.max_samples(req.max_samples.map_or(cap, |m| m.min(cap)));
    } else if let Some(m) = req.max_samples {
        q = q.max_samples(m);
    }
    q
}

pub fn rng(req: &QueryRequest) -> StdRng {
    StdRng::seed_from_u64(req.seed)
}

/// Exact per-group aggregates, computed once from the table.
pub struct Exact {
    /// label → (sum, count)
    groups: BTreeMap<String, (f64, u64)>,
    rows: u64,
}

impl Exact {
    pub fn of(table: &Table) -> Self {
        let schema = table.schema();
        let g = schema.column_index("g").expect("table has a g column");
        let y = schema.column_index("y").expect("table has a y column");
        let dict = table.str_dict(g);
        let mut acc = vec![(0.0f64, 0u64); dict.len()];
        for row in 0..table.row_count() {
            let slot = &mut acc[table.str_code(row, g) as usize];
            slot.0 += table.float_value(row, y);
            slot.1 += 1;
        }
        Self {
            groups: dict.iter().cloned().zip(acc).collect(),
            rows: table.row_count(),
        }
    }

    /// The exact value a converged answer estimates for `label`, on the
    /// aggregate's own scale (COUNT estimates are normalized counts).
    fn value(&self, aggregate: Aggregate, label: &str) -> Option<f64> {
        let &(sum, count) = self.groups.get(label)?;
        Some(match aggregate {
            Aggregate::Avg => sum / count as f64,
            Aggregate::Sum => sum,
            Aggregate::Count => count as f64 / self.rows as f64,
        })
    }

    /// Pairs of groups the answer orders against their exact aggregates.
    /// Pairs whose exact values lie closer than the query's resolution
    /// (exact ties, without one) are not counted: the guarantee leaves
    /// their order free.
    pub fn misordered_pairs(
        &self,
        aggregate: Aggregate,
        resolution: f64,
        labels: &[String],
        estimates: &[f64],
    ) -> u64 {
        let exact: Vec<Option<f64>> = labels.iter().map(|l| self.value(aggregate, l)).collect();
        let mut bad = 0;
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                let (Some(xi), Some(xj)) = (exact[i], exact[j]) else {
                    bad += 1;
                    continue;
                };
                if (xi - xj).abs() <= resolution {
                    continue;
                }
                if (xi < xj) != (estimates[i] < estimates[j]) {
                    bad += 1;
                }
            }
        }
        bad
    }

    /// The resolution a request's ordering guarantee uses, on the
    /// aggregate's scale: COUNT's is a fraction of `[0, 1]`; AVG's is a
    /// fraction of the measure's bound.
    pub fn resolution(&self, engine: &NeedleTail, req: &QueryRequest) -> f64 {
        let Some(pct) = req.resolution_pct else {
            return 0.0;
        };
        match req.aggregate {
            Aggregate::Count => pct / 100.0,
            _ => {
                let c = req.bound.unwrap_or_else(|| {
                    // The bound `VizQuery` infers: the column maximum, padded.
                    let max = engine.column_max(&req.measure).unwrap_or(0.0).max(0.0);
                    (max * 1.1).max(1.0)
                });
                c * pct / 100.0
            }
        }
    }
}

/// Whether a wire answer is bit-identical (`f64::to_bits`) to the
/// in-process one.
pub fn same_answer(wire: &WireAnswer, local: &QueryAnswer) -> bool {
    let Frame::Answer(local) = Frame::from_answer(local) else {
        unreachable!("from_answer builds an Answer frame");
    };
    wire.outcome == local.outcome
        && wire.population == local.population
        && wire.truncated == local.truncated
        && wire.labels == local.labels
        && wire.samples_per_group == local.samples_per_group
        && wire.rounds == local.rounds
        && wire.estimates.len() == local.estimates.len()
        && wire
            .estimates
            .iter()
            .zip(&local.estimates)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Whether two in-process answers are bit-identical.
pub fn same_local(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    let Frame::Answer(a) = Frame::from_answer(a) else {
        unreachable!("from_answer builds an Answer frame");
    };
    same_answer(&a, b)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

//! rapidviz's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload <wire_dashboard|wire_resume|inprocess_large> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perfbench -- --smoke
//! ```
//!
//! The workload's inputs (table rows, query seeds) derive from `--seed`.
//! The program is driven only through its public entry points
//! (`NeedleTail::new`, `VizQuery::{start, execute}`, `Server::start`,
//! `WireClient`), every answer is checked, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. The line before it records the host, toolchain,
//! commit, seed, the sample count behind every percentile, and the
//! failure causes. The exit code is non-zero when any answer is wrong or
//! any session failed.
//!
//! `--smoke` alone runs every workload at tiny sizes, untraced and
//! traced, and checks that each emits exactly the metrics
//! `BENCHMARK.json` declares, with no failed session.

mod inproc;
mod layers;
mod smoke;
mod stats;
mod trace;
mod wire;
mod workload;

use stats::{host_stamp, peak_rss_mb, Dist, Json, Metrics};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{breakdown, durations_us, Recorder};
use workload::{build_engine, rng, same_answer, same_local, secs, viz_query, Exact, Kind};

use rapidviz::needletail::NeedleTail;
use rapidviz::{Aggregate, AlgorithmChoice, QueryAnswer, StepOutcome};
use rapidviz_serve::{QueryRequest, Server, WireStats};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Rounds a whole-table wire session needs before the resume workload
/// cuts it.
const MIN_CUT_ROUNDS: usize = 64;

/// One benchmark run's settings.
pub struct Args {
    pub workload: String,
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny in-process table, for the smoke check.
    pub smoke: bool,
}

/// `None` asks for the smoke check.
fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            // `cargo bench` appends this to every bench target's arguments.
            "--bench" => continue,
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if smoke && workload.is_none() && seed.is_none() && seconds.is_none() && trace.is_none() {
        return Ok(None);
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Some(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    }))
}

/// Failure causes and answer-quality counts over every checked session.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: BTreeMap<String, u64>,
    misordered_pairs: u64,
    converged: u64,
}

impl Checks {
    fn fail(&mut self, cause: &str) {
        *self.failures.entry(cause.to_owned()).or_default() += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn order(&mut self, exact: &Exact, resolution: f64, req: &QueryRequest, answer: &QueryAnswer) {
        if answer.outcome == StepOutcome::Converged {
            self.converged += 1;
            self.misordered_pairs += exact.misordered_pairs(
                req.aggregate,
                resolution,
                &answer.result.labels,
                &answer.result.estimates,
            );
        }
    }

    fn to_json(&self) -> Json {
        let mut causes = Json::object();
        for (cause, n) in &self.failures {
            causes.int(cause, *n);
        }
        let mut o = Json::object();
        o.int("attempted", self.attempted)
            .int("failed", self.failed())
            .num(
                "failed_frac",
                self.failed() as f64 / self.attempted.max(1) as f64,
            )
            .obj("failure_causes", causes)
            .int("converged_checked", self.converged)
            .int("misordered_pairs", self.misordered_pairs);
        o
    }
}

/// The end-to-end view of one measured (untraced) phase.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    sessions: u64,
    samples: u64,
    answer_ms: Dist,
    ttfcb_ms: Dist,
    frame_gap_ms: Dist,
    resume_ms: Dist,
}

impl Phase {
    fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall_s
    }

    fn end_to_end(&mut self, setup: &mut Dist, m: &mut Metrics) {
        m.put("setup_s", "s", setup.pct(50.0));
        m.put("sessions_per_s", "1/s", self.sessions_per_s());
        m.put("answer_p50_ms", "ms", self.answer_ms.pct(50.0));
        m.put("ttfcb_p50_ms", "ms", self.ttfcb_ms.pct(50.0));
        m.put("frame_gap_p50_ms", "ms", self.frame_gap_ms.pct(50.0));
        m.put("frame_gap_p99_ms", "ms", self.frame_gap_ms.pct(99.0));
        m.put("samples_per_s", "1/s", self.samples as f64 / self.wall_s);
        m.put(
            "samples_per_session",
            "count",
            self.samples as f64 / self.sessions.max(1) as f64,
        );
        m.put("peak_rss_mb", "MB", peak_rss_mb());
    }

    /// Percentile summaries with their sample counts: the median and the
    /// highest percentile with ten samples beyond it.
    fn summaries(&mut self) -> Json {
        let mut o = Json::object();
        o.int("sessions", self.sessions)
            .num("wall_s", self.wall_s)
            .obj("answer_ms", self.answer_ms.summary())
            .obj("ttfcb_ms", self.ttfcb_ms.summary())
            .obj("frame_gap_ms", self.frame_gap_ms.summary())
            .obj("resume_ms", self.resume_ms.summary());
        o
    }
}

/// What a workload run reports.
pub struct Report {
    pub metrics: Metrics,
    pub checks: Checks,
    details: Json,
    spans: Vec<trace::Span>,
}

impl Report {
    /// No session failed and every converged answer is correctly ordered.
    pub fn correct(&self) -> bool {
        self.checks.failed() == 0 && self.checks.misordered_pairs == 0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => std::process::exit(if smoke::check_all() { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wire_dashboard|wire_resume|inprocess_large> \
                 --seed <u64> --seconds <n> --trace <0|1>  |  perfbench --smoke"
            );
            std::process::exit(2);
        }
    };
    let report = run(&args);
    let correct = report.correct();
    if args.trace {
        let path = workload::repo_root().join(format!(
            ".perfbench-out/spans-{}-{}.tsv",
            args.workload, args.seed
        ));
        if let Err(e) = trace::write_spans(&path, &report.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let mut stamp = Json::object();
    stamp
        .obj(
            "host",
            host_stamp(&args.workload, args.seed, args.seconds, args.trace),
        )
        .obj("checks", report.checks.to_json())
        .obj("details", report.details);
    println!("{}", stamp.finish());
    let mut result = Json::object();
    result
        .bool("correct", correct)
        .int("attempted", report.checks.attempted.max(1))
        .int("failed", report.checks.failed())
        .obj("metrics", report.metrics.to_json());
    println!("{}", result.finish());
    if !correct {
        std::process::exit(1);
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Report {
    if args.kind.is_wire() {
        wire_workload(args)
    } else {
        inprocess_workload(args)
    }
}

/// Builds the system `SETUP_REPS` times, timing each; returns the last
/// set-up's parts and the set-up and index-build timings.
fn setups<T>(args: &Args, mut finish: impl FnMut(NeedleTail) -> T) -> (T, Dist, Dist) {
    let mut setup = Dist::default();
    let mut build = Dist::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up first, so only one is resident.
        drop(last.take());
        let t = Instant::now();
        let s = build_engine(args.kind, args.smoke, args.seed);
        let built = finish(s.engine);
        setup.push(secs(t));
        build.push(s.build_s);
        last = Some(built);
    }
    (last.expect("at least one set-up"), setup, build)
}

fn wire_workload(args: &Args) -> Report {
    let seconds = args.seconds as f64;
    let (handle, mut setup, mut build) = setups(args, |engine| {
        Server::start(engine, workload::server_config()).expect("server binds on loopback")
    });
    let addr = handle.local_addr();

    // References, outside every timed window: the exact aggregates and
    // each request's in-process answer (plus, for the resume workload,
    // its round count, which sets the cut point).
    let reference_engine = build_engine(args.kind, args.smoke, args.seed).engine;
    let exact = Exact::of(reference_engine.table());
    let pool = workload::wire_pool(args.seed);
    let references: Vec<QueryAnswer> = pool
        .iter()
        .map(|r| {
            viz_query(&reference_engine, r, true)
                .execute(&mut rng(r))
                .expect("reference query plans")
        })
        .collect();
    let resolutions: Vec<f64> = pool
        .iter()
        .map(|r| exact.resolution(&reference_engine, r))
        .collect();
    let mut checks = Checks::default();
    // The resume workload cuts each long whole-table session at half its
    // rounds. A session with little work left after the cut (few rounds,
    // or few groups under a filter) can finish while its client
    // reconnects, and the server then answers `NoSuchToken` (a token
    // lives only until its session completes), so those run uncut.
    let cuts: Vec<Option<usize>> = pool
        .iter()
        .zip(&references)
        .map(|(r, reference)| {
            if args.kind != Kind::WireResume {
                return None;
            }
            let mut s = viz_query(&reference_engine, r, true)
                .start(rng(r))
                .expect("reference query plans");
            let mut rounds = 0;
            while {
                rounds += 1;
                s.step().outcome == StepOutcome::Running
            } {}
            if !same_local(&s.finish(), reference) {
                checks.fail("step_vs_execute_mismatch");
            }
            (rounds >= MIN_CUT_ROUNDS && r.filter.is_none()).then_some(rounds / 2)
        })
        .collect();

    let check = |checks: &mut Checks, sessions: &[wire::WireSession]| {
        let mut phase = Phase::default();
        for s in sessions {
            checks.attempted += 1;
            phase.frame_gap_ms.extend(&s.frame_gaps_ms);
            if let Some(cause) = &s.failure {
                checks.fail(cause);
                continue;
            }
            let Some(a) = &s.answer else {
                checks.fail("no_answer");
                continue;
            };
            let reference = &references[s.pool_idx];
            if !same_answer(a, reference) {
                checks.fail("bit_mismatch");
                continue;
            }
            checks.order(
                &exact,
                resolutions[s.pool_idx],
                &pool[s.pool_idx],
                reference,
            );
            phase.sessions += 1;
            phase.samples += a.samples_per_group.iter().sum::<u64>();
            phase.answer_ms.push(s.answer_ms.unwrap_or_default());
            if let Some(t) = s.ttfcb_ms {
                phase.ttfcb_ms.push(t);
            }
            if let Some(t) = s.resume_ms {
                phase.resume_ms.push(t);
            }
        }
        phase
    };

    let run = wire::run(&handle, &pool, &cuts, seconds, false);
    let mut phase = check(&mut checks, &run.sessions);
    phase.wall_s = run.wall_s;
    let uncut = run.sessions.iter().filter(|s| s.uncut).count();
    let short = run
        .sessions
        .iter()
        .filter(|s| args.kind == Kind::WireResume && cuts[s.pool_idx].is_none())
        .count();

    let mut details = Json::object();
    details
        .int("table_rows", args.kind.rows(args.smoke))
        .int("pool_requests", pool.len() as u64)
        .int("finished_before_cut", uncut as u64)
        .int("short_sessions_not_cut", short as u64)
        .obj("untraced", phase.summaries());
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    if !args.trace {
        phase.end_to_end(&mut setup, &mut metrics);
    } else {
        let traced = wire::run(&handle, &pool, &cuts, seconds, true);
        let mut traced_phase = check(&mut checks, &traced.sessions);
        traced_phase.wall_s = traced.wall_s;
        let mut rec = Recorder::new(Instant::now());
        let replay = layers::replay_server(
            &reference_engine,
            &pool,
            &references,
            &cuts,
            Duration::from_secs_f64(seconds),
            &mut rec,
        );
        for _ in 0..replay.failures {
            checks.fail("server_replay");
        }
        let mut standalone = Standalones::default();
        for (idx, req) in pool.iter().enumerate().take(replay.sessions) {
            standalone.run(
                &reference_engine,
                req,
                true,
                &references[idx],
                &mut rec,
                idx as u64,
            );
        }
        for cause in standalone.failures.drain(..) {
            checks.fail(cause);
        }

        rec.absorb(traced.spans);
        let mut layers = Layers {
            spans: rec.spans,
            checkpoint_bytes: replay.checkpoint_bytes,
            frame_bytes: replay.frame_bytes,
            parked_bytes_max: traced.parked_bytes_max,
            park_rejected: handle
                .stats()
                .park_rejected
                .load(std::sync::atomic::Ordering::Relaxed),
            standalone,
            samples_vs_roundrobin: samples_vs_roundrobin(&reference_engine, &pool),
            build_s: build.pct(50.0),
            overhead_ratio: ratio(traced_phase.sessions_per_s(), phase.sessions_per_s()),
            ..Layers::default()
        };
        for s in &traced.sessions {
            layers.frames_per_session.push(s.frames as f64);
            layers.connect_ms.push(s.connect_ms);
            layers.connect_retries += u64::from(s.retries);
            if let Some(t) = s.admit_ms {
                layers.admit_ms.push(t);
            }
            if let Some(t) = s.resume_ms {
                layers.resume_ms.push(t);
            }
        }
        if let Some(stats) = wire::server_stats(addr) {
            layers.plan_cache = stats.plan_cache;
            layers.server = stats;
        }
        details.obj("traced", traced_phase.summaries());
        spans = layers.finish(&mut metrics, &mut details);
    }
    handle.shutdown();
    Report {
        metrics,
        checks,
        details,
        spans,
    }
}

fn inprocess_workload(args: &Args) -> Report {
    let seconds = args.seconds as f64;
    let (engine, mut setup, mut build) = setups(args, |engine| engine);
    let exact = Exact::of(engine.table());
    let mut checks = Checks::default();

    let check = |checks: &mut Checks, sessions: &[inproc::InSession], wall_s: f64| {
        let mut phase = Phase {
            wall_s,
            ..Phase::default()
        };
        for s in sessions {
            checks.attempted += 1;
            phase.frame_gap_ms.extend(&s.frame_gaps_ms);
            let Some(a) = &s.answer else {
                checks.fail("query_error");
                continue;
            };
            checks.order(&exact, 0.0, &s.req, a);
            phase.sessions += 1;
            phase.samples += a.result.total_samples();
            phase.answer_ms.push(s.answer_ms);
            if let Some(t) = s.ttfcb_ms {
                phase.ttfcb_ms.push(t);
            }
        }
        phase
    };

    let (sessions, wall_s) = inproc::run(&engine, args.seed, seconds, None, |_, _| {});
    let mut phase = check(&mut checks, &sessions, wall_s);
    // `execute` and the stepped session must give the same answer; the
    // IREFINE session is the cheapest to repeat.
    if let Some(s) = sessions
        .iter()
        .find(|s| s.req.algorithm == AlgorithmChoice::IRefine)
    {
        match viz_query(&engine, &s.req, false).execute(&mut rng(&s.req)) {
            Ok(a) if s.answer.as_ref().is_some_and(|b| same_local(&a, b)) => {}
            _ => checks.fail("step_vs_execute_mismatch"),
        }
    }
    let rr_ratio = {
        let samples = |algo: AlgorithmChoice| {
            sessions
                .iter()
                .find(|s| s.req.algorithm == algo)
                .and_then(|s| s.answer.as_ref())
                .map(|a| a.result.total_samples() as f64)
        };
        match (
            samples(AlgorithmChoice::IFocus),
            samples(AlgorithmChoice::RoundRobin),
        ) {
            (Some(f), Some(r)) => ratio(f, r),
            _ => 0.0,
        }
    };
    let mut details = Json::object();
    details
        .int("table_rows", args.kind.rows(args.smoke))
        .obj("untraced", phase.summaries());
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    if !args.trace {
        phase.end_to_end(&mut setup, &mut metrics);
    } else {
        let mut rec = Recorder::new(Instant::now());
        let mut standalone = Standalones::default();
        // Each session's draws are replayed as soon as it ends, so only
        // one round log is held at a time.
        let (traced, traced_wall) =
            inproc::run(&engine, args.seed, seconds, Some(&mut rec), |s, rec| {
                if let (Some(a), Some(log), Some(rec)) = (&s.answer, s.log.take(), rec) {
                    standalone.add(&engine, &s.req, a, s.steps, &log, rec, s.index);
                }
            });
        let mut traced_phase = check(&mut checks, &traced, traced_wall);
        // Both phases run the same request sequence; compare the sessions
        // they share, so the ratio is not the mix's.
        let shared = sessions.len().min(traced.len());
        let untraced_ms: f64 = sessions[..shared].iter().map(|s| s.answer_ms).sum();
        let traced_ms: f64 = traced[..shared].iter().map(|s| s.answer_ms).sum();
        let snap = engine.metrics().snapshot();
        // No server, scheduler, checkpoint or frame is on this path: those
        // layers keep their defaults and report 0.
        let layers = Layers {
            spans: rec.spans,
            plan_cache: (snap.plan_cache_hits, snap.plan_cache_misses),
            standalone,
            samples_vs_roundrobin: rr_ratio,
            build_s: build.pct(50.0),
            overhead_ratio: ratio(untraced_ms, traced_ms),
            ..Layers::default()
        };
        details.obj("traced", traced_phase.summaries());
        spans = layers.finish(&mut metrics, &mut details);
    }
    Report {
        metrics,
        checks,
        details,
        spans,
    }
}

/// Sessions stepped with every round timed, and their draws replayed.
#[derive(Default)]
struct Standalones {
    sessions: u64,
    truncated: u64,
    steps: u64,
    round_samples: Dist,
    draws: u64,
    draw_time: Duration,
    failures: Vec<&'static str>,
}

impl Standalones {
    /// Runs `req` alone against its reference answer.
    fn run(
        &mut self,
        engine: &NeedleTail,
        req: &QueryRequest,
        wire: bool,
        reference: &QueryAnswer,
        rec: &mut Recorder,
        trace: u64,
    ) {
        let Some(s) = layers::standalone(engine, req, wire, rec, trace) else {
            self.failures.push("standalone_plan");
            return;
        };
        if !same_local(&s.answer, reference) {
            self.failures.push("standalone_mismatch");
        }
        self.add(engine, req, &s.answer, s.steps, &s.log, rec, trace);
    }

    #[allow(clippy::too_many_arguments)]
    fn add(
        &mut self,
        engine: &NeedleTail,
        req: &QueryRequest,
        answer: &QueryAnswer,
        steps: usize,
        log: &layers::DrawLog,
        rec: &mut Recorder,
        trace: u64,
    ) {
        self.sessions += 1;
        self.truncated += u64::from(answer.result.truncated);
        self.steps += steps as u64;
        for round in log.counts.chunks(log.groups.max(1)) {
            self.round_samples
                .push(round.iter().map(|&n| f64::from(n)).sum());
        }
        let (draws, time) = layers::replay_draws(engine, req, log, rec, trace);
        self.draws += draws;
        self.draw_time += time;
    }
}

/// Inputs of the per-layer metrics. A layer a workload does not use
/// keeps its defaults and reports 0.
#[derive(Default)]
struct Layers {
    spans: Vec<trace::Span>,
    checkpoint_bytes: Dist,
    frame_bytes: Dist,
    frames_per_session: Dist,
    admit_ms: Dist,
    connect_ms: Dist,
    resume_ms: Dist,
    connect_retries: u64,
    server: WireStats,
    park_rejected: u64,
    parked_bytes_max: u64,
    /// Plan-cache (hits, misses).
    plan_cache: (u64, u64),
    standalone: Standalones,
    samples_vs_roundrobin: f64,
    build_s: f64,
    overhead_ratio: f64,
}

impl Layers {
    /// Puts every per-layer metric, in `BENCHMARK.json` order, adds the
    /// per-span breakdown to `details`, and hands back the spans.
    fn finish(mut self, m: &mut Metrics, details: &mut Json) -> Vec<trace::Span> {
        let b = breakdown(&self.spans);
        let spans = &self.spans;
        let d = |name: &str| durations_us(spans, name);
        let total = |name: &str| b.by_name.get(name).map_or(0, |e| e.1) as f64;
        let refresh_ns = total("checkpoint.refresh") + total("scheduler.park_reserved");
        let st = &self.standalone;
        let draw_ns = st.draw_time.as_nanos() as f64;
        m.put(
            "checkpoint.refresh_us_p50",
            "us",
            d("checkpoint.refresh").pct(50.0),
        );
        m.put(
            "checkpoint.refresh_us_p99",
            "us",
            d("checkpoint.refresh").pct(99.0),
        );
        m.put(
            "checkpoint.bytes_p50",
            "bytes",
            self.checkpoint_bytes.pct(50.0),
        );
        m.put("checkpoint.bytes_max", "bytes", self.checkpoint_bytes.max());
        m.put(
            "checkpoint.refresh_share",
            "ratio",
            ratio(refresh_ns, total("scheduler.loop")),
        );
        m.put(
            "checkpoint.decode_us_p50",
            "us",
            d("checkpoint.decode").pct(50.0),
        );
        m.put(
            "checkpoint.resume_us_p50",
            "us",
            d("checkpoint.resume").pct(50.0),
        );
        m.put("scheduler.poll_us_p50", "us", d("scheduler.poll").pct(50.0));
        m.put("scheduler.poll_us_p99", "us", d("scheduler.poll").pct(99.0));
        m.put(
            "scheduler.overhead_ratio",
            "ratio",
            ratio(total("scheduler.poll"), total("session.step")),
        );
        m.put(
            "protocol.encode_us_p50",
            "us",
            d("protocol.encode").pct(50.0),
        );
        m.put(
            "protocol.frame_bytes_p50",
            "bytes",
            self.frame_bytes.pct(50.0),
        );
        let frames = &self.frames_per_session;
        m.put("protocol.frames_per_session.avg", "count", frames.mean());
        m.put("protocol.frames_per_session.sum", "count", frames.sum());
        m.put(
            "protocol.frames_per_session.count",
            "count",
            frames.len() as f64,
        );
        m.put("server.admit_ms_p50", "ms", self.admit_ms.pct(50.0));
        m.put("client.connect_ms_p50", "ms", self.connect_ms.pct(50.0));
        m.put(
            "client.connect_retries",
            "count",
            self.connect_retries as f64,
        );
        m.put("client.resume_ms_p50", "ms", self.resume_ms.pct(50.0));
        m.put("client.resume_ms_p90", "ms", self.resume_ms.pct(90.0));
        let server = &self.server;
        m.put(
            "server.frames_dropped_slow",
            "count",
            server.frames_dropped_slow as f64,
        );
        m.put(
            "server.sessions_parked",
            "count",
            server.sessions_parked as f64,
        );
        m.put(
            "server.sessions_resumed",
            "count",
            server.sessions_resumed as f64,
        );
        m.put("server.park_rejected", "count", self.park_rejected as f64);
        m.put(
            "server.parked_bytes_max",
            "bytes",
            self.parked_bytes_max as f64,
        );
        m.put("query.plan_us_p50", "us", d("query.plan").pct(50.0));
        m.put("query.plan_us_p90", "us", d("query.plan").pct(90.0));
        let (hits, misses) = self.plan_cache;
        m.put(
            "needletail.plan_cache_hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        m.put("session.step_us_p50", "us", d("session.step").pct(50.0));
        m.put("session.step_us_p99", "us", d("session.step").pct(99.0));
        m.put(
            "session.rounds_per_session",
            "count",
            ratio(st.steps as f64, st.sessions as f64),
        );
        m.put(
            "session.samples_per_round.avg",
            "count",
            st.round_samples.mean(),
        );
        m.put(
            "session.samples_per_round.sum",
            "count",
            st.round_samples.sum(),
        );
        m.put(
            "session.samples_per_round.count",
            "count",
            st.round_samples.len() as f64,
        );
        m.put(
            "session.truncated_frac",
            "ratio",
            ratio(st.truncated as f64, st.sessions as f64),
        );
        m.put(
            "needletail.draws_per_s",
            "1/s",
            ratio(st.draws as f64, draw_ns / 1e9),
        );
        let step_ns = total("session.step");
        m.put(
            "session.non_draw_share",
            "ratio",
            ratio(step_ns - draw_ns, step_ns),
        );
        m.put(
            "core.samples_vs_roundrobin",
            "ratio",
            self.samples_vs_roundrobin,
        );
        m.put("needletail.build_s", "s", self.build_s);
        m.put("trace.unaccounted_share", "ratio", b.unaccounted_share());
        m.put("trace.overhead_ratio", "ratio", self.overhead_ratio);
        details.obj("spans", b.to_json());
        std::mem::take(&mut self.spans)
    }
}

/// IFOCUS samples over ROUNDROBIN samples on the pool's ROUNDROBIN
/// request (same table, seed and round size).
fn samples_vs_roundrobin(engine: &NeedleTail, pool: &[QueryRequest]) -> f64 {
    let Some(rr) = pool
        .iter()
        .find(|r| r.algorithm == AlgorithmChoice::RoundRobin && r.aggregate == Aggregate::Avg)
    else {
        return 0.0;
    };
    let mut ifocus = rr.clone();
    ifocus.algorithm = AlgorithmChoice::IFocus;
    let samples = |req: &QueryRequest| {
        viz_query(engine, req, true)
            .execute(&mut rng(req))
            .map_or(0.0, |a| a.result.total_samples() as f64)
    };
    ratio(samples(&ifocus), samples(rr))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

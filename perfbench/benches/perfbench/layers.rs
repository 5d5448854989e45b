//! Layer-by-layer replays for the traced run. The server's scheduler
//! thread cannot be timed from outside, so its work is replayed
//! in-process on the same requests and seeds, calling the public
//! functions the scheduler loop calls, in its order: `poll`, the round
//! frame's `encode`, and on non-terminal rounds `checkpoint` +
//! `park_reserved`. Standalone sessions give the per-round step cost,
//! and replaying their per-group draws through the sampler separates
//! draw time from the ε and deactivation-fixpoint work of a round.

use crate::stats::Dist;
use crate::trace::Recorder;
use crate::workload::{rng, viz_query};
use rapidviz::needletail::{NeedleTail, Predicate};
use rapidviz::{
    MultiQueryScheduler, ParkingRegistry, QueryAnswer, QueryId, QuerySession, SchedulePolicy,
    SchedulerEvent, SessionCheckpoint, StepOutcome,
};
use rapidviz_serve::{Frame, QueryRequest};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts the server replay collects besides its spans.
#[derive(Debug, Default)]
pub struct ServerReplay {
    pub checkpoint_bytes: Dist,
    pub frame_bytes: Dist,
    pub sessions: usize,
    pub failures: u64,
}

/// One replayed session's slot in the two-dashboard scheduler.
struct Live {
    pool_idx: usize,
    token: u64,
    rounds: usize,
    cut: Option<usize>,
}

/// Replays pool requests two at a time through one scheduler, the way
/// the server's scheduler thread serves two dashboards. A session with
/// a cut is parked at its cut round, its checkpoint serialized,
/// decoded and resumed (the disconnect/`RESUME` path). Admits each pool
/// request once, and none after `budget`.
pub fn replay_server(
    engine: &NeedleTail,
    pool: &[QueryRequest],
    references: &[QueryAnswer],
    cuts: &[Option<usize>],
    budget: Duration,
    rec: &mut Recorder,
) -> ServerReplay {
    let mut out = ServerReplay::default();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let mut registry = ParkingRegistry::new(Duration::from_secs(120));
    let mut live: BTreeMap<QueryId, Live> = BTreeMap::new();
    let started = Instant::now();
    let root = rec.open("scheduler.loop", 0, None);
    let mut next = 0usize;
    loop {
        while live.len() < crate::wire::DASHBOARDS
            && next < pool.len()
            && started.elapsed() < budget
        {
            let idx = next;
            next += 1;
            let req = &pool[idx];
            let trace = idx as u64 + 1;
            let session = rec.time("query.plan", trace, Some(root), || {
                viz_query(engine, req, true).start(rng(req))
            });
            let Ok(session) = session else {
                out.failures += 1;
                continue;
            };
            let id = rec.time("scheduler.admit", trace, Some(root), || {
                sched.admit(session)
            });
            let token = registry.reserve();
            refresh(
                &mut sched,
                &mut registry,
                (id, token, trace),
                rec,
                root,
                &mut out,
            );
            live.insert(
                id,
                Live {
                    pool_idx: idx,
                    token,
                    rounds: 0,
                    cut: cuts[idx],
                },
            );
            out.sessions += 1;
        }
        if live.is_empty() {
            break;
        }
        let polled = Instant::now();
        let event = sched.poll();
        let SchedulerEvent::Round { id, update } = event else {
            out.failures += 1;
            break;
        };
        let Some(slot) = live.get_mut(&id) else {
            out.failures += 1;
            break;
        };
        let trace = slot.pool_idx as u64 + 1;
        rec.record("scheduler.poll", trace, Some(root), polled, Instant::now());
        let bytes = rec.time("protocol.encode", trace, Some(root), || {
            Frame::from_update(&update).encode().len()
        });
        out.frame_bytes.push(bytes as f64);
        slot.rounds += 1;
        let terminal = update.outcome != StepOutcome::Running;
        if terminal {
            let slot = live.remove(&id).expect("slot is live");
            registry.discard(slot.token);
            let answer = rec.time("scheduler.finish", trace, Some(root), || sched.finish(id));
            let same = answer.is_some_and(|a| {
                rec.time("protocol.encode", trace, Some(root), || {
                    Frame::from_answer(&a).encode().len()
                });
                crate::workload::same_local(&a, &references[slot.pool_idx])
            });
            if !same {
                out.failures += 1;
            }
        } else if slot.cut == Some(slot.rounds) {
            let slot = live.remove(&id).expect("slot is live");
            let session = (id, slot.token, trace);
            match park_and_resume(engine, &mut sched, &mut registry, session, rec, root) {
                Some(new_id) => {
                    let resumed = (new_id, slot.token, trace);
                    refresh(&mut sched, &mut registry, resumed, rec, root, &mut out);
                    live.insert(new_id, Live { cut: None, ..slot });
                }
                None => out.failures += 1,
            }
        } else {
            let session = (id, slot.token, trace);
            refresh(&mut sched, &mut registry, session, rec, root, &mut out);
        }
    }
    rec.close(root);
    out
}

/// The server's durability refresh: checkpoint the session and park it
/// under its token.
fn refresh(
    sched: &mut MultiQueryScheduler,
    registry: &mut ParkingRegistry,
    (id, token, trace): (QueryId, u64, u64),
    rec: &mut Recorder,
    root: usize,
    out: &mut ServerReplay,
) {
    let ck = rec.time("checkpoint.refresh", trace, Some(root), || {
        sched.checkpoint(id)
    });
    let Ok(ck) = ck else {
        out.failures += 1;
        return;
    };
    out.checkpoint_bytes.push(ck.approx_bytes() as f64);
    let parked = rec.time("scheduler.park_reserved", trace, Some(root), || {
        registry.park_reserved(token, ck)
    });
    if parked.is_err() {
        out.failures += 1;
    }
}

/// The disconnect and `RESUME` path: park, take the checkpoint back,
/// serialize and decode it, resume the session and admit it again.
fn park_and_resume(
    engine: &NeedleTail,
    sched: &mut MultiQueryScheduler,
    registry: &mut ParkingRegistry,
    (id, token, trace): (QueryId, u64, u64),
    rec: &mut Recorder,
    root: usize,
) -> Option<QueryId> {
    let parked = rec.time("scheduler.park_reserved", trace, Some(root), || {
        sched.park_reserved(id, registry, token)
    });
    parked.ok()?;
    let ck = registry.take(token).ok()?;
    let bytes = rec.time("checkpoint.encode", trace, Some(root), || ck.to_bytes());
    let decoded = rec.time("checkpoint.decode", trace, Some(root), || {
        SessionCheckpoint::from_bytes(&bytes)
    });
    let decoded = decoded.ok()?;
    let clock = registry.clock();
    let session = rec.time("checkpoint.resume", trace, Some(root), || {
        QuerySession::resume_with_clock(engine, &decoded, Arc::clone(&clock))
    });
    let session = session.ok()?;
    Some(sched.admit(session))
}

/// Per-round, per-group sample counts of one session, for the draw
/// replay.
#[derive(Debug, Default)]
pub struct DrawLog {
    pub groups: usize,
    /// `groups` counts per round, flattened.
    pub counts: Vec<u32>,
    prev: Vec<u64>,
}

impl DrawLog {
    pub fn new(initial: &[u64]) -> Self {
        Self {
            groups: initial.len(),
            counts: Vec::new(),
            prev: initial.to_vec(),
        }
    }

    pub fn round(&mut self, samples_per_group: &[u64]) {
        for (p, &now) in self.prev.iter_mut().zip(samples_per_group) {
            self.counts
                .push(u32::try_from(now - *p).unwrap_or(u32::MAX));
            *p = now;
        }
    }
}

/// Replays a session's per-round draws through fresh group handles, in
/// batches of each round's size. Returns (draws, time).
pub fn replay_draws(
    engine: &NeedleTail,
    req: &QueryRequest,
    log: &DrawLog,
    rec: &mut Recorder,
    trace: u64,
) -> (u64, Duration) {
    let predicate = req
        .filter
        .as_ref()
        .map_or(Predicate::True, rapidviz_serve::FilterSpec::to_predicate);
    let Ok(mut handles) = engine.group_handles(&req.group_by[0], &req.measure, &predicate) else {
        return (0, Duration::ZERO);
    };
    if handles.len() != log.groups {
        return (0, Duration::ZERO);
    }
    let mut r = rng(req);
    let mut buf = Vec::new();
    let mut draws = 0u64;
    let t0 = Instant::now();
    for round in log.counts.chunks(log.groups) {
        for (h, &n) in handles.iter_mut().zip(round) {
            if n > 0 {
                buf.clear();
                draws += h.sample_batch_without_replacement(n as usize, &mut r, &mut buf) as u64;
            }
        }
    }
    let t1 = Instant::now();
    std::hint::black_box(&buf);
    rec.record("needletail.draw_replay", trace, None, t0, t1);
    (draws, t1 - t0)
}

/// A session stepped on its own, every round timed.
pub struct Standalone {
    pub answer: QueryAnswer,
    pub steps: usize,
    pub log: DrawLog,
}

/// Runs `req` alone: `start`, then `step` to the terminal round, each
/// call a span under one `session.standalone` root.
pub fn standalone(
    engine: &NeedleTail,
    req: &QueryRequest,
    wire: bool,
    rec: &mut Recorder,
    trace: u64,
) -> Option<Standalone> {
    let root = rec.open("session.standalone", trace, None);
    let session = rec.time("query.plan", trace, Some(root), || {
        viz_query(engine, req, wire).start(rng(req))
    });
    let mut session = session.ok()?;
    let mut log = DrawLog::new(&session.snapshot().samples_per_group);
    let mut steps = 0;
    loop {
        let update = rec.time("session.step", trace, Some(root), || session.step());
        steps += 1;
        log.round(&update.snapshot.samples_per_group);
        if update.outcome != StepOutcome::Running {
            break;
        }
    }
    let answer = session.finish();
    rec.close(root);
    Some(Standalone { answer, steps, log })
}

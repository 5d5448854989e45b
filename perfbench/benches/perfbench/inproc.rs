//! The in-process workload: one thread plans and steps sessions over a
//! large table, with no server, scheduler or checkpoint in the path.

use crate::layers::DrawLog;
use crate::trace::Recorder;
use crate::workload::{inprocess_request, ms, rng, viz_query};
use rapidviz::needletail::NeedleTail;
use rapidviz::{QueryAnswer, StepOutcome};
use rapidviz_serve::QueryRequest;
use std::time::{Duration, Instant};

/// One in-process session as a progressive renderer sees it.
pub struct InSession {
    /// Position in the run; also the session's trace id.
    pub index: u64,
    pub req: QueryRequest,
    pub answer_ms: f64,
    pub ttfcb_ms: Option<f64>,
    pub frame_gaps_ms: Vec<f64>,
    pub steps: usize,
    pub answer: Option<QueryAnswer>,
    pub log: Option<DrawLog>,
}

/// Runs the in-process mix until `seconds` have passed, handing each
/// finished session to `after` (with the recorder) before the next one
/// starts. Traced runs record a span per `start` and `step` call and log
/// every round's per-group draws for the draw replay.
pub fn run(
    engine: &NeedleTail,
    seed: u64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    mut after: impl FnMut(&mut InSession, Option<&mut Recorder>),
) -> (Vec<InSession>, f64) {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut sessions = Vec::new();
    let mut i = 0;
    while Instant::now() < deadline {
        let req = inprocess_request(seed, i);
        let mut session = run_one(engine, req, rec.as_deref_mut(), i);
        after(&mut session, rec.as_deref_mut());
        sessions.push(session);
        i += 1;
    }
    (sessions, epoch.elapsed().as_secs_f64())
}

fn run_one(
    engine: &NeedleTail,
    req: QueryRequest,
    mut rec: Option<&mut Recorder>,
    trace: u64,
) -> InSession {
    let t0 = Instant::now();
    let root = rec
        .as_deref_mut()
        .map(|r| r.open("inproc.session", trace, None));
    let query = viz_query(engine, &req, false);
    let started = query.start(rng(&req));
    let t_plan = Instant::now();
    if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
        r.record("query.plan", trace, Some(root), t0, t_plan);
    }
    let mut out = InSession {
        index: trace,
        req,
        answer_ms: 0.0,
        ttfcb_ms: None,
        frame_gaps_ms: Vec::new(),
        steps: 0,
        answer: None,
        log: None,
    };
    let Ok(mut session) = started else {
        return out;
    };
    let mut log = rec
        .is_some()
        .then(|| DrawLog::new(&session.snapshot().samples_per_group));
    let mut last = None;
    loop {
        let before = Instant::now();
        let update = session.step();
        let now = Instant::now();
        out.steps += 1;
        if let Some(prev) = last {
            out.frame_gaps_ms.push(ms(now - prev));
        }
        last = Some(now);
        if out.ttfcb_ms.is_none() && !update.newly_certified.is_empty() {
            out.ttfcb_ms = Some(ms(now - t0));
        }
        if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
            r.record("session.step", trace, Some(root), before, now);
        }
        if let Some(log) = log.as_mut() {
            log.round(&update.snapshot.samples_per_group);
        }
        if update.outcome != StepOutcome::Running {
            break;
        }
    }
    out.answer = Some(session.finish());
    out.answer_ms = ms(t0.elapsed());
    if let (Some(r), Some(root)) = (rec, root) {
        r.close(root);
    }
    out.log = log;
    out
}

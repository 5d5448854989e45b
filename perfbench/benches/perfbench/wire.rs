//! The wire workloads: closed-loop dashboards against an in-process
//! server on loopback, with and without a mid-session disconnect and
//! resume.

use crate::trace::Recorder;
use crate::workload::{mix, ms};
use rapidviz_serve::{
    ErrorCode, Frame, QueryRequest, RetryPolicy, ServerHandle, WireAnswer, WireClient, WireStats,
};
use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Concurrent dashboards (closed-loop clients).
pub const DASHBOARDS: usize = 2;
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// What one wire session produced, as its client saw it.
#[derive(Debug, Default)]
pub struct WireSession {
    pub pool_idx: usize,
    pub connect_ms: f64,
    pub retries: u32,
    pub admit_ms: Option<f64>,
    pub ttfcb_ms: Option<f64>,
    pub resume_ms: Option<f64>,
    pub answer_ms: Option<f64>,
    pub frame_gaps_ms: Vec<f64>,
    pub frames: u64,
    /// The session finished before the client reached its cut point, so
    /// it ran without a disconnect.
    pub uncut: bool,
    pub answer: Option<WireAnswer>,
    pub failure: Option<String>,
}

/// How a frame stream ended.
enum StreamEnd {
    Answer(WireAnswer),
    /// The client read its quota of round frames and stops here.
    Cut,
    Failed(String),
}

/// What the reader saw on one command's stream.
struct Stream {
    first_frame: Option<Instant>,
    token: Option<(u64, Instant)>,
    first_certified: Option<Instant>,
    last_round: Option<Instant>,
    rounds: usize,
}

impl Stream {
    fn new() -> Self {
        Self {
            first_frame: None,
            token: None,
            first_certified: None,
            last_round: None,
            rounds: 0,
        }
    }
}

/// Reads frames until the command's terminal frame (or `cut_after`
/// round frames). Every frame kind is handled; anything a query stream
/// must not carry is a failure, never a panic.
fn read_stream(
    client: &mut WireClient,
    s: &mut Stream,
    out: &mut WireSession,
    cut_after: Option<usize>,
) -> StreamEnd {
    loop {
        let frame = match client.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return StreamEnd::Failed("closed_without_answer".to_owned()),
            Err(_) => return StreamEnd::Failed("io_error".to_owned()),
        };
        let now = Instant::now();
        out.frames += 1;
        s.first_frame.get_or_insert(now);
        match frame {
            Frame::Parked { token } => s.token = Some((token, now)),
            Frame::Round(r) => {
                if let Some(prev) = s.last_round {
                    out.frame_gaps_ms.push(ms(now - prev));
                }
                s.last_round = Some(now);
                s.rounds += 1;
                if s.first_certified.is_none() && !r.newly_certified.is_empty() {
                    s.first_certified = Some(now);
                }
                if cut_after == Some(s.rounds) {
                    return StreamEnd::Cut;
                }
            }
            // A best-effort answer follows an eviction notice.
            Frame::Evicted { .. } => {}
            Frame::Answer(a) => return StreamEnd::Answer(a),
            Frame::Error { code, .. } => {
                return StreamEnd::Failed(match code {
                    ErrorCode::NoSuchToken => "no_such_token".to_owned(),
                    other => format!("error_frame_{other:?}"),
                })
            }
            Frame::Stats(_) => return StreamEnd::Failed("unexpected_stats_frame".to_owned()),
        }
    }
}

/// One session: connect, send the query, read to the terminal frame. With
/// `cut`, read only that many round frames, drop the connection,
/// reconnect with retry and resume by token.
pub fn run_session(
    addr: SocketAddr,
    req: &QueryRequest,
    pool_idx: usize,
    cut: Option<usize>,
    rec: Option<(&mut Recorder, u64)>,
) -> WireSession {
    let mut out = WireSession {
        pool_idx,
        ..WireSession::default()
    };
    let t_connect = Instant::now();
    let mut client = match WireClient::connect(addr, SOCKET_TIMEOUT) {
        Ok(c) => c,
        Err(_) => {
            out.failure = Some("connect_failed".to_owned());
            return out;
        }
    };
    let t_send = Instant::now();
    out.connect_ms = ms(t_send - t_connect);
    if client.send_request(req).is_err() {
        out.failure = Some("io_error".to_owned());
        return out;
    }
    let mut first = Stream::new();
    let end = read_stream(&mut client, &mut first, &mut out, cut);
    out.admit_ms = first.token.map(|(_, t)| ms(t - t_send));
    out.ttfcb_ms = first.first_certified.map(|t| ms(t - t_send));
    let mut spans = vec![
        ("client.connect", t_connect, t_send),
        (
            "server.admit",
            t_send,
            first.token.map_or(t_send, |(_, t)| t),
        ),
    ];
    let stream_from = first.token.map_or(t_send, |(_, t)| t);
    let end = match end {
        StreamEnd::Cut => {
            let t_cut = Instant::now();
            spans.push(("client.stream", stream_from, t_cut));
            // Disconnect mid-stream: the server parks the session.
            let _ = client.stream().shutdown(Shutdown::Both);
            drop(client);
            match first.token {
                None => StreamEnd::Failed("no_token".to_owned()),
                Some((token, _)) => resume(addr, req, token, &mut out, &mut spans, (t_send, t_cut)),
            }
        }
        other => {
            if cut.is_some() {
                out.uncut = true;
            }
            spans.push(("client.stream", stream_from, Instant::now()));
            other
        }
    };
    let t_end = Instant::now();
    match end {
        StreamEnd::Answer(a) => {
            out.answer_ms = Some(ms(t_end - t_send));
            out.answer = Some(a);
        }
        StreamEnd::Failed(cause) => out.failure = Some(cause),
        StreamEnd::Cut => out.failure = Some("cut_twice".to_owned()),
    }
    if let Some((rec, trace)) = rec {
        let root = rec.record("client.session", trace, None, t_connect, t_end);
        for (name, a, b) in spans {
            rec.record(name, trace, Some(root), a, b);
        }
    }
    out
}

/// The reconnect half: retrying connect, `RESUME token=…`, read to the
/// terminal frame.
fn resume(
    addr: SocketAddr,
    req: &QueryRequest,
    token: u64,
    out: &mut WireSession,
    spans: &mut Vec<(&'static str, Instant, Instant)>,
    (t_send, t_cut): (Instant, Instant),
) -> StreamEnd {
    let policy = RetryPolicy {
        seed: mix(req.seed, 7),
        ..RetryPolicy::default()
    };
    let (mut client, retries) = match WireClient::connect_with_retry(addr, SOCKET_TIMEOUT, &policy)
    {
        Ok(c) => c,
        Err(_) => return StreamEnd::Failed("reconnect_failed".to_owned()),
    };
    let t_resume = Instant::now();
    out.retries = retries;
    spans.push(("client.reconnect", t_cut, t_resume));
    if client.send_line(&format!("RESUME token={token}")).is_err() {
        return StreamEnd::Failed("io_error".to_owned());
    }
    let mut second = Stream::new();
    let end = read_stream(&mut client, &mut second, out, None);
    let first = second.first_frame.unwrap_or(t_resume);
    out.resume_ms = second.first_frame.map(|t| ms(t - t_resume));
    if out.ttfcb_ms.is_none() {
        out.ttfcb_ms = second.first_certified.map(|t| ms(t - t_send));
    }
    spans.push(("client.resume", t_resume, first));
    spans.push(("client.stream", first, Instant::now()));
    end
}

/// A closed-loop wire run: each dashboard sends its next query only
/// after the previous one's terminal frame, until `seconds` have passed.
pub struct WireRun {
    pub sessions: Vec<WireSession>,
    pub wall_s: f64,
    pub spans: Recorder,
    pub parked_bytes_max: u64,
}

/// Dashboard `c` of `n` sends pool requests `c`, `c + n`, `c + 2n`, … in
/// order, so every run serves the same request mix.
pub fn run(
    handle: &ServerHandle,
    pool: &[QueryRequest],
    cuts: &[Option<usize>],
    seconds: f64,
    traced: bool,
) -> WireRun {
    let addr = handle.local_addr();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let stop_monitor = AtomicBool::new(false);
    let (per_client, monitor) = std::thread::scope(|scope| {
        // Traced runs also watch the parking registry's size over STATS.
        let monitor = traced.then(|| scope.spawn(|| monitor_parked_bytes(addr, &stop_monitor)));
        let clients: Vec<_> = (0..DASHBOARDS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    let mut sessions = Vec::new();
                    let mut i = c;
                    while Instant::now() < deadline {
                        let idx = i % pool.len();
                        i += DASHBOARDS;
                        let cut = cuts[idx];
                        let trace = (c as u64) << 32 | sessions.len() as u64;
                        let r = traced.then_some((&mut rec, trace));
                        sessions.push(run_session(addr, &pool[idx], idx, cut, r));
                    }
                    (sessions, rec)
                })
            })
            .collect();
        let per_client: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("dashboard thread does not panic"))
            .collect();
        stop_monitor.store(true, Ordering::SeqCst);
        let monitor = monitor.map_or(0, |h| h.join().expect("monitor thread does not panic"));
        (per_client, monitor)
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut spans = Recorder::new(epoch);
    let mut sessions = Vec::new();
    for (s, rec) in per_client {
        sessions.extend(s);
        spans.absorb(rec);
    }
    WireRun {
        sessions,
        wall_s,
        spans,
        parked_bytes_max: monitor,
    }
}

fn monitor_parked_bytes(addr: SocketAddr, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    let Ok(mut client) = WireClient::connect(addr, SOCKET_TIMEOUT) else {
        return 0;
    };
    while !stop.load(Ordering::SeqCst) {
        match client.stats() {
            Ok(s) => max = max.max(s.parked_bytes),
            Err(_) => break,
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    max
}

/// The server's counters, over a fresh connection.
pub fn server_stats(addr: SocketAddr) -> Option<WireStats> {
    WireClient::connect(addr, SOCKET_TIMEOUT).ok()?.stats().ok()
}

//! `tsgbench` — end-to-end and per-layer benchmark of the `tsg serve`
//! path.
//!
//! ```text
//! tsgbench --tsg PATH --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//! ```
//!
//! One process drives the release `tsg serve` binary as a child over
//! TCP on 127.0.0.1: two connections in closed loops (each sends its
//! next request when the previous answer arrived) against a server with
//! two worker threads. Inputs are generated from `--seed`. Set-up —
//! spawning the server and warming it — is repeated five times and
//! timed; the last server then takes the timed window of `--seconds`
//! (extended until at least 100 answers arrived and each connection
//! finished a whole period of request shapes). Answers are checked after
//! the window, so checks cost no timed CPU.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! load, then replays every request the measured server answered
//! in-process through each layer's public functions with spans (see
//! `replay`), writes the spans to `--spans-dir`, and prints the
//! per-layer metrics plus the tracing overhead. The last line of
//! standard output is the JSON result.

mod gen;
mod replay;
mod server;
mod workload;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsg_serve::json::Json;

use replay::{Replayer, Span, Tracer};
use server::{request_line, Server};
use workload::{Kind, Plan, Req, CONNECTIONS};

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Answers the timed window collects at least, so p90 has 10 beyond it.
const MIN_SAMPLES: usize = 100;
/// Replayed sessions are checked against the scalar oracle once every
/// this many requests (and after the last).
const ORACLE_EVERY: usize = 32;
/// Worker threads of the served pool.
const SERVER_THREADS: usize = 2;

struct Args {
    tsg: PathBuf,
    workload: Kind,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let need = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let name = need("workload")?.to_owned();
    Ok(Args {
        tsg: PathBuf::from(need("tsg")?),
        workload: Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        name,
        seed: need("seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: need("seconds")?
            .parse()
            .ok()
            .filter(|&s| s >= 1)
            .ok_or("--seconds takes a positive integer")?,
        trace: match need("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        spans_dir: PathBuf::from(flags.get("spans-dir").copied().unwrap_or("tsgbench-spans")),
    })
}

/// What came back for one request.
enum Resp {
    /// The whole response line (kept where the check reads it).
    Line(String),
    /// Hash of the response line (session edits: the ~95 KB answers
    /// of thousands of edits would not fit in memory).
    Hash(u64),
    /// The connection failed.
    Lost(String),
}

/// One request sent and its answer.
struct Sent {
    id: u64,
    req: Req,
    rtt: Duration,
    resp: Resp,
    /// Sent in the timed window (not during set-up).
    timed: bool,
}

impl Sent {
    fn line(&self) -> String {
        request_line(self.id, &self.req.body)
    }
}

/// A 64-bit hash of a response line, eight bytes per step so that
/// hashing costs the client little CPU inside the timed window.
fn hash(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks of eight"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Sends one request on `conn`; `line` is a reusable response buffer.
fn send(
    conn: &mut server::Conn,
    id: u64,
    req: Req,
    keep_lines: bool,
    timed: bool,
    line: &mut String,
) -> Sent {
    let start = Instant::now();
    let result = conn.call(id, &req.body, line);
    let rtt = start.elapsed();
    let resp = match result {
        Ok(()) if keep_lines => Resp::Line(std::mem::take(line)),
        Ok(()) => Resp::Hash(hash(line.as_bytes())),
        Err(e) => Resp::Lost(e.to_string()),
    };
    Sent {
        id,
        req,
        rtt,
        resp,
        timed,
    }
}

/// Request ids: connection `c` numbers its requests from `c * 10^9 + 1`.
fn id_of(conn: usize, n: usize) -> u64 {
    (conn as u64) * 1_000_000_000 + n as u64 + 1
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsgbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("tsgbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the load phase measured on the last server.
struct Load {
    /// Per connection, every request of every set-up and of the window.
    transcripts: Vec<[Vec<Sent>; CONNECTIONS]>,
    setup_s: Vec<f64>,
    /// Per connection, from the window's start to its last answer.
    windows: Vec<Duration>,
    cpu_ms: f64,
    rss_mb: f64,
    stats: Json,
}

fn run(args: &Args) -> Result<String, String> {
    let mut plan = Plan::new(args.workload, args.seed)?;
    let load = drive(args, &mut plan)?;
    let mut failures: Vec<String> = Vec::new();

    // Reconcile the server's counters with what the client sent.
    let last = load.transcripts.last().expect("at least one set-up ran");
    let sent_last: usize = last.iter().map(Vec::len).sum();
    let count = |k: &str| load.stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (served, failed, rejected) = (
        count("served"),
        count("failed"),
        count("rejected_overloaded"),
    );
    // `rejected_overloaded` is a subset of `failed` in the pool's counters.
    if served + failed != sent_last as f64 || rejected > failed {
        failures.push(format!(
            "stats: served {served} + failed {failed} (rejected_overloaded {rejected}) \
             != {sent_last} requests sent"
        ));
    }

    // Check every answer; `bad` holds (set-up, connection, index).
    let epoch = Instant::now();
    let checked = check(args, &plan, &load, epoch)?;
    failures.extend(checked.failures.iter().map(|(_, msg)| msg.clone()));
    let attempted: usize = load.transcripts.iter().flatten().map(Vec::len).sum();
    let bad: HashSet<(usize, usize, usize)> = checked.failures.iter().map(|(at, _)| *at).collect();

    // End-to-end numbers over the timed window (failures count as
    // infinitely slow).
    let last_rep = load.transcripts.len() - 1;
    let mut lat: Vec<f64> = Vec::new();
    let (mut good, mut rate) = (0usize, 0.0);
    for (c, sent) in last.iter().enumerate() {
        let mut good_c = 0usize;
        for (i, s) in sent.iter().enumerate().filter(|(_, s)| s.timed) {
            if bad.contains(&(last_rep, c, i)) {
                lat.push(f64::INFINITY);
            } else {
                good_c += 1;
                lat.push(s.rtt.as_secs_f64() * 1e3);
            }
        }
        good += good_c;
        rate += good_c as f64 / load.windows[c].as_secs_f64();
    }
    lat.sort_by(f64::total_cmp);
    let window_s = load.windows.iter().max().map_or(0.0, Duration::as_secs_f64);
    let mut setups = load.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setups[setups.len() / 2], "s"),
        ("throughput_rps", rate, "1/s"),
        ("latency_p50_ms", nearest_rank(&lat, 0.50), "ms"),
        ("latency_p90_ms", nearest_rank(&lat, 0.90), "ms"),
        (
            "server_cpu_ms_per_req",
            load.cpu_ms / good.max(1) as f64,
            "ms",
        ),
        ("server_rss_mb", load.rss_mb, "MB"),
    ];

    let mut report = String::new();
    let kernel = load
        .stats
        .get("kernel")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        report,
        "tsgbench {} seed {}: {} timed request(s) in {:.3} s on {CONNECTIONS} closed-loop \
         connection(s), server --threads {SERVER_THREADS}, kernel {kernel}, nproc {nproc}",
        args.name,
        args.seed,
        lat.len(),
        window_s
    );
    for (name, value, unit) in &e2e {
        let _ = writeln!(report, "  {name:<24} {value:>14.4} {unit}");
    }
    let error_rate = checked.failures.len() as f64 / attempted.max(1) as f64;
    let _ = writeln!(report, "  {:<24} {error_rate:>14.4} ratio", "error_rate");
    if lat.len() < MIN_SAMPLES {
        failures.push(format!(
            "only {} timed samples (< {MIN_SAMPLES})",
            lat.len()
        ));
    }

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let traced = checked
            .traced
            .as_ref()
            .expect("a traced run replays the measured server");
        layers(&load, traced, &mut report)
    } else {
        e2e.iter()
            .map(|(n, v, u)| ((*n).to_owned(), *v, (*u).to_owned()))
            .collect()
    };
    if args.trace {
        write_spans(args, checked.traced.as_ref().expect("traced"), &mut report)?;
    }
    for f in failures.iter().take(10) {
        let _ = writeln!(report, "FAILED: {f}");
    }
    if failures.len() > 10 {
        let _ = writeln!(report, "FAILED: ... and {} more", failures.len() - 10);
    }
    print!("{report}");

    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(n, v, u)| {
                // JSON has no infinity: a percentile of failed requests
                // reads as the largest finite number.
                let entry = Json::Obj(vec![
                    (
                        "value".to_owned(),
                        Json::Num(if v.is_finite() { v } else { f64::MAX }),
                    ),
                    ("unit".to_owned(), Json::from(u.as_str())),
                ]);
                (n, entry)
            })
            .collect(),
    );
    Ok(Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(failures.is_empty())),
        ("attempted".to_owned(), Json::from(attempted as u64)),
        (
            "failed".to_owned(),
            Json::from(checked.failures.len() as u64),
        ),
        ("metrics".to_owned(), metrics),
    ])
    .dump())
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Set-up `SETUP_REPS` times, then the timed window on the last server.
fn drive(args: &Args, plan: &mut Plan) -> Result<Load, String> {
    let keep_lines = plan.kind != Kind::SessionEdit;
    let mut transcripts = Vec::new();
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let srv = Server::spawn(&args.tsg, SERVER_THREADS)
            .map_err(|e| format!("spawning {}: {e}", args.tsg.display()))?;
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            conns.push(srv.connect().map_err(|e| format!("connecting: {e}"))?);
        }
        let mut sent: [Vec<Sent>; CONNECTIONS] = Default::default();
        let mut line = String::new();
        for (c, reqs) in plan.warmup.iter().enumerate() {
            for req in reqs {
                let id = id_of(c, sent[c].len());
                let s = send(&mut conns[c], id, req.clone(), keep_lines, false, &mut line);
                sent[c].push(s);
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        transcripts.push(sent);
        if rep + 1 == SETUP_REPS {
            live = Some((srv, conns));
        }
    }
    let (srv, mut conns) = live.expect("SETUP_REPS >= 1");
    let last = transcripts.last_mut().expect("SETUP_REPS >= 1");

    let answered = AtomicUsize::new(0);
    let period = plan.period;
    let cpu0 = srv
        .cpu_ms()
        .map_err(|e| format!("reading server CPU time: {e}"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let hard_stop = start + Duration::from_secs(4 * args.seconds);
    // Each connection stops at a whole number of request periods, so
    // every request shape keeps its share, and is timed until its own
    // last answer: a connection that finished first does not dilute the
    // other's rate.
    let windows: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plan.streams.iter_mut())
            .zip(last.iter_mut().enumerate())
            .map(|((conn, stream), (c, sent))| {
                let answered = &answered;
                scope.spawn(move || {
                    let mut line = String::new();
                    for n in 0.. {
                        let now = Instant::now();
                        let enough = now >= deadline
                            && answered.load(Ordering::Relaxed) >= MIN_SAMPLES
                            && n % period == 0;
                        if enough || now >= hard_stop {
                            break;
                        }
                        let id = id_of(c, sent.len());
                        let s = send(conn, id, stream.next(), keep_lines, true, &mut line);
                        let lost = matches!(s.resp, Resp::Lost(_));
                        sent.push(s);
                        answered.fetch_add(1, Ordering::Relaxed);
                        if lost {
                            break;
                        }
                    }
                    start.elapsed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let cpu_ms = srv
        .cpu_ms()
        .map_err(|e| format!("reading server CPU time: {e}"))?
        - cpu0;
    let mut stats = String::new();
    conns[0]
        .call(0, r#"{"cmd":"stats"}"#, &mut stats)
        .map_err(|e| format!("stats request: {e}"))?;
    let stats = Json::parse(&stats).map_err(|e| format!("stats response: {e}"))?;
    let rss_mb = srv
        .peak_rss_mb()
        .map_err(|e| format!("reading server RSS: {e}"))?;
    drop(conns);
    drop(srv);
    Ok(Load {
        transcripts,
        setup_s,
        windows,
        cpu_ms,
        rss_mb,
        stats,
    })
}

/// The per-request results of replaying one connection.
struct Replay {
    /// Response lines the server should have sent.
    lines: Vec<String>,
    /// In-process service time without spans, per request.
    plain_ns: Vec<u64>,
    /// Root span duration with spans, per request (traced replays).
    traced_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// Replays `sent` in order on a fresh worker state. A traced replay
/// runs a second, span-recording worker state in lockstep and
/// alternates which of the two serves each request first.
fn replay(sent: &[Sent], traced: bool, epoch: Instant) -> Replay {
    let mut plain = Replayer::default();
    let mut off = Tracer::new(false, epoch);
    let mut rec = traced.then(|| (Replayer::default(), Tracer::new(true, epoch)));
    let mut out = Replay {
        lines: Vec::with_capacity(sent.len()),
        plain_ns: Vec::with_capacity(sent.len()),
        traced_ns: Vec::new(),
        spans: Vec::new(),
    };
    for (i, s) in sent.iter().enumerate() {
        let line = s.line();
        let line = line.trim_end_matches('\n');
        let mut run_plain = || {
            let t = Instant::now();
            let resp = plain.serve(s.id, line, &mut off);
            (resp, t.elapsed().as_nanos() as u64)
        };
        let (mut resp, ns) = match rec.as_mut() {
            None => run_plain(),
            Some((rp, tr)) => {
                let mut run_traced = || {
                    let root = tr.spans.len();
                    let resp = rp.serve(s.id, line, tr);
                    (resp, tr.spans[root].ns())
                };
                let ((resp, ns), (traced_resp, traced_ns)) = if i % 2 == 0 {
                    let t = run_traced();
                    (run_plain(), t)
                } else {
                    let p = run_plain();
                    (p, run_traced())
                };
                out.traced_ns.push(traced_ns);
                if traced_resp == resp {
                    (resp, ns)
                } else {
                    (format!("traced replay diverged: {traced_resp}"), ns)
                }
            }
        };
        // The replayed sessions answer like the server; every
        // ORACLE_EVERY requests they are also held against a
        // from-scratch scalar analysis of their current graph.
        if (i + 1) % ORACLE_EVERY == 0 || i + 1 == sent.len() {
            if let Err(e) = plain.check_sessions() {
                resp = format!("session diverged from the scalar oracle: {e}");
            }
        }
        out.lines.push(resp);
        out.plain_ns.push(ns);
    }
    if let Some((_, tr)) = rec {
        out.spans = tr.spans;
    }
    out
}

struct Checked {
    /// `((set-up, connection, index), message)` per failed request.
    failures: Vec<((usize, usize, usize), String)>,
    /// Replays of the measured server's connections (traced runs).
    traced: Option<Vec<Replay>>,
}

/// Checks every answer of every set-up and of the window.
fn check(args: &Args, plan: &Plan, load: &Load, epoch: Instant) -> Result<Checked, String> {
    let last_rep = load.transcripts.len() - 1;
    // Replays: every transcript for session_edit (the trajectory
    // check), the measured server's for traced runs. Earlier set-ups
    // hold only the session opens and replay in this thread; the
    // measured server's connections replay in parallel, one thread each,
    // with nothing else running.
    let mut replays: HashMap<(usize, usize), Replay> = HashMap::new();
    if plan.kind == Kind::SessionEdit {
        for (rep, conns) in load.transcripts[..last_rep].iter().enumerate() {
            for (c, sent) in conns.iter().enumerate() {
                replays.insert((rep, c), replay(sent, false, epoch));
            }
        }
    }
    if args.trace || plan.kind == Kind::SessionEdit {
        std::thread::scope(|scope| {
            let handles: Vec<_> = load.transcripts[last_rep]
                .iter()
                .map(|sent| scope.spawn(move || replay(sent, args.trace, epoch)))
                .collect();
            for (c, h) in handles.into_iter().enumerate() {
                replays.insert((last_rep, c), h.join().expect("replay thread panicked"));
            }
        });
    }

    // scenario_sweep: each distinct request's report, computed once.
    let mut scenario_reports: HashMap<Arc<str>, String> = HashMap::new();
    if plan.kind == Kind::ScenarioSweep {
        let bodies: HashSet<Arc<str>> = load
            .transcripts
            .iter()
            .flatten()
            .flatten()
            .map(|s| Arc::clone(&s.req.body))
            .collect();
        let mut rp = Replayer::default();
        let mut off = Tracer::new(false, epoch);
        for body in bodies {
            let resp = rp.serve(0, request_line(0, &body).trim_end(), &mut off);
            let doc = Json::parse(&resp).map_err(|e| format!("replayed response: {e}"))?;
            let output = output_of(&doc)?.to_owned();
            scenario_reports.insert(body, output);
        }
    }

    let mut failures = Vec::new();
    for (rep, conns) in load.transcripts.iter().enumerate() {
        for (c, sent) in conns.iter().enumerate() {
            let replayed = replays.get(&(rep, c));
            for (i, s) in sent.iter().enumerate() {
                let want = replayed.map(|r| r.lines[i].as_str());
                if let Err(msg) = verdict(plan, s, want, &scenario_reports) {
                    failures.push(((rep, c, i), format!("request {}: {msg}", s.id)));
                }
            }
        }
    }
    let traced = args.trace.then(|| {
        (0..CONNECTIONS)
            .map(|c| replays.remove(&(last_rep, c)).expect("replayed"))
            .collect()
    });
    Ok(Checked { failures, traced })
}

/// The `output` of an ok response.
fn output_of(doc: &Json) -> Result<&str, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("error response: {error}"));
    }
    doc.get("output")
        .and_then(Json::as_str)
        .ok_or_else(|| "response without output".to_owned())
}

fn verdict(
    plan: &Plan,
    s: &Sent,
    replayed: Option<&str>,
    scenario_reports: &HashMap<Arc<str>, String>,
) -> Result<(), String> {
    let line = match &s.resp {
        Resp::Lost(e) => return Err(format!("connection lost: {e}")),
        Resp::Hash(h) => {
            let want = replayed.ok_or("no replay to compare a hashed answer with")?;
            return if hash(want.as_bytes()) == *h {
                Ok(())
            } else {
                Err(format!(
                    "answer differs from the in-process replay {want:.200}"
                ))
            };
        }
        Resp::Line(line) => line,
    };
    if replayed.is_some_and(|want| want != line) {
        return Err("answer differs from the in-process replay".to_owned());
    }
    let doc = Json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    if doc.get("id").and_then(Json::as_f64) != Some(s.id as f64) {
        return Err("response id does not match".to_owned());
    }
    let output = output_of(&doc)?;
    workload::check_nominal(&plan.graphs[s.req.graph], output)?;
    if scenario_reports
        .get(&s.req.body)
        .is_some_and(|want| want != output)
    {
        return Err("scenario report differs from in-process ops::report_in".to_owned());
    }
    Ok(())
}

/// Per-layer metrics from the traced replays, plus the transport share
/// and the tracing overhead.
fn layers(load: &Load, traced: &[Replay], report: &mut String) -> Vec<(String, f64, String)> {
    #[derive(Default)]
    struct Layer {
        calls: f64,
        ns: f64,
        self_ns: f64,
        counts: HashMap<&'static str, f64>,
    }
    let mut by_name: HashMap<&'static str, Layer> = HashMap::new();
    let mut root_ns = 0.0;
    for r in traced {
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        for (i, s) in r.spans.iter().enumerate() {
            let l = by_name.entry(s.name).or_default();
            l.calls += 1.0;
            l.ns += s.ns() as f64;
            l.self_ns += s.ns().saturating_sub(child_ns[i]) as f64;
            for (k, v) in &s.counts {
                *l.counts.entry(k).or_default() += v;
            }
            if s.parent.is_none() {
                root_ns += s.ns() as f64;
            }
        }
    }
    let empty = Layer::default();
    let get = |n: &str| by_name.get(n).unwrap_or(&empty);
    let per_call = |total: f64, l: &Layer| if l.calls > 0.0 { total / l.calls } else { 0.0 };
    let ms = |n: &str| per_call(get(n).ns, get(n)) / 1e6;
    let self_ms = |n: &str| per_call(get(n).self_ns, get(n)) / 1e6;
    let mean = |n: &str, k: &str| per_call(get(n).counts.get(k).copied().unwrap_or(0.0), get(n));
    let sum = |n: &str, k: &str| get(n).counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Transport: client round trip minus in-process service time, over
    // the timed window.
    let last = load.transcripts.last().expect("at least one set-up ran");
    let (mut overhead, mut timed) = (0.0, 0.0);
    for (sent, r) in last.iter().zip(traced) {
        for (s, plain) in sent.iter().zip(&r.plain_ns).filter(|(s, _)| s.timed) {
            overhead += s.rtt.as_nanos() as f64 - *plain as f64;
            timed += 1.0;
        }
    }
    // Tracing overhead over the timed window's requests: the set-up
    // requests include each replay's cold first request.
    let (mut plain, mut with, mut requests) = (0.0, 0.0, 0.0);
    for (sent, r) in last.iter().zip(traced) {
        for ((s, p), t) in sent.iter().zip(&r.plain_ns).zip(&r.traced_ns) {
            if s.timed {
                plain += *p as f64;
                with += *t as f64;
                requests += 1.0;
            }
        }
    }
    let stat = |k: &str| load.stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);

    let m = |n: &str, v: f64, u: &str| (n.to_owned(), v, u.to_owned());
    let metrics = vec![
        m("reader.parse_ms", ms("reader.parse"), "ms"),
        m("reader.self_ms", self_ms("reader.parse"), "ms"),
        m("reader.lines", mean("reader.parse", "lines"), "count"),
        m("validate.ms", ms("validate"), "ms"),
        m("graph.border_ms", ms("graph.border"), "ms"),
        m("graph.borders", mean("graph.border", "borders"), "count"),
        m("wide.ms", ms("wide"), "ms"),
        m("wide.lanes", mean("wide", "lanes"), "count"),
        m("scenario.ms", ms("scenario"), "ms"),
        m("scenario.lanes", mean("scenario", "lanes"), "count"),
        m("session.open_ms", ms("session.open"), "ms"),
        m("session.edit_ms", ms("session.edit"), "ms"),
        m(
            "session.rows_ratio",
            ratio(
                sum("session.edit", "rows"),
                sum("session.edit", "rows_total"),
            ),
            "ratio",
        ),
        m(
            "session.dirty_ratio",
            ratio(sum("session.edit", "dirty"), sum("session.edit", "borders")),
            "ratio",
        ),
        m("ops.render_ms", self_ms("ops.report"), "ms"),
        m("ops.report_bytes", mean("ops.report", "bytes"), "bytes"),
        m("ops.summary_ms", ms("ops.summary"), "ms"),
        m("protocol.decode_ms", ms("protocol.decode"), "ms"),
        m("protocol.encode_ms", ms("protocol.encode"), "ms"),
        m(
            "protocol.bytes_in",
            mean("protocol.decode", "bytes_in"),
            "bytes",
        ),
        m(
            "protocol.bytes_out",
            mean("protocol.encode", "bytes_out"),
            "bytes",
        ),
        m("pool.overhead_ms", ratio(overhead, timed) / 1e6, "ms"),
        m("pool.served", stat("served"), "count"),
        m("pool.failed", stat("failed"), "count"),
        m(
            "pool.rejected_overloaded",
            stat("rejected_overloaded"),
            "count",
        ),
        m(
            "trace.overhead_ms",
            ratio(with - plain, requests) / 1e6,
            "ms",
        ),
        m(
            "trace.overhead_pct",
            100.0 * ratio(with - plain, plain),
            "%",
        ),
    ];

    // Self-time shares of the in-process service time, for reading
    // which layer dominates.
    let _ = writeln!(
        report,
        "per-layer self time, share of in-process service time:"
    );
    let mut shares: Vec<(&str, f64)> = by_name
        .iter()
        .filter(|(n, _)| **n != "request")
        .map(|(n, l)| (*n, l.self_ns))
        .collect();
    shares.push(("request (self)", get("request").self_ns));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (n, ns) in shares {
        let _ = writeln!(report, "  {n:<24} {:>7.2} %", 100.0 * ratio(ns, root_ns));
    }
    for (n, v, u) in &metrics {
        let _ = writeln!(report, "  {n:<24} {v:>14.4} {u}");
    }
    metrics
}

/// Writes the traced spans as JSON lines to the spans directory.
fn write_spans(args: &Args, traced: &[Replay], report: &mut String) -> Result<(), String> {
    std::fs::create_dir_all(&args.spans_dir)
        .map_err(|e| format!("creating {}: {e}", args.spans_dir.display()))?;
    let path = args
        .spans_dir
        .join(format!("{}-seed{}.jsonl", args.name, args.seed));
    let mut out = String::new();
    for (c, r) in traced.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            let counts = s
                .counts
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                .collect();
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::from(format!("{c}.{p}").as_str()));
            let line = Json::Obj(vec![
                ("id".to_owned(), Json::from(format!("{c}.{i}").as_str())),
                ("parent".to_owned(), parent),
                ("req".to_owned(), Json::from(s.req)),
                ("name".to_owned(), Json::from(s.name)),
                ("start_ns".to_owned(), Json::from(s.start)),
                ("end_ns".to_owned(), Json::from(s.end)),
                ("shadow".to_owned(), Json::Bool(s.shadow)),
                ("counts".to_owned(), Json::Obj(counts)),
            ]);
            out.push_str(&line.dump());
            out.push('\n');
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(report, "spans written to {}", path.display());
    Ok(())
}

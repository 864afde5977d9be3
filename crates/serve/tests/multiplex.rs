//! The multiplexed front-end acceptance bar.
//!
//! The readiness event loop must make hostile clients cheap: a
//! thousand idle, half-open or dribbling connections pin buffers, not
//! worker threads, so a healthy request arriving alongside them is
//! still answered promptly. Worker deaths outside the per-request
//! isolation boundary are healed by supervision — the in-flight
//! request is answered with a structured `worker_lost`, the session
//! slots the dead workspace held are released, and a respawned worker
//! keeps serving. Connection-level chaos (`rst`, `dribble`,
//! `halfopen`) degrades single connections without taking down the
//! loop, and every request still reconciles into exactly one counter.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tsg_serve::json::Json;
use tsg_serve::{serve, serve_tcp, ChaosConfig, ServeOptions};

/// One request line from `(key, value)` fields.
fn req(fields: &[(&str, Json)]) -> String {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
    .dump()
}

fn stats_req(id: u64) -> String {
    req(&[("id", Json::from(id)), ("cmd", Json::from("stats"))])
}

fn open_req(id: u64, session: &str) -> String {
    req(&[
        ("id", Json::from(id)),
        ("cmd", Json::from("session.open")),
        ("session", Json::from(session)),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ])
}

/// The tentpole: 1024 connections that never complete a request — a
/// third fully idle, a third stuck mid-frame, a third that will finish
/// later — all parked on the event loop at once, while a well-behaved
/// control connection keeps getting prompt answers. The gauge must see
/// every parked connection, the stragglers must complete once they
/// finally finish their frames, and shutdown must reap the whole set
/// promptly with every counter reconciling.
#[test]
fn thousand_slow_clients_do_not_starve_healthy_requests() {
    const N: usize = 1024;
    static FLAG: AtomicBool = AtomicBool::new(false);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(2),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, Some(&FLAG), None).unwrap());

    let mut parked = Vec::new();
    let mut stragglers = Vec::new();
    for i in 0..N {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match i % 3 {
            0 => parked.push(s), // idle: connected, never speaks
            1 => {
                // Half-open: a frame that never ends. The loop must
                // buffer the prefix and otherwise forget about it.
                s.write_all(br#"{"id":1,"cmd":"sta"#).unwrap();
                parked.push(s);
            }
            _ => {
                // Dribbler: same prefix, but this one finishes later.
                write!(s, "{{\"id\":{i},\"cmd\":\"st").unwrap();
                stragglers.push((i as u64, s));
            }
        }
    }

    // The healthy control connection: polled stats must answer
    // promptly despite the thousand parked peers, and eventually the
    // gauge sees all of them (accepts race the connect loop above).
    let mut control = std::net::TcpStream::connect(addr).unwrap();
    control
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut control_reader = BufReader::new(control.try_clone().unwrap());
    let mut polls = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        control
            .write_all((stats_req(polls) + "\n").as_bytes())
            .unwrap();
        let started = Instant::now();
        let mut line = String::new();
        control_reader.read_line(&mut line).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a healthy request must not wait behind parked connections"
        );
        polls += 1;
        let response = Json::parse(line.trim()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let active = response
            .get("active_connections")
            .and_then(Json::as_f64)
            .expect("stats carries the connection gauge");
        if active >= (N + 1) as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {active} of {} connections became visible",
            N + 1
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The stragglers now finish their frames: every one must be
    // answered even though a thousand peers still sit stalled.
    let expected_stragglers = stragglers.len() as u64;
    for (id, s) in &mut stragglers {
        s.write_all(b"ats\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        let response = Json::parse(line.trim()).unwrap();
        assert_eq!(response.get("id"), Some(&Json::Num(*id as f64)));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    }

    // Graceful shutdown reaps the entire parked set promptly — the
    // half-open prefixes are discarded, never answered as garbage.
    FLAG.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let stats = server.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain must not wait on stalled clients"
    );
    assert_eq!(stats.failed, 0, "no parked connection produced an error");
    assert_eq!(
        stats.served,
        polls + expected_stragglers,
        "every completed request reconciles, nothing else"
    );
    assert_eq!(stats.active_connections, 0);
    drop((parked, stragglers, control));
}

/// Worker supervision: an injected worker death outside the isolation
/// boundary answers the in-flight request with a structured
/// `worker_lost`, releases the session slots the dead workspace held
/// (the pool-wide cap frees up), and respawns a worker that keeps
/// serving — all visible in the counters.
#[test]
fn killed_worker_answers_worker_lost_and_respawns() {
    let opts = ServeOptions {
        threads: Some(1),
        max_sessions: Some(1),
        chaos: ChaosConfig {
            kill_every: 2,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let script = [
        open_req(1, "held"),
        req(&[
            ("id", Json::from(2u64)),
            ("cmd", Json::from("session.edit")),
            ("session", Json::from("held")),
            (
                "edits",
                Json::Arr(vec![Json::Obj(vec![
                    ("src".to_owned(), Json::from("a+")),
                    ("dst".to_owned(), Json::from("c+")),
                    ("delay".to_owned(), Json::Num(8.0)),
                ])]),
            ),
        ]),
        // Under a session cap of 1 this only succeeds if the dead
        // worker's slot was reconciled by the supervisor.
        open_req(3, "fresh"),
    ]
    .join("\n")
        + "\n";
    let mut out = Vec::new();
    let stats = serve(Cursor::new(script), &mut out, &opts, None).unwrap();
    let lines: Vec<String> = String::from_utf8_lossy(&out)
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(
        lines.len(),
        3,
        "one response per request, even the lost one"
    );
    let first = Json::parse(&lines[0]).unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
    let lost = Json::parse(&lines[1]).unwrap();
    assert_eq!(lost.get("id"), Some(&Json::Num(2.0)));
    assert_eq!(lost.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(lost.get("code"), Some(&Json::from("worker_lost")));
    assert!(
        lost.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("respawned"),
        "the error tells the client what happened and what to do"
    );
    let healed = Json::parse(&lines[2]).unwrap();
    assert_eq!(
        healed.get("ok"),
        Some(&Json::Bool(true)),
        "the respawned worker serves, and the dead session's cap slot freed"
    );
    assert_eq!((stats.served, stats.failed), (2, 1));
    assert_eq!(stats.worker_lost, 1);
    assert_eq!(stats.worker_respawns, 1);
}

/// Frames arriving a few bytes at a time reassemble across event-loop
/// ticks, and a dribble-chaos response (written one byte per pacing
/// interval) still reaches the client intact.
#[test]
fn chunked_frames_and_dribbled_responses_survive() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            dribble_every: 1,
            dribble_ms: 1,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(1)).unwrap());
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let frame = stats_req(7) + "\n";
    for chunk in frame.as_bytes().chunks(5) {
        client.write_all(chunk).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut line = String::new();
    BufReader::new(client.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let response = Json::parse(line.trim()).expect("dribbled bytes reassemble");
    assert_eq!(response.get("id"), Some(&Json::Num(7.0)));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    drop(client);
    let stats = server.join().unwrap();
    assert_eq!((stats.served, stats.failed), (1, 0));
}

/// `rst` chaos cuts the connection partway through the response bytes:
/// the client never sees a complete line, the server's accounting is
/// untouched (the answer was computed and counted before the write),
/// and the loop survives to report it.
#[test]
fn injected_rst_cuts_response_mid_line() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            rst_every: 1,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(1)).unwrap());
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.write_all((stats_req(1) + "\n").as_bytes()).unwrap();
    let mut line = String::new();
    let read = BufReader::new(client.try_clone().unwrap()).read_line(&mut line);
    assert!(
        read.is_err() || !line.ends_with('\n'),
        "the response must be cut mid-line, got {line:?}"
    );
    drop(client);
    let stats = server.join().unwrap();
    assert_eq!(
        (stats.served, stats.failed),
        (1, 0),
        "accounting happened before the injected cut"
    );
    assert_eq!(stats.active_connections, 0);
}

/// `halfopen` chaos accepts every Nth connection and then never reads
/// it: that client's requests go unanswered (it models a peer whose
/// accept succeeded into a dead socket), while the other connections
/// are served normally.
#[test]
fn halfopen_chaos_parks_every_nth_accept() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            halfopen_every: 2,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(2)).unwrap());

    // First accept: served normally.
    let mut healthy = std::net::TcpStream::connect(addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    healthy.write_all((stats_req(1) + "\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(healthy.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains(r#""ok":true"#));

    // Second accept: parked by chaos — a request into it is never
    // answered; the client's read times out instead of hanging.
    let mut parked = std::net::TcpStream::connect(addr).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    parked.write_all((stats_req(2) + "\n").as_bytes()).unwrap();
    let mut unanswered = String::new();
    let read = BufReader::new(parked.try_clone().unwrap()).read_line(&mut unanswered);
    assert!(
        read.is_err(),
        "the half-open connection must stay silent, got {unanswered:?}"
    );

    drop(healthy);
    drop(parked);
    let stats = server.join().unwrap();
    assert_eq!(
        (stats.served, stats.failed),
        (1, 0),
        "the parked request never reached a worker"
    );
}

/// `max_connections` caps the live set: at the cap the listener is not
/// polled, so a further client waits unanswered in the OS backlog until
/// a slot frees, then is served from the bytes it already sent.
#[test]
fn max_connections_parks_excess_clients_in_backlog() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        max_connections: Some(1),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(2)).unwrap());

    let mut first = std::net::TcpStream::connect(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    first.write_all((stats_req(1) + "\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(first.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains(r#""ok":true"#));

    // The second client connects (the kernel backlog accepts the
    // handshake) and sends its request, but at the cap the loop is not
    // accepting: nothing answers while the first connection lives.
    let mut second = std::net::TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    second.write_all((stats_req(2) + "\n").as_bytes()).unwrap();
    let mut early = String::new();
    let premature = BufReader::new(second.try_clone().unwrap()).read_line(&mut early);
    assert!(
        premature.is_err(),
        "past the cap nothing may be served, got {early:?}"
    );

    // Freeing the slot admits the waiter, which is then served from
    // the request bytes it queued while parked.
    drop(first);
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut served = String::new();
    BufReader::new(second.try_clone().unwrap())
        .read_line(&mut served)
        .unwrap();
    let response = Json::parse(served.trim()).unwrap();
    assert_eq!(response.get("id"), Some(&Json::Num(2.0)));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    drop(second);
    let stats = server.join().unwrap();
    assert_eq!((stats.served, stats.failed), (2, 0));
}

//! Concurrency integration tests for the event-loop front end: one
//! poll-driven thread owning accept/read/write for every connection,
//! with per-connection state machines and pipelined batches.
//!
//! Unix-only by construction — the readiness loop is built on poll(2);
//! on other platforms `Server::start` fails with `Unsupported`.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use htd_core::Json;
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    AnswerMode, Client, Command, InstanceFormat, Request, Response, ServeOptions, Server,
    SolveRequest, Status,
};

fn start(opts: ServeOptions) -> (Server, String) {
    let server = Server::start(opts).expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

fn loop_opts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 8,
        queue_capacity: 64,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    }
}

fn solve_line(id: &str, objective: Objective, instance: &str, deadline_ms: u64) -> String {
    let req = Request {
        id: Some(id.to_string()),
        cmd: Command::Solve(SolveRequest {
            objective,
            format: InstanceFormat::Auto,
            instance: instance.to_string(),
            deadline_ms: Some(deadline_ms),
            budget: None,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    };
    format!("{}\n", req.to_json())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "connection closed before a response");
    Response::from_json(&Json::parse(line.trim()).expect("valid JSON")).expect("valid response")
}

/// A slow-loris connection trickling a frame one byte at a time must
/// neither stall other clients (single loop thread!) nor lose its own
/// request once the newline finally lands.
#[test]
fn slow_loris_partial_frames_do_not_block_other_connections() {
    let (server, addr) = start(loop_opts());

    // warm one instance so the fast client's requests are cache hits
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    let r = warm
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);

    let loris_addr = addr.clone();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&loris_addr).unwrap();
        let line = "{\"cmd\":\"ping\",\"id\":\"slow\"}\n";
        for b in line.as_bytes() {
            stream.write_all(std::slice::from_ref(b)).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(3));
        }
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    });

    // while the loris trickles, a well-behaved client gets fast answers
    let mut fast = Client::connect(&addr).unwrap();
    for _ in 0..10 {
        let t = Instant::now();
        let r = fast
            .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
            .unwrap();
        assert_eq!(r.status, Status::Ok);
        assert!(r.cached);
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "cached request stalled behind a slow-loris connection"
        );
    }

    let slow_response = loris.join().unwrap();
    assert_eq!(slow_response.status, Status::Pong);
    assert_eq!(slow_response.id.as_deref(), Some("slow"));

    warm.shutdown().unwrap();
    server.wait();
}

/// Connections that die mid-frame must be reaped without poisoning the
/// loop: the server keeps answering afterwards.
#[test]
fn mid_frame_disconnects_are_reaped() {
    let (server, addr) = start(loop_opts());
    for i in 0..25 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        // a valid prefix of a frame, never terminated
        let partial = format!("{{\"cmd\":\"solve\",\"id\":\"dead{i}\",\"objective");
        stream.write_all(partial.as_bytes()).unwrap();
        drop(stream); // RST/FIN mid-frame
    }
    // the loop survived all of it and still answers
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    client.shutdown().unwrap();
    server.wait();
}

/// Pipelined batch where a cheap request is sent *after* an expensive
/// one on the same connection: the cheap response must come back first
/// — the whole point of matching responses by id instead of by order.
#[test]
fn pipelined_responses_complete_out_of_order() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..loop_opts()
    });

    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    let r = warm
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok);

    // one connection, two frames back to back: a cold ~600ms solve,
    // then a cache hit
    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 123));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(solve_line("slow", Objective::Treewidth, &hard, 600).as_bytes())
        .unwrap();
    stream
        .write_all(solve_line("fast", Objective::Treewidth, &grid, 600).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);

    let first = read_response(&mut reader);
    assert_eq!(
        first.id.as_deref(),
        Some("fast"),
        "the cached response must overtake the in-flight solve"
    );
    assert_eq!(first.status, Status::Ok);
    assert!(first.cached);

    let second = read_response(&mut reader);
    assert_eq!(second.id.as_deref(), Some("slow"));
    assert!(
        second.status == Status::Ok || second.status == Status::Timeout,
        "{:?}",
        second.error
    );

    warm.shutdown().unwrap();
    server.wait();
}

/// 500 concurrent connections submit short-deadline solves while the
/// single worker is wedged on a long-deadline blocker. No worker will
/// touch them before they expire, so the event loop itself must
/// synthesize their timeouts at `deadline + REPLY_GRACE` — one response
/// per connection, on time, none dropped, none duplicated (the late
/// worker evictions that follow must be swallowed, not double-sent).
#[test]
fn deadline_expiry_under_500_concurrent_connections() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        queue_capacity: 2048,
        ..loop_opts()
    });
    let n = 500usize;
    let deadline_ms = 300u64;

    // wedge the worker: a dense instance with a 6 s deadline
    let blocker_addr = addr.clone();
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(&blocker_addr).unwrap();
        let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 424242));
        c.solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &hard,
            Some(6_000),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    let t0 = Instant::now();
    let mut streams: Vec<TcpStream> = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let inst = io::write_pace_gr(&gen::random_gnp(18, 0.4, i as u64));
        s.write_all(
            solve_line(&format!("r{i}"), Objective::Treewidth, &inst, deadline_ms).as_bytes(),
        )
        .unwrap();
        streams.push(s);
    }

    let mut timeout = 0usize;
    let mut other = 0usize;
    for (i, s) in streams.iter_mut().enumerate() {
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let r = read_response(&mut reader);
        assert_eq!(r.id.as_deref(), Some(format!("r{i}").as_str()));
        match r.status {
            Status::Timeout => {
                timeout += 1;
                // synthesized by the loop at deadline + grace, never later
                assert!(
                    r.elapsed_ms < 4_000.0,
                    "r{i} expired late: {:.0}ms",
                    r.elapsed_ms
                );
            }
            Status::Ok | Status::Rejected => other += 1,
            s => panic!("connection {i}: unexpected status {}", s.name()),
        }
    }
    assert_eq!(timeout + other, n);
    assert!(
        timeout > n * 9 / 10,
        "worker is wedged: almost all of {n} must expire ({timeout} timeout, {other} other)"
    );
    // all n expiries resolve in a few seconds, not n * deadline
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline sweep took {:?}",
        t0.elapsed()
    );

    // the worker will eventually pop the expired jobs and try to answer
    // them again; those late completions must be dropped, not duplicated
    let b = blocker.join().unwrap();
    assert_eq!(b.status, Status::Ok, "{:?}", b.error);
    std::thread::sleep(Duration::from_millis(500));
    for (i, s) in streams.iter_mut().take(20).enumerate() {
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut buf = [0u8; 64];
        use std::io::Read;
        match s.read(&mut buf) {
            Ok(0) => {} // server closed: fine
            Ok(m) => panic!("connection {i} got {m} extra bytes: a duplicate response"),
            Err(_) => {} // nothing to read within 50ms: fine
        }
    }

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}

/// Graceful drain with a pipelined batch in flight: every admitted
/// request still gets its response (solved or expired) before the
/// server exits, and the connection sees a clean close afterwards.
#[test]
fn graceful_drain_answers_inflight_batch() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..loop_opts()
    });
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    assert_eq!(
        warm.solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
            .unwrap()
            .status,
        Status::Ok
    );

    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 321));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(solve_line("inflight", Objective::Treewidth, &hard, 800).as_bytes())
        .unwrap();
    for i in 0..3 {
        stream
            .write_all(solve_line(&format!("hit{i}"), Objective::Treewidth, &grid, 800).as_bytes())
            .unwrap();
    }
    // let the batch get admitted, then start the drain
    std::thread::sleep(Duration::from_millis(150));
    server.request_shutdown();

    let mut reader = BufReader::new(stream);
    let mut got: Vec<String> = (0..4)
        .map(|_| read_response(&mut reader))
        .map(|r| {
            assert!(
                r.status == Status::Ok || r.status == Status::Timeout,
                "{:?} for {:?}",
                r.status.name(),
                r.id
            );
            r.id.unwrap_or_default()
        })
        .collect();
    got.sort();
    assert_eq!(got, vec!["hit0", "hit1", "hit2", "inflight"]);
    // after the batch is answered the server closes the connection
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
    server.wait();
}

/// One connection pipelines 2 MiB of pings while a second connection
/// keeps pinging. The loop reads one bounded chunk per connection per
/// turn and splits frames in linear time, so the batch is answered in
/// full and the other connection is never starved behind it.
#[test]
fn pipelined_flood_does_not_starve_other_connections() {
    let (server, addr) = start(loop_opts());
    let frame = b"{\"cmd\":\"ping\"}\n";
    let frames = (2 << 20) / frame.len();

    let flood = TcpStream::connect(&addr).unwrap();
    flood
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = flood.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(&frame.repeat(frames)).unwrap());
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(flood);
        let mut line = String::new();
        for i in 0..frames {
            line.clear();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("pong {i} of {frames} not received: {e}"));
            assert!(line.contains("\"pong\""), "reply {i}: {line:?}");
        }
    });

    let mut probe = Client::connect(&addr).unwrap();
    let mut probes = 0;
    let mut slowest = Duration::ZERO;
    loop {
        let t = Instant::now();
        probe.ping().unwrap();
        slowest = slowest.max(t.elapsed());
        probes += 1;
        if reader.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    sender.join().unwrap();
    reader.join().unwrap();
    assert!(
        slowest < Duration::from_millis(500),
        "a ping waited {slowest:?} behind the pipelined batch ({probes} probes)"
    );

    probe.shutdown().unwrap();
    server.wait();
}

/// A small but highly symmetric instance — disjoint triangles — makes
/// canonicalization expensive: every triangle is a representative of the
/// one vertex class, refined at every level before the first leaf. The
/// loop hands parsing and canonicalization to a worker, so a second
/// connection's pings are answered while it runs. The instance is sized
/// to the build so that canonicalization takes about a second.
#[test]
fn symmetric_solve_does_not_stall_other_connections() {
    let (server, addr) = start(loop_opts());
    let triangles: usize = if cfg!(debug_assertions) { 60 } else { 140 };
    let mut instance = format!("p tw {} {}\n", 3 * triangles, 3 * triangles);
    for t in 0..triangles {
        let (a, b, c) = (3 * t + 1, 3 * t + 2, 3 * t + 3);
        instance.push_str(&format!("{a} {b}\n{b} {c}\n{a} {c}\n"));
    }

    let mut probe = Client::connect(&addr).unwrap();
    probe.ping().unwrap();
    let heavy = TcpStream::connect(&addr).unwrap();
    heavy
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&heavy)
        .write_all(solve_line("sym", Objective::Treewidth, &instance, 30_000).as_bytes())
        .unwrap();
    let solver = std::thread::spawn(move || read_response(&mut BufReader::new(heavy)));

    let mut slowest = Duration::ZERO;
    while !solver.is_finished() {
        let t = Instant::now();
        probe.ping().unwrap();
        slowest = slowest.max(t.elapsed());
        std::thread::sleep(Duration::from_millis(20));
    }
    let r = solver.join().unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_eq!(r.outcome.unwrap().upper, 2, "disjoint triangles have tw 2");
    assert!(
        slowest < Duration::from_millis(500),
        "a ping waited {slowest:?} behind the symmetric solve"
    );

    probe.shutdown().unwrap();
    server.wait();
}

/// A large `answer` frame must not hold the loop thread: the loop only
/// frames it and parses its JSON envelope, which is linear in the
/// frame's length, and the query itself is parsed and answered off the
/// loop. A second connection pings every 20 ms while the big request is
/// in flight; every ping must come back quickly, and the big request
/// must get a structured reply.
#[test]
fn large_answer_frame_does_not_stall_other_connections() {
    let (server, addr) = start(loop_opts());
    let target: usize = if cfg!(debug_assertions) {
        256 << 10
    } else {
        1 << 20
    };
    let mut query = String::from("Q() :- R(x, y), S(y, z).\nS: 1 2 ; 3 4 .\nR:");
    let mut i = 0usize;
    while query.len() < target {
        let sep = if i == 0 { " " } else { " ; " };
        query.push_str(&format!("{sep}{} {}", i % 1000, (i * 7) % 1000));
        i += 1;
    }
    query.push_str(" .\n");
    assert!(query.len() < 8 << 20, "stay well under the frame limit");

    let mut probe = Client::connect(&addr).unwrap();
    probe.ping().unwrap();
    let heavy_addr = addr.clone();
    let heavy = std::thread::spawn(move || {
        let mut client = Client::connect(&heavy_addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(120)));
        client.answer(&query, AnswerMode::Boolean, None, Some(60_000))
    });

    let mut slowest = Duration::ZERO;
    while !heavy.is_finished() {
        let t = Instant::now();
        probe.ping().unwrap();
        slowest = slowest.max(t.elapsed());
        std::thread::sleep(Duration::from_millis(20));
    }
    let r = heavy.join().unwrap().expect("a structured reply");
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(r.answer.expect("an answer").satisfiable);
    assert!(
        slowest < Duration::from_millis(500),
        "a ping waited {slowest:?} behind a {target} byte answer frame"
    );

    probe.shutdown().unwrap();
    server.wait();
}

/// A client that pipelines pings and never reads the replies must stall
/// on its own socket: the loop stops reading a connection whose
/// unflushed replies pass a fixed bound. Other connections are still
/// served, and the drain completes promptly once the flooder is gone.
#[test]
fn unread_replies_stall_the_writer_without_wedging_the_server() {
    let (server, addr) = start(loop_opts());
    let chunk = b"{\"cmd\":\"ping\"}\n".repeat((1 << 20) / 15);
    let mut flood = TcpStream::connect(&addr).unwrap();
    flood
        .set_write_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut accepted = 0usize;
    let mut stalled = false;
    'flood: while accepted < 256 << 20 {
        let mut rest = &chunk[..];
        while !rest.is_empty() {
            match flood.write(rest) {
                Ok(0) | Err(_) => {
                    stalled = true;
                    break 'flood;
                }
                Ok(n) => {
                    accepted += n;
                    rest = &rest[n..];
                }
            }
        }
    }
    assert!(
        stalled && accepted < 64 << 20,
        "{accepted} bytes of unread pings accepted (stalled: {stalled})"
    );

    let mut probe = Client::connect(&addr).unwrap();
    probe.set_read_timeout(Some(Duration::from_secs(5)));
    probe.ping().unwrap();
    drop(probe);

    drop(flood);
    server.request_shutdown();
    // wait() runs on a helper thread so a wedged drain fails the test
    // instead of hanging it
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("wait() must return within 5 s of the flooder disconnecting");
    waiter.join().unwrap();
}

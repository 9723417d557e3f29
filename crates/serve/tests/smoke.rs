//! End-to-end daemon tests: real sockets, real threads, ephemeral
//! ports. Each test starts its own server on `127.0.0.1:0` so they can
//! run concurrently.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use moldable_serve::json;
use moldable_serve::loadgen::{self, Client, LoadConfig, LoadMode};
use moldable_serve::proto::{self, GraphSpec, Request, SubmitRequest};
use moldable_serve::server::{Server, ServerConfig};
use moldable_serve::Accounting;

fn ephemeral(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port")
}

fn submit(shape: &str, size: u32, p: u32, seed: u64) -> Request {
    Request::Submit(Box::new(SubmitRequest {
        graph: GraphSpec::Named {
            shape: shape.into(),
            size,
        },
        p: Some(p),
        model: "amdahl".into(),
        seed,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }))
}

#[test]
fn submit_stats_shutdown_end_to_end() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let pong = client.call(&Request::Ping).unwrap();
    assert_eq!(pong.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));

    let reply = client.call(&submit("cholesky", 5, 32, 7)).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("ok"),
        "{reply:?}"
    );
    let makespan = reply.get("makespan").unwrap().as_f64().unwrap();
    let lb = reply.get("lower_bound").unwrap().as_f64().unwrap();
    assert!(makespan >= lb && lb > 0.0);

    let stats = client.call(&Request::Stats).unwrap();
    assert_eq!(stats.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(stats.get("draining").unwrap().as_bool(), Some(false));
    let s = stats.get("stats").unwrap();
    assert!(s.get("completed").unwrap().as_u64().unwrap() >= 1);
    assert!(s.get("connections").unwrap().as_u64().unwrap() >= 1);
    assert!(
        s.get("latency")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "latency histogram recorded the submit"
    );

    let bye = client.call(&Request::Shutdown).unwrap();
    assert_eq!(bye.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(bye.get("draining").unwrap().as_bool(), Some(true));
    assert!(server.is_draining());
    drop(client);
    server.join(); // must terminate — a hang here fails via test timeout
}

#[test]
fn zero_capacity_queue_always_replies_overloaded() {
    let server = ephemeral(ServerConfig {
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        let reply = client.call(&submit("chain", 4, 8, 1)).unwrap();
        assert_eq!(reply.get("status").unwrap().as_str(), Some("overloaded"));
    }
    let stats = client.call(&Request::Stats).unwrap();
    let rejected = stats
        .get("stats")
        .unwrap()
        .get("rejected_overload")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(rejected, 3, "every submit was rejected with backpressure");
    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn malformed_payload_gets_error_and_connection_survives() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    proto::write_frame(&mut stream, b"this is not json").unwrap();
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("error"));

    // The connection is still usable afterwards.
    proto::write_frame(&mut stream, b"{\"type\":\"ping\"}").unwrap();
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

    server.trigger_drain();
    drop(stream);
    server.join();
}

#[test]
fn deeply_nested_trace_json_gets_an_error_and_the_daemon_stays_up() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // An unknown key nested 100 000 deep: about 200 KB, under the
    // default frame cap.
    let depth = 100_000;
    let trace = format!(
        "{{\"x\": {}{}, \"tasks\": [{{\"id\": \"a\"}}]}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let mut deep = submit("cholesky", 5, 32, 7);
    let Request::Submit(req) = &mut deep else {
        unreachable!("submit builds a submit request")
    };
    req.graph = GraphSpec::TraceJson(trace);
    let reply = client.call(&deep).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("error"),
        "{reply:?}"
    );
    let msg = reply.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("nesting"), "{msg}");

    // The same daemon answers an ordinary submit.
    let reply = client.call(&submit("cholesky", 5, 32, 7)).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("ok"),
        "{reply:?}"
    );

    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn oversized_frame_gets_error_and_connection_survives() {
    let server = ephemeral(ServerConfig {
        max_frame: 128,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    let big = vec![b' '; 4096];
    proto::write_frame(&mut stream, &big).unwrap();
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
    assert!(
        v.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds limit"),
        "{v:?}"
    );

    proto::write_frame(&mut stream, b"{\"type\":\"ping\"}").unwrap();
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

    server.trigger_drain();
    drop(stream);
    server.join();
}

#[test]
fn corrupt_length_prefix_closes_the_connection() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    // Announce a frame bigger than the absolute ceiling.
    let bogus = (proto::ABSOLUTE_MAX_FRAME + 1).to_be_bytes();
    stream.write_all(&bogus).unwrap();
    stream.flush().unwrap();

    // The server sends a final error frame, then closes.
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("error"));

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "connection closed after the corrupt frame");

    server.trigger_drain();
    drop(stream);
    server.join();
}

#[test]
fn same_seed_same_makespan_across_connections() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut makespans = Vec::new();
    for _ in 0..3 {
        let mut client = Client::connect(&addr).unwrap();
        let reply = client.call(&submit("layered", 8, 64, 99)).unwrap();
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
        makespans.push(reply.get("makespan").unwrap().as_f64().unwrap());
    }
    assert!(
        makespans
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits()),
        "per-seed determinism across connections: {makespans:?}"
    );
    server.trigger_drain();
    server.join();
}

#[test]
fn loadgen_closed_loop_sustains_concurrent_clients() {
    let server = ephemeral(ServerConfig::default());
    let config = LoadConfig {
        addr: server.local_addr().to_string(),
        clients: 4,
        requests: 120,
        mode: LoadMode::Closed,
        shape: "cholesky".into(),
        size: 4,
        distinct_seeds: 8,
        ..LoadConfig::default()
    };
    let report = loadgen::run(&config).unwrap();
    assert_eq!(report.sent, 120);
    assert_eq!(report.ok, 120, "no drops under closed-loop load");
    assert_eq!(report.transport_failures, 0);
    assert_eq!(report.overloaded, 0);
    assert!(report.deterministic, "per-seed makespans bit-equal");
    assert_eq!(report.seeds_observed, 8);
    assert!(report.throughput_rps() > 0.0);
    let j = report.to_json(&config);
    assert_eq!(j.get("ok").unwrap().as_u64(), Some(120));
    server.trigger_drain();
    server.join();
}

#[test]
fn open_loop_overload_triggers_backpressure_not_drops() {
    // One worker, a one-slot queue, and requests arriving much faster
    // than a worker can drain them: the excess must surface as
    // `overloaded` replies, never dropped connections.
    let server = ephemeral(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    });
    let config = LoadConfig {
        addr: server.local_addr().to_string(),
        clients: 4,
        requests: 80,
        mode: LoadMode::Open(10_000.0),
        shape: "cholesky".into(),
        size: 8,
        p: 128,
        distinct_seeds: 4,
        ..LoadConfig::default()
    };
    let report = loadgen::run(&config).unwrap();
    assert_eq!(report.sent, 80);
    assert_eq!(report.transport_failures, 0, "backpressure, not drops");
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok + report.overloaded, 80);
    assert!(report.deterministic);
    server.trigger_drain();
    server.join();
}

#[test]
fn drain_refuses_new_submits_but_finishes_queued_work() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let ok = client.call(&submit("chain", 4, 8, 1)).unwrap();
    assert_eq!(ok.get("status").unwrap().as_str(), Some("ok"));

    server.trigger_drain();
    let refused = client.call(&submit("chain", 4, 8, 1)).unwrap();
    assert_eq!(refused.get("status").unwrap().as_str(), Some("error"));
    assert!(refused
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("draining"));
    drop(client);
    server.join();
}

fn accounting_of(client: &mut Client) -> Accounting {
    let stats = client.call(&Request::Stats).unwrap();
    Accounting::from_stats_json(&stats).expect("stats reply carries the ledger")
}

#[test]
fn injected_worker_panics_become_error_replies_and_pool_survives() {
    let server = ephemeral(ServerConfig::default());
    let pool = server.live_workers();
    assert!(pool >= 1);
    assert_eq!(server.fault_hooks().pending_panics(), 0);

    server.fault_hooks().arm_panics(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..2 {
        let reply = client.call(&submit("cholesky", 4, 16, 5)).unwrap();
        assert_eq!(
            reply.get("status").unwrap().as_str(),
            Some("error"),
            "{reply:?}"
        );
        assert!(reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panicked"));
    }
    assert_eq!(server.fault_hooks().pending_panics(), 0, "budget consumed");

    // Service recovered: the next submit succeeds and the worker pool
    // did not shrink (catch_unwind containment held).
    let reply = client.call(&submit("cholesky", 4, 16, 5)).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("ok"),
        "{reply:?}"
    );
    assert_eq!(server.live_workers(), pool, "no worker thread died");

    let ledger = accounting_of(&mut client);
    assert_eq!(ledger.submitted, 3);
    assert_eq!(ledger.ok, 1);
    assert_eq!(ledger.errors, 2);
    assert_eq!(ledger.drops, 0);
    assert!(ledger.balanced(), "{ledger:?}");

    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn timeout_skew_forces_timeouts_and_the_ledger_still_balances() {
    let server = ephemeral(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Skew past the configured timeout: the effective deadline is zero,
    // so the connection layer gives up while the worker still finishes
    // the job in the background — the worst-case accounting race.
    server
        .fault_hooks()
        .set_timeout_skew(Duration::from_secs(3600));
    let reply = client.call(&submit("cholesky", 6, 32, 9)).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("error"),
        "{reply:?}"
    );
    assert!(reply
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("timed out"));

    // Clearing the skew restores service.
    server.fault_hooks().set_timeout_skew(Duration::ZERO);
    let reply = client.call(&submit("cholesky", 6, 32, 9)).unwrap();
    assert_eq!(
        reply.get("status").unwrap().as_str(),
        Some("ok"),
        "{reply:?}"
    );

    let ledger = accounting_of(&mut client);
    assert_eq!(ledger.submitted, 2);
    assert_eq!(ledger.ok, 1);
    assert_eq!(
        ledger.errors, 1,
        "the timed-out request is an error, not lost"
    );
    assert!(ledger.balanced(), "{ledger:?}");

    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn loadgen_report_carries_a_balanced_ledger() {
    let server = ephemeral(ServerConfig::default());
    let config = LoadConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        requests: 20,
        mode: LoadMode::Closed,
        shape: "chain".into(),
        size: 4,
        distinct_seeds: 4,
        ..LoadConfig::default()
    };
    let report = loadgen::run(&config).unwrap();
    let ledger = report.accounting.expect("post-run stats snapshot");
    assert_eq!(ledger.submitted, 20);
    assert!(ledger.balanced(), "{ledger:?}");
    assert!(report.summary().contains("accounting: balanced"));
    server.trigger_drain();
    server.join();
}

/// Satellite check: the Chrome trace JSON emitted by
/// `Schedule::to_chrome_trace` must be valid JSON — verified here with
/// this crate's own strict parser (round-trip across two hand-rolled
/// JSON implementations).
#[test]
fn chrome_trace_output_parses_with_serve_json() {
    use moldable_core::OnlineScheduler;
    use moldable_graph::gen;
    use moldable_model::ModelClass;
    use moldable_sim::{simulate, SimOptions};

    let g = gen::by_name("lu", 4, ModelClass::Amdahl, 16, 3).unwrap();
    let mut s = OnlineScheduler::for_class(ModelClass::Amdahl);
    let schedule = simulate(&g, &mut s, &SimOptions::new(16).with_proc_ids()).unwrap();
    let trace = schedule.to_chrome_trace(|i| format!("task \"{i}\"\n"));

    let v = json::parse(&trace).expect("trace is valid JSON");
    let events = v.as_arr().expect("trace is a JSON array");
    assert!(!events.is_empty());
    let total_lanes: u64 = schedule.placements.iter().map(|p| u64::from(p.procs)).sum();
    assert_eq!(events.len() as u64, total_lanes, "one event per lane");
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert!(
            ev.get("args")
                .unwrap()
                .get("procs")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );
        // The escaped label survived parsing.
        assert!(
            ev.get("name")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("task \\\"")
                || ev
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("task \"")
        );
    }
    // Round-trip: re-encoding still parses.
    assert!(json::parse(&v.encode()).is_ok());
}

#[test]
fn a_client_that_never_reads_its_replies_is_throttled_then_resumed() {
    // Pipelined pings whose replies are never read: the daemon must
    // stop reading the connection once its unsent replies pile up, so
    // the client's own writes block long before 64 MiB is sent.
    const BUDGET: usize = 64 << 20;
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, &Request::Ping.encode()).unwrap();
    let chunk = frame.repeat(4096);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut sent = 0;
    let mut in_chunk = 0;
    let mut blocked = false;
    while sent < BUDGET {
        match stream.write(&chunk[in_chunk..]) {
            Ok(n) => {
                sent += n;
                in_chunk = (in_chunk + n) % chunk.len();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                blocked = true;
                break;
            }
            Err(e) => panic!("write failed after {sent} bytes: {e}"),
        }
    }
    assert!(
        blocked,
        "the daemon swallowed {sent} bytes of pings without backpressure"
    );

    // Other clients are still served meanwhile.
    let mut other = Client::connect(&addr).unwrap();
    let pong = other.call(&Request::Ping).unwrap();
    assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));

    // Reading the replies lets the stalled connection resume: finish
    // the partly sent chunk and every ping gets its pong.
    let unsent = (chunk.len() - in_chunk) % chunk.len();
    let frames = (sent + unsent) / frame.len();
    let mut reader = stream.try_clone().unwrap();
    let drain = std::thread::spawn(move || {
        reader
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for i in 0..frames {
            let reply = proto::read_frame(&mut reader, proto::ABSOLUTE_MAX_FRAME)
                .unwrap_or_else(|e| panic!("reply {i} of {frames}: {e}"))
                .expect("connection closed early");
            let reply = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
            assert_eq!(reply.get("pong").and_then(json::Json::as_bool), Some(true));
        }
    });
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&chunk[chunk.len() - unsent..]).unwrap();
    drain.join().expect("every pipelined ping answered");
    drop(stream);
    server.trigger_drain();
    server.join();
}

#[test]
fn a_frame_stalled_mid_prefix_is_closed_after_the_frame_timeout() {
    // Two bytes of a length prefix, then silence: the daemon closes the
    // connection once the frame has been arriving for FRAME_TIMEOUT
    // (10 s), instead of holding it open forever.
    let server = ephemeral(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&[0, 0]).unwrap();
    let t0 = std::time::Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(11)))
        .unwrap();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n}-byte reply to half a prefix"),
        Err(e) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset,
            "still open after {:?}",
            t0.elapsed()
        ),
    }
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_secs(9),
        "closed too early: {waited:?}"
    );
    server.trigger_drain();
    server.join();
}

//! Wire pins: every observable behaviour of the daemon — structured
//! replies, backpressure, drain refusals, frame-error handling,
//! connection lifecycle, session verbs — replayed as fixed wire
//! scripts. Each script's raw reply bytes must be identical with one
//! worker and with four, and must hash to a pinned FNV-1a-64 value
//! (the strongest possible comparison: bit-equal makespans fall out of
//! byte-equal replies). The pins were recorded from the
//! thread-per-connection transport and the epoll loop when both still
//! existed and agreed byte for byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use moldable_serve::json::Json;
use moldable_serve::proto::{self, GraphSpec, Request, SubmitRequest};
use moldable_serve::server::{Server, ServerConfig};
use moldable_serve::{Accounting, WorkerContext};

/// Every script runs once per worker count; the transcripts must agree.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn start(workers: usize, tweak: impl Fn(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::start(config).expect("bind ephemeral port")
}

fn submit(seed: u64) -> Request {
    Request::Submit(Box::new(SubmitRequest {
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: 5,
        },
        p: Some(32),
        model: "amdahl".into(),
        seed,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }))
}

/// Send `payload` as one frame and return the raw reply bytes (or a
/// marker when the server closed / stayed silent instead).
fn roundtrip(stream: &mut TcpStream, payload: &[u8]) -> String {
    proto::write_frame(stream, payload).expect("write frame");
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match proto::read_frame(stream, proto::ABSOLUTE_MAX_FRAME) {
        Ok(Some(bytes)) => String::from_utf8(bytes).expect("utf8 reply"),
        Ok(None) => "<closed>".to_string(),
        Err(_) => "<error>".to_string(),
    }
}

/// FNV-1a-64 over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `script` once per worker count, assert the transcripts are
/// byte-identical, and assert their fingerprint (FNV-1a-64 over the
/// replies joined by newlines) equals `pin`.
fn assert_pinned(
    pin: u64,
    tweak: impl Fn(&mut ServerConfig) + Copy,
    script: impl Fn(&Server, &str) -> Vec<String>,
) {
    let mut transcripts = Vec::new();
    for workers in WORKER_COUNTS {
        let server = start(workers, tweak);
        let addr = server.local_addr().to_string();
        let transcript = script(&server, &addr);
        assert!(!transcript.is_empty(), "script produced no observations");
        if !server.is_draining() {
            server.trigger_drain();
        }
        server.join();
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "1 and {} workers disagree on the same wire script",
        WORKER_COUNTS[1]
    );
    let got = fnv1a(transcripts[0].join("\n").into_bytes());
    assert_eq!(
        got, pin,
        "transcript fingerprint {got:#018x} != pinned {pin:#018x}; transcript:\n{:#?}",
        transcripts[0]
    );
}

#[test]
fn smoke_corpus_replies_are_pinned() {
    assert_pinned(
        0x6012_0c78_75eb_59a7,
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            // Control verbs and clean submits (repeated seed checks
            // determinism through the same worker shard).
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            for seed in [7, 8, 7] {
                out.push(roundtrip(&mut stream, &submit(seed).encode()));
            }
            // Malformed JSON draws an error and the connection lives.
            out.push(roundtrip(&mut stream, b"this is not json"));
            out.push(roundtrip(&mut stream, b"{\"type\":\"nonsense\"}"));
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            out
        },
    );
}

#[test]
fn batch_frames_are_pinned_including_mixed_errors() {
    assert_pinned(
        0xf4c7_6658_aa08_8569,
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            // Empty batch.
            out.push(roundtrip(&mut stream, &Request::Batch(Vec::new()).encode()));
            // Mixed batch: ok, garbage item, ok — the envelope must
            // come back ok with a per-item error in the middle.
            let mixed = Request::Batch(vec![
                submit(3).encode(),
                b"{\"type\":\"broken\"".to_vec(),
                submit(4).encode(),
            ]);
            out.push(roundtrip(&mut stream, &mixed.encode()));
            // A nested batch is refused per item, not executed.
            let nested = Request::Batch(vec![Request::Batch(vec![submit(3).encode()]).encode()]);
            out.push(roundtrip(&mut stream, &nested.encode()));
            // Inline verbs ride inside batches too.
            let verbs = Request::Batch(vec![Request::Ping.encode(), submit(5).encode()]);
            out.push(roundtrip(&mut stream, &verbs.encode()));
            out
        },
    );
}

#[test]
fn overload_backpressure_is_pinned() {
    assert_pinned(
        0xcbe0_af15_8355_c64f,
        |c| c.queue_cap = 0,
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(roundtrip(&mut stream, &submit(1).encode()));
            }
            // A whole batch bounces off the full queue as one
            // `overloaded` envelope.
            let batch = Request::Batch(vec![submit(1).encode(), submit(2).encode()]);
            out.push(roundtrip(&mut stream, &batch.encode()));
            // Backpressure never kills the connection.
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            out
        },
    );
}

#[test]
fn drain_refusals_are_pinned() {
    assert_pinned(
        0xf821_3d5e_69a4_bba8,
        |_| {},
        |server, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            out.push(roundtrip(&mut stream, &submit(2).encode()));
            server.trigger_drain();
            // Refusals arrive inside the drain grace window.
            out.push(roundtrip(&mut stream, &submit(2).encode()));
            out.push(roundtrip(
                &mut stream,
                &Request::Batch(vec![submit(2).encode()]).encode(),
            ));
            out
        },
    );
}

#[test]
fn frame_errors_and_close_policy_are_pinned() {
    // Oversized (within the absolute ceiling): error reply, connection
    // survives. Implausible length: final error reply, then close.
    assert_pinned(
        0x0d69_dd70_be43_87f9,
        |c| c.max_frame = 128,
        |_, addr| {
            let mut out = Vec::new();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            out.push(roundtrip(&mut stream, &vec![b' '; 4096]));
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            drop(stream);

            // Zero-length frame on a fresh connection.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&0u32.to_be_bytes()).expect("announce");
            stream.flush().ok();
            out.push(read_reply(&mut stream));
            drop(stream);

            // Corrupt (absurd) length prefix: error then close.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(&(proto::ABSOLUTE_MAX_FRAME + 1).to_be_bytes())
                .expect("announce");
            stream.flush().ok();
            out.push(read_reply(&mut stream));
            let mut rest = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let n = stream.read_to_end(&mut rest).unwrap_or(usize::MAX);
            out.push(format!("post-error bytes: {n}"));
            out
        },
    );
}

#[test]
fn session_verbs_are_pinned() {
    assert_pinned(
        0xd0dc_fb9a_ded2_797a,
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            let open = r#"{"type":"open_session","tenant":"t0","session":"s0"}"#;
            out.push(roundtrip(&mut stream, open.as_bytes()));
            for (at, seed) in [(0.0, 11u64), (1.0, 12)] {
                let dag = format!(
                    concat!(
                        "{{\"type\":\"submit_dag\",\"session\":\"s0\",\"at\":{at},",
                        "\"graph\":{{\"shape\":\"chain\",\"size\":3}},",
                        "\"model\":\"amdahl\",\"seed\":{seed},\"algo\":\"icpp22\"}}"
                    ),
                    at = at,
                    seed = seed
                );
                out.push(roundtrip(&mut stream, dag.as_bytes()));
            }
            let close = r#"{"type":"close_session","session":"s0"}"#;
            out.push(roundtrip(&mut stream, close.as_bytes()));
            // Drain the deterministic event log to `closed` (the
            // encoder writes no whitespace).
            let mut closed = false;
            for _ in 0..100 {
                let poll = r#"{"type":"poll","session":"s0","max_events":64}"#;
                let reply = roundtrip(&mut stream, poll.as_bytes());
                closed = reply.contains("\"closed\":true");
                out.push(reply);
                if closed {
                    break;
                }
            }
            assert!(closed, "the session never reported closed");
            out
        },
    );
}

#[test]
fn one_byte_at_a_time_torture_is_pinned() {
    assert_pinned(
        0x8443_8618_5b4a_c7f5,
        |_| {},
        |_, addr| {
            let mut out = Vec::new();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let frames: Vec<Vec<u8>> = vec![
                Request::Ping.encode(),
                submit(6).encode(),
                Request::Batch(vec![submit(6).encode(), Request::Ping.encode()]).encode(),
            ];
            for payload in frames {
                let mut frame = Vec::with_capacity(4 + payload.len());
                frame.extend_from_slice(
                    &u32::try_from(payload.len())
                        .expect("fits u32")
                        .to_be_bytes(),
                );
                frame.extend_from_slice(&payload);
                // The decoder must survive maximal fragmentation: one
                // byte per write, flushed every time.
                for b in frame {
                    stream.write_all(&[b]).expect("write byte");
                    stream.flush().ok();
                }
                out.push(read_reply(&mut stream));
            }
            out
        },
    );
}

#[test]
fn batched_and_unbatched_makespans_are_bit_equal_to_a_bare_worker_context() {
    // The wire (plain or batched, any worker count) must not perturb a
    // single scheduling decision relative to an in-process worker.
    let mut ctx = WorkerContext::new();
    let expected: Vec<f64> = (0..4)
        .map(|seed| {
            let r = ctx.handle(&match submit(seed) {
                Request::Submit(req) => *req,
                _ => unreachable!(),
            });
            r.get("makespan").and_then(Json::as_f64).expect("makespan")
        })
        .collect();
    let pin = fnv1a(expected.iter().flat_map(|m| m.to_bits().to_le_bytes()));
    assert_eq!(
        pin, 0xcc0c_2e71_de36_16db,
        "bare WorkerContext makespans moved: {expected:?}"
    );

    for workers in WORKER_COUNTS {
        let server = start(workers, |_| {});
        let addr = server.local_addr().to_string();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        for (seed, want) in expected.iter().enumerate() {
            let reply = roundtrip(&mut stream, &submit(seed as u64).encode());
            let v = moldable_serve::json::parse(&reply).expect("reply json");
            let got = v.get("makespan").and_then(Json::as_f64).expect("makespan");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{workers} workers: seed {seed} diverged from WorkerContext"
            );
        }
        // Batched path too.
        let batch = Request::Batch((0..4).map(|s| submit(s).encode()).collect());
        let reply = roundtrip(&mut stream, &batch.encode());
        let v = moldable_serve::json::parse(&reply).expect("reply json");
        let results = v.get("results").and_then(Json::as_arr).expect("results");
        for (seed, (r, want)) in results.iter().zip(&expected).enumerate() {
            let got = r.get("makespan").and_then(Json::as_f64).expect("makespan");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{workers} workers: batched seed {seed} diverged"
            );
        }
        server.trigger_drain();
        drop(stream);
        server.join();
    }
}

#[test]
fn accounting_ledger_at_quiescence_is_pinned() {
    for workers in WORKER_COUNTS {
        // Ample queue: whether a frame lands `overloaded` with a tiny
        // queue depends on worker timing, and overload already has its
        // own deterministic (cap 0) pin above.
        let server = start(workers, |_| {});
        let addr = server.local_addr().to_string();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        // A deterministic mixed diet: ok submits, a parse error, a
        // mixed batch, an empty batch.
        roundtrip(&mut stream, &submit(1).encode());
        roundtrip(&mut stream, b"not json");
        roundtrip(
            &mut stream,
            &Request::Batch(vec![submit(2).encode(), b"broken".to_vec()]).encode(),
        );
        roundtrip(&mut stream, &Request::Batch(Vec::new()).encode());
        let stats = roundtrip(&mut stream, &Request::Stats.encode());
        let v = moldable_serve::json::parse(&stats).expect("stats json");
        let ledger = Accounting::from_stats_json(&v).expect("ledger");
        assert!(ledger.balanced(), "{workers} workers: {ledger:?}");
        let body = v.get("stats").expect("stats body");
        let counter = |k: &str| body.get(k).and_then(Json::as_u64).expect(k);
        let got = (
            ledger.submitted,
            ledger.ok,
            ledger.errors,
            ledger.drops,
            counter("batches"),
            counter("batch_items"),
            counter("errors"),
        );
        // (submitted, ok, errors, drops, batches, batch_items, errors)
        assert_eq!(got, (2, 2, 0, 0, 1, 2, 2), "{workers} workers");
        server.trigger_drain();
        drop(stream);
        server.join();
    }
}

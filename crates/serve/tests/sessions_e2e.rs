//! End-to-end streaming-session tests: real sockets, real threads,
//! ephemeral ports. Each test starts its own daemon on `127.0.0.1:0`.
//!
//! The session layer's contract under test:
//!
//! * multiple tenants stream DAGs (generated, inline `.mtg`, and
//!   workflow traces) onto one shared simulated platform and read back
//!   incremental completions;
//! * quota violations surface as structured `quota_exceeded` replies,
//!   never dropped connections;
//! * the merged event log is a pure function of the workload — two
//!   fresh servers given the same workload emit byte-identical logs;
//! * the one-shot `submit` path is byte-identical to the pre-session
//!   service (the streaming layer rides alongside, it does not wrap).

use std::net::TcpStream;

use moldable_model::ModelClass;
use moldable_serve::json::{self, Json};
use moldable_serve::loadgen::{self, Client, SessionLoadConfig};
use moldable_serve::proto::{
    self, CloseSessionRequest, GraphSpec, OpenSessionRequest, PollRequest, Request,
    SubmitDagRequest, SubmitRequest,
};
use moldable_serve::server::{Server, ServerConfig};
use moldable_serve::WorkerContext;
use moldable_tenant::TenantConfig;

fn ephemeral(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port")
}

fn open(tenant: &str, session: &str) -> Request {
    Request::OpenSession(OpenSessionRequest {
        tenant: tenant.into(),
        session: session.into(),
    })
}

fn submit_named(session: &str, at: f64, seed: u64) -> Request {
    Request::SubmitDag(Box::new(SubmitDagRequest {
        session: session.into(),
        at,
        graph: GraphSpec::Named {
            shape: "chain".into(),
            size: 3,
        },
        model: "amdahl".into(),
        seed,
        algo: "icpp22".into(),
    }))
}

fn poll(session: &str, until: Option<f64>) -> Request {
    Request::Poll(PollRequest {
        session: session.into(),
        until,
        max_events: 1024,
    })
}

fn close(session: &str) -> Request {
    Request::CloseSession(CloseSessionRequest {
        session: session.into(),
    })
}

/// Poll until the session reports `closed`, returning all events.
fn drain(client: &mut Client, session: &str) -> Vec<Json> {
    let mut events = Vec::new();
    for _ in 0..1000 {
        let r = client.call(&poll(session, None)).unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        events.extend(r.get("events").unwrap().as_arr().unwrap().iter().cloned());
        if r.get("closed").unwrap().as_bool() == Some(true) {
            return events;
        }
    }
    panic!("session `{session}` never closed");
}

#[test]
fn two_tenants_stream_mixed_graph_kinds_end_to_end() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let r = client.call(&open("acme", "acme-s0")).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    assert!(r.get("quotas").unwrap().get("max_dags_in_flight").is_some());
    let r = client.call(&open("globex", "globex-s0")).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");

    // Tenant acme streams an inline `.mtg` workflow…
    let r = client
        .call(&Request::SubmitDag(Box::new(SubmitDagRequest {
            session: "acme-s0".into(),
            at: 0.0,
            graph: GraphSpec::Inline(
                "p 8\ntask 0 amdahl(w=4, d=1)\ntask 1 amdahl(w=2, d=0.5)\nedge 0 1\n".into(),
            ),
            model: "amdahl".into(),
            seed: 1,
            algo: "icpp22".into(),
        })))
        .unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(2));

    // …tenant globex a workflow trace (DOT) on the same platform.
    let r = client
        .call(&Request::SubmitDag(Box::new(SubmitDagRequest {
            session: "globex-s0".into(),
            at: 0.0,
            graph: GraphSpec::TraceDot("digraph g { a -> b; a -> c; b -> d; c -> d; }".into()),
            model: "amdahl".into(),
            seed: 2,
            algo: "icpp22".into(),
        })))
        .unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(4));

    // Both sessions advance their frontiers: the shared clock is the
    // minimum, so after both polls every task can finish. Polled
    // events are consumed, so keep them.
    let mut acme_events = Vec::new();
    let mut globex_events = Vec::new();
    let r = client.call(&poll("acme-s0", Some(1e9))).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    acme_events.extend(r.get("events").unwrap().as_arr().unwrap().iter().cloned());
    let r = client.call(&poll("globex-s0", Some(1e9))).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    globex_events.extend(r.get("events").unwrap().as_arr().unwrap().iter().cloned());

    for session in ["acme-s0", "globex-s0"] {
        let r = client.call(&close(session)).unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    }
    acme_events.extend(drain(&mut client, "acme-s0"));
    globex_events.extend(drain(&mut client, "globex-s0"));
    // n tasks + 1 dag_done each.
    assert_eq!(acme_events.len(), 3, "{acme_events:?}");
    assert_eq!(globex_events.len(), 5, "{globex_events:?}");
    for events in [&acme_events, &globex_events] {
        assert_eq!(
            events.last().unwrap().get("type").unwrap().as_str(),
            Some("dag_done")
        );
    }

    // The stats reply carries per-tenant ledgers, balanced at rest.
    let stats = client.call(&Request::Stats).unwrap();
    let sessions = stats.get("sessions").unwrap();
    for tenant in ["acme", "globex"] {
        let l = sessions.get("ledgers").unwrap().get(tenant).unwrap();
        assert_eq!(l.get("submitted").unwrap().as_u64(), Some(1));
        assert_eq!(l.get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(l.get("balanced").unwrap().as_bool(), Some(true), "{l:?}");
    }
    let s = stats.get("stats").unwrap();
    assert_eq!(s.get("sessions_opened").unwrap().as_u64(), Some(2));
    assert_eq!(s.get("session_dags_admitted").unwrap().as_u64(), Some(2));

    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn quota_rejections_are_structured_over_tcp() {
    let mut tenant = TenantConfig::new(64, ModelClass::Amdahl.optimal_mu());
    tenant.quotas.max_dags_in_flight = 1;
    let server = ephemeral(ServerConfig {
        tenant,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let r = client.call(&open("acme", "s0")).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    let r = client.call(&submit_named("s0", 0.0, 1)).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");

    // The first DAG is still in flight (the session's own frontier
    // pins the clock at 0), so the second bounces on the quota.
    let r = client.call(&submit_named("s0", 0.0, 2)).unwrap();
    assert_eq!(
        r.get("status").unwrap().as_str(),
        Some("quota_exceeded"),
        "{r:?}"
    );
    assert_eq!(r.get("scope").unwrap().as_str(), Some("dags"));
    assert_eq!(r.get("used").unwrap().as_u64(), Some(1));
    assert_eq!(r.get("limit").unwrap().as_u64(), Some(1));

    let r = client.call(&close("s0")).unwrap();
    assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    drain(&mut client, "s0");

    let stats = client.call(&Request::Stats).unwrap();
    let l = stats
        .get("sessions")
        .unwrap()
        .get("ledgers")
        .unwrap()
        .get("acme")
        .unwrap();
    assert_eq!(l.get("submitted").unwrap().as_u64(), Some(2));
    assert_eq!(l.get("ok").unwrap().as_u64(), Some(1));
    assert_eq!(l.get("drops").unwrap().as_u64(), Some(1));
    assert_eq!(l.get("balanced").unwrap().as_bool(), Some(true), "{l:?}");

    server.trigger_drain();
    drop(client);
    server.join();
}

#[test]
fn corrupt_frame_then_session_verbs_on_the_same_connection() {
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    proto::write_frame(&mut stream, b"{{{ not json").unwrap();
    let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let v = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("error"));

    // The connection survives and speaks session verbs afterwards.
    let mut call = |req: &Request| -> Json {
        proto::write_frame(&mut stream, &req.encode()).unwrap();
        let reply = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        json::parse(std::str::from_utf8(&reply).unwrap()).unwrap()
    };
    assert_eq!(
        call(&open("acme", "s0")).get("status").unwrap().as_str(),
        Some("ok")
    );
    assert_eq!(
        call(&submit_named("s0", 0.0, 3))
            .get("status")
            .unwrap()
            .as_str(),
        Some("ok")
    );
    assert_eq!(
        call(&close("s0")).get("status").unwrap().as_str(),
        Some("ok")
    );
    let mut closed = false;
    for _ in 0..1000 {
        let r = call(&poll("s0", None));
        if r.get("closed").unwrap().as_bool() == Some(true) {
            closed = true;
            break;
        }
    }
    assert!(closed, "session drained after the corrupt frame");

    server.trigger_drain();
    drop(stream);
    server.join();
}

#[test]
fn fresh_servers_replay_the_same_workload_to_identical_event_logs() {
    let run = || {
        let server = ephemeral(ServerConfig::default());
        let config = SessionLoadConfig {
            addr: server.local_addr().to_string(),
            tenants: 2,
            sessions_per_tenant: 3,
            dags_per_session: 2,
            size: 3,
            threads: 3,
            ..SessionLoadConfig::default()
        };
        let report = loadgen::run_sessions(&config).unwrap();
        server.trigger_drain();
        server.join();
        report
    };
    let (a, b) = (run(), run());
    assert_eq!(a.sessions_opened, 6);
    assert_eq!(a.dags_submitted, 12);
    assert_eq!(a.dags_ok, 12, "no quotas in play: every DAG admitted");
    assert_eq!(a.errors, 0);
    assert!(a.ledgers_balanced, "{:?}", a.ledgers);
    assert!(!a.event_log.is_empty());
    // 12 chain-3 DAGs: 3 task_done + 1 dag_done each.
    assert_eq!(a.events, 12 * 4);
    assert_eq!(
        a.event_log, b.event_log,
        "same workload on a fresh server must replay byte-identically"
    );
}

#[test]
fn session_event_log_fingerprints_are_pinned_per_algorithm() {
    // The merged event log is a pure function of (workload, algorithm):
    // one pinned FNV-1a fingerprint per registered algorithm. Any
    // change to either allocation rule, the session scheduler, or the
    // event-log format moves these constants — and the two algorithms
    // must NOT collide, or the `algo` field isn't reaching the
    // per-DAG allocation path at all.
    let run = |algo: &str| {
        let server = ephemeral(ServerConfig::default());
        let config = SessionLoadConfig {
            addr: server.local_addr().to_string(),
            tenants: 1,
            sessions_per_tenant: 2,
            dags_per_session: 2,
            size: 4,
            threads: 1,
            algo: algo.to_string(),
            ..SessionLoadConfig::default()
        };
        let report = loadgen::run_sessions(&config).unwrap();
        server.trigger_drain();
        server.join();
        report
    };
    let mut fingerprints = Vec::new();
    for algo in moldable_core::registry::ALGOS.map(|a| a.name()) {
        let report = run(algo);
        assert!(report.ledgers_balanced, "{algo}: {:?}", report.ledgers);
        assert_eq!(report.dags_ok, 4, "{algo}");
        fingerprints.push((algo, loadgen::event_log_fingerprint(&report.event_log)));
    }
    assert_eq!(
        fingerprints,
        vec![
            ("icpp22", 0x80e1_2fcd_be93_b615),
            ("improved23", 0xcb43_53bf_7649_0e33),
        ],
        "per-algorithm session event logs drifted (fingerprints in hex: {:x?})",
        fingerprints.iter().map(|(_, f)| f).collect::<Vec<_>>()
    );
}

#[test]
fn one_shot_submit_replies_are_bit_equal_to_the_service_layer() {
    // The streaming layer must not perturb the one-shot path: the TCP
    // reply bytes equal a direct `WorkerContext::handle` encoding.
    let server = ephemeral(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    let req = SubmitRequest {
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: 4,
        },
        p: Some(16),
        model: "amdahl".into(),
        seed: 7,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    };
    proto::write_frame(
        &mut stream,
        &Request::Submit(Box::new(req.clone())).encode(),
    )
    .unwrap();
    let wire = proto::read_frame(&mut stream, 1 << 20).unwrap().unwrap();

    let direct = WorkerContext::new().handle(&req).encode();
    assert_eq!(
        wire,
        direct.into_bytes(),
        "one-shot submit bytes unchanged by the session layer"
    );

    server.trigger_drain();
    drop(stream);
    server.join();
}

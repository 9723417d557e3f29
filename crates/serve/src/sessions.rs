//! The serve-side session hub: streaming multi-tenant DAG arrivals
//! over the wire.
//!
//! [`SessionHub`] owns the daemon's single [`TenantService`] — one
//! shared simulated platform that every tenant's sessions contend on —
//! and translates the four session verbs (`open_session`,
//! `submit_dag`, `poll`, `close_session`) between wire JSON and the
//! tenant layer. Graphs are built *outside* the service mutex, so an
//! expensive generator or trace parse never blocks other sessions'
//! polls; only admission and event drains hold the lock.
//!
//! Admission outcomes are mirrored into [`ServerStats`] with the same
//! exactly-one-outcome discipline the one-shot submit path uses:
//! every `submit_dag` frame bumps `session_dags_submitted` and then
//! exactly one of `session_dags_admitted`,
//! `session_dags_rejected_quota`, or `session_dags_errors`.

use std::sync::Mutex;
use std::time::Instant;

use moldable_tenant::{EventKind, Ledger, PollReply, TenantConfig, TenantError, TenantService};

use crate::json::{obj, write_num, Json};
use crate::proto::{
    error_reply, quota_reply, CloseSessionRequest, OpenSessionRequest, PollRequest,
    SubmitDagRequest,
};
use crate::service::{build_graph, ServiceLimits};
use crate::stats::ServerStats;

/// The shared session layer of one server.
pub struct SessionHub {
    svc: Mutex<TenantService>,
    limits: ServiceLimits,
    p_total: u32,
    started: Instant,
}

impl SessionHub {
    /// A fresh hub over an empty world.
    #[must_use]
    pub fn new(cfg: TenantConfig, limits: ServiceLimits) -> Self {
        Self {
            svc: Mutex::new(TenantService::new(cfg)),
            limits,
            p_total: cfg.p_total,
            // lint:allow(no-wall-clock) feeds idle-session reaping and uptime stats only; virtual scheduling time comes from the Stepper
            started: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Handle `open_session`, returning the reply payload.
    pub fn open(&self, req: &OpenSessionRequest, stats: &ServerStats) -> Vec<u8> {
        let now_ms = self.now_ms();
        let mut svc = self.svc.lock().expect("session service poisoned");
        svc.tick(now_ms);
        match svc.open_session(&req.tenant, &req.session, now_ms) {
            Ok(r) => {
                ServerStats::bump(&stats.sessions_opened);
                #[allow(clippy::cast_precision_loss)]
                obj(vec![
                    ("status", Json::Str("ok".into())),
                    ("session", Json::Str(req.session.clone())),
                    ("now", Json::Num(r.now)),
                    (
                        "quotas",
                        obj(vec![
                            ("max_sessions", Json::Num(f64::from(r.quotas.max_sessions))),
                            (
                                "max_dags_in_flight",
                                Json::Num(f64::from(r.quotas.max_dags_in_flight)),
                            ),
                            (
                                "max_tasks_in_flight",
                                Json::Num(r.quotas.max_tasks_in_flight as f64),
                            ),
                        ]),
                    ),
                ])
                .encode()
                .into_bytes()
            }
            Err(e) => tenant_error_reply(&e),
        }
    }

    /// Handle `submit_dag`, returning the reply payload. The graph is
    /// built — and the `algo` name resolved — before the service lock
    /// is taken, so a malformed request never blocks other sessions.
    pub fn submit_dag(&self, req: &SubmitDagRequest, stats: &ServerStats) -> Vec<u8> {
        ServerStats::bump(&stats.session_dags_submitted);
        // Session DAGs run on the shared platform, so `p` is the hub's
        // `p_total` throughout.
        let checked = moldable_core::registry::by_name(&req.algo).and_then(|algo| {
            let p = Some(self.p_total);
            let built = build_graph(&req.graph, &req.model, req.seed, p, &self.limits, None)?;
            Ok((algo, built.graph))
        });
        let (algo, graph) = match checked {
            Ok(checked) => checked,
            Err(msg) => {
                ServerStats::bump(&stats.session_dags_errors);
                return error_reply(&msg);
            }
        };
        let now_ms = self.now_ms();
        let mut svc = self.svc.lock().expect("session service poisoned");
        svc.tick(now_ms);
        match svc.submit_dag(&req.session, graph, req.at, algo, now_ms) {
            Ok(r) => {
                ServerStats::bump(&stats.session_dags_admitted);
                obj(vec![
                    ("status", Json::Str("ok".into())),
                    ("dag", Json::Num(f64::from(r.dag))),
                    ("n_tasks", Json::Num(f64::from(r.n_tasks))),
                ])
                .encode()
                .into_bytes()
            }
            Err(e) => {
                if e.is_quota() {
                    ServerStats::bump(&stats.session_dags_rejected_quota);
                } else {
                    ServerStats::bump(&stats.session_dags_errors);
                }
                tenant_error_reply(&e)
            }
        }
    }

    /// Handle `poll`, returning the reply payload.
    pub fn poll(&self, req: &PollRequest, stats: &ServerStats) -> Vec<u8> {
        let now_ms = self.now_ms();
        let until = req.until.unwrap_or(f64::NEG_INFINITY);
        let max_events = usize::try_from(req.max_events).unwrap_or(usize::MAX);
        let polled = {
            let mut svc = self.svc.lock().expect("session service poisoned");
            svc.tick(now_ms);
            svc.poll(&req.session, until, max_events, now_ms)
        };
        match polled {
            Ok(r) => {
                stats
                    .session_events_delivered
                    .fetch_add(r.events.len() as u64, std::sync::atomic::Ordering::Relaxed);
                poll_reply(&r)
            }
            Err(e) => tenant_error_reply(&e),
        }
    }

    /// Handle `close_session`, returning the reply payload.
    pub fn close(&self, req: &CloseSessionRequest, stats: &ServerStats) -> Vec<u8> {
        let now_ms = self.now_ms();
        let mut svc = self.svc.lock().expect("session service poisoned");
        svc.tick(now_ms);
        match svc.close_session(&req.session, now_ms) {
            Ok(r) => {
                ServerStats::bump(&stats.sessions_closed);
                #[allow(clippy::cast_precision_loss)]
                obj(vec![
                    ("status", Json::Str("ok".into())),
                    ("dags_admitted", Json::Num(f64::from(r.dags_admitted))),
                    ("dags_in_flight", Json::Num(f64::from(r.dags_in_flight))),
                    ("pending_events", Json::Num(r.pending_events as f64)),
                ])
                .encode()
                .into_bytes()
            }
            Err(e) => tenant_error_reply(&e),
        }
    }

    /// Close every session (the server is draining). In-flight DAGs
    /// run to completion; buffered events stay pollable.
    pub fn drain(&self) {
        let now_ms = self.now_ms();
        let mut svc = self.svc.lock().expect("session service poisoned");
        // A wedged platform is already reported per-request; drain is
        // best-effort.
        let _ = svc.drain(now_ms);
    }

    /// The session-layer block of the `stats` reply: the service
    /// summary plus every tenant's accounting ledger.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let svc = self.svc.lock().expect("session service poisoned");
        let s = svc.summary();
        let ledgers: Vec<(String, Json)> = svc
            .ledgers()
            .map(|(name, l)| (name.to_string(), ledger_json(l)))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        obj(vec![
            ("sessions_open", Json::Num(s.sessions_open as f64)),
            ("sessions_draining", Json::Num(s.sessions_draining as f64)),
            ("sessions_drained", Json::Num(s.sessions_drained as f64)),
            ("tenants", Json::Num(s.tenants as f64)),
            ("now", Json::Num(s.now)),
            ("tasks_completed", Json::Num(s.tasks_completed as f64)),
            ("events_pending", Json::Num(s.events_pending as f64)),
            ("sessions_reaped", Json::Num(s.sessions_reaped as f64)),
            ("ledgers", Json::Obj(ledgers.into_iter().collect())),
        ])
    }
}

fn tenant_error_reply(e: &TenantError) -> Vec<u8> {
    match e {
        TenantError::QuotaExceeded { scope, used, limit } => {
            quota_reply(&e.to_string(), scope, *used, *limit)
        }
        other => error_reply(&other.to_string()),
    }
}

/// The `ok` reply to `poll`, written straight into one buffer: the
/// bytes [`Json::encode`] would give for the same members, without a
/// tree of owned keys per event.
#[allow(clippy::cast_precision_loss)]
fn poll_reply(r: &PollReply) -> Vec<u8> {
    let mut out = String::with_capacity(80 + 96 * r.events.len());
    out.push_str("{\"status\":\"ok\",\"now\":");
    write_num(r.now, &mut out);
    out.push_str(",\"pending_events\":");
    write_num(r.pending_events as f64, &mut out);
    out.push_str(if r.closed {
        ",\"closed\":true,\"events\":["
    } else {
        ",\"closed\":false,\"events\":["
    });
    for (i, e) in r.events.iter().enumerate() {
        out.push_str(if i == 0 { "{\"seq\":" } else { ",{\"seq\":" });
        write_num(e.seq as f64, &mut out);
        out.push_str(",\"dag\":");
        write_num(f64::from(e.dag), &mut out);
        match e.kind {
            EventKind::TaskDone { task, end, procs } => {
                out.push_str(",\"type\":\"task_done\",\"task\":");
                write_num(f64::from(task), &mut out);
                out.push_str(",\"end\":");
                write_num(end, &mut out);
                out.push_str(",\"procs\":");
                write_num(f64::from(procs), &mut out);
            }
            EventKind::DagDone { at } => {
                out.push_str(",\"type\":\"dag_done\",\"at\":");
                write_num(at, &mut out);
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out.into_bytes()
}

#[allow(clippy::cast_precision_loss)]
fn ledger_json(l: Ledger) -> Json {
    obj(vec![
        ("submitted", Json::Num(l.submitted as f64)),
        ("ok", Json::Num(l.ok as f64)),
        ("errors", Json::Num(l.errors as f64)),
        ("drops", Json::Num(l.drops as f64)),
        (
            "balanced",
            Json::Bool(l.submitted == l.ok + l.errors + l.drops),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{GraphSpec, SubmitDagRequest};
    use moldable_model::ModelClass;

    fn hub() -> SessionHub {
        SessionHub::new(
            TenantConfig::new(16, ModelClass::Amdahl.optimal_mu()),
            ServiceLimits::default(),
        )
    }

    fn open(hub: &SessionHub, stats: &ServerStats, tenant: &str, session: &str) -> Json {
        let payload = hub.open(
            &OpenSessionRequest {
                tenant: tenant.into(),
                session: session.into(),
            },
            stats,
        );
        crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    fn submit(hub: &SessionHub, stats: &ServerStats, session: &str, at: f64) -> Json {
        let payload = hub.submit_dag(
            &SubmitDagRequest {
                session: session.into(),
                at,
                graph: GraphSpec::Named {
                    shape: "chain".into(),
                    size: 3,
                },
                model: "amdahl".into(),
                seed: 7,
                algo: "icpp22".into(),
            },
            stats,
        );
        crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    fn poll(hub: &SessionHub, stats: &ServerStats, session: &str, until: Option<f64>) -> Json {
        let payload = hub.poll(
            &PollRequest {
                session: session.into(),
                until,
                max_events: 1024,
            },
            stats,
        );
        crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    fn close(hub: &SessionHub, stats: &ServerStats, session: &str) -> Json {
        let payload = hub.close(
            &CloseSessionRequest {
                session: session.into(),
            },
            stats,
        );
        crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    #[test]
    fn full_session_lifecycle_over_the_hub() {
        let hub = hub();
        let stats = ServerStats::new();
        let r = open(&hub, &stats, "acme", "s1");
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert!(r.get("quotas").unwrap().get("max_sessions").is_some());

        let r = submit(&hub, &stats, "s1", 0.0);
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(3));

        let r = close(&hub, &stats, "s1");
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");

        // After close nothing gates the clock: one poll drains it all.
        let r = poll(&hub, &stats, "s1", None);
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        let events = r.get("events").unwrap().as_arr().unwrap();
        // 3 task_done + 1 dag_done.
        assert_eq!(events.len(), 4, "{events:?}");
        assert_eq!(
            events.last().unwrap().get("type").unwrap().as_str(),
            Some("dag_done")
        );
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true));

        // Stats mirrored with exactly-one-outcome accounting.
        use std::sync::atomic::Ordering;
        assert_eq!(stats.sessions_opened.load(Ordering::Relaxed), 1);
        assert_eq!(stats.sessions_closed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.session_dags_submitted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.session_dags_admitted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.session_events_delivered.load(Ordering::Relaxed), 4);

        let summary = hub.summary_json();
        let ledger = summary.get("ledgers").unwrap().get("acme").unwrap();
        assert_eq!(ledger.get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(ledger.get("balanced").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn quota_rejections_are_structured_and_counted() {
        let mut cfg = TenantConfig::new(8, ModelClass::Amdahl.optimal_mu());
        cfg.quotas.max_dags_in_flight = 1;
        let hub = SessionHub::new(cfg, ServiceLimits::default());
        let stats = ServerStats::new();
        open(&hub, &stats, "acme", "s1");
        assert_eq!(
            submit(&hub, &stats, "s1", 0.0)
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok")
        );
        // Second in-flight DAG bounces: the world cannot advance while
        // s1's frontier is 0, so the first DAG is still in flight.
        let r = submit(&hub, &stats, "s1", 0.0);
        assert_eq!(r.get("status").unwrap().as_str(), Some("quota_exceeded"));
        assert_eq!(r.get("scope").unwrap().as_str(), Some("dags"));
        assert_eq!(r.get("limit").unwrap().as_u64(), Some(1));
        use std::sync::atomic::Ordering;
        assert_eq!(stats.session_dags_rejected_quota.load(Ordering::Relaxed), 1);
        assert_eq!(stats.session_dags_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bad_graphs_and_unknown_sessions_are_errors() {
        let hub = hub();
        let stats = ServerStats::new();
        let r = poll(&hub, &stats, "ghost", None);
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        assert!(r
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown session"));

        open(&hub, &stats, "acme", "s1");
        // An inline workflow with an unknown `model` is refused here as
        // it is on a one-shot `submit`: one builder serves both.
        let cases = [
            (
                GraphSpec::Named {
                    shape: "hexagon".into(),
                    size: 3,
                },
                "amdahl",
                "unknown shape",
            ),
            (
                GraphSpec::Inline("task 0 amdahl(w=1)\n".into()),
                "bogus",
                "unknown model class",
            ),
        ];
        for (graph, model, needle) in cases {
            let payload = hub.submit_dag(
                &SubmitDagRequest {
                    session: "s1".into(),
                    at: 0.0,
                    graph,
                    model: model.into(),
                    seed: 7,
                    algo: "icpp22".into(),
                },
                &stats,
            );
            let r = crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
            assert_eq!(r.get("status").unwrap().as_str(), Some("error"), "{r:?}");
            let msg = r.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
        use std::sync::atomic::Ordering;
        assert_eq!(stats.session_dags_errors.load(Ordering::Relaxed), 2);
        // submitted == admitted + rejected + errors.
        assert_eq!(stats.session_dags_submitted.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn trace_dags_stream_like_generated_ones() {
        let hub = hub();
        let stats = ServerStats::new();
        open(&hub, &stats, "acme", "s1");
        let payload = hub.submit_dag(
            &SubmitDagRequest {
                session: "s1".into(),
                at: 0.0,
                graph: GraphSpec::TraceDot("digraph g { a -> b; a -> c; }".into()),
                model: "amdahl".into(),
                seed: 7,
                algo: "icpp22".into(),
            },
            &stats,
        );
        let r = crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(3));
        close(&hub, &stats, "s1");
        let r = poll(&hub, &stats, "s1", None);
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn unknown_algo_is_a_structured_error_before_admission() {
        let hub = hub();
        let stats = ServerStats::new();
        open(&hub, &stats, "acme", "s1");
        let payload = hub.submit_dag(
            &SubmitDagRequest {
                session: "s1".into(),
                at: 0.0,
                graph: GraphSpec::Named {
                    shape: "chain".into(),
                    size: 3,
                },
                model: "amdahl".into(),
                seed: 7,
                algo: "fastest".into(),
            },
            &stats,
        );
        let r = crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        assert!(r
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown algo `fastest`"));
        use std::sync::atomic::Ordering;
        // Counted as a session error; never reached the tenant ledger.
        assert_eq!(stats.session_dags_errors.load(Ordering::Relaxed), 1);
        assert_eq!(stats.session_dags_admitted.load(Ordering::Relaxed), 0);
        let summary = hub.summary_json();
        let ledger = summary.get("ledgers").unwrap().get("acme").unwrap();
        assert_eq!(
            ledger.get("submitted").unwrap().as_u64(),
            Some(0),
            "rejected before the tenant ledger: {summary:?}"
        );
    }

    #[test]
    fn improved23_dags_stream_through_the_session_layer() {
        let hub = hub();
        let stats = ServerStats::new();
        open(&hub, &stats, "acme", "s1");
        let payload = hub.submit_dag(
            &SubmitDagRequest {
                session: "s1".into(),
                at: 0.0,
                graph: GraphSpec::Named {
                    shape: "fork-join".into(),
                    size: 4,
                },
                model: "amdahl".into(),
                seed: 7,
                algo: "improved23".into(),
            },
            &stats,
        );
        let r = crate::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        close(&hub, &stats, "s1");
        let r = poll(&hub, &stats, "s1", None);
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true));
        assert_eq!(
            r.get("events")
                .unwrap()
                .as_arr()
                .unwrap()
                .last()
                .unwrap()
                .get("type")
                .unwrap()
                .as_str(),
            Some("dag_done")
        );
    }

    #[test]
    fn drain_closes_every_session() {
        let hub = hub();
        let stats = ServerStats::new();
        open(&hub, &stats, "a", "s1");
        open(&hub, &stats, "b", "s2");
        submit(&hub, &stats, "s1", 0.0);
        hub.drain();
        // Both sessions are no longer open; polls complete the world.
        let r = poll(&hub, &stats, "s1", None);
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true), "{r:?}");
        let r = poll(&hub, &stats, "s2", None);
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true));
        // Submissions after drain are structural errors.
        let r = submit(&hub, &stats, "s1", 1.0);
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        let summary = hub.summary_json();
        assert_eq!(summary.get("sessions_open").unwrap().as_u64(), Some(0));
    }

    /// The reply `poll` built as a [`Json`] tree before it wrote bytes
    /// directly: the reference [`poll_reply`] must match byte for byte.
    #[allow(clippy::cast_precision_loss)]
    fn poll_reply_tree(r: &PollReply) -> Json {
        let events = r
            .events
            .iter()
            .map(|e| {
                let mut members = vec![
                    ("seq", Json::Num(e.seq as f64)),
                    ("dag", Json::Num(f64::from(e.dag))),
                ];
                match e.kind {
                    EventKind::TaskDone { task, end, procs } => {
                        members.push(("type", Json::Str("task_done".into())));
                        members.push(("task", Json::Num(f64::from(task))));
                        members.push(("end", Json::Num(end)));
                        members.push(("procs", Json::Num(f64::from(procs))));
                    }
                    EventKind::DagDone { at } => {
                        members.push(("type", Json::Str("dag_done".into())));
                        members.push(("at", Json::Num(at)));
                    }
                }
                obj(members)
            })
            .collect();
        obj(vec![
            ("status", Json::Str("ok".into())),
            ("now", Json::Num(r.now)),
            ("pending_events", Json::Num(r.pending_events as f64)),
            ("closed", Json::Bool(r.closed)),
            ("events", Json::Arr(events)),
        ])
    }

    #[test]
    fn poll_replies_are_the_json_tree_encoding_byte_for_byte() {
        use moldable_tenant::SessionEvent;
        let ends = [
            0.0,
            0.300_532_698_970_390_1,
            7.0,
            12.581_268_821_133_037,
            1e-9,
            3.5e15,
            9.007_199_254_740_992e15,
            1e300,
        ];
        let mut events = Vec::new();
        for (i, &end) in ends.iter().enumerate() {
            let seq = [0, 1, 1 << 40, (1 << 53) - 1][i % 4];
            let dag = [0, 7, u32::MAX][i % 3];
            events.push(SessionEvent {
                seq,
                dag,
                kind: EventKind::TaskDone {
                    task: u32::try_from(i).unwrap() * 1000,
                    end,
                    procs: [1, 18, 64][i % 3],
                },
            });
            events.push(SessionEvent {
                seq: seq + 1,
                dag,
                kind: EventKind::DagDone { at: end },
            });
        }
        for n in [0, 1, 2, events.len()] {
            for (now, closed) in [(0.0, false), (12.581_268_821_133_037, true), (1e21, false)] {
                let r = PollReply {
                    events: events[..n].to_vec(),
                    now,
                    pending_events: n * 3,
                    closed,
                };
                let got = String::from_utf8(poll_reply(&r)).unwrap();
                assert_eq!(got, poll_reply_tree(&r).encode(), "{n} events");
            }
        }
    }
}

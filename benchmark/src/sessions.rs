//! `serve_sessions`: the streaming multi-tenant write path against a
//! fresh daemon per rep.
//!
//! One connection opens 4 tenants × 50 sessions, streams 25 rounds of
//! Cholesky size-4 DAGs into every session (one release date per round),
//! and closes them, in a fixed order: the shared world assigns tie-breaks
//! by admission order, so only a single-threaded submitter keeps the
//! event log a function of the workload. A second connection then drains
//! every session's events. Each rep needs its own daemon because session
//! labels and the conservative clock live as long as the daemon does.
//! The whole rep is one request after another, so client and daemon
//! share one CPU, the fastest at the rep's start (see `cpu`).

use std::time::Instant;

use moldable_serve::json::Json;
use moldable_serve::proto::{
    CloseSessionRequest, GraphSpec, OpenSessionRequest, PollRequest, Request, SubmitDagRequest,
};
use moldable_serve::Client;

use crate::cpu;
use crate::daemon::{self, Daemon};
use crate::metrics::{fnv1a, median, Metric};
use crate::trace::Tracer;
use crate::workload::{Ctx, E2e, Window};

/// Cholesky tile count of every DAG: 20 tasks.
pub const SIZE: u32 = 4;
/// Release-date gap between rounds (virtual time).
pub const GAP: f64 = 1.0;
/// Quotas raised far above the workload so no submission is refused.
const QUOTAS: [&str; 6] = [
    "--session-max-sessions",
    "1000",
    "--session-max-dags",
    "4000000",
    "--session-max-tasks",
    "1000000000",
];

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tenants: usize,
    pub sessions_per_tenant: usize,
    pub rounds: usize,
}

impl Shape {
    pub fn of(ctx: &Ctx) -> Self {
        if ctx.smoke {
            Self {
                tenants: 2,
                sessions_per_tenant: 3,
                rounds: 4,
            }
        } else {
            Self {
                tenants: 4,
                sessions_per_tenant: 50,
                rounds: 25,
            }
        }
    }

    pub fn sessions(&self) -> usize {
        self.tenants * self.sessions_per_tenant
    }

    /// `(tenant, label)` of session `idx`.
    pub fn label(&self, idx: usize) -> (String, String) {
        let t = idx / self.sessions_per_tenant;
        let s = idx % self.sessions_per_tenant;
        (format!("t{t}"), format!("t{t}-s{s}"))
    }
}

/// Graph seed of the DAG session `idx` submits in `round`.
pub fn dag_seed(seed: u64, shape: &Shape, round: usize, idx: usize) -> u64 {
    (seed % (1 << 32)) * 1_000_000 + (round * shape.sessions() + idx) as u64
}

pub fn dag_request(seed: u64, shape: &Shape, round: usize, idx: usize) -> SubmitDagRequest {
    SubmitDagRequest {
        session: shape.label(idx).1,
        at: round as f64 * GAP,
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: SIZE,
        },
        model: "amdahl".into(),
        seed: dag_seed(seed, shape, round, idx),
        algo: "icpp22".into(),
    }
}

/// What one rep against one daemon produced.
#[derive(Debug, Default)]
struct Rep {
    admitted: u64,
    refused: u64,
    task_events: u64,
    dag_events: u64,
    fingerprint: u64,
    submit_ms: Vec<f64>,
    submit_phase_s: f64,
    drain_s: f64,
    wall_s: f64,
    ledgers_balanced: bool,
}

fn ok(reply: &Json) -> bool {
    reply.get("status").and_then(Json::as_str) == Some("ok")
}

/// One event as an event-log line, in the session tooling's format.
fn event_line(seq: u64, session: &str, e: &Json) -> String {
    let dag = e.get("dag").and_then(Json::as_u64).unwrap_or(0);
    match e.get("type").and_then(Json::as_str) {
        Some("task_done") => {
            let task = e.get("task").and_then(Json::as_u64).unwrap_or(0);
            let end = e.get("end").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let procs = e.get("procs").and_then(Json::as_u64).unwrap_or(0);
            format!("{seq} {session} dag={dag} task={task} end={end} procs={procs}")
        }
        Some("dag_done") => {
            let at = e.get("at").and_then(Json::as_f64).unwrap_or(f64::NAN);
            format!("{seq} {session} dag={dag} done at={at}")
        }
        _ => format!("{seq} {session} dag={dag} ?"),
    }
}

fn rep(addr: &str, ctx: &Ctx, shape: &Shape, no: u64, tr: &mut Tracer) -> Result<Rep, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut out = Rep::default();
    let mut submitter = Client::connect(addr).map_err(io)?;
    let rep_span = tr.begin("session.rep", no);
    let start = Instant::now();
    let mut op = 0u64;
    for idx in 0..shape.sessions() {
        let (tenant, session) = shape.label(idx);
        let id = tr.begin("session.open", op);
        let reply = submitter
            .call(&Request::OpenSession(OpenSessionRequest {
                tenant,
                session,
            }))
            .map_err(io)?;
        tr.end(id);
        op += 1;
        if !ok(&reply) {
            return Err(format!("open refused: {}", reply.encode()));
        }
    }
    for round in 0..shape.rounds {
        for idx in 0..shape.sessions() {
            let req = Request::SubmitDag(Box::new(dag_request(ctx.seed, shape, round, idx)));
            let id = tr.begin("session.submit_dag", op);
            let t0 = Instant::now();
            let reply = submitter.call(&req).map_err(io)?;
            out.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.end(id);
            op += 1;
            if ok(&reply) {
                out.admitted += 1;
            } else {
                out.refused += 1;
            }
        }
    }
    for idx in 0..shape.sessions() {
        let session = shape.label(idx).1;
        let id = tr.begin("session.close", op);
        let reply = submitter
            .call(&Request::CloseSession(CloseSessionRequest { session }))
            .map_err(io)?;
        tr.end(id);
        op += 1;
        if !ok(&reply) {
            return Err(format!("close refused: {}", reply.encode()));
        }
    }
    out.submit_phase_s = start.elapsed().as_secs_f64();

    let drain_start = Instant::now();
    let mut drainer = Client::connect(addr).map_err(io)?;
    let mut lines: Vec<(u64, String)> = Vec::new();
    for idx in 0..shape.sessions() {
        let session = shape.label(idx).1;
        let mut closed = false;
        // Bounded: a closed session reports `closed` once its events are
        // drained; the cap only guards against a wedged daemon.
        for _ in 0..1_000_000 {
            let id = tr.begin("session.poll", op);
            let reply = drainer
                .call(&Request::Poll(PollRequest {
                    session: session.clone(),
                    until: None,
                    max_events: 4096,
                }))
                .map_err(io)?;
            tr.end(id);
            op += 1;
            if !ok(&reply) {
                return Err(format!("poll refused: {}", reply.encode()));
            }
            for e in reply.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
                match e.get("type").and_then(Json::as_str) {
                    Some("task_done") => out.task_events += 1,
                    Some("dag_done") => out.dag_events += 1,
                    _ => {}
                }
                let seq = e.get("seq").and_then(Json::as_u64).unwrap_or(u64::MAX);
                lines.push((seq, event_line(seq, &session, e)));
            }
            if reply.get("closed").and_then(Json::as_bool) == Some(true) {
                closed = true;
                break;
            }
        }
        if !closed {
            return Err(format!("session {session} never closed"));
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.drain_s = drain_start.elapsed().as_secs_f64();
    tr.end(rep_span);

    lines.sort_by_key(|(seq, _)| *seq);
    let mut log = String::new();
    for (_, line) in &lines {
        log.push_str(line);
        log.push('\n');
    }
    out.fingerprint = fnv1a(log.as_bytes());

    let stats = Client::connect(addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .map_err(io)?;
    let ledgers = stats.get("sessions").and_then(|s| s.get("ledgers"));
    out.ledgers_balanced = match ledgers {
        Some(Json::Obj(members)) => {
            members.len() == shape.tenants
                && members.iter().all(|(_, l)| {
                    l.get("balanced").and_then(Json::as_bool) == Some(true)
                        && l.get("drops").and_then(Json::as_u64) == Some(0)
                })
        }
        _ => false,
    };
    Ok(out)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> E2e {
    let mut e = E2e::new("serve_sessions");
    let shape = Shape::of(ctx);
    let dags_per_rep = (shape.sessions() * shape.rounds) as u64;
    let tasks_per_dag = moldable_graph::gen::estimated_tasks("cholesky", SIZE).unwrap_or(0) as u64;
    let port_file = daemon::port_file(&ctx.out_dir, "sessions");
    e.pace_s.push(cpu::pin_fastest());
    let id = tr.begin("daemon.spawn", 0);
    let setup = daemon::spawn_for_setup(&QUOTAS, &port_file, &mut e.setup_s);
    tr.end(id);
    // Every rep spawns its own daemon after choosing its CPU, so client
    // and daemon take turns on that CPU.
    match setup {
        Ok(d) => Daemon::shutdown(d),
        Err(err) => {
            e.result.check("daemon_spawn", false, err);
            return e;
        }
    }
    let begun = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss = Vec::new();
    let mut no = 0;
    // At least two fresh daemons, so the event log can be compared.
    while no < 2 || begun.elapsed().as_secs_f64() < ctx.seconds {
        e.pace_s.push(cpu::pin_fastest());
        let id = tr.begin("daemon.spawn", no);
        let spawned = Daemon::spawn(&QUOTAS, &port_file);
        tr.end(id);
        if let Ok(d) = &spawned {
            e.setup_s.push(d.ready_s);
        }
        let d = match spawned {
            Ok(d) => d,
            Err(err) => {
                e.result.check("daemon_spawn", false, err);
                break;
            }
        };
        e.result.attempted += dags_per_rep;
        match rep(&d.addr, ctx, &shape, no, tr) {
            Ok(r) => {
                e.result.failed_ops += r.refused;
                reps.push(r);
            }
            Err(err) => {
                e.result.failed_ops += dags_per_rep;
                e.result.check("session_rep", false, err);
            }
        }
        rss.push(d.peak_rss_mb());
        Daemon::shutdown(d);
        no += 1;
    }

    e.windows = reps
        .iter()
        .map(|r| Window {
            tasks: r.task_events,
            secs: r.wall_s,
            latencies_ms: r.submit_ms.clone(),
        })
        .collect();
    e.peak_rss_mb = median(&rss);
    let prints: Vec<u64> = reps.iter().map(|r| r.fingerprint).collect();
    let same = !prints.is_empty() && prints.iter().all(|&p| p == prints[0]);
    e.result.check(
        "event_log_repeats",
        same && prints.len() >= 2,
        format!(
            "{} fresh daemons, fingerprints {}",
            prints.len(),
            prints
                .iter()
                .map(|p| format!("{p:016x}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
    let events_ok = reps.iter().all(|r| {
        r.admitted == dags_per_rep
            && r.dag_events == dags_per_rep
            && r.task_events == dags_per_rep * tasks_per_dag
    });
    e.result.check(
        "every_dag_completes",
        events_ok && !reps.is_empty(),
        format!("{dags_per_rep} DAGs of {tasks_per_dag} tasks per rep, all admitted and drained: {events_ok}"),
    );
    let balanced = reps.iter().all(|r| r.ledgers_balanced);
    e.result.check(
        "ledgers_balanced",
        balanced && !reps.is_empty(),
        format!("every tenant ledger balanced with no drops: {balanced}"),
    );
    let per_rep = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    e.result.extra.extend([
        Metric::new(
            "dags_per_s",
            e.tasks_per_s() / tasks_per_dag.max(1) as f64,
            "DAG/s",
        ),
        Metric::new(
            "sessions.submit_phase_s",
            per_rep(|r| r.submit_phase_s),
            "s",
        ),
        Metric::new("sessions.drain_s", per_rep(|r| r.drain_s), "s"),
        Metric::new("sessions.reps", reps.len() as f64, "count"),
    ]);
    e
}

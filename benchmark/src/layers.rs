//! The per-layer ledger of a traced run: each layer's public functions
//! timed in-process, from outside, on fixed inputs.
//!
//! The graph, model, core and sim layers are probed on the traced
//! workload's own instances (the 10^6-task graph, the witnesses, or the
//! graphs the serve requests build), so their numbers differ by workload.
//! The serve and tenant layers are probed by replaying the
//! `serve_oneshot` request mix and a reduced `serve_sessions` mix
//! in-process; those probes are the same on every workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use moldable_core::{AlgoName, AllocCache, OnlineScheduler, ALGOS};
use moldable_graph::{gen, TaskGraph};
use moldable_model::ModelClass;
use moldable_serve::json::{self, Json};
use moldable_serve::proto::{self, DecodeEvent, FrameDecoder, OpenSessionRequest, Request};
use moldable_serve::{EngineChoice, ServerStats, ServiceLimits, SessionHub, WorkerContext};
use moldable_sim::{simulate, simulate_batched, Schedule, SimOptions};
use moldable_tenant::{TenantConfig, TenantQuotas, TenantService};

use crate::metrics::{Check, Metric};
use crate::oneshot::{self, Mix};
use crate::sessions::{self, Shape};
use crate::sim;
use crate::trace::Tracer;
use crate::workload::Ctx;

/// Allocation calls timed per algorithm (a strided sample of the tasks).
const ALLOCATE_SAMPLE: usize = 50_000;

/// One instance of a workload's instance set.
struct Inst {
    graph: TaskGraph,
    p: u32,
    mu: f64,
}

/// The instances the workload schedules: the layered graphs, the four
/// witnesses, the distinct graphs of the first 256 one-shot requests, or
/// the DAGs of one session round.
fn instance_set(workload: &str, ctx: &Ctx) -> Vec<Inst> {
    let amdahl = |graph| Inst {
        graph,
        p: oneshot::P,
        mu: oneshot::CLASS.optimal_mu(),
    };
    match workload {
        "sim_layered" => sim::layered_graphs(ctx)
            .into_iter()
            .map(|graph| Inst {
                graph,
                p: sim::LAYERED_P,
                mu: ModelClass::General.optimal_mu(),
            })
            .collect(),
        "sim_adversary" => sim::witnesses(ctx)
            .into_iter()
            .map(|w| Inst {
                graph: w.inst.graph,
                p: w.inst.p_total,
                mu: w.inst.mu,
            })
            .collect(),
        "serve_oneshot" => {
            let mix = Mix::new(ctx.seed);
            let mut seeds: Vec<u64> = (0..256).map(|k| mix.at(k).0).collect();
            seeds.sort_unstable();
            seeds.dedup();
            seeds
                .into_iter()
                .map(|s| {
                    amdahl(
                        gen::by_name("cholesky", oneshot::SIZE, oneshot::CLASS, oneshot::P, s)
                            .expect("valid shape"),
                    )
                })
                .collect()
        }
        _ => {
            let shape = Shape::of(ctx);
            (0..shape.sessions())
                .map(|idx| {
                    let seed = sessions::dag_seed(ctx.seed, &shape, 0, idx);
                    amdahl(
                        gen::by_name("cholesky", sessions::SIZE, oneshot::CLASS, oneshot::P, seed)
                            .expect("valid shape"),
                    )
                })
                .collect()
        }
    }
}

/// Distinct completion instants, the widest batch of placements sharing
/// one end time, and the most tasks running at once.
fn schedule_counts(s: &Schedule) -> (u64, u64, u64) {
    let mut ends: Vec<f64> = s.placements.iter().map(|p| p.end).collect();
    ends.sort_by(f64::total_cmp);
    let (mut instants, mut widest, mut run) = (0u64, 0u64, 0u64);
    for (i, e) in ends.iter().enumerate() {
        if i > 0 && ends[i - 1].to_bits() == e.to_bits() {
            run += 1;
        } else {
            instants += 1;
            run = 1;
        }
        widest = widest.max(run);
    }
    // Ends sort before starts at equal times: a finishing task frees its
    // processors for one starting at that instant.
    let mut edges: Vec<(f64, i64)> = s
        .placements
        .iter()
        .flat_map(|p| [(p.start, 1), (p.end, -1)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut running, mut most) = (0i64, 0i64);
    for (_, d) in edges {
        running += d;
        most = most.max(running);
    }
    (instants, widest, most as u64)
}

/// Graph, model, core and sim layers on the workload's instance set.
fn engine_layers(
    workload: &str,
    ctx: &Ctx,
    tr: &mut Tracer,
    checks: &mut Vec<Check>,
) -> Vec<Metric> {
    let id = tr.begin("graph.build", 0);
    let t0 = Instant::now();
    let set = instance_set(workload, ctx);
    let build_s = t0.elapsed().as_secs_f64();
    tr.end(id);
    let tasks: usize = set.iter().map(|i| i.graph.n_tasks()).sum();
    let edges: usize = set.iter().map(|i| i.graph.n_edges()).sum();
    let mut out = vec![
        Metric::new("graph.build_s", build_s, "s"),
        Metric::new("graph.tasks", tasks as f64, "count"),
        Metric::new("graph.edges", edges as f64, "count"),
    ];

    // Registry allocation without the memo, on a strided task sample.
    let stride = (tasks / ALLOCATE_SAMPLE).max(1);
    let sample: Vec<(&Inst, moldable_graph::TaskId)> = set
        .iter()
        .flat_map(|inst| {
            inst.graph
                .task_ids()
                .step_by(stride)
                .map(move |t| (inst, t))
        })
        .collect();
    for algo in ALGOS {
        let (span, name) = match algo {
            AlgoName::Icpp22 => ("core.allocate.icpp22", "core.allocate_ns.icpp22"),
            AlgoName::Improved23 => ("core.allocate.improved23", "core.allocate_ns.improved23"),
        };
        let id = tr.begin(span, 0);
        let t0 = Instant::now();
        for &(inst, t) in &sample {
            let model = inst.graph.model(t);
            let mu = match algo {
                AlgoName::Icpp22 => inst.mu,
                other => other.optimal_mu(model.class()),
            };
            black_box(algo.allocate(black_box(model), inst.p, mu));
        }
        let ns = t0.elapsed().as_nanos() as f64 / sample.len().max(1) as f64;
        tr.end(id);
        out.push(Metric::new(name, ns, "ns").with_n(sample.len()));
    }

    // The memo replayed in task-id order, as the scheduler probes it.
    let (mut probes, mut hits, mut distinct) = (0u64, 0u64, 0usize);
    let id = tr.begin("core.alloc_cache", 0);
    let t0 = Instant::now();
    for inst in &set {
        let mut cache = AllocCache::for_algo(AlgoName::Icpp22, inst.p, inst.mu);
        for t in inst.graph.task_ids() {
            black_box(cache.allocate(inst.graph.model(t)));
        }
        probes += cache.probes();
        hits += cache.hits();
        distinct += cache.len();
    }
    let cache_ns = t0.elapsed().as_nanos() as f64 / probes.max(1) as f64;
    tr.end(id);
    out.extend([
        Metric::new("core.alloc_cache_ns", cache_ns, "ns").with_n(probes as usize),
        Metric::new(
            "core.alloc_cache_hit_rate",
            hits as f64 / probes.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.distinct_models", distinct as f64, "count"),
    ]);

    // Both engines on every instance, then validation and the counts.
    let (mut sim_s, mut batched_s, mut validate_s) = (0.0, 0.0, 0.0);
    let (mut time_ns, mut time_calls) = (0.0, 0usize);
    let (mut instants, mut widest, mut most) = (0u64, 0u64, 0u64);
    let (mut engines_agree, mut valid) = (true, true);
    for inst in &set {
        let opts = SimOptions::new(inst.p);
        let mut sched = OnlineScheduler::with_mu(inst.mu);
        let id = tr.begin("sim.simulate", 0);
        let t0 = Instant::now();
        let s = simulate(&inst.graph, &mut sched, &opts);
        sim_s += t0.elapsed().as_secs_f64();
        tr.end(id);
        let mut sched = OnlineScheduler::with_mu(inst.mu);
        let id = tr.begin("sim.simulate_batched", 0);
        let t0 = Instant::now();
        let b = simulate_batched(&inst.graph, &mut sched, &opts);
        batched_s += t0.elapsed().as_secs_f64();
        tr.end(id);
        let (Ok(s), Ok(b)) = (s, b) else {
            engines_agree = false;
            continue;
        };
        engines_agree &= s.makespan.to_bits() == b.makespan.to_bits();
        drop(b);

        let id = tr.begin("sim.validate", 0);
        let t0 = Instant::now();
        valid &= s.validate(&inst.graph).is_ok();
        validate_s += t0.elapsed().as_secs_f64();
        tr.end(id);

        let id = tr.begin("model.time", 0);
        let t0 = Instant::now();
        for p in &s.placements {
            black_box(inst.graph.model(black_box(p.task)).time(p.procs));
        }
        time_ns += t0.elapsed().as_nanos() as f64;
        time_calls += s.placements.len();
        tr.end(id);

        let (i, w, m) = schedule_counts(&s);
        instants += i;
        widest = widest.max(w);
        most = most.max(m);
    }
    checks.push(Check::new(
        "layers.engines_agree",
        engines_agree,
        format!(
            "simulate and simulate_batched makespans bit-equal on {} instances: {engines_agree}",
            set.len()
        ),
    ));
    checks.push(Check::new(
        "layers.schedules_valid",
        valid,
        format!("validate passed: {valid}"),
    ));
    out.extend([
        Metric::new("model.time_ns", time_ns / time_calls.max(1) as f64, "ns").with_n(time_calls),
        Metric::new("sim.simulate_s", sim_s, "s"),
        Metric::new("sim.simulate_batched_s", batched_s, "s"),
        Metric::new("sim.validate_s", validate_s, "s"),
        Metric::new("sim.completion_instants", instants as f64, "count"),
        Metric::new("sim.max_batch", widest as f64, "count"),
        Metric::new("sim.max_running", most as f64, "count"),
    ]);
    out
}

/// The serve stack's stages on the `serve_oneshot` mix, in-process: the
/// client encodes, the event loop decodes and parses, a worker handles,
/// encodes its reply, and the client parses it.
fn serve_layers(ctx: &Ctx, tr: &mut Tracer, checks: &mut Vec<Check>) -> Vec<Metric> {
    let n: u64 = if ctx.smoke { 200 } else { 4000 };
    let mix = Mix::new(ctx.seed);
    let requests: Vec<Request> = (0..n)
        .map(|k| Request::Submit(Box::new(mix.request(k))))
        .collect();

    let mut frames = Vec::with_capacity(requests.len());
    for (k, r) in (0..).zip(&requests) {
        let id = tr.begin("serve.encode", k);
        let payload = r.encode();
        let mut frame = Vec::with_capacity(payload.len() + 4);
        proto::write_frame(&mut frame, &payload).expect("writing to a Vec cannot fail");
        tr.end(id);
        frames.push(frame);
    }
    let mut decoder = FrameDecoder::new(1 << 20);
    let mut events = Vec::with_capacity(frames.len());
    for (k, f) in (0..).zip(&frames) {
        let id = tr.begin("serve.decode", k);
        decoder.feed(f, &mut events);
        tr.end(id);
    }
    let mut parsed = Vec::with_capacity(events.len());
    for (k, e) in (0..).zip(&events) {
        let DecodeEvent::Frame(payload) = e else {
            continue;
        };
        let id = tr.begin("serve.parse", k);
        let r = Request::parse(payload);
        tr.end(id);
        parsed.push(r);
    }
    let round_trip = parsed.len() == requests.len()
        && parsed
            .iter()
            .zip(&requests)
            .all(|(p, r)| p.as_ref() == Ok(r));
    checks.push(Check::new(
        "layers.wire_round_trip",
        round_trip,
        format!(
            "{} frames encode, decode and parse back to the request: {round_trip}",
            requests.len()
        ),
    ));

    let mut worker = WorkerContext::new().with_engine(EngineChoice::Legacy);
    let mut replies = Vec::with_capacity(parsed.len());
    for (k, r) in (0..).zip(&parsed) {
        let Ok(Request::Submit(req)) = r else {
            continue;
        };
        let hits = worker.graph_cache_hits();
        let id = tr.begin("serve.handle", k);
        let reply = worker.handle(req);
        let name = if worker.graph_cache_hits() > hits {
            "serve.handle_hit"
        } else {
            "serve.handle_miss"
        };
        tr.end_as(id, name);
        replies.push(reply);
    }
    let mut texts = Vec::with_capacity(replies.len());
    for (k, reply) in (0..).zip(&replies) {
        let id = tr.begin("serve.reply_encode", k);
        let text = reply.encode();
        tr.end(id);
        texts.push(text);
    }
    let mut reparsed_ok = true;
    for (k, (text, reply)) in (0..).zip(texts.iter().zip(&replies)) {
        let id = tr.begin("serve.reply_parse", k);
        let back = json::parse(text);
        tr.end(id);
        reparsed_ok &=
            back.as_ref() == Ok(reply) && reply.get("status").and_then(Json::as_str) == Some("ok");
    }
    checks.push(Check::new(
        "layers.replies_ok",
        reparsed_ok,
        format!(
            "{} in-process replies ok and round-trip: {reparsed_ok}",
            replies.len()
        ),
    ));

    let m = n.min(1000);
    let mut graphs = Vec::with_capacity(m as usize);
    for k in 0..m {
        let seed = mix.at(k).0;
        let id = tr.begin("serve.build", k);
        let g = gen::by_name("cholesky", oneshot::SIZE, oneshot::CLASS, oneshot::P, seed);
        tr.end(id);
        graphs.push(g.expect("valid shape"));
    }
    let mut caches: [Option<AllocCache>; 2] = [None, None];
    for (k, g) in (0..).zip(&graphs) {
        let algo = mix.at(k).1;
        let slot = usize::from(algo == AlgoName::Improved23);
        let mut sched = OnlineScheduler::with_algo(algo, algo.optimal_mu(oneshot::CLASS));
        if let Some(c) = caches[slot].take() {
            sched = sched.with_alloc_cache(c);
        }
        let id = tr.begin("serve.simulate", k);
        black_box(simulate(g, &mut sched, &SimOptions::new(oneshot::P)).ok());
        tr.end(id);
        caches[slot] = sched.take_alloc_cache();
    }

    let us = |name: &str| tr.mean_self_ns(name) / 1e3;
    [
        ("serve.encode_us", "serve.encode"),
        ("serve.decode_us", "serve.decode"),
        ("serve.parse_us", "serve.parse"),
        ("serve.reply_encode_us", "serve.reply_encode"),
        ("serve.reply_parse_us", "serve.reply_parse"),
        ("serve.handle_hit_us", "serve.handle_hit"),
        ("serve.handle_miss_us", "serve.handle_miss"),
        ("serve.build_us", "serve.build"),
        ("serve.simulate_us", "serve.simulate"),
    ]
    .into_iter()
    .map(|(metric, span)| Metric::new(metric, us(span), "us"))
    .collect()
}

/// The session layer (`SessionHub`, as the daemon calls it) and the
/// tenant service beneath it, on a reduced `serve_sessions` mix.
fn tenant_layers(ctx: &Ctx, tr: &mut Tracer, checks: &mut Vec<Check>) -> Vec<Metric> {
    let shape = if ctx.smoke {
        Shape {
            tenants: 1,
            sessions_per_tenant: 2,
            rounds: 3,
        }
    } else {
        Shape {
            tenants: 2,
            sessions_per_tenant: 10,
            rounds: 20,
        }
    };
    let cfg = TenantConfig {
        quotas: TenantQuotas {
            max_sessions: 1000,
            max_dags_in_flight: 4_000_000,
            max_tasks_in_flight: 1_000_000_000,
        },
        ..TenantConfig::new(oneshot::P, oneshot::CLASS.optimal_mu())
    };
    let dags = shape.sessions() * shape.rounds;

    let hub = SessionHub::new(cfg, ServiceLimits::default());
    let stats = ServerStats::new();
    for idx in 0..shape.sessions() {
        let (tenant, session) = shape.label(idx);
        hub.open(&OpenSessionRequest { tenant, session }, &stats);
    }
    let mut admitted = 0;
    for round in 0..shape.rounds {
        for idx in 0..shape.sessions() {
            let req = sessions::dag_request(ctx.seed, &shape, round, idx);
            let id = tr.begin(
                "sessions.submit_dag",
                (round * shape.sessions() + idx) as u64,
            );
            let reply = hub.submit_dag(&req, &stats);
            tr.end(id);
            admitted += usize::from(reply.starts_with(b"{\"status\":\"ok\""));
        }
    }
    hub.drain();

    let mut svc = TenantService::new(cfg);
    let mut graphs = Vec::with_capacity(dags);
    for idx in 0..shape.sessions() {
        let (tenant, session) = shape.label(idx);
        let _ = svc.open_session(&tenant, &session, 0);
    }
    for round in 0..shape.rounds {
        for idx in 0..shape.sessions() {
            let seed = sessions::dag_seed(ctx.seed, &shape, round, idx);
            let g = gen::by_name(
                "cholesky",
                sessions::SIZE,
                oneshot::CLASS,
                cfg.p_total,
                seed,
            );
            graphs.push(Arc::new(g.expect("valid shape")));
        }
    }
    let mut op = 0u64;
    for (i, g) in graphs.into_iter().enumerate() {
        let (round, idx) = (i / shape.sessions(), i % shape.sessions());
        let label = shape.label(idx).1;
        let id = tr.begin("tenant.submit_dag", op);
        let r = svc.submit_dag(&label, g, round as f64 * sessions::GAP, AlgoName::Icpp22, 0);
        tr.end(id);
        op += 1;
        admitted += usize::from(r.is_ok());
    }
    for idx in 0..shape.sessions() {
        let id = tr.begin("tenant.close", op);
        let _ = svc.close_session(&shape.label(idx).1, 0);
        tr.end(id);
        op += 1;
    }
    let mut events = 0usize;
    for idx in 0..shape.sessions() {
        let label = shape.label(idx).1;
        loop {
            let id = tr.begin("tenant.poll", op);
            let r = svc.poll(&label, f64::NEG_INFINITY, 4096, 0);
            tr.end(id);
            op += 1;
            let Ok(r) = r else { break };
            events += r.events.len();
            if r.closed {
                break;
            }
        }
    }
    let world_tasks = svc.summary().tasks_completed;
    let tasks_per_dag = gen::estimated_tasks("cholesky", sessions::SIZE).unwrap_or(0) as usize;
    let complete = admitted == 2 * dags && events == dags * (tasks_per_dag + 1);
    checks.push(Check::new(
        "layers.tenant_replay_complete",
        complete,
        format!(
            "{admitted} of {} admissions, {events} events for {dags} DAGs",
            2 * dags
        ),
    ));

    let us = |name: &str| tr.mean_self_ns(name) / 1e3;
    vec![
        Metric::new("sessions.submit_dag_us", us("sessions.submit_dag"), "us"),
        Metric::new("tenant.submit_dag_us", us("tenant.submit_dag"), "us"),
        Metric::new("tenant.poll_us", us("tenant.poll"), "us"),
        Metric::new("tenant.close_us", us("tenant.close"), "us"),
        Metric::new("tenant.events", events as f64, "count"),
        Metric::new("tenant.world_tasks", world_tasks as f64, "count"),
    ]
}

/// Every in-process layer metric of a traced run of `workload`.
pub fn measure(workload: &str, ctx: &Ctx, tr: &mut Tracer, checks: &mut Vec<Check>) -> Vec<Metric> {
    let mut out = engine_layers(workload, ctx, tr, checks);
    out.extend(serve_layers(ctx, tr, checks));
    out.extend(tenant_layers(ctx, tr, checks));
    out
}

/// The reconciliation of a traced `serve_oneshot` run: the client's mean
/// round trip against the sum of the stages' mean self times. What the
/// stages do not cover is the wire: the kernel, the event loop and the
/// wait for a worker. Returns `(wire_us, line)`.
pub fn reconcile(layers: &[Metric], rtt_mean_us: f64, hit_rate: f64) -> (f64, String) {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let handle =
        hit_rate * get("serve.handle_hit_us") + (1.0 - hit_rate) * get("serve.handle_miss_us");
    let stages = [
        ("encode", get("serve.encode_us")),
        ("decode", get("serve.decode_us")),
        ("parse", get("serve.parse_us")),
        ("handle", handle),
        ("reply_encode", get("serve.reply_encode_us")),
        ("reply_parse", get("serve.reply_parse_us")),
    ];
    let sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let wire = rtt_mean_us - sum;
    let terms: Vec<String> = stages.iter().map(|(n, v)| format!("{n} {v:.2}")).collect();
    let line = format!(
        "reconciliation: mean RTT {rtt_mean_us:.2} us = {} + wire {wire:.2} us",
        terms.join(" + ")
    );
    (wire, line)
}

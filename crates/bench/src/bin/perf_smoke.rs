//! Engine throughput smoke test: how many tasks per second does the
//! simulation hot path sustain? Writes `results/BENCH_engine.json` so
//! successive PRs have a performance trajectory to compare against.
//!
//! ```text
//! cargo run --release -p moldable-bench --bin perf_smoke
//! ```
//!
//! Workloads:
//! * `layered_1m` — a 1 000 × 1 000 layered random DAG (10^6 mixed
//!   general-model tasks, geometric-skip construction) under the
//!   online scheduler on P = 256: every model is distinct, so the
//!   allocation cache is bypassed after its first few thousand probes;
//! * `allocate_general_1m` — Algorithm 2 alone: `allocate` over the
//!   same 10^6 general models (`build_secs` is drawing them, `sim_secs`
//!   allocating each once at P = 256), the Step 1 cost that
//!   `layered_1m` pays per release once its cache is bypassed;
//! * `thm6_communication_p1601` — the Theorem 6 adversarial instance
//!   at P = 1601 (~868 k near-identical tasks, the allocation-memo and
//!   run-grouping stress case); `sim_secs` is the fastest of
//!   [`THM6_REPS`] simulations;
//! * `validate_thm6_p1601` — `Schedule::validate` of that run's online
//!   schedule (`sim_secs`, the fastest of [`THM6_REPS`] validations);
//!   CI gates it at or below the `thm6_communication_p1601` row's
//!   `sim_secs`, so checking a schedule never costs more than
//!   producing it;
//! * `thm9_adaptive_l4` — the Theorem 9 adaptive chain adversary at
//!   ℓ = 4 (P = 524 288, instance revealed task by task);
//! * `wide_50k_indexed_queue` — 50 000 independent tasks on P = 64, a
//!   deep-ready-queue stress run (tens of thousands of waiting tasks,
//!   hundreds or more per allocation bucket, every FIFO key an append);
//! * `wide_p4096_layered_100k` — a 40 × 2500 layered General-class
//!   DAG (100 000 tasks) on P = 4096: 189 distinct capped
//!   allocations and short queues, the regime where a decision point
//!   usually starts every waiting task and a first-fit search reads
//!   the most bucket heads;
//! * `serve_direct_500`, `serve_service_{cached,uncached}_500` — the
//!   same 500 scheduling requests (cholesky size 6, P = 64, 16 seeds)
//!   executed as bare generate+simulate and through the service layer
//!   (`WorkerContext::handle`, adds validation/bounds/JSON) —
//!   identical makespans, so the deltas are pure layer overhead;
//! * `serve_epoll_500`, `serve_epoll_batched_500` — the same 500
//!   requests over a real daemon socket: four closed-loop connections
//!   across four worker shards, plain submits and 32-item
//!   `submit_batch` frames. Every reply's makespan is asserted
//!   bit-equal to the service-layer expectation; CI gates the plain
//!   row at ≥ 1.5× the batched row's wall time (same clients, same
//!   workers, so the ratio is per-frame overhead);
//! * `session_world_200x25` — the streaming session layer in process:
//!   a [`moldable_serve::SessionHub`] on the daemon's default platform
//!   (P = 64) opens 4 tenants × 50 sessions and takes 25 rounds of
//!   Cholesky size-4 DAGs into each (`build_secs`), then closes every
//!   session and polls each one dry (`sim_secs`, where the shared
//!   world advances under the DRR scheduler); the makespan is the
//!   world's final clock.

use std::hint::black_box;
use std::time::Instant;

use moldable_adversary::{arbitrary, communication};
use moldable_bench::write_result;
use moldable_core::baselines::EqualShareScheduler;
use moldable_core::{allocate, OnlineScheduler};
use moldable_graph::gen;
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;
use moldable_sim::{simulate, simulate_instance, Schedule, SimOptions};

struct Measurement {
    name: &'static str,
    n_tasks: usize,
    build_secs: f64,
    sim_secs: f64,
    makespan: f64,
}

impl Measurement {
    #[allow(clippy::cast_precision_loss)]
    fn tasks_per_sec(&self) -> f64 {
        // Build-only rows have no simulation phase; report 0 rather
        // than dividing by zero.
        if self.sim_secs == 0.0 {
            0.0
        } else {
            self.n_tasks as f64 / self.sim_secs
        }
    }
}

/// Simulate `g` once under `sched`; the row carries the graph's build
/// cost next to the simulation's. Returns the row and the schedule.
fn online_run(
    name: &'static str,
    g: &moldable_graph::TaskGraph,
    build_secs: f64,
    p_total: u32,
    mut sched: OnlineScheduler,
) -> (Measurement, Schedule) {
    let t0 = Instant::now();
    let s = simulate(g, &mut sched, &SimOptions::new(p_total)).expect("simulates");
    let sim_secs = t0.elapsed().as_secs_f64();
    assert_eq!(s.placements.len(), g.n_tasks());
    let m = Measurement {
        name,
        n_tasks: g.n_tasks(),
        build_secs,
        sim_secs,
        makespan: s.makespan,
    };
    (m, s)
}

fn layered_1m() -> Measurement {
    let p_total = 256;
    let t0 = Instant::now();
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(0x5EED);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let mut srng = StdRng::seed_from_u64(1);
    // Geometric-skip construction: O(tasks + edges) instead of one
    // Bernoulli draw per candidate edge (10^9 draws at this size).
    let g = gen::layered_random_sparse(1_000, 1_000, 0.002, &mut srng, &mut assign);
    let build_secs = t0.elapsed().as_secs_f64();
    let sched = OnlineScheduler::for_class(ModelClass::General);
    online_run("layered_1m", &g, build_secs, p_total, sched).0
}

/// The models of `layered_1m` (same sampler, same seed, drawn in task
/// order), each allocated once by Algorithm 2 at the general class's μ.
fn allocate_general_1m() -> Measurement {
    let p_total = 256;
    let t0 = Instant::now();
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(0x5EED);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let models: Vec<_> = (0..1_000_000)
        .map(|index| {
            assign(gen::TaskCtx {
                index,
                kind: "layered",
                weight: 1.0,
            })
        })
        .collect();
    let build_secs = t0.elapsed().as_secs_f64();
    let mu = ModelClass::General.optimal_mu();
    let t1 = Instant::now();
    for model in &models {
        black_box(allocate(black_box(model), p_total, mu));
    }
    let sim_secs = t1.elapsed().as_secs_f64();
    Measurement {
        name: "allocate_general_1m",
        n_tasks: models.len(),
        build_secs,
        sim_secs,
        makespan: 0.0,
    }
}

/// How often the Theorem 6 instance is simulated and its schedule
/// validated; each of the two rows keeps its fastest run, so the CI
/// gate between them compares timings that one slow run cannot move.
const THM6_REPS: usize = 3;

/// The Theorem 6 run, then the validation of its schedule as a row of
/// its own.
fn thm6_communication() -> [Measurement; 2] {
    let t0 = Instant::now();
    let inst = communication::instance(1601);
    let build_secs = t0.elapsed().as_secs_f64();
    let run_once = || {
        let sched = OnlineScheduler::with_mu(inst.mu);
        online_run(
            "thm6_communication_p1601",
            &inst.graph,
            build_secs,
            inst.p_total,
            sched,
        )
    };
    let (mut run, s) = run_once();
    for _ in 1..THM6_REPS {
        let (again, _) = run_once();
        assert_eq!(again.makespan.to_bits(), run.makespan.to_bits());
        run.sim_secs = run.sim_secs.min(again.sim_secs);
    }
    let validate_secs = (0..THM6_REPS)
        .map(|_| {
            let t0 = Instant::now();
            s.validate(&inst.graph).expect("online schedule is valid");
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let validate = Measurement {
        name: "validate_thm6_p1601",
        n_tasks: inst.graph.n_tasks(),
        build_secs: 0.0,
        sim_secs: validate_secs,
        makespan: s.makespan,
    };
    [run, validate]
}

fn thm9_adaptive() -> Measurement {
    let t0 = Instant::now();
    let mut adv = arbitrary::AdaptiveChains::new(4);
    let pr = adv.params();
    let build_secs = t0.elapsed().as_secs_f64();

    let mut sched = EqualShareScheduler::new();
    let t1 = Instant::now();
    let s =
        simulate_instance(&mut adv, &mut sched, &SimOptions::new(pr.p_total)).expect("simulates");
    let sim_secs = t1.elapsed().as_secs_f64();
    Measurement {
        name: "thm9_adaptive_l4",
        n_tasks: s.placements.len(),
        build_secs,
        sim_secs,
        makespan: s.makespan,
    }
}

/// 50 000 independent tasks on P = 64: the ready queue holds tens of
/// thousands of waiting tasks, the regime where the indexed queue's
/// per-allocation buckets separate from a sorted scan's O(n).
fn wide_50k() -> Measurement {
    let p_total = 64;
    let t0 = Instant::now();
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(0x91DE);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let g = gen::independent(50_000, &mut assign);
    let build_secs = t0.elapsed().as_secs_f64();

    let mut sched = OnlineScheduler::for_class(ModelClass::General);
    let t1 = Instant::now();
    let s = simulate(&g, &mut sched, &SimOptions::new(p_total)).expect("simulates");
    let sim_secs = t1.elapsed().as_secs_f64();
    assert_eq!(s.placements.len(), g.n_tasks());
    Measurement {
        name: "wide_50k_indexed_queue",
        n_tasks: g.n_tasks(),
        build_secs,
        sim_secs,
        makespan: s.makespan,
    }
}

/// 100 000 General-class tasks on a wide platform (P = 4096): many
/// distinct capped allocations, short queues.
fn wide_layered_p4096() -> Measurement {
    let p_total = 4096;
    let t0 = Instant::now();
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(77);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let mut srng = StdRng::seed_from_u64(78);
    let g = gen::layered_random_sparse(40, 2500, 0.002, &mut srng, &mut assign);
    let build_secs = t0.elapsed().as_secs_f64();
    let sched = OnlineScheduler::for_class(ModelClass::General);
    online_run("wide_p4096_layered_100k", &g, build_secs, p_total, sched).0
}

/// Frozen-CSR construction: rebuild the largest generator instance CI
/// builds in full (wavefront 1000 — 10^6 tasks, ~2×10^6 edges) from
/// its own frozen edge list, once through the generators' trusted
/// `add_edge_topo` fast path and once through the checked `add_edge`
/// API (cycle check + duplicate hashing), the pre-refactor cost model.
/// Task insertion, model clones, and `freeze` are identical work on
/// both sides, so the delta is purely the per-edge validation cost the
/// generators no longer pay. Build-only rows: `sim_secs` is 0 by
/// construction.
fn graph_build(checked: bool) -> Measurement {
    let g = gen::by_name("wavefront", 1_000, ModelClass::Amdahl, 64, 11).expect("shape");
    let t0 = Instant::now();
    let mut b = moldable_graph::GraphBuilder::with_capacity(g.n_tasks());
    for t in g.task_ids() {
        b.add_task(g.model(t).clone());
    }
    for t in g.task_ids() {
        for &s in g.succs(t) {
            if checked {
                b.add_edge(t, s).expect("frozen edges are acyclic");
            } else {
                b.add_edge_topo(t, s);
            }
        }
    }
    let rebuilt = b.freeze();
    let build_secs = t0.elapsed().as_secs_f64();
    assert_eq!(rebuilt.n_edges(), g.n_edges(), "rebuild dropped edges");
    Measurement {
        name: if checked {
            "graph_build_checked_wavefront_1000"
        } else {
            "graph_build_topo_wavefront_1000"
        },
        n_tasks: g.n_tasks(),
        build_secs,
        sim_secs: 0.0,
        makespan: 0.0,
    }
}

/// Shared request template for the three serve-path measurements.
const SERVE_REQUESTS: usize = 500;
const SERVE_SEEDS: u64 = 16;
const SERVE_P: u32 = 64;

fn serve_submit(seed: u64) -> moldable_serve::proto::SubmitRequest {
    moldable_serve::proto::SubmitRequest {
        graph: moldable_serve::proto::GraphSpec::Named {
            shape: "cholesky".into(),
            size: 6,
        },
        p: Some(SERVE_P),
        model: "amdahl".into(),
        seed,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }
}

/// Baseline: the same requests executed as bare generate+simulate calls
/// with a warm cross-request [`moldable_core::AllocCache`], no service
/// layer at all.
fn serve_direct() -> Measurement {
    let t0 = Instant::now();
    let mu = ModelClass::Amdahl.optimal_mu();
    let mut n_tasks = 0;
    let mut makespan = 0.0;
    let mut cache: Option<moldable_core::AllocCache> = None;
    for i in 0..SERVE_REQUESTS {
        let seed = 42 + (i as u64 % SERVE_SEEDS);
        let g = gen::by_name("cholesky", 6, ModelClass::Amdahl, SERVE_P, seed).expect("shape");
        let mut sched = OnlineScheduler::with_mu(mu);
        if let Some(c) = cache.take() {
            sched = sched.with_alloc_cache(c);
        }
        let s = simulate(&g, &mut sched, &SimOptions::new(SERVE_P)).expect("simulates");
        cache = sched.take_alloc_cache();
        n_tasks += g.n_tasks();
        makespan = s.makespan;
    }
    Measurement {
        name: "serve_direct_500",
        n_tasks,
        build_secs: 0.0,
        sim_secs: t0.elapsed().as_secs_f64(),
        makespan,
    }
}

/// The service layer in-process: adds request interpretation, schedule
/// validation, Lemma 2 bounds, and JSON reply assembly. Run once with
/// the worker's frozen-graph LRU (the default) and once with caching
/// disabled (`graph_cache_cap = 0`), so the cache's contribution to
/// service throughput is its own row.
fn serve_service(cached: bool) -> Measurement {
    let mut ctx = moldable_serve::WorkerContext::with_limits(moldable_serve::ServiceLimits {
        graph_cache_cap: if cached { 64 } else { 0 },
        ..moldable_serve::ServiceLimits::default()
    });
    let t0 = Instant::now();
    let mut n_tasks = 0;
    let mut makespan = 0.0;
    for i in 0..SERVE_REQUESTS {
        let reply = ctx.handle(&serve_submit(42 + (i as u64 % SERVE_SEEDS)));
        assert_eq!(
            reply
                .get("status")
                .and_then(moldable_serve::json::Json::as_str),
            Some("ok")
        );
        n_tasks += reply
            .get("n_tasks")
            .and_then(moldable_serve::json::Json::as_u64)
            .expect("n_tasks") as usize;
        makespan = reply
            .get("makespan")
            .and_then(moldable_serve::json::Json::as_f64)
            .expect("makespan");
    }
    // With the 16-seed request stream, a warm cache serves 484 of the
    // 500 graphs without construction.
    if cached {
        assert!(ctx.graph_cache_hits() > 0, "cache never hit");
    } else {
        assert_eq!(ctx.graph_cache_hits(), 0, "disabled cache hit");
    }
    Measurement {
        name: if cached {
            "serve_service_cached_500"
        } else {
            "serve_service_uncached_500"
        },
        n_tasks,
        build_secs: 0.0,
        sim_secs: t0.elapsed().as_secs_f64(),
        makespan,
    }
}

/// The daemon's epoll event loop at its intended operating point:
/// four closed-loop connections over four worker shards, the same 500
/// requests partitioned round-robin exactly like `loadgen` does.
/// `batch` > 1 packs that many submits per `submit_batch` frame. Every
/// reply's makespan is asserted bit-equal to the per-seed expectation
/// computed through a bare [`moldable_serve::WorkerContext`], so the transport cannot
/// change a scheduling decision and still pass.
fn serve_epoll(batch: usize) -> Measurement {
    use moldable_serve::json::Json;
    use moldable_serve::proto::Request;
    use moldable_serve::server::{Server, ServerConfig};

    let clients = 4;
    // Per-seed ground truth from the service layer (no wire at all).
    let mut ctx = moldable_serve::WorkerContext::new();
    let expected: Vec<(f64, u64)> = (0..SERVE_SEEDS)
        .map(|s| {
            let reply = ctx.handle(&serve_submit(42 + s));
            (
                reply
                    .get("makespan")
                    .and_then(Json::as_f64)
                    .expect("makespan"),
                reply
                    .get("n_tasks")
                    .and_then(Json::as_u64)
                    .expect("n_tasks"),
            )
        })
        .collect();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: clients,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Connect and warm every shard before the clock starts.
    let mut conns: Vec<moldable_serve::Client> = (0..clients)
        .map(|_| {
            let mut c = moldable_serve::Client::connect(&addr).expect("connect");
            let warm = c
                .call(&Request::Submit(Box::new(serve_submit(42))))
                .expect("warmup");
            assert_eq!(warm.get("status").and_then(Json::as_str), Some("ok"));
            c
        })
        .collect();

    let t0 = Instant::now();
    let n_tasks = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (client_idx, client) in conns.iter_mut().enumerate() {
            let expected = &expected;
            let n_tasks = &n_tasks;
            scope.spawn(move || {
                let mine: Vec<u64> = (0..SERVE_REQUESTS)
                    .filter(|i| i % clients == client_idx)
                    .map(|i| 42 + (i as u64 % SERVE_SEEDS))
                    .collect();
                let check = |reply: &Json, seed: u64| {
                    assert_eq!(
                        reply.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "{}",
                        reply.encode()
                    );
                    let (want, tasks) = expected[(seed - 42) as usize];
                    let got = reply
                        .get("makespan")
                        .and_then(Json::as_f64)
                        .expect("makespan");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed}: transport changed a makespan"
                    );
                    n_tasks.fetch_add(tasks as usize, std::sync::atomic::Ordering::Relaxed);
                };
                for group in mine.chunks(batch.max(1)) {
                    if batch <= 1 {
                        let reply = client
                            .call(&Request::Submit(Box::new(serve_submit(group[0]))))
                            .expect("call");
                        check(&reply, group[0]);
                        continue;
                    }
                    let frame = Request::Batch(
                        group
                            .iter()
                            .map(|&s| Request::Submit(Box::new(serve_submit(s))).encode())
                            .collect(),
                    );
                    let reply = client.call(&frame).expect("batch call");
                    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
                    let results = reply
                        .get("results")
                        .and_then(Json::as_arr)
                        .expect("results");
                    assert_eq!(results.len(), group.len());
                    for (r, &seed) in results.iter().zip(group) {
                        check(r, seed);
                    }
                }
            });
        }
    });
    let sim_secs = t0.elapsed().as_secs_f64();
    drop(conns);
    server.trigger_drain();
    server.join();
    Measurement {
        name: if batch > 1 {
            "serve_epoll_batched_500"
        } else {
            "serve_epoll_500"
        },
        n_tasks: n_tasks.into_inner(),
        build_secs: 0.0,
        sim_secs,
        makespan: expected[(SERVE_REQUESTS - 1) % SERVE_SEEDS as usize].0,
    }
}

/// The session hub through the `serve_sessions` benchmark shape, with
/// quotas raised so nothing is refused. Every request is asserted
/// `ok`, and every session must report `closed`.
fn session_world() -> Measurement {
    use moldable_serve::json::Json;
    use moldable_serve::proto::{
        CloseSessionRequest, GraphSpec, OpenSessionRequest, PollRequest, SubmitDagRequest,
    };
    const TENANTS: usize = 4;
    const PER_TENANT: usize = 50;
    const ROUNDS: usize = 25;
    let mut cfg = moldable_serve::ServerConfig::default().tenant;
    cfg.quotas.max_sessions = 1_000;
    cfg.quotas.max_dags_in_flight = 4_000_000;
    cfg.quotas.max_tasks_in_flight = 1_000_000_000;
    let hub = moldable_serve::SessionHub::new(cfg, moldable_serve::ServiceLimits::default());
    let stats = moldable_serve::ServerStats::new();
    let ok = |reply: Vec<u8>| {
        let reply = moldable_serve::json::parse(std::str::from_utf8(&reply).expect("utf8"))
            .expect("json reply");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            reply.encode()
        );
        reply
    };
    let session = |idx: usize| format!("t{}-s{}", idx / PER_TENANT, idx % PER_TENANT);

    let t0 = Instant::now();
    for idx in 0..TENANTS * PER_TENANT {
        let req = OpenSessionRequest {
            tenant: format!("t{}", idx / PER_TENANT),
            session: session(idx),
        };
        ok(hub.open(&req, &stats));
    }
    for round in 0..ROUNDS {
        for idx in 0..TENANTS * PER_TENANT {
            let req = SubmitDagRequest {
                session: session(idx),
                at: round as f64,
                graph: GraphSpec::Named {
                    shape: "cholesky".into(),
                    size: 4,
                },
                model: "amdahl".into(),
                seed: (round * TENANTS * PER_TENANT + idx) as u64,
                algo: "icpp22".into(),
            };
            ok(hub.submit_dag(&req, &stats));
        }
    }
    let build_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for idx in 0..TENANTS * PER_TENANT {
        ok(hub.close(
            &CloseSessionRequest {
                session: session(idx),
            },
            &stats,
        ));
    }
    for idx in 0..TENANTS * PER_TENANT {
        let req = PollRequest {
            session: session(idx),
            until: None,
            max_events: 4096,
        };
        while ok(hub.poll(&req, &stats))
            .get("closed")
            .and_then(Json::as_bool)
            != Some(true)
        {}
    }
    let sim_secs = t0.elapsed().as_secs_f64();
    let world = hub.summary_json();
    let n_tasks = world
        .get("tasks_completed")
        .and_then(Json::as_u64)
        .expect("tasks_completed") as usize;
    assert_eq!(n_tasks, ROUNDS * TENANTS * PER_TENANT * 20, "every DAG ran");
    Measurement {
        name: "session_world_200x25",
        n_tasks,
        build_secs,
        sim_secs,
        makespan: world.get("now").and_then(Json::as_f64).expect("now"),
    }
}

fn main() {
    println!("Engine throughput smoke test\n");
    let [thm6, validate_thm6] = thm6_communication();
    let runs = [
        layered_1m(),
        allocate_general_1m(),
        thm6,
        validate_thm6,
        thm9_adaptive(),
        wide_50k(),
        wide_layered_p4096(),
        graph_build(false),
        graph_build(true),
        serve_direct(),
        serve_service(true),
        serve_service(false),
        serve_epoll(1),
        serve_epoll(32),
        session_world(),
    ];
    let by_name = |name: &str| {
        runs.iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no run named {name}"))
    };
    // The serve paths execute identical request streams: the wire and
    // service layers — and the frozen-graph cache — must not change a
    // single scheduling decision.
    let serve_makespan = by_name("serve_direct_500").makespan;
    for name in [
        "serve_service_cached_500",
        "serve_service_uncached_500",
        "serve_epoll_500",
        "serve_epoll_batched_500",
    ] {
        assert_eq!(by_name(name).makespan, serve_makespan, "{name} must agree");
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in runs.iter().enumerate() {
        println!(
            "  {:<26} {:>9} tasks  build {:>8.3}s  sim {:>8.3}s  {:>12.0} tasks/s",
            m.name,
            m.n_tasks,
            m.build_secs,
            m.sim_secs,
            m.tasks_per_sec()
        );
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"n_tasks\": {}, ",
                "\"build_secs\": {:.6}, \"sim_secs\": {:.6}, ",
                "\"tasks_per_sec\": {:.1}, \"makespan\": {:.6}}}{}\n"
            ),
            m.name,
            m.n_tasks,
            m.build_secs,
            m.sim_secs,
            m.tasks_per_sec(),
            m.makespan,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_result("BENCH_engine.json", &json);
}

//! `serve_oneshot`: plain `submit` requests against a live daemon.
//!
//! Each request is a Cholesky size-6 DAG (56 tasks, Amdahl models,
//! P = 64), so the engine is a small share of the per-request cost and
//! framing, JSON, the event loop and the worker shards dominate. Fifteen
//! of sixteen requests reuse one of sixteen recurring graph seeds (the
//! daemon's graph cache hits); every sixteenth takes the next of 128 rare
//! seeds in turn (it misses: by the time a rare seed comes round again,
//! 127 other rare graphs have passed through the 64-entry graph cache).
//! A quarter of the requests ask for `improved23`.
//!
//! The rare seeds cycle, each always with the same algorithm, because
//! each worker's allocation memo keeps every model it has seen. With
//! seeds that never repeat, or that repeat at random, the memo, and with
//! it the daemon's peak RSS, grew with the number of requests served and
//! so moved with throughput; one cycle takes 2048 requests, a small share
//! of even a slow run.
//!
//! Two phases. A closed loop on two connections measures capacity
//! (`tasks_per_s`, the better quartile over half-second windows) and the
//! round trip of each request (`p50_ms`, `p99_ms`). It pauses between
//! windows to take the pace of every CPU (see `cpu`): the loop keeps both
//! CPUs busy, so the pace can only be taken while no request is in
//! flight, and it must be taken often to follow the host. Then an open
//! loop sends Poisson arrivals at a fixed rate, about a quarter of that
//! capacity,
//! and times each request from its due time, so a stall is charged to
//! every request it delays (`open.p50_ms`, `open.p99_ms`). The open-loop
//! tail is reported but not bounded: on a shared 2-vCPU machine, host
//! preemption stalls of 15-30 ms several times a second put 1.5-9.5% of the
//! open-loop requests behind a stall, so its p99 measured the host
//! (0.37-17 ms across ten seeds), not the code.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use moldable_core::AlgoName;
use moldable_model::rng::{splitmix64_next, Rng, StdRng};
use moldable_model::ModelClass;
use moldable_serve::json::{self, Json};
use moldable_serve::proto::{self, GraphSpec, Request, SubmitRequest};
use moldable_serve::{Accounting, EngineChoice, WorkerContext};

use crate::cpu;
use crate::daemon::{self, Daemon};
use crate::metrics::{mean, rank_quantile, Metric};
use crate::trace::Tracer;
use crate::workload::{Ctx, E2e, Window};

/// Platform size of every request.
pub const P: u32 = 64;
/// Cholesky tile count: 56 tasks per request.
pub const SIZE: u32 = 6;
/// Model class of every request.
pub const CLASS: ModelClass = ModelClass::Amdahl;
/// Recurring graph seeds.
const RECURRING: u64 = 16;
/// Rare graph seeds, taken in turn by every sixteenth request.
const RARE_POOL: u64 = 128;
/// Open-loop arrival rate, about a quarter of the closed-loop capacity
/// measured on a 2-core machine.
const OPEN_RATE: f64 = 5000.0;
/// Share of the measured time spent in the closed loop.
const CLOSED_SHARE: f64 = 0.6;
/// The closed loop is cut into windows this long.
const WINDOW_S: f64 = 0.5;
/// Open-loop request positions start here, so the two phases draw
/// different stretches of the mix.
const OPEN_BASE: u64 = 1 << 31;
/// A run whose open-loop sender ran later than this at p99 did not
/// offer the load it claims.
const MAX_LATE_P99_MS: f64 = 1.0;
const MAX_FRAME: u32 = 64 * 1024 * 1024;
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The seeded request mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    seed: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Graph seed and algorithm of request `k`. Seeds stay below 2^53 so
    /// they survive the wire's f64 numbers.
    pub fn at(&self, k: u64) -> (u64, AlgoName) {
        let base = (self.seed & 0xFFFF_FFFF) << 11;
        let (graph_seed, pick) = if k % RECURRING == RECURRING - 1 {
            let rare = (k / RECURRING) % RARE_POOL;
            (base | (1 << 10) | rare, rare)
        } else {
            let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
            let h = splitmix64_next(&mut state);
            (base | (h % RECURRING), h >> 8)
        };
        let algo = if pick % 4 == 3 {
            AlgoName::Improved23
        } else {
            AlgoName::Icpp22
        };
        (graph_seed, algo)
    }

    pub fn request(&self, k: u64) -> SubmitRequest {
        let (seed, algo) = self.at(k);
        submit(seed, algo)
    }
}

pub fn submit(seed: u64, algo: AlgoName) -> SubmitRequest {
    SubmitRequest {
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: SIZE,
        },
        p: Some(P),
        model: "amdahl".into(),
        seed,
        scheduler: "online".into(),
        algo: algo.name().into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }
}

/// Outcome counters of one load phase.
#[derive(Debug, Default)]
struct Phase {
    sent: u64,
    ok: u64,
    errors: u64,
    overloaded: u64,
    transport_failures: u64,
    /// `(request position, makespan)` of every `ok` reply.
    makespans: Vec<(u64, f64)>,
    /// Open loop: every reply's latency from its due time.
    latencies_ms: Vec<f64>,
    /// Closed loop: `(tasks, round trip in ms)` of every `ok` reply.
    completions: Vec<(u64, f64)>,
}

impl Phase {
    fn tally(&mut self, k: u64, reply: &Json) {
        match reply.get("status").and_then(Json::as_str) {
            Some("ok") => {
                self.ok += 1;
                let m = reply
                    .get("makespan")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                self.makespans.push((k, m));
            }
            Some("overloaded") => self.overloaded += 1,
            _ => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.transport_failures += other.transport_failures;
        self.makespans.extend(other.makespans);
        self.latencies_ms.extend(other.latencies_ms);
        self.completions.extend(other.completions);
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(s)
}

fn read_reply(stream: &mut impl Read) -> Result<Vec<u8>, String> {
    proto::read_frame(stream, MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed".to_string())
}

fn parse_reply(payload: &[u8]) -> Json {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .unwrap_or(Json::Null)
}

/// One closed-loop connection and where it is in the mix.
struct Conn {
    stream: Option<TcpStream>,
    /// Position of its next request.
    k: u64,
    tracer: Tracer,
}

impl Conn {
    /// Send requests back to back, each when the reply to the one before
    /// has arrived, until `budget` has passed since `start`.
    fn run(&mut self, mix: Mix, step: u64, start: Instant, budget: Duration) -> Phase {
        let mut phase = Phase::default();
        let t = &mut self.tracer;
        while let Some(stream) = self.stream.as_mut() {
            if start.elapsed() >= budget {
                break;
            }
            let k = self.k;
            let req = Request::Submit(Box::new(mix.request(k)));
            let t0 = Instant::now();
            let span = t.begin("client.request", k);
            let id = t.begin("client.encode", k);
            let payload = req.encode();
            t.end(id);
            let id = t.begin("client.write", k);
            let written = proto::write_frame(stream, &payload);
            t.end(id);
            let id = t.begin("client.wait", k);
            let reply = written
                .map_err(|e| e.to_string())
                .and_then(|()| read_reply(stream));
            t.end(id);
            phase.sent += 1;
            let Ok(reply) = reply else {
                t.end(span);
                phase.transport_failures += 1;
                self.stream = None;
                break;
            };
            let id = t.begin("client.parse", k);
            let reply = parse_reply(&reply);
            t.end(id);
            t.end(span);
            let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
            phase.tally(k, &reply);
            if let Some(n) = reply.get("n_tasks").and_then(Json::as_u64) {
                phase.completions.push((n, rtt_ms));
            }
            self.k += step;
        }
        phase
    }
}

/// Closed loop on two connections for `secs`, in windows of `WINDOW_S`.
/// Between windows no request is in flight, and the pace of every CPU
/// is taken into `paces`.
fn closed_loop(
    addr: &str,
    mix: Mix,
    secs: f64,
    paces: &mut Vec<f64>,
    tr: &mut Tracer,
) -> (Phase, Vec<Window>) {
    let n = crate::metrics::nproc().min(2);
    let mut total = Phase::default();
    let mut conns: Vec<Conn> = (0..n)
        .map(|c| Conn {
            stream: connect(addr).ok(),
            k: c as u64,
            tracer: tr.fork(c as u32 + 1),
        })
        .collect();
    total.transport_failures += conns.iter().filter(|c| c.stream.is_none()).count() as u64;
    let budget = Duration::from_secs_f64(WINDOW_S);
    let mut windows = Vec::new();
    for _ in 0..(secs / WINDOW_S).floor().max(1.0) as usize {
        paces.extend(cpu::paces());
        let start = Instant::now();
        let phases: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|c| scope.spawn(move || c.run(mix, n as u64, start, budget)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client thread"))
                .collect()
        });
        let mut window = Window {
            secs: start.elapsed().as_secs_f64(),
            ..Window::default()
        };
        for phase in phases {
            for &(tasks, rtt_ms) in &phase.completions {
                window.tasks += tasks;
                window.latencies_ms.push(rtt_ms);
            }
            total.merge(phase);
        }
        windows.push(window);
    }
    for c in conns {
        tr.absorb(c.tracer);
    }
    (total, windows)
}

/// Seeded Poisson arrival offsets (seconds) within `[0, secs)`.
fn arrivals(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE7_A11E);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// Open loop on one connection: a writer thread sends each request at
/// its due time whatever the replies do; a reader thread times each
/// reply from that due time. Returns the phase and the sender's
/// lateness samples in milliseconds.
fn open_loop(addr: &str, mix: Mix, ctx: &Ctx, secs: f64, tr: &mut Tracer) -> (Phase, Vec<f64>) {
    let rate = if ctx.smoke { 1000.0 } else { OPEN_RATE };
    let offsets = arrivals(ctx.seed, rate, secs);
    let n = offsets.len();
    let mut phase = Phase::default();
    let (mut writer, mut reader) = match connect(addr).and_then(|s| Ok((s.try_clone()?, s))) {
        Ok(pair) => pair,
        Err(_) => {
            phase.transport_failures = n as u64;
            return (phase, Vec::new());
        }
    };
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(offsets[k]);
    let mut wt = tr.fork(10);
    let mut rt = tr.fork(11);
    let (lateness_ms, received) = std::thread::scope(|scope| {
        let send = scope.spawn(|| {
            let mut late = Vec::with_capacity(n);
            for k in 0..n {
                let at = due(k);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                let pos = OPEN_BASE + k as u64;
                let req = Request::Submit(Box::new(mix.request(pos)));
                let id = wt.begin("client.send", pos);
                let ok = proto::write_frame(&mut writer, &req.encode()).is_ok();
                wt.end(id);
                if !ok {
                    break;
                }
            }
            late
        });
        let recv = scope.spawn(|| {
            let mut got = Phase::default();
            for k in 0..n {
                let Ok(payload) = read_reply(&mut reader) else {
                    break;
                };
                let arrived = Instant::now();
                got.latencies_ms
                    .push(arrived.saturating_duration_since(due(k)).as_secs_f64() * 1e3);
                let pos = OPEN_BASE + k as u64;
                let id = rt.begin("client.receive", pos);
                let reply = parse_reply(&payload);
                rt.end(id);
                got.tally(pos, &reply);
            }
            got
        });
        let late = send.join().expect("open-loop writer");
        (late, recv.join().expect("open-loop reader"))
    });
    tr.absorb(wt);
    tr.absorb(rt);
    phase.merge(received);
    // Every scheduled arrival counts as attempted; one never answered
    // (unsent or unread) is a transport failure.
    phase.sent = n as u64;
    phase.transport_failures += n as u64 - (phase.ok + phase.errors + phase.overloaded);
    (phase, lateness_ms)
}

/// How many replies differ from an in-process `WorkerContext::handle`
/// of the same `(seed, algo)`, and over how many distinct pairs.
fn mismatches(mix: Mix, makespans: &[(u64, f64)]) -> (usize, usize) {
    let mut expected: BTreeMap<(u64, AlgoName), f64> = BTreeMap::new();
    let mut ctx = WorkerContext::new().with_engine(EngineChoice::Legacy);
    let mut bad = 0;
    for &(k, got) in makespans {
        let key = mix.at(k);
        let want = *expected.entry(key).or_insert_with(|| {
            ctx.handle(&submit(key.0, key.1))
                .get("makespan")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        });
        if want.to_bits() != got.to_bits() {
            bad += 1;
        }
    }
    (bad, expected.len())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> E2e {
    let mut e = E2e::new("serve_oneshot");
    let mix = Mix::new(ctx.seed);
    let port_file = daemon::port_file(&ctx.out_dir, "oneshot");
    let id = tr.begin("daemon.spawn", 0);
    let spawned = daemon::spawn_for_setup(&[], &port_file, &mut e.setup_s);
    tr.end(id);
    let d = match spawned {
        Ok(d) => d,
        Err(err) => {
            e.result.check("daemon_spawn", false, err);
            return e;
        }
    };

    let closed_secs = ctx.seconds * CLOSED_SHARE;
    let (closed, windows) = closed_loop(&d.addr, mix, closed_secs, &mut e.pace_s, tr);
    // Read before the open loop: when the host slows the daemon below the
    // offered rate, its inbox grows with the backlog, which is the host's
    // doing, not the code's.
    e.peak_rss_mb = d.peak_rss_mb();
    let (open, lateness) = open_loop(&d.addr, mix, ctx, ctx.seconds - closed_secs, tr);

    e.windows = windows;
    let rtts: Vec<f64> = closed.completions.iter().map(|c| c.1).collect();
    let rtt_mean_us = mean(&rtts) * 1e3;
    let rps = closed.ok as f64 / e.windows.iter().map(|w| w.secs).sum::<f64>();
    let mut open_ms = open.latencies_ms.clone();
    open_ms.sort_by(f64::total_cmp);

    let stats = d.stats();
    Daemon::shutdown(d);

    let mut all = closed;
    all.merge(open);
    e.result.attempted = all.sent.max(1);
    e.result.failed_ops = all.errors + all.overloaded + all.transport_failures;

    let (bad, pairs) = mismatches(mix, &all.makespans);
    e.result.check(
        "makespans_match_worker_context",
        bad == 0 && !all.makespans.is_empty(),
        format!(
            "{} replies over {pairs} (seed, algo) pairs, {bad} differ from WorkerContext::handle",
            all.makespans.len()
        ),
    );

    let mut late = lateness;
    late.sort_by(f64::total_cmp);
    let late_p99 = rank_quantile(&late, 0.99);
    if late_p99 > MAX_LATE_P99_MS {
        e.result.invalid = Some(format!(
            "open-loop sender lateness p99 {late_p99:.3} ms exceeds {MAX_LATE_P99_MS} ms"
        ));
    }
    e.result.extra.extend([
        Metric::new("rps", rps, "req/s"),
        Metric::new("serve.rtt_mean_us", rtt_mean_us, "us"),
        Metric::new("open.p50_ms", rank_quantile(&open_ms, 0.50), "ms").with_n(open_ms.len()),
        Metric::new("open.p99_ms", rank_quantile(&open_ms, 0.99), "ms").with_n(open_ms.len()),
        Metric::new("load.late_p99_ms", late_p99, "ms").with_n(late.len()),
        Metric::new("load.sent", all.sent as f64, "count"),
        Metric::new("load.ok", all.ok as f64, "count"),
        Metric::new("load.errors", (all.errors + all.overloaded) as f64, "count"),
        Metric::new(
            "load.transport_failures",
            all.transport_failures as f64,
            "count",
        ),
    ]);
    match stats {
        Ok(stats) => server_checks(&mut e, &stats),
        Err(err) => e.result.check("daemon_stats", false, err),
    }
    e
}

/// Ledger balance, cache paths, and the daemon-side layer counters.
fn server_checks(e: &mut E2e, reply: &Json) {
    let balanced = Accounting::from_stats_json(reply).is_some_and(|a| a.balanced());
    e.result.check(
        "ledger_balanced",
        balanced,
        format!("submitted == ok + errors + drops: {balanced}"),
    );
    let body = reply.get("stats").unwrap_or(reply);
    let n = |key: &str| body.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (hits, misses) = (n("graph_cache_hits"), n("graph_cache_misses"));
    e.result.check(
        "graph_cache_hit_and_miss_paths",
        hits > 0.0 && misses > 0.0,
        format!("{hits} hits, {misses} misses"),
    );
    let latency = |q: &str| {
        body.get("latency")
            .and_then(|l| l.get(q))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    e.result.extra.extend([
        Metric::new("serve.server_p50_ms", latency("p50_ms"), "ms"),
        Metric::new("serve.server_p99_ms", latency("p99_ms"), "ms"),
        Metric::new(
            "serve.graph_cache_hit_rate",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        Metric::new("serve.shard_steals", n("shard_steals"), "count"),
        Metric::new("serve.shard_spills", n("shard_spills"), "count"),
        Metric::new("serve.overloaded", n("rejected_overload"), "count"),
    ]);
}

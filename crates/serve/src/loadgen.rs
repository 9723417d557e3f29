//! Load-generator harness: drive open- or closed-loop traffic against
//! a running daemon and report throughput and latency percentiles.
//!
//! *Closed loop*: each client keeps exactly one request in flight,
//! sending the next the moment a reply lands — measures the service's
//! sustainable throughput. *Open loop*: requests are paced at a fixed
//! aggregate rate regardless of reply latency — measures behaviour at
//! a target arrival rate, including backpressure (`overloaded`
//! replies) once the queue cap binds.
//!
//! Each request reuses a small set of seeds, so the harness doubles as
//! a determinism check: every reply for a given seed must report the
//! same makespan.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::proto::{self, GraphSpec, Request, SubmitRequest};
use crate::stats::Accounting;

/// A blocking protocol client: one framed request, one framed reply.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: u32,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            max_frame: 64 * 1024 * 1024,
        })
    }

    /// Send one request and wait for its reply.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, a closed connection, or an unparsable
    /// reply.
    pub fn call(&mut self, req: &Request) -> io::Result<Json> {
        proto::write_frame(&mut self.stream, &req.encode())?;
        let payload = proto::read_frame(&mut self.stream, self.max_frame)
            .map_err(|e| io::Error::other(e.to_string()))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply not UTF-8"))?;
        crate::json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Arrival discipline of the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// One request in flight per client, back to back.
    Closed,
    /// Paced arrivals at this aggregate rate (requests/second).
    Open(f64),
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7464`.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// Workload template: generator shape.
    pub shape: String,
    /// Workload template: shape size.
    pub size: u32,
    /// Workload template: model class.
    pub model: String,
    /// Workload template: platform size.
    pub p: u32,
    /// Base seed; request `i` uses `seed_base + (i mod distinct_seeds)`.
    pub seed_base: u64,
    /// Number of distinct seeds cycled through (determinism probe).
    pub distinct_seeds: u64,
    /// Algorithm registry name sent with every request.
    pub algo: String,
    /// Inner submits per `submit_batch` frame; 1 sends plain `submit`
    /// frames (the default).
    pub batch: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".to_string(),
            clients: 4,
            requests: 1000,
            mode: LoadMode::Closed,
            shape: "cholesky".to_string(),
            size: 6,
            model: "amdahl".to_string(),
            p: 64,
            seed_base: 42,
            distinct_seeds: 16,
            algo: "icpp22".to_string(),
            batch: 1,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: usize,
    /// `ok` replies.
    pub ok: usize,
    /// `overloaded` (backpressure) replies.
    pub overloaded: usize,
    /// `error` replies.
    pub errors: usize,
    /// Transport failures (connection dropped mid-request).
    pub transport_failures: usize,
    /// Wall-clock duration of the run (request phase only; connects
    /// happen up front and are reported separately).
    pub wall: Duration,
    /// Per-request latencies (sorted ascending), milliseconds. For
    /// batched runs each inner request records its frame's round trip.
    pub latencies_ms: Vec<f64>,
    /// Per-client TCP connect latencies (sorted ascending),
    /// milliseconds — the connect-vs-request cost split.
    pub connect_ms: Vec<f64>,
    /// Whether every seed produced one single makespan.
    pub deterministic: bool,
    /// Distinct seeds observed with at least one `ok` reply.
    pub seeds_observed: usize,
    /// The server's request-accounting ledger, snapshotted after the
    /// run (`None` if the post-run `stats` request failed).
    pub accounting: Option<Accounting>,
    /// Worker graph-cache hits over the run, from the same post-run
    /// stats snapshot (`None` if the snapshot failed).
    pub graph_cache_hits: Option<u64>,
    /// Worker graph-cache misses over the run.
    pub graph_cache_misses: Option<u64>,
}

impl LoadReport {
    /// Completed-requests-per-second over the wall clock.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let t = self.ok as f64 / secs;
        t
    }

    /// Exact latency quantile (`0 < q ≤ 1`) in ms; 0 when empty.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let idx = ((q * self.latencies_ms.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_ms.len())
            - 1;
        self.latencies_ms[idx]
    }

    /// Mean latency in ms (0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let mean = self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64;
        mean
    }

    /// Render the `BENCH_serve.json` document.
    #[must_use]
    pub fn to_json(&self, config: &LoadConfig) -> Json {
        #[allow(clippy::cast_precision_loss)]
        obj(vec![
            (
                "config",
                obj(vec![
                    ("clients", Json::Num(config.clients as f64)),
                    ("requests", Json::Num(config.requests as f64)),
                    (
                        "mode",
                        Json::Str(match config.mode {
                            LoadMode::Closed => "closed".to_string(),
                            LoadMode::Open(r) => format!("open@{r}rps"),
                        }),
                    ),
                    ("shape", Json::Str(config.shape.clone())),
                    ("size", Json::Num(f64::from(config.size))),
                    ("model", Json::Str(config.model.clone())),
                    ("p", Json::Num(f64::from(config.p))),
                    ("batch", Json::Num(config.batch.max(1) as f64)),
                ]),
            ),
            ("sent", Json::Num(self.sent as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("overloaded", Json::Num(self.overloaded as f64)),
            ("errors", Json::Num(self.errors as f64)),
            (
                "transport_failures",
                Json::Num(self.transport_failures as f64),
            ),
            ("wall_secs", Json::Num(self.wall.as_secs_f64())),
            ("throughput_rps", Json::Num(self.throughput_rps())),
            (
                "latency_ms",
                obj(vec![
                    ("mean", Json::Num(self.mean_ms())),
                    ("p50", Json::Num(self.quantile_ms(0.50))),
                    ("p95", Json::Num(self.quantile_ms(0.95))),
                    ("p99", Json::Num(self.quantile_ms(0.99))),
                    ("max", Json::Num(self.quantile_ms(1.0))),
                ]),
            ),
            (
                "connect_ms",
                obj(vec![
                    ("count", Json::Num(self.connect_ms.len() as f64)),
                    ("mean", {
                        let n = self.connect_ms.len();
                        Json::Num(if n == 0 {
                            0.0
                        } else {
                            self.connect_ms.iter().sum::<f64>() / n as f64
                        })
                    }),
                    ("p50", Json::Num(sorted_quantile(&self.connect_ms, 0.50))),
                    ("max", Json::Num(sorted_quantile(&self.connect_ms, 1.0))),
                ]),
            ),
            (
                "determinism",
                obj(vec![
                    ("seeds_observed", Json::Num(self.seeds_observed as f64)),
                    ("consistent", Json::Bool(self.deterministic)),
                ]),
            ),
            (
                "graph_cache",
                match (self.graph_cache_hits, self.graph_cache_misses) {
                    (Some(h), Some(m)) => obj(vec![
                        ("hits", Json::Num(h as f64)),
                        ("misses", Json::Num(m as f64)),
                    ]),
                    _ => Json::Null,
                },
            ),
            (
                "accounting",
                match self.accounting {
                    Some(a) => obj(vec![
                        ("submitted", Json::Num(a.submitted as f64)),
                        ("ok", Json::Num(a.ok as f64)),
                        ("errors", Json::Num(a.errors as f64)),
                        ("drops", Json::Num(a.drops as f64)),
                        ("balanced", Json::Bool(a.balanced())),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// One-paragraph human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let accounting = match self.accounting {
            Some(a) if a.balanced() => "balanced".to_string(),
            Some(a) => format!(
                "UNBALANCED ({} + {} + {} != {})",
                a.ok, a.errors, a.drops, a.submitted
            ),
            None => "unavailable".to_string(),
        };
        let cache = match (self.graph_cache_hits, self.graph_cache_misses) {
            (Some(h), Some(m)) => format!("{h} hits / {m} misses"),
            _ => "unavailable".to_string(),
        };
        format!(
            "sent {} | ok {} | overloaded {} | errors {} | transport {} | \
             {:.1} req/s | latency ms p50 {:.2} p95 {:.2} p99 {:.2} max {:.2} | \
             connect ms p50 {:.2} | \
             deterministic: {} | accounting: {accounting} | graph cache: {cache}\n",
            self.sent,
            self.ok,
            self.overloaded,
            self.errors,
            self.transport_failures,
            self.throughput_rps(),
            self.quantile_ms(0.50),
            self.quantile_ms(0.95),
            self.quantile_ms(0.99),
            self.quantile_ms(1.0),
            sorted_quantile(&self.connect_ms, 0.50),
            self.deterministic
        )
    }
}

struct ClientTally {
    ok: usize,
    overloaded: usize,
    errors: usize,
    transport_failures: usize,
    sent: usize,
    latencies_ms: Vec<f64>,
    /// seed → makespans seen. Sorted map: anything derived from a
    /// walk over seeds stays insertion-order-independent.
    makespans: BTreeMap<u64, Vec<f64>>,
}

/// Run the load described by `config` against a live daemon.
///
/// # Errors
///
/// Fails if no client can connect at all; individual request failures
/// are tallied, not fatal.
///
/// # Panics
///
/// Panics if `config.clients == 0` or `config.requests == 0`.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    assert!(config.clients >= 1, "need at least one client");
    assert!(config.requests >= 1, "need at least one request");
    // Connect every client up front: the request loops reuse these
    // connections across rounds, and the report can split connect cost
    // from request cost. The first connect failing means the daemon is
    // unreachable — fail fast; later failures are tallied per client.
    let mut conns: Vec<Option<Client>> = Vec::with_capacity(config.clients);
    let mut connect_ms: Vec<f64> = Vec::new();
    for c in 0..config.clients {
        let t0 = Instant::now();
        match Client::connect(&config.addr) {
            Ok(client) => {
                connect_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
                conns.push(Some(client));
            }
            Err(e) if c == 0 => return Err(e),
            Err(_) => conns.push(None),
        }
    }
    connect_ms.sort_by(f64::total_cmp);

    let tallies: Mutex<Vec<ClientTally>> = Mutex::new(Vec::new());
    let start = Instant::now();
    thread::scope(|scope| {
        for (c, conn) in conns.into_iter().enumerate() {
            let tallies = &tallies;
            scope.spawn(move || {
                let tally = client_loop(config, c, start, conn);
                tallies.lock().expect("tally lock").push(tally);
            });
        }
    });
    let wall = start.elapsed();

    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        overloaded: 0,
        errors: 0,
        transport_failures: 0,
        wall,
        latencies_ms: Vec::new(),
        connect_ms,
        deterministic: true,
        seeds_observed: 0,
        accounting: None,
        graph_cache_hits: None,
        graph_cache_misses: None,
    };
    let mut makespans: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for t in tallies.into_inner().expect("tally lock") {
        report.sent += t.sent;
        report.ok += t.ok;
        report.overloaded += t.overloaded;
        report.errors += t.errors;
        report.transport_failures += t.transport_failures;
        report.latencies_ms.extend(t.latencies_ms);
        for (seed, ms) in t.makespans {
            makespans.entry(seed).or_default().extend(ms);
        }
    }
    report.latencies_ms.sort_by(f64::total_cmp);
    report.seeds_observed = makespans.len();
    report.deterministic = makespans
        .values()
        .all(|ms| ms.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    // Snapshot the server's request-accounting ledger; the run is
    // quiescent now, so the ledger must balance.
    let stats_reply = Client::connect(&config.addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .ok();
    report.accounting = stats_reply.as_ref().and_then(Accounting::from_stats_json);
    let cache_counter = |key: &str| {
        let reply = stats_reply.as_ref()?;
        let body = reply.get("stats").unwrap_or(reply);
        body.get(key).and_then(Json::as_u64)
    };
    report.graph_cache_hits = cache_counter("graph_cache_hits");
    report.graph_cache_misses = cache_counter("graph_cache_misses");
    Ok(report)
}

fn client_loop(
    config: &LoadConfig,
    client_idx: usize,
    start: Instant,
    conn: Option<Client>,
) -> ClientTally {
    let mut tally = ClientTally {
        ok: 0,
        overloaded: 0,
        errors: 0,
        transport_failures: 0,
        sent: 0,
        latencies_ms: Vec::new(),
        makespans: BTreeMap::new(),
    };
    let n = requests_of(config, client_idx);
    let Some(mut client) = conn else {
        // The up-front connect failed: count every request this client
        // owned as a transport failure.
        tally.transport_failures = n;
        return tally;
    };
    let batch = config.batch.max(1);
    let mut i = 0;
    while i < n {
        let group = (n - i).min(batch);
        if let LoadMode::Open(rate) = config.mode {
            // Paced arrivals: request k (globally) is due at k/rate; a
            // batch departs when its first member is due.
            #[allow(clippy::cast_precision_loss)]
            let due = start
                + Duration::from_secs_f64(
                    (i * config.clients + client_idx) as f64 / rate.max(1e-9),
                );
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
        }
        let seeds: Vec<u64> = (i..i + group)
            .map(|k| {
                let global_idx = k * config.clients + client_idx;
                config.seed_base + (global_idx as u64 % config.distinct_seeds.max(1))
            })
            .collect();
        let req = if batch == 1 {
            submit_request(config, seeds[0])
        } else {
            Request::Batch(
                seeds
                    .iter()
                    .map(|&s| submit_request(config, s).encode())
                    .collect(),
            )
        };
        let t0 = Instant::now();
        tally.sent += group;
        match client.call(&req) {
            Ok(reply) => {
                let rtt = t0.elapsed().as_secs_f64() * 1000.0;
                if batch == 1 {
                    tally.latencies_ms.push(rtt);
                    tally_reply(&mut tally, &reply, seeds[0]);
                } else {
                    tally_batch_reply(&mut tally, &reply, &seeds, rtt);
                }
            }
            Err(_) => {
                tally.transport_failures += group;
                // Try to reconnect once; give up on this client if not.
                match Client::connect(&config.addr) {
                    Ok(c) => client = c,
                    Err(_) => {
                        tally.transport_failures += n - i - group;
                        break;
                    }
                }
            }
        }
        i += group;
    }
    tally
}

/// Build the `submit` request for one seed.
fn submit_request(config: &LoadConfig, seed: u64) -> Request {
    Request::Submit(Box::new(SubmitRequest {
        graph: GraphSpec::Named {
            shape: config.shape.clone(),
            size: config.size,
        },
        p: Some(config.p),
        model: config.model.clone(),
        seed,
        scheduler: "online".to_string(),
        algo: config.algo.clone(),
        mu: None,
        policy: None,
        include_allocations: false,
    }))
}

/// Tally one plain `submit` reply.
fn tally_reply(tally: &mut ClientTally, reply: &Json, seed: u64) {
    match reply.get("status").and_then(Json::as_str) {
        Some("ok") => {
            tally.ok += 1;
            if let Some(m) = reply.get("makespan").and_then(Json::as_f64) {
                tally.makespans.entry(seed).or_default().push(m);
            }
        }
        Some("overloaded") => tally.overloaded += 1,
        _ => tally.errors += 1,
    }
}

/// Tally a `submit_batch` envelope: each inner result counts as one
/// request, and each inner request records the frame's round trip as
/// its latency. An `overloaded` or `error` envelope (the queue refused
/// the whole batch) charges every member.
fn tally_batch_reply(tally: &mut ClientTally, reply: &Json, seeds: &[u64], rtt: f64) {
    tally
        .latencies_ms
        .extend(std::iter::repeat_n(rtt, seeds.len()));
    match reply.get("status").and_then(Json::as_str) {
        Some("ok") => {
            let results = reply.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            for (k, &seed) in seeds.iter().enumerate() {
                match results.get(k) {
                    Some(r) => tally_reply(tally, r, seed),
                    None => tally.errors += 1,
                }
            }
        }
        Some("overloaded") => tally.overloaded += seeds.len(),
        _ => tally.errors += seeds.len(),
    }
}

/// How many of the `requests` belong to client `idx` (round-robin).
fn requests_of(config: &LoadConfig, idx: usize) -> usize {
    let base = config.requests / config.clients;
    let extra = usize::from(idx < config.requests % config.clients);
    base + extra
}

/// Session-workload parameters (the streaming layer's loadgen).
///
/// The driver is deterministic by construction: every admission-order-
/// sensitive step (opens, DAG submissions, the quota probe, closes)
/// runs single-threaded in a fixed order, because the shared world
/// assigns arrival tie-breaks by admission sequence — two equal-date
/// DAGs submitted from racing threads would make the event log depend
/// on wall-clock interleaving. Polling *is* concurrent: draining
/// events only reads the deterministic log, so it cannot perturb it.
#[derive(Debug, Clone)]
pub struct SessionLoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Distinct tenants (`t0`, `t1`, …).
    pub tenants: usize,
    /// Sessions opened per tenant (`t0-s0`, `t0-s1`, …).
    pub sessions_per_tenant: usize,
    /// DAGs streamed into each session.
    pub dags_per_session: usize,
    /// Generator shape of every DAG.
    pub shape: String,
    /// Shape size.
    pub size: u32,
    /// Model class.
    pub model: String,
    /// Seed of DAG `(round, session)` is `seed_base + round *
    /// n_sessions + session_index`.
    pub seed_base: u64,
    /// Virtual-time gap between successive rounds of submissions.
    pub arrival_gap: f64,
    /// Poll batch size while draining events.
    pub max_events: u64,
    /// Quota probe: submit this many extra DAGs under tenant `probe`
    /// while the world clock is pinned, counting structured
    /// `quota_exceeded` rejections (0 disables the probe).
    pub probe_dags: usize,
    /// Concurrent poll-drain connections.
    pub threads: usize,
    /// Algorithm registry name sent with every `submit_dag`.
    pub algo: String,
    /// `submit_dag`s per `submit_batch` frame in the streaming phase;
    /// 1 sends plain frames. Batching preserves submission order (one
    /// client, one batch in flight, items executed in sequence), so the
    /// event log is byte-identical for any batch size.
    pub batch: usize,
}

impl Default for SessionLoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".to_string(),
            tenants: 4,
            sessions_per_tenant: 25,
            dags_per_session: 4,
            shape: "chain".to_string(),
            size: 3,
            model: "amdahl".to_string(),
            seed_base: 42,
            arrival_gap: 1.0,
            max_events: 4096,
            probe_dags: 0,
            threads: 8,
            algo: "icpp22".to_string(),
            batch: 1,
        }
    }
}

/// One tenant's client-side submit latencies (sorted ascending, ms).
#[derive(Debug, Clone)]
pub struct TenantLatencies {
    /// Tenant name.
    pub tenant: String,
    /// Sorted `submit_dag` round-trip latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// One tenant's server-side accounting ledger, read from the `stats`
/// reply's session block.
#[derive(Debug, Clone)]
pub struct TenantLedger {
    /// Tenant name.
    pub tenant: String,
    /// `submit_dag` attempts.
    pub submitted: u64,
    /// DAGs run to completion.
    pub ok: u64,
    /// Structural rejections.
    pub errors: u64,
    /// Quota rejections.
    pub drops: u64,
    /// `submitted == ok + errors + drops` (the server computes this at
    /// snapshot time; only meaningful at quiescence).
    pub balanced: bool,
}

/// Outcome of a session-workload run.
#[derive(Debug, Clone)]
pub struct SessionLoadReport {
    /// Sessions opened (excluding the probe session).
    pub sessions_opened: usize,
    /// `submit_dag` requests sent (including probe submissions).
    pub dags_submitted: usize,
    /// Submissions admitted.
    pub dags_ok: usize,
    /// Structured `quota_exceeded` rejections.
    pub quota_rejected: usize,
    /// Error replies (structural or transport).
    pub errors: usize,
    /// Completion events drained across all sessions.
    pub events: usize,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Per-tenant submit latencies.
    pub per_tenant: Vec<TenantLatencies>,
    /// Per-tenant server-side ledgers (empty if the stats snapshot
    /// failed).
    pub ledgers: Vec<TenantLedger>,
    /// Every ledger balanced at the post-run snapshot.
    pub ledgers_balanced: bool,
    /// The merged deterministic event log, one event per line, ordered
    /// by global sequence. Same workload ⇒ byte-identical.
    pub event_log: String,
}

impl SessionLoadReport {
    /// Render the `BENCH_sessions.json` document. The event log is
    /// *not* embedded (it can be large); write it separately for
    /// byte-comparison runs.
    #[must_use]
    pub fn to_json(&self, config: &SessionLoadConfig) -> Json {
        let tenant_json = |t: &TenantLatencies| {
            obj(vec![
                ("tenant", Json::Str(t.tenant.clone())),
                #[allow(clippy::cast_precision_loss)]
                ("submits", Json::Num(t.latencies_ms.len() as f64)),
                (
                    "latency_ms",
                    obj(vec![
                        ("p50", Json::Num(sorted_quantile(&t.latencies_ms, 0.50))),
                        ("p95", Json::Num(sorted_quantile(&t.latencies_ms, 0.95))),
                        ("p99", Json::Num(sorted_quantile(&t.latencies_ms, 0.99))),
                        ("max", Json::Num(sorted_quantile(&t.latencies_ms, 1.0))),
                    ]),
                ),
            ])
        };
        let ledger_json = |l: &TenantLedger| {
            #[allow(clippy::cast_precision_loss)]
            obj(vec![
                ("tenant", Json::Str(l.tenant.clone())),
                ("submitted", Json::Num(l.submitted as f64)),
                ("ok", Json::Num(l.ok as f64)),
                ("errors", Json::Num(l.errors as f64)),
                ("drops", Json::Num(l.drops as f64)),
                ("balanced", Json::Bool(l.balanced)),
            ])
        };
        #[allow(clippy::cast_precision_loss)]
        obj(vec![
            (
                "config",
                obj(vec![
                    ("tenants", Json::Num(config.tenants as f64)),
                    (
                        "sessions_per_tenant",
                        Json::Num(config.sessions_per_tenant as f64),
                    ),
                    (
                        "dags_per_session",
                        Json::Num(config.dags_per_session as f64),
                    ),
                    ("shape", Json::Str(config.shape.clone())),
                    ("size", Json::Num(f64::from(config.size))),
                    ("model", Json::Str(config.model.clone())),
                    ("seed_base", Json::Num(config.seed_base as f64)),
                    ("arrival_gap", Json::Num(config.arrival_gap)),
                    ("probe_dags", Json::Num(config.probe_dags as f64)),
                    ("batch", Json::Num(config.batch.max(1) as f64)),
                ]),
            ),
            ("sessions_opened", Json::Num(self.sessions_opened as f64)),
            ("dags_submitted", Json::Num(self.dags_submitted as f64)),
            ("dags_ok", Json::Num(self.dags_ok as f64)),
            ("quota_rejected", Json::Num(self.quota_rejected as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("events", Json::Num(self.events as f64)),
            ("wall_secs", Json::Num(self.wall.as_secs_f64())),
            (
                "event_log_sha",
                Json::Str(format!("{:016x}", fnv1a(self.event_log.as_bytes()))),
            ),
            (
                "per_tenant",
                Json::Arr(self.per_tenant.iter().map(tenant_json).collect()),
            ),
            (
                "ledgers",
                Json::Arr(self.ledgers.iter().map(ledger_json).collect()),
            ),
            ("ledgers_balanced", Json::Bool(self.ledgers_balanced)),
        ])
    }

    /// One-paragraph human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let worst = self
            .per_tenant
            .iter()
            .map(|t| sorted_quantile(&t.latencies_ms, 0.99))
            .fold(0.0f64, f64::max);
        format!(
            "sessions {} | dags {} (ok {} quota-rejected {} errors {}) | \
             events {} | worst tenant p99 {:.2} ms | ledgers balanced: {} | \
             event log {:016x}\n",
            self.sessions_opened,
            self.dags_submitted,
            self.dags_ok,
            self.quota_rejected,
            self.errors,
            self.events,
            worst,
            self.ledgers_balanced,
            fnv1a(self.event_log.as_bytes()),
        )
    }
}

/// Exact quantile over an already-sorted slice (0 when empty).
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// FNV-1a over the event log: a stable fingerprint for the bench
/// artifact without embedding the whole log.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Format one session event as an event-log line. Times use Rust's
/// shortest-roundtrip `f64` display, so equal virtual times render
/// equal bytes.
fn event_line(seq: u64, session: &str, event: &Json) -> String {
    let dag = event.get("dag").and_then(Json::as_u64).unwrap_or(0);
    match event.get("type").and_then(Json::as_str) {
        Some("task_done") => {
            let task = event.get("task").and_then(Json::as_u64).unwrap_or(0);
            let end = event.get("end").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let procs = event.get("procs").and_then(Json::as_u64).unwrap_or(0);
            format!("{seq} {session} dag={dag} task={task} end={end} procs={procs}")
        }
        Some("dag_done") => {
            let at = event.get("at").and_then(Json::as_f64).unwrap_or(f64::NAN);
            format!("{seq} {session} dag={dag} done at={at}")
        }
        _ => format!("{seq} {session} dag={dag} ?"),
    }
}

/// Drain one session to `closed`, appending `(seq, line)` pairs.
fn drain_session(
    client: &mut Client,
    session: &str,
    max_events: u64,
    out: &mut Vec<(u64, String)>,
) -> io::Result<()> {
    // Bounded: each DAG produces finitely many events and the session
    // is closed, so `closed` must arrive; the cap only guards against
    // a wedged server.
    for _ in 0..100_000 {
        let reply = client.call(&Request::Poll(crate::proto::PollRequest {
            session: session.to_string(),
            until: None,
            max_events,
        }))?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(io::Error::other(format!(
                "poll of `{session}` failed: {}",
                reply.encode()
            )));
        }
        if let Some(events) = reply.get("events").and_then(Json::as_arr) {
            for e in events {
                let seq = e.get("seq").and_then(Json::as_u64).unwrap_or(u64::MAX);
                out.push((seq, event_line(seq, session, e)));
            }
        }
        if reply.get("closed").and_then(Json::as_bool) == Some(true) {
            return Ok(());
        }
    }
    Err(io::Error::other(format!(
        "session `{session}` never closed"
    )))
}

/// Run the deterministic session workload against a live daemon.
///
/// # Errors
///
/// Fails on transport errors during the single-threaded phases (the
/// workload would no longer be the configured one); drain-phase
/// failures are tallied in `errors` instead.
///
/// # Panics
///
/// Panics if any dimension of the configured workload is zero.
pub fn run_sessions(config: &SessionLoadConfig) -> io::Result<SessionLoadReport> {
    assert!(
        config.tenants >= 1 && config.sessions_per_tenant >= 1 && config.dags_per_session >= 1,
        "workload dimensions must be >= 1"
    );
    assert!(config.threads >= 1, "need at least one drain thread");
    let start = Instant::now();
    let mut client = Client::connect(&config.addr)?;
    let mut report = SessionLoadReport {
        sessions_opened: 0,
        dags_submitted: 0,
        dags_ok: 0,
        quota_rejected: 0,
        errors: 0,
        events: 0,
        wall: Duration::ZERO,
        per_tenant: Vec::new(),
        ledgers: Vec::new(),
        ledgers_balanced: false,
        event_log: String::new(),
    };

    // Phase A: open every session, single-threaded, fixed order.
    let mut sessions: Vec<(String, String)> = Vec::new(); // (tenant, label)
    for t in 0..config.tenants {
        for s in 0..config.sessions_per_tenant {
            sessions.push((format!("t{t}"), format!("t{t}-s{s}")));
        }
    }
    for (tenant, label) in &sessions {
        let reply = client.call(&Request::OpenSession(crate::proto::OpenSessionRequest {
            tenant: tenant.clone(),
            session: label.clone(),
        }))?;
        if reply.get("status").and_then(Json::as_str) == Some("ok") {
            report.sessions_opened += 1;
        } else {
            return Err(io::Error::other(format!(
                "open of `{label}` failed: {}",
                reply.encode()
            )));
        }
    }

    // Phase B: quota probe. All open sessions still have frontier 0,
    // so the world clock is pinned and no probe DAG can complete —
    // the number of `quota_exceeded` replies is exactly
    // `probe_dags - max_dags_in_flight` when positive, independent of
    // timing.
    let probe_label = "probe-0".to_string();
    if config.probe_dags > 0 {
        let reply = client.call(&Request::OpenSession(crate::proto::OpenSessionRequest {
            tenant: "probe".to_string(),
            session: probe_label.clone(),
        }))?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(io::Error::other("probe session refused"));
        }
        for i in 0..config.probe_dags {
            let reply = client.call(&Request::SubmitDag(Box::new(
                crate::proto::SubmitDagRequest {
                    session: probe_label.clone(),
                    at: 0.0,
                    graph: GraphSpec::Named {
                        shape: config.shape.clone(),
                        size: config.size,
                    },
                    model: config.model.clone(),
                    seed: config.seed_base + i as u64,
                    algo: config.algo.clone(),
                },
            )))?;
            report.dags_submitted += 1;
            match reply.get("status").and_then(Json::as_str) {
                Some("ok") => report.dags_ok += 1,
                Some("quota_exceeded") => report.quota_rejected += 1,
                _ => report.errors += 1,
            }
        }
        let _ = client.call(&Request::CloseSession(crate::proto::CloseSessionRequest {
            session: probe_label.clone(),
        }))?;
    }

    // Phase C: stream the DAGs, round-robin across sessions so every
    // round shares a release date — contention by construction.
    let n_sessions = sessions.len();
    let batch = config.batch.max(1);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); config.tenants];
    let session_indices: Vec<usize> = (0..n_sessions).collect();
    for round in 0..config.dags_per_session {
        #[allow(clippy::cast_precision_loss)]
        let at = round as f64 * config.arrival_gap;
        let dag_request = |idx: usize| {
            Request::SubmitDag(Box::new(crate::proto::SubmitDagRequest {
                session: sessions[idx].1.clone(),
                at,
                graph: GraphSpec::Named {
                    shape: config.shape.clone(),
                    size: config.size,
                },
                model: config.model.clone(),
                seed: config.seed_base + (round * n_sessions + idx) as u64,
                algo: config.algo.clone(),
            }))
        };
        for chunk in session_indices.chunks(batch) {
            if batch == 1 {
                let idx = chunk[0];
                let t0 = Instant::now();
                let reply = client.call(&dag_request(idx))?;
                latencies[idx / config.sessions_per_tenant]
                    .push(t0.elapsed().as_secs_f64() * 1000.0);
                report.dags_submitted += 1;
                match reply.get("status").and_then(Json::as_str) {
                    Some("ok") => report.dags_ok += 1,
                    Some("quota_exceeded") => report.quota_rejected += 1,
                    _ => report.errors += 1,
                }
                continue;
            }
            // Batched: one frame carries this chunk's submissions, in
            // round-robin order. A refused envelope means the DAGs were
            // never admitted — the workload is no longer the configured
            // one, so fail fast like the other single-threaded phases.
            let frame =
                Request::Batch(chunk.iter().map(|&idx| dag_request(idx).encode()).collect());
            let t0 = Instant::now();
            let reply = client.call(&frame)?;
            let rtt = t0.elapsed().as_secs_f64() * 1000.0;
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(io::Error::other(format!(
                    "submit_batch envelope refused: {}",
                    reply.encode()
                )));
            }
            let results = reply.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            for (k, &idx) in chunk.iter().enumerate() {
                latencies[idx / config.sessions_per_tenant].push(rtt);
                report.dags_submitted += 1;
                match results
                    .get(k)
                    .and_then(|r| r.get("status"))
                    .and_then(Json::as_str)
                {
                    Some("ok") => report.dags_ok += 1,
                    Some("quota_exceeded") => report.quota_rejected += 1,
                    _ => report.errors += 1,
                }
            }
        }
    }

    // Phase D: close every session (single-threaded). After the last
    // close nothing gates the virtual clock, so the world can run to
    // quiescence during the drain polls.
    for (_, label) in &sessions {
        let reply = client.call(&Request::CloseSession(crate::proto::CloseSessionRequest {
            session: label.clone(),
        }))?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            report.errors += 1;
        }
    }

    // Phase E: drain events concurrently over disjoint session chunks.
    // Reading events cannot perturb the log, so threads are safe here.
    let mut all_labels: Vec<String> = sessions.iter().map(|(_, l)| l.clone()).collect();
    if config.probe_dags > 0 {
        all_labels.push(probe_label);
    }
    let chunk = all_labels.len().div_ceil(config.threads);
    let collected: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let drain_errors: Mutex<usize> = Mutex::new(0);
    thread::scope(|scope| {
        for labels in all_labels.chunks(chunk.max(1)) {
            let collected = &collected;
            let drain_errors = &drain_errors;
            let config = &config;
            scope.spawn(move || {
                let mut local: Vec<(u64, String)> = Vec::new();
                let mut failures = 0usize;
                match Client::connect(&config.addr) {
                    Ok(mut c) => {
                        for label in labels {
                            if drain_session(&mut c, label, config.max_events, &mut local).is_err()
                            {
                                failures += 1;
                            }
                        }
                    }
                    Err(_) => failures += labels.len(),
                }
                collected.lock().expect("event lock").extend(local);
                *drain_errors.lock().expect("error lock") += failures;
            });
        }
    });
    report.errors += drain_errors.into_inner().expect("error lock");
    let mut events = collected.into_inner().expect("event lock");
    events.sort_by_key(|(seq, _)| *seq);
    report.events = events.len();
    report.event_log = events
        .into_iter()
        .map(|(_, line)| line)
        .collect::<Vec<_>>()
        .join("\n");
    if !report.event_log.is_empty() {
        report.event_log.push('\n');
    }

    // Phase F: per-tenant latency tables and the server-side ledgers.
    for (t, mut lat) in latencies.into_iter().enumerate() {
        lat.sort_by(f64::total_cmp);
        report.per_tenant.push(TenantLatencies {
            tenant: format!("t{t}"),
            latencies_ms: lat,
        });
    }
    let stats_reply = Client::connect(&config.addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .ok();
    if let Some(Json::Obj(members)) = stats_reply
        .as_ref()
        .and_then(|r| r.get("sessions"))
        .and_then(|s| s.get("ledgers"))
    {
        for (tenant, l) in members {
            let n = |key: &str| l.get(key).and_then(Json::as_u64).unwrap_or(0);
            report.ledgers.push(TenantLedger {
                tenant: tenant.clone(),
                submitted: n("submitted"),
                ok: n("ok"),
                errors: n("errors"),
                drops: n("drops"),
                balanced: l.get("balanced").and_then(Json::as_bool).unwrap_or(false),
            });
        }
    }
    report.ledgers_balanced =
        !report.ledgers.is_empty() && report.ledgers.iter().all(|l| l.balanced);
    report.wall = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_split_covers_all_clients() {
        let mut config = LoadConfig {
            clients: 4,
            requests: 10,
            ..LoadConfig::default()
        };
        let total: usize = (0..4).map(|i| requests_of(&config, i)).sum();
        assert_eq!(total, 10);
        config.requests = 3;
        assert_eq!(requests_of(&config, 0), 1);
        assert_eq!(requests_of(&config, 3), 0);
    }

    #[test]
    fn quantiles_are_exact_on_sorted_data() {
        let r = LoadReport {
            sent: 4,
            ok: 4,
            overloaded: 0,
            errors: 0,
            transport_failures: 0,
            wall: Duration::from_secs(2),
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            connect_ms: vec![0.5, 1.5],
            deterministic: true,
            seeds_observed: 1,
            graph_cache_hits: Some(3),
            graph_cache_misses: Some(1),
            accounting: Some(Accounting {
                submitted: 4,
                ok: 4,
                errors: 0,
                drops: 0,
            }),
        };
        assert_eq!(r.quantile_ms(0.5), 2.0);
        assert_eq!(r.quantile_ms(1.0), 4.0);
        assert_eq!(r.mean_ms(), 2.5);
        assert_eq!(r.throughput_rps(), 2.0);
        let j = r.to_json(&LoadConfig::default());
        assert_eq!(j.get("ok").unwrap().as_u64(), Some(4));
        assert!(j.get("latency_ms").unwrap().get("p99").is_some());
        assert_eq!(
            j.get("accounting").unwrap().get("balanced").unwrap(),
            &Json::Bool(true)
        );
        assert!(r.summary().contains("deterministic: true"));
        assert!(r.summary().contains("accounting: balanced"));
        assert!(r.summary().contains("graph cache: 3 hits / 1 misses"));
        let cache = j.get("graph_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(3));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn summary_flags_an_unbalanced_or_missing_ledger() {
        let mut r = LoadReport {
            sent: 1,
            ok: 1,
            overloaded: 0,
            errors: 0,
            transport_failures: 0,
            wall: Duration::from_secs(1),
            latencies_ms: vec![1.0],
            connect_ms: vec![1.0],
            deterministic: true,
            seeds_observed: 1,
            accounting: None,
            graph_cache_hits: None,
            graph_cache_misses: None,
        };
        assert!(r.summary().contains("accounting: unavailable"));
        assert!(r.summary().contains("graph cache: unavailable"));
        assert_eq!(
            r.to_json(&LoadConfig::default()).get("accounting"),
            Some(&Json::Null)
        );
        r.accounting = Some(Accounting {
            submitted: 5,
            ok: 3,
            errors: 1,
            drops: 0,
        });
        assert!(r.summary().contains("UNBALANCED"));
    }

    #[test]
    fn sorted_quantile_matches_exact_ranks() {
        assert_eq!(sorted_quantile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(sorted_quantile(&v, 0.50), 2.0);
        assert_eq!(sorted_quantile(&v, 0.95), 4.0);
        assert_eq!(sorted_quantile(&v, 1.0), 4.0);
        assert_eq!(sorted_quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn event_lines_render_both_kinds_and_sort_by_seq() {
        let task = obj(vec![
            ("seq", Json::Num(3.0)),
            ("dag", Json::Num(0.0)),
            ("type", Json::Str("task_done".into())),
            ("task", Json::Num(2.0)),
            ("end", Json::Num(1.5)),
            ("procs", Json::Num(4.0)),
        ]);
        let done = obj(vec![
            ("seq", Json::Num(4.0)),
            ("dag", Json::Num(0.0)),
            ("type", Json::Str("dag_done".into())),
            ("at", Json::Num(1.5)),
        ]);
        assert_eq!(
            event_line(3, "t0-s0", &task),
            "3 t0-s0 dag=0 task=2 end=1.5 procs=4"
        );
        assert_eq!(event_line(4, "t0-s0", &done), "4 t0-s0 dag=0 done at=1.5");
        // Integral times render as integers (the wire does the same),
        // so both sides of a byte-comparison agree.
        let whole = obj(vec![
            ("seq", Json::Num(5.0)),
            ("dag", Json::Num(1.0)),
            ("type", Json::Str("dag_done".into())),
            ("at", Json::Num(3.0)),
        ]);
        assert_eq!(event_line(5, "t1-s0", &whole), "5 t1-s0 dag=1 done at=3");
    }

    #[test]
    fn session_report_json_has_percentiles_ledgers_and_fingerprint() {
        let report = SessionLoadReport {
            sessions_opened: 2,
            dags_submitted: 5,
            dags_ok: 4,
            quota_rejected: 1,
            errors: 0,
            events: 9,
            wall: Duration::from_secs(1),
            per_tenant: vec![TenantLatencies {
                tenant: "t0".into(),
                latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            }],
            ledgers: vec![TenantLedger {
                tenant: "t0".into(),
                submitted: 4,
                ok: 4,
                errors: 0,
                drops: 0,
                balanced: true,
            }],
            ledgers_balanced: true,
            event_log: "0 t0-s0 dag=0 done at=1\n".into(),
        };
        let j = report.to_json(&SessionLoadConfig::default());
        assert_eq!(j.get("dags_ok").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("quota_rejected").unwrap().as_u64(), Some(1));
        let tenants = j.get("per_tenant").unwrap().as_arr().unwrap();
        assert_eq!(
            tenants[0]
                .get("latency_ms")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            tenants[0]
                .get("latency_ms")
                .unwrap()
                .get("max")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
        let ledgers = j.get("ledgers").unwrap().as_arr().unwrap();
        assert_eq!(ledgers[0].get("balanced"), Some(&Json::Bool(true)));
        assert_eq!(j.get("ledgers_balanced"), Some(&Json::Bool(true)));
        // The fingerprint is a pure function of the log bytes.
        assert_eq!(
            j.get("event_log_sha").unwrap().as_str().unwrap(),
            format!("{:016x}", fnv1a(report.event_log.as_bytes()))
        );
        assert!(report.summary().contains("ledgers balanced: true"));
    }
}

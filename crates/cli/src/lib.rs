//! Command-line front end for the `moldable` workspace.
//!
//! Subcommands operating on the `.mtg` workflow format:
//!
//! ```text
//! moldable generate --shape cholesky --size 6 --model amdahl -P 32 --out w.mtg
//! moldable info     --graph w.mtg -P 32
//! moldable schedule --graph w.mtg -P 32 --scheduler online --gantt 100
//! moldable bounds   --graph w.mtg -P 32
//! moldable serve    --port 7464 --workers 4
//! moldable loadgen  --addr 127.0.0.1:7464 --clients 4 --requests 1000
//! ```
//!
//! The library entry point [`run`] takes the argument vector and
//! returns the text that `main` prints, so the whole CLI is unit
//! testable without spawning processes.

#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;

use moldable_core::{baselines, OnlineScheduler, QueuePolicy};
use moldable_graph::{gen, parse_workflow, TaskGraph};
use moldable_model::ModelClass;
use moldable_sim::{gantt_ascii, simulate, SimOptions};

/// CLI failure, printed to stderr with exit code 2.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text (also returned for `--help`).
pub const USAGE: &str = "\
moldable — online scheduling of moldable task graphs (ICPP'22)

USAGE:
  moldable generate --shape SHAPE --size N [--model CLASS] [-P N] [--seed N] [--out FILE]
  moldable info     --graph FILE [-P N]
  moldable bounds   --graph FILE -P N
  moldable schedule --graph FILE [-P N] [--scheduler NAME] [--algo NAME]
                    [--mu X] [--policy NAME] [--gantt WIDTH] [--csv FILE]
                    [--trace FILE] [--svg FILE]
  moldable fit      --samples FILE   # lines: <procs> <time>
  moldable serve    [--addr HOST:PORT | --port N] [--workers N] [--queue-cap N]
                    [--max-frame BYTES] [--timeout SECS] [--port-file FILE]
  moldable loadgen  [--addr HOST:PORT] [--clients N] [--requests N] [--rate RPS]
                    [--shape SHAPE] [--size N] [--model CLASS] [-P N]
                    [--algo NAME] [--seed N] [--seeds N] [--batch N] [--out FILE]
  moldable session-loadgen [--addr HOST:PORT] [--tenants N] [--sessions N]
                    [--dags N] [--shape SHAPE] [--size N] [--model CLASS]
                    [--algo NAME] [--seed N] [--gap SECS] [--max-events N]
                    [--probe-dags N] [--threads N] [--batch N] [--out FILE]
                    [--events-out FILE]
  moldable chaos    [--seed N] [--scenarios N] [--workers N] [--out FILE]
  moldable lint     [--root DIR] [--json FILE]

SHAPES:      chain, independent, fork-join, in-tree, out-tree, layered,
             random, lu, cholesky, fft, wavefront
CLASSES:     roofline, communication, amdahl, general  (default: amdahl)
SCHEDULERS:  online (paper's Algorithm 1+2, default), one-proc, max-proc,
             ect, equal-share, backfill (EASY), adaptive (mu discovered
             online), cpa (offline)
ALGOS:       icpp22 (default, ICPP'22 Algorithm 2), improved23 (the
             Perotin–Sun dual allocation; online scheduler only)
POLICIES:    fifo (default), lpt, spt, narrow-first, wide-first

`serve` runs the scheduling daemon until SIGINT/SIGTERM or a `shutdown`
request, then drains gracefully; --session-p/--session-mu size the
shared streaming platform and --session-max-sessions/--session-max-dags/
--session-max-tasks/--session-idle-ms set per-tenant quotas and the
idle reaper. `loadgen` drives closed-loop traffic
(or open-loop with --rate) against a running daemon and prints
throughput/latency percentiles; --batch N packs N submits per
`submit_batch` frame; --out writes the JSON report.
`session-loadgen` streams a deterministic multi-tenant DAG workload
through the session verbs (open_session/submit_dag/poll/close_session):
--tenants × --sessions sessions each receive --dags DAGs, --probe-dags
adds a quota-probing tenant, --batch N packs N submit_dags per
`submit_batch` frame (order-preserving, so the event log is unchanged),
--out writes BENCH_sessions.json, and
--events-out writes the merged event log (same workload ⇒ identical
bytes).
`chaos` derives a seeded fault schedule, runs each scenario against its
own in-process daemon, and checks six invariants (alive, accounted,
pool stable, drained, makespans bit-equal, session ledgers balanced
after abandoned streams are reaped); the same seed reproduces
the same schedule and verdicts. Exits non-zero if any invariant broke.
`lint` runs the moldable-lint determinism & concurrency static-analysis
pass over the workspace rooted at --root (default: the current
directory) and exits non-zero on any violation; --json writes the
machine-readable report. Same engine as `cargo run -p moldable-lint`.
";

/// Parsed `--key value` options plus positional arguments.
///
/// A `BTreeMap` on purpose: `known()` reports the first unknown
/// option, and with a hash map "first" would depend on the per-process
/// hasher seed — the same bad invocation could name a different
/// offender on every run. Sorted keys make every diagnostic a pure
/// function of the argument vector.
struct Opts {
    named: BTreeMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut named = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix('-') else {
                return Err(err(format!("unexpected positional argument `{a}`")));
            };
            let key = key.trim_start_matches('-').to_string();
            let value = it
                .next()
                .ok_or_else(|| err(format!("option --{key} requires a value")))?
                .clone();
            if named.insert(key.clone(), value).is_some() {
                return Err(err(format!("option --{key} given twice")));
            }
        }
        Ok(Self { named })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| err(format!("missing required option --{key}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| err(format!("--{key}: not a valid number: `{v}`"))),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), CliError> {
        for k in self.named.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(err(format!("unknown option --{k} (see --help)")));
            }
        }
        Ok(())
    }
}

fn load_graph(opts: &Opts) -> Result<(TaskGraph, Option<u32>), CliError> {
    let path = opts.req("graph")?;
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    parse_workflow(&text).map_err(|e| err(format!("{path}: {e}")))
}

fn platform(opts: &Opts, hint: Option<u32>) -> Result<u32, CliError> {
    match opts.parse_num::<u32>("P")? {
        Some(p) if p >= 1 => Ok(p),
        Some(_) => Err(err("-P must be at least 1")),
        None => hint.ok_or_else(|| err("no -P given and the workflow has no `p` hint")),
    }
}

fn model_class(opts: &Opts) -> Result<ModelClass, CliError> {
    Ok(match opts.get("model").unwrap_or("amdahl") {
        "roofline" => ModelClass::Roofline,
        "communication" | "comm" => ModelClass::Communication,
        "amdahl" => ModelClass::Amdahl,
        "general" => ModelClass::General,
        other => return Err(err(format!("unknown model class `{other}`"))),
    })
}

fn cmd_generate(opts: &Opts) -> Result<String, CliError> {
    opts.known(&["shape", "size", "model", "P", "seed", "out"])?;
    let shape = opts.req("shape")?.to_string();
    let size: u32 = opts
        .parse_num("size")?
        .ok_or_else(|| err("missing required option --size"))?;
    let p_total = opts.parse_num::<u32>("P")?.unwrap_or(64);
    let seed = opts.parse_num::<u64>("seed")?.unwrap_or(42);
    let class = model_class(opts)?;

    // One shared constructor with the daemon: `moldable serve` and
    // `moldable generate` accept exactly the same shapes and seeds.
    let graph = gen::by_name(&shape, size, class, p_total, seed)
        .map_err(|e| err(format!("{e} (see --help)")))?;
    let text = graph.to_workflow(Some(p_total));
    if let Some(out) = opts.get("out") {
        fs::write(out, &text).map_err(|e| err(format!("cannot write {out}: {e}")))?;
        Ok(format!(
            "wrote {out}: {} tasks, {} edges (shape {shape}, class {}, seed {seed})\n",
            graph.n_tasks(),
            graph.n_edges(),
            class.name()
        ))
    } else {
        Ok(text)
    }
}

fn cmd_info(opts: &Opts) -> Result<String, CliError> {
    opts.known(&["graph", "P"])?;
    let (g, hint) = load_graph(opts)?;
    let mut out = String::new();
    out.push_str(&format!(
        "tasks: {}\nedges: {}\ndepth: {}\nsources: {}\nsinks: {}\n",
        g.n_tasks(),
        g.n_edges(),
        g.depth(),
        g.sources().len(),
        g.sinks().len()
    ));
    if let Some(class) = g.model_class() {
        out.push_str(&format!(
            "model class: {class} (mu* = {:.4})\n",
            class.optimal_mu()
        ));
    }
    if let Ok(p) = platform(opts, hint) {
        let b = g.bounds(p);
        out.push_str(&format!(
            "P = {p}: A_min/P = {:.4}, C_min = {:.4}, lower bound = {:.4}\n",
            b.area_bound(),
            b.c_min,
            b.lower_bound()
        ));
    }
    Ok(out)
}

fn cmd_bounds(opts: &Opts) -> Result<String, CliError> {
    opts.known(&["graph", "P"])?;
    let (g, hint) = load_graph(opts)?;
    let p = platform(opts, hint)?;
    let b = g.bounds(p);
    Ok(format!(
        "A_min = {:.6}\nA_min/P = {:.6}\nC_min = {:.6}\nlower_bound = {:.6}\ncritical_path = {}\n",
        b.a_min_total,
        b.area_bound(),
        b.c_min,
        b.lower_bound(),
        b.critical_path
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" -> ")
    ))
}

fn make_policy(name: &str) -> Result<QueuePolicy, CliError> {
    QueuePolicy::all()
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| err(format!("unknown policy `{name}` (see --help)")))
}

fn cmd_schedule(opts: &Opts) -> Result<String, CliError> {
    opts.known(&[
        "graph",
        "P",
        "scheduler",
        "algo",
        "mu",
        "policy",
        "gantt",
        "csv",
        "trace",
        "svg",
    ])?;
    let (g, hint) = load_graph(opts)?;
    let p = platform(opts, hint)?;
    let name = opts.get("scheduler").unwrap_or("online");
    let class = g.model_class().unwrap_or(ModelClass::General);
    let algo = moldable_core::registry::by_name(opts.get("algo").unwrap_or("icpp22"))
        .map_err(|e| err(format!("{e} (see --help)")))?;
    let mu = opts.parse_num::<f64>("mu")?;
    let policy = match opts.get("policy") {
        Some(p) => Some(make_policy(p)?),
        None => None,
    };
    if mu.is_some() && name != "online" && name != "backfill" {
        return Err(err("--mu only applies to the online scheduler"));
    }
    if algo != moldable_core::AlgoName::Icpp22 && name != "online" {
        return Err(err(format!(
            "--algo {algo} only applies to the online scheduler, not `{name}`"
        )));
    }
    if policy.is_some() && name != "online" {
        return Err(err("--policy only applies to the online scheduler"));
    }

    let want_visuals =
        opts.get("gantt").is_some() || opts.get("trace").is_some() || opts.get("svg").is_some();
    let sim_opts = if want_visuals {
        SimOptions::new(p).with_proc_ids()
    } else {
        SimOptions::new(p)
    };

    let schedule = match name {
        "online" => {
            let mut s = match mu {
                Some(m) => OnlineScheduler::with_algo(algo, m),
                None => OnlineScheduler::for_algo_class(algo, class),
            };
            if let Some(pol) = policy {
                s = s.with_policy(pol);
            }
            simulate(&g, &mut s, &sim_opts)
        }
        "one-proc" => simulate(&g, &mut baselines::one_proc(), &sim_opts),
        "max-proc" => simulate(&g, &mut baselines::max_proc(), &sim_opts),
        "ect" => simulate(&g, &mut baselines::EctScheduler::new(), &sim_opts),
        "equal-share" => simulate(&g, &mut baselines::EqualShareScheduler::new(), &sim_opts),
        "backfill" => {
            let m = mu.unwrap_or_else(|| class.optimal_mu());
            simulate(
                &g,
                &mut moldable_core::EasyBackfillScheduler::new(m),
                &sim_opts,
            )
        }
        "adaptive" => simulate(&g, &mut moldable_core::AdaptiveScheduler::new(), &sim_opts),
        "cpa" => {
            let allocs = moldable_offline::cpa_allocations(&g, p);
            let mut s = moldable_offline::cpa::FixedAllocScheduler::new(allocs);
            simulate(&g, &mut s, &sim_opts)
        }
        other => return Err(err(format!("unknown scheduler `{other}` (see --help)"))),
    }
    .map_err(|e| err(format!("simulation failed: {e}")))?;
    schedule
        .validate(&g)
        .map_err(|e| err(format!("produced invalid schedule: {e}")))?;

    let b = g.bounds(p);
    let mut out = String::new();
    if name == "online" {
        out.push_str(&format!("algo: {algo}\n"));
    }
    out.push_str(&format!(
        "scheduler: {name}\nP: {p}\ntasks: {}\nmakespan: {:.6}\nlower bound: {:.6}\n\
         normalized: {:.4}\nutilization: {:.1}%\n",
        g.n_tasks(),
        schedule.makespan,
        b.lower_bound(),
        schedule.makespan / b.lower_bound(),
        100.0 * schedule.utilization()
    ));
    if let Some(w) = opts.get("gantt") {
        let width: usize = w.parse().map_err(|_| err("--gantt needs a column width"))?;
        out.push('\n');
        out.push_str(&gantt_ascii(&schedule, width.max(10), |i| {
            char::from_digit(u32::try_from(i % 36).expect("bounded"), 36).expect("radix 36")
        }));
    }
    if let Some(path) = opts.get("csv") {
        fs::write(path, schedule.to_csv()).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote CSV to {path}\n"));
    }
    if let Some(path) = opts.get("trace") {
        let json = schedule.to_chrome_trace(|i| format!("t{i}"));
        fs::write(path, json).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote Chrome trace to {path}\n"));
    }
    if let Some(path) = opts.get("svg") {
        let svg = schedule.to_svg(1000.0, |i| format!("t{i}"));
        fs::write(path, svg).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote SVG Gantt to {path}\n"));
    }
    Ok(out)
}

fn cmd_fit(opts: &Opts) -> Result<String, CliError> {
    opts.known(&["samples"])?;
    let path = opts.req("samples")?;
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(p), Some(t), None) = (it.next(), it.next(), it.next()) else {
            return Err(err(format!("{path}:{}: expected `<procs> <time>`", i + 1)));
        };
        let p: u32 = p
            .parse()
            .map_err(|_| err(format!("{path}:{}: bad procs", i + 1)))?;
        let t: f64 = t
            .parse()
            .map_err(|_| err(format!("{path}:{}: bad time", i + 1)))?;
        samples.push((p, t));
    }
    let mut out = String::new();
    for class in ModelClass::bounded_classes() {
        let fit = moldable_model::fit::fit_class(class, &samples)
            .map_err(|e| err(format!("fit failed: {e}")))?;
        out.push_str(&format!(
            "{:>14}: rmse {:>12.6}  {}\n",
            class.name(),
            fit.rmse,
            fit.model.to_spec()
        ));
    }
    let best =
        moldable_model::fit::fit_best(&samples).map_err(|e| err(format!("fit failed: {e}")))?;
    out.push_str(&format!(
        "best: {} ({}, rmse {:.6}) — schedule with mu = {:.4}\n",
        best.model.to_spec(),
        best.class.name(),
        best.rmse,
        best.class.optimal_mu()
    ));
    Ok(out)
}

/// Start the scheduling daemon and block until it drains (SIGINT,
/// SIGTERM, or a `shutdown` request). Prints the listening address
/// *before* blocking so scripts can synchronize on it.
fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    use moldable_serve::server::{Server, ServerConfig};

    opts.known(&[
        "addr",
        "port",
        "workers",
        "queue-cap",
        "max-frame",
        "timeout",
        "port-file",
        "session-p",
        "session-mu",
        "session-max-sessions",
        "session-max-dags",
        "session-max-tasks",
        "session-idle-ms",
    ])?;
    if opts.get("addr").is_some() && opts.get("port").is_some() {
        return Err(err("give either --addr or --port, not both"));
    }
    let mut config = ServerConfig::default();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_string();
    } else if let Some(port) = opts.parse_num::<u16>("port")? {
        config.addr = format!("127.0.0.1:{port}");
    }
    if let Some(w) = opts.parse_num::<usize>("workers")? {
        if w == 0 {
            return Err(err("--workers must be at least 1"));
        }
        config.workers = w;
    }
    if let Some(q) = opts.parse_num::<usize>("queue-cap")? {
        config.queue_cap = q;
    }
    if let Some(m) = opts.parse_num::<u32>("max-frame")? {
        config.max_frame = m;
    }
    if let Some(t) = opts.parse_num::<f64>("timeout")? {
        if t <= 0.0 || t.is_nan() {
            return Err(err("--timeout must be positive seconds"));
        }
        config.request_timeout = std::time::Duration::from_secs_f64(t);
    }
    if let Some(p) = opts.parse_num::<u32>("session-p")? {
        if p == 0 {
            return Err(err("--session-p must be at least 1"));
        }
        config.tenant.p_total = p;
    }
    if let Some(mu) = opts.parse_num::<f64>("session-mu")? {
        if !(mu > 0.0 && mu < 1.0) {
            return Err(err("--session-mu must lie strictly between 0 and 1"));
        }
        config.tenant.mu = mu;
    }
    if let Some(n) = opts.parse_num::<u32>("session-max-sessions")? {
        config.tenant.quotas.max_sessions = n;
    }
    if let Some(n) = opts.parse_num::<u32>("session-max-dags")? {
        config.tenant.quotas.max_dags_in_flight = n;
    }
    if let Some(n) = opts.parse_num::<u64>("session-max-tasks")? {
        config.tenant.quotas.max_tasks_in_flight = n;
    }
    if let Some(ms) = opts.parse_num::<u64>("session-idle-ms")? {
        config.tenant.idle_timeout_ms = Some(ms);
    }

    moldable_serve::install_drain_signals();
    let workers = config.workers;
    let server = Server::start(config).map_err(|e| err(format!("cannot bind: {e}")))?;
    let addr = server.local_addr();
    if let Some(path) = opts.get("port-file") {
        fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    println!("listening on {addr} ({workers} workers); Ctrl-C to drain");
    server.run_until_drained();
    Ok("drained; all queued requests answered\n".to_string())
}

/// Drive load against a running daemon and report the outcome.
fn cmd_loadgen(opts: &Opts) -> Result<String, CliError> {
    use moldable_serve::{loadgen, LoadConfig, LoadMode};

    opts.known(&[
        "addr", "clients", "requests", "rate", "shape", "size", "model", "P", "algo", "seed",
        "seeds", "batch", "out",
    ])?;
    let mut config = LoadConfig::default();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_string();
    }
    if let Some(c) = opts.parse_num::<usize>("clients")? {
        if c == 0 {
            return Err(err("--clients must be at least 1"));
        }
        config.clients = c;
    }
    if let Some(r) = opts.parse_num::<usize>("requests")? {
        if r == 0 {
            return Err(err("--requests must be at least 1"));
        }
        config.requests = r;
    }
    if let Some(rate) = opts.parse_num::<f64>("rate")? {
        if rate <= 0.0 || rate.is_nan() {
            return Err(err("--rate must be positive requests/second"));
        }
        config.mode = LoadMode::Open(rate);
    }
    if let Some(shape) = opts.get("shape") {
        config.shape = shape.to_string();
    }
    if let Some(size) = opts.parse_num::<u32>("size")? {
        config.size = size;
    }
    if let Some(model) = opts.get("model") {
        config.model = model.to_string();
    }
    if let Some(p) = opts.parse_num::<u32>("P")? {
        config.p = p;
    }
    if let Some(algo) = opts.get("algo") {
        // Validated here so a typo fails before any connection is made
        // rather than as a per-request daemon error.
        moldable_core::registry::by_name(algo).map_err(|e| err(format!("{e} (see --help)")))?;
        config.algo = algo.to_string();
    }
    if let Some(seed) = opts.parse_num::<u64>("seed")? {
        config.seed_base = seed;
    }
    if let Some(seeds) = opts.parse_num::<u64>("seeds")? {
        if seeds == 0 {
            return Err(err("--seeds must be at least 1"));
        }
        config.distinct_seeds = seeds;
    }
    if let Some(b) = opts.parse_num::<usize>("batch")? {
        if b == 0 {
            return Err(err("--batch must be at least 1"));
        }
        config.batch = b;
    }

    let report = loadgen::run(&config)
        .map_err(|e| err(format!("load run failed against {}: {e}", config.addr)))?;
    let mut out = report.summary();
    if let Some(path) = opts.get("out") {
        fs::write(path, report.to_json(&config).encode())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    Ok(out)
}

/// Stream a deterministic multi-tenant session workload against a
/// running daemon and report per-tenant latencies and ledgers.
fn cmd_session_loadgen(opts: &Opts) -> Result<String, CliError> {
    use moldable_serve::{loadgen, SessionLoadConfig};

    opts.known(&[
        "addr",
        "tenants",
        "sessions",
        "dags",
        "shape",
        "size",
        "model",
        "algo",
        "seed",
        "gap",
        "max-events",
        "probe-dags",
        "threads",
        "batch",
        "out",
        "events-out",
    ])?;
    let mut config = SessionLoadConfig::default();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_string();
    }
    for (key, slot) in [
        ("tenants", &mut config.tenants),
        ("sessions", &mut config.sessions_per_tenant),
        ("dags", &mut config.dags_per_session),
        ("threads", &mut config.threads),
    ] {
        if let Some(n) = opts.parse_num::<usize>(key)? {
            if n == 0 {
                return Err(err(format!("--{key} must be at least 1")));
            }
            *slot = n;
        }
    }
    if let Some(shape) = opts.get("shape") {
        config.shape = shape.to_string();
    }
    if let Some(size) = opts.parse_num::<u32>("size")? {
        config.size = size;
    }
    if let Some(model) = opts.get("model") {
        config.model = model.to_string();
    }
    if let Some(algo) = opts.get("algo") {
        // Same eager validation as `loadgen`: fail before connecting.
        moldable_core::registry::by_name(algo).map_err(|e| err(format!("{e} (see --help)")))?;
        config.algo = algo.to_string();
    }
    if let Some(seed) = opts.parse_num::<u64>("seed")? {
        config.seed_base = seed;
    }
    if let Some(gap) = opts.parse_num::<f64>("gap")? {
        if gap < 0.0 || gap.is_nan() {
            return Err(err("--gap must be non-negative virtual seconds"));
        }
        config.arrival_gap = gap;
    }
    if let Some(n) = opts.parse_num::<u64>("max-events")? {
        if n == 0 {
            return Err(err("--max-events must be at least 1"));
        }
        config.max_events = n;
    }
    if let Some(n) = opts.parse_num::<usize>("probe-dags")? {
        config.probe_dags = n;
    }
    if let Some(b) = opts.parse_num::<usize>("batch")? {
        if b == 0 {
            return Err(err("--batch must be at least 1"));
        }
        config.batch = b;
    }

    let report = loadgen::run_sessions(&config)
        .map_err(|e| err(format!("session run failed against {}: {e}", config.addr)))?;
    let mut out = report.summary();
    if let Some(path) = opts.get("out") {
        fs::write(path, report.to_json(&config).encode())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    if let Some(path) = opts.get("events-out") {
        fs::write(path, &report.event_log).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote event log to {path}\n"));
    }
    Ok(out)
}

fn cmd_chaos(opts: &Opts) -> Result<String, CliError> {
    use moldable_chaos::{runner, ChaosConfig};

    opts.known(&["seed", "scenarios", "workers", "out"])?;
    let mut config = ChaosConfig::default();
    if let Some(seed) = opts.parse_num::<u64>("seed")? {
        config.seed = seed;
    }
    if let Some(n) = opts.parse_num::<usize>("scenarios")? {
        if n == 0 {
            return Err(err("--scenarios must be at least 1"));
        }
        config.scenarios = n;
    }
    if let Some(w) = opts.parse_num::<usize>("workers")? {
        if w == 0 {
            return Err(err("--workers must be at least 1"));
        }
        config.workers = w;
    }

    let report = runner::run(&config);
    let mut out = report.summary();
    if let Some(path) = opts.get("out") {
        fs::write(path, report.to_json().encode())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote scenario log to {path}\n"));
    }
    if report.all_green() {
        Ok(out)
    } else {
        Err(CliError(out))
    }
}

/// Run the determinism & concurrency lint over a workspace tree and
/// treat any violation as a CLI failure — `moldable lint` is the same
/// gate CI runs, reachable from the installed binary.
fn cmd_lint(opts: &Opts) -> Result<String, CliError> {
    opts.known(&["root", "json"])?;
    let root = std::path::Path::new(opts.get("root").unwrap_or("."));
    let report = moldable_lint::run_workspace(root)
        .map_err(|e| err(format!("cannot scan {}: {e}", root.display())))?;
    let mut out = report.to_text();
    if let Some(path) = opts.get("json") {
        fs::write(path, report.to_json()).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    if report.diagnostics.is_empty() {
        Ok(out)
    } else {
        Err(CliError(out))
    }
}

/// Entry point: dispatch `args` (without the program name) and return
/// the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any misuse.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(USAGE.to_string());
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Ok(USAGE.to_string());
    }
    let opts = Opts::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "info" => cmd_info(&opts),
        "bounds" => cmd_bounds(&opts),
        "schedule" => cmd_schedule(&opts),
        "fit" => cmd_fit(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "session-loadgen" => cmd_session_loadgen(&opts),
        "chaos" => cmd_chaos(&opts),
        "lint" => cmd_lint(&opts),
        other => Err(err(format!("unknown command `{other}` (see --help)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(ToString::to_string).collect();
        run(&v)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("moldable-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run_args(&[]).unwrap().contains("USAGE"));
        assert!(run_args(&["--help"]).unwrap().contains("SCHEDULERS"));
    }

    #[test]
    fn unknown_option_diagnostic_is_deterministic() {
        // Regression pin for the moldable-lint no-hash-iter fix: Opts
        // holds a BTreeMap, so with several unknown options the error
        // always names the lexicographically first one. With the old
        // HashMap, which option got reported depended on the
        // per-process hasher seed.
        for _ in 0..16 {
            let e =
                run_args(&["info", "--zeta", "1", "--alpha", "2", "--graph", "g.mtg"]).unwrap_err();
            assert!(
                e.0.contains("--alpha"),
                "expected the first unknown option alphabetically, got: {}",
                e.0
            );
        }
    }

    #[test]
    fn usage_enumerates_every_subcommand() {
        let usage = run_args(&["--help"]).unwrap();
        for cmd in [
            "generate",
            "info",
            "bounds",
            "schedule",
            "fit",
            "serve",
            "loadgen",
            "session-loadgen",
            "chaos",
            "lint",
        ] {
            assert!(
                usage.contains(&format!("moldable {cmd}")),
                "usage is missing `{cmd}`"
            );
        }
    }

    #[test]
    fn lint_subcommand_gates_the_workspace() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let json = tmp("lint_report.json");
        let out = run_args(&["lint", "--root", root, "--json", &json]).unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
        assert!(out.contains("wrote report"), "{out}");
        let report = fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"lock_graph\""), "{report}");

        // A tree with violations turns into a CLI error (non-zero exit
        // from main): the unsafe-attr fixture workspace is missing its
        // crate-level attributes on purpose.
        let bad_root = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../lint/tests/fixtures/unsafe_attr_ws"
        );
        let e = run_args(&["lint", "--root", bad_root]).unwrap_err();
        assert!(e.to_string().contains("unsafe-attr"), "{e}");

        let e = run_args(&["lint", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("unknown option"));
    }

    #[test]
    fn loadgen_drives_a_live_daemon() {
        use moldable_serve::server::{Server, ServerConfig};
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let out_file = tmp("bench_serve_cli.json");
        let out = run_args(&[
            "loadgen",
            "--addr",
            &addr,
            "--clients",
            "2",
            "--requests",
            "20",
            "--shape",
            "lu",
            "--size",
            "3",
            "--seeds",
            "4",
            "--out",
            &out_file,
        ])
        .unwrap();
        assert!(out.contains("ok 20"), "{out}");
        assert!(out.contains("deterministic: true"), "{out}");
        assert!(out.contains("wrote report"), "{out}");
        let report = fs::read_to_string(&out_file).unwrap();
        assert!(report.contains("\"throughput_rps\""), "{report}");
        server.trigger_drain();
        server.join();
    }

    #[test]
    fn session_loadgen_streams_probes_quotas_and_writes_the_event_log() {
        use moldable_model::ModelClass;
        use moldable_serve::server::{Server, ServerConfig};
        use moldable_tenant::TenantConfig;

        let out_file = tmp("bench_sessions_cli.json");
        let first_log = tmp("sessions_first.log");
        let second_log = tmp("sessions_second.log");
        // A fresh daemon per run: determinism is a property of the
        // workload on a fresh platform, not of a reused clock.
        let run_once = |log: &str| {
            // A tight DAG quota so --probe-dags deterministically
            // bounces.
            let mut tenant = TenantConfig::new(32, ModelClass::Amdahl.optimal_mu());
            tenant.quotas.max_dags_in_flight = 2;
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                tenant,
                ..ServerConfig::default()
            })
            .unwrap();
            let addr = server.local_addr().to_string();
            let out = run_args(&[
                "session-loadgen",
                "--addr",
                &addr,
                "--tenants",
                "2",
                "--sessions",
                "2",
                "--dags",
                "2",
                "--size",
                "3",
                "--probe-dags",
                "4",
                "--threads",
                "2",
                "--out",
                &out_file,
                "--events-out",
                log,
            ])
            .unwrap();
            server.trigger_drain();
            server.join();
            out
        };
        let out = run_once(&first_log);
        assert!(out.contains("sessions 4"), "{out}");
        // 2 probe DAGs bounce (4 submitted, quota 2) and all 4
        // round-1 DAGs bounce (round-0 DAGs are still in flight while
        // the clock is pinned at 0): 6 total, deterministically.
        assert!(out.contains("quota-rejected 6"), "quotas bounced: {out}");
        assert!(out.contains("ledgers balanced: true"), "{out}");
        assert!(out.contains("wrote report"), "{out}");
        assert!(out.contains("wrote event log"), "{out}");
        let report = fs::read_to_string(&out_file).unwrap();
        assert!(report.contains("\"ledgers_balanced\":true"), "{report}");
        assert!(report.contains("\"per_tenant\""), "{report}");

        // Same workload on a fresh daemon: identical event-log bytes.
        run_once(&second_log);
        let a = fs::read_to_string(&first_log).unwrap();
        let b = fs::read_to_string(&second_log).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "session event logs must replay byte-identically");
    }

    #[test]
    fn session_loadgen_and_serve_reject_bad_session_options() {
        let e = run_args(&["session-loadgen", "--tenants", "0"]).unwrap_err();
        assert!(e.to_string().contains("--tenants"));
        let e = run_args(&["session-loadgen", "--gap", "-1"]).unwrap_err();
        assert!(e.to_string().contains("--gap"));
        let e = run_args(&["session-loadgen", "--max-events", "0"]).unwrap_err();
        assert!(e.to_string().contains("--max-events"));
        let e = run_args(&["serve", "--session-p", "0"]).unwrap_err();
        assert!(e.to_string().contains("--session-p"));
        let e = run_args(&["serve", "--session-mu", "1.5"]).unwrap_err();
        assert!(e.to_string().contains("--session-mu"));
    }

    #[test]
    fn generate_rejects_oversized_fft_with_a_structured_error() {
        // Regression: `fft --size 64` used to die on a shift-overflow
        // panic deep in the generator; the size guard must turn it
        // into a clean CLI error instead.
        let e = run_args(&["generate", "--shape", "fft", "--size", "64"]).unwrap_err();
        assert!(e.to_string().contains("task-id space"), "{e}");
    }

    #[test]
    fn chaos_command_is_reproducible_per_seed() {
        let first_file = tmp("chaos_first.json");
        let second_file = tmp("chaos_second.json");
        let first = run_args(&[
            "chaos",
            "--seed",
            "9",
            "--scenarios",
            "2",
            "--workers",
            "2",
            "--out",
            &first_file,
        ])
        .unwrap();
        assert!(first.contains("ALL GREEN"), "{first}");
        assert!(first.contains("wrote scenario log"), "{first}");
        let second = run_args(&[
            "chaos",
            "--seed",
            "9",
            "--scenarios",
            "2",
            "--workers",
            "2",
            "--out",
            &second_file,
        ])
        .unwrap();
        assert!(second.contains("ALL GREEN"), "{second}");
        let a = fs::read_to_string(&first_file).unwrap();
        let b = fs::read_to_string(&second_file).unwrap();
        assert_eq!(a, b, "same seed must write byte-identical scenario logs");
        assert!(a.contains("\"seed\":\"9\""), "{a}");
    }

    #[test]
    fn chaos_rejects_bad_options() {
        let e = run_args(&["chaos", "--scenarios", "0"]).unwrap_err();
        assert!(e.to_string().contains("--scenarios"));
        let e = run_args(&["chaos", "--workers", "0"]).unwrap_err();
        assert!(e.to_string().contains("--workers"));
        let e = run_args(&["chaos", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("unknown option"));
    }

    #[test]
    fn loadgen_fails_cleanly_without_a_daemon() {
        // Port 1 is never listening for us.
        let e = run_args(&["loadgen", "--addr", "127.0.0.1:1", "--requests", "1"]).unwrap_err();
        assert!(e.to_string().contains("load run failed"), "{e}");
    }

    #[test]
    fn serve_command_runs_until_shutdown_request() {
        use moldable_serve::proto::Request;
        use moldable_serve::Client;

        let port_file = tmp("serve_port.txt");
        let _ = fs::remove_file(&port_file);
        let pf = port_file.clone();
        let daemon = std::thread::spawn(move || {
            run_args(&["serve", "--port", "0", "--workers", "2", "--port-file", &pf])
        });
        // Wait for the port file, then connect and stop the daemon.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let port = loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut client = Client::connect(&format!("127.0.0.1:{port}")).unwrap();
        let pong = client.call(&Request::Ping).unwrap();
        assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));
        let bye = client.call(&Request::Shutdown).unwrap();
        assert_eq!(bye.get("draining").unwrap().as_bool(), Some(true));
        drop(client);
        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("drained"), "{out}");
    }

    #[test]
    fn serve_rejects_conflicting_and_bad_options() {
        let e = run_args(&["serve", "--addr", "x", "--port", "1"]).unwrap_err();
        assert!(e.to_string().contains("not both"));
        let e = run_args(&["serve", "--workers", "0"]).unwrap_err();
        assert!(e.to_string().contains("--workers"));
        let e = run_args(&["loadgen", "--clients", "0"]).unwrap_err();
        assert!(e.to_string().contains("--clients"));
        let e = run_args(&["loadgen", "--rate", "-3"]).unwrap_err();
        assert!(e.to_string().contains("--rate"));
    }

    #[test]
    fn generate_info_schedule_roundtrip() {
        let file = tmp("chol.mtg");
        let msg = run_args(&[
            "generate", "--shape", "cholesky", "--size", "4", "--model", "amdahl", "-P", "16",
            "--seed", "7", "--out", &file,
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let info = run_args(&["info", "--graph", &file]).unwrap();
        assert!(info.contains("tasks: 20"), "{info}");
        assert!(info.contains("model class: amdahl"));
        assert!(info.contains("P = 16"), "p hint picked up: {info}");

        let out = run_args(&["schedule", "--graph", &file, "--scheduler", "online"]).unwrap();
        assert!(out.contains("makespan:"), "{out}");
        assert!(out.contains("normalized:"));
    }

    #[test]
    fn generate_to_stdout() {
        let text = run_args(&["generate", "--shape", "chain", "--size", "3", "-P", "4"]).unwrap();
        assert!(text.starts_with("p 4\n"));
        assert_eq!(text.matches("task ").count(), 3);
        assert_eq!(text.matches("edge ").count(), 2);
    }

    #[test]
    fn schedule_all_schedulers_and_outputs() {
        let file = tmp("lu.mtg");
        let _ = run_args(&[
            "generate", "--shape", "lu", "--size", "3", "-P", "8", "--out", &file,
        ])
        .unwrap();
        for s in [
            "online",
            "one-proc",
            "max-proc",
            "ect",
            "equal-share",
            "backfill",
            "adaptive",
            "cpa",
        ] {
            let out = run_args(&["schedule", "--graph", &file, "--scheduler", s]).unwrap();
            assert!(out.contains("makespan:"), "{s}: {out}");
        }
        let csv = tmp("lu.csv");
        let trace = tmp("lu.json");
        let out = run_args(&[
            "schedule", "--graph", &file, "--gantt", "40", "--csv", &csv, "--trace", &trace,
        ])
        .unwrap();
        assert!(out.contains("wrote CSV"));
        assert!(out.contains("wrote Chrome trace"));
        assert!(fs::read_to_string(&csv).unwrap().starts_with("task,start"));
        assert!(fs::read_to_string(&trace)
            .unwrap()
            .trim_start()
            .starts_with('['));
        assert!(out.contains('|'), "gantt rendered");
    }

    #[test]
    fn fit_and_svg() {
        let samples = tmp("samples.txt");
        fs::write(
            &samples,
            "1 101.0\n2 51.2\n4 26.1\n8 13.9\n# comment\n16 7.5\n",
        )
        .unwrap();
        let out = run_args(&["fit", "--samples", &samples]).unwrap();
        assert!(out.contains("best:"), "{out}");
        assert!(out.contains("amdahl("), "{out}");

        let file = tmp("svg.mtg");
        let _ = run_args(&[
            "generate",
            "--shape",
            "wavefront",
            "--size",
            "3",
            "-P",
            "8",
            "--out",
            &file,
        ])
        .unwrap();
        let svg = tmp("sched.svg");
        let out = run_args(&["schedule", "--graph", &file, "--svg", &svg]).unwrap();
        assert!(out.contains("wrote SVG"));
        let content = fs::read_to_string(&svg).unwrap();
        assert!(content.starts_with("<svg"));
        assert!(content.contains("<title>"));

        let e = run_args(&["fit", "--samples", "/nonexistent"]).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
        fs::write(&samples, "1 abc\n").unwrap();
        let e = run_args(&["fit", "--samples", &samples]).unwrap_err();
        assert!(e.to_string().contains("bad time"));
    }

    #[test]
    fn bounds_command() {
        let file = tmp("fj.mtg");
        let _ = run_args(&[
            "generate",
            "--shape",
            "fork-join",
            "--size",
            "4",
            "-P",
            "8",
            "--out",
            &file,
        ])
        .unwrap();
        let out = run_args(&["bounds", "--graph", &file, "-P", "8"]).unwrap();
        assert!(out.contains("C_min"));
        assert!(out.contains("critical_path = t"));
    }

    #[test]
    fn online_options_mu_and_policy() {
        let file = tmp("opts.mtg");
        let _ = run_args(&[
            "generate", "--shape", "layered", "--size", "4", "-P", "8", "--out", &file,
        ])
        .unwrap();
        let out = run_args(&[
            "schedule", "--graph", &file, "--mu", "0.3", "--policy", "lpt",
        ])
        .unwrap();
        assert!(out.contains("makespan"));
        let e = run_args(&[
            "schedule",
            "--graph",
            &file,
            "--scheduler",
            "ect",
            "--mu",
            "0.3",
        ])
        .unwrap_err();
        assert!(e
            .to_string()
            .contains("only applies to the online scheduler"));
    }

    #[test]
    fn schedule_selects_the_algorithm_by_name() {
        let file = tmp("algo.mtg");
        let _ = run_args(&[
            "generate", "--shape", "cholesky", "--size", "4", "--model", "amdahl", "-P", "16",
            "--out", &file,
        ])
        .unwrap();
        // Both registered algorithms schedule the same workflow; the
        // chosen one is echoed in the report.
        let icpp = run_args(&["schedule", "--graph", &file, "--algo", "icpp22"]).unwrap();
        assert!(icpp.contains("algo: icpp22"), "{icpp}");
        let improved = run_args(&["schedule", "--graph", &file, "--algo", "improved23"]).unwrap();
        assert!(improved.contains("algo: improved23"), "{improved}");
        assert!(improved.contains("makespan:"), "{improved}");
        // The default is icpp22, exactly as if --algo were omitted.
        let default = run_args(&["schedule", "--graph", &file]).unwrap();
        assert_eq!(default, icpp, "default algo must be icpp22");

        let e = run_args(&["schedule", "--graph", &file, "--algo", "fastest"]).unwrap_err();
        assert!(e.to_string().contains("unknown algo `fastest`"), "{e}");
        let e = run_args(&[
            "schedule",
            "--graph",
            &file,
            "--scheduler",
            "ect",
            "--algo",
            "improved23",
        ])
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("only applies to the online scheduler"),
            "{e}"
        );
    }

    #[test]
    fn loadgen_commands_validate_algo_before_connecting() {
        // Unknown algo must fail fast, before any connection attempt —
        // the error names the algo, not a connection failure.
        let e = run_args(&["loadgen", "--addr", "127.0.0.1:1", "--algo", "bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown algo `bogus`"), "{e}");
        let e = run_args(&[
            "session-loadgen",
            "--addr",
            "127.0.0.1:1",
            "--algo",
            "bogus",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("unknown algo `bogus`"), "{e}");
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = run_args(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        let e = run_args(&["generate", "--shape", "hexagon", "--size", "3"]).unwrap_err();
        assert!(e.to_string().contains("unknown shape"));
        let e = run_args(&["schedule"]).unwrap_err();
        assert!(e.to_string().contains("--graph"));
        let e = run_args(&["info", "--graph", "/nonexistent.mtg"]).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
        let e = run_args(&["generate", "--shape"]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
        let e = run_args(&["info", "--graph", "x", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("unknown option"));
    }
}

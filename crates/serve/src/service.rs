//! Request execution: turn one [`SubmitRequest`] into a reply.
//!
//! This is the reusable request→instance constructor: the daemon's
//! worker pool, the `perf_smoke` bench, and tests all call
//! [`WorkerContext::handle`] directly, so the service path can be
//! measured and exercised without a socket in sight.

use std::collections::HashMap;
use std::sync::Arc;

use moldable_core::{baselines, registry, AlgoName, AllocCache, OnlineScheduler, QueuePolicy};
use moldable_graph::{gen, parse_trace, parse_workflow, TaskGraph, TraceFormat, TraceLimits};
use moldable_model::ModelClass;
use moldable_sim::{simulate, Schedule, SimOptions};

use crate::json::{obj, Json};
use crate::proto::{GraphSpec, SubmitRequest};

/// Guard rails applied to every submit request.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Reject graphs with more tasks than this (after construction for
    /// inline specs, enforced for generated shapes too).
    pub max_tasks: usize,
    /// Largest accepted `size` parameter for named generators (some
    /// shapes are cubic in `size`; the task cap is what really binds).
    pub max_shape_size: u32,
    /// Largest accepted platform size.
    pub max_p: u32,
    /// Capacity of the per-worker frozen-graph LRU cache for named
    /// generator requests (`0` disables caching — useful for
    /// before/after measurements).
    pub graph_cache_cap: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        Self {
            max_tasks: 1_000_000,
            max_shape_size: 100_000,
            max_p: 1 << 20,
            graph_cache_cap: 64,
        }
    }
}

/// Identity of a generated graph: two named requests with equal keys
/// construct bit-identical frozen [`TaskGraph`]s (generators are
/// seed-deterministic), so the graph itself can be shared.
///
/// Inline `.mtg` workflows are *not* cached: hashing the full text to
/// detect a repeat costs about as much as re-parsing it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GraphKey {
    shape: String,
    size: u32,
    seed: u64,
    class: ModelClass,
    p: u32,
}

/// A tiny move-to-front LRU of frozen graphs. Capacity is small (tens
/// of entries) and entries are fat (`Arc<TaskGraph>`), so a `Vec` scan
/// beats a linked-hash-map both in code size and constant factor.
#[derive(Debug, Default)]
struct GraphCache {
    entries: Vec<(GraphKey, Arc<TaskGraph>)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl GraphCache {
    fn new(cap: usize) -> Self {
        Self {
            entries: Vec::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, counting a hit (and moving the entry to the
    /// front) or a miss. Disabled caches (`cap == 0`) always miss.
    fn get(&mut self, key: &GraphKey) -> Option<Arc<TaskGraph>> {
        if self.cap == 0 {
            self.misses += 1;
            return None;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| k == key) {
            self.hits += 1;
            let entry = self.entries.remove(i);
            let graph = Arc::clone(&entry.1);
            self.entries.insert(0, entry);
            Some(graph)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert a freshly built graph at the front, evicting the
    /// least-recently-used entry when full. No-op when disabled.
    fn put(&mut self, key: GraphKey, graph: &Arc<TaskGraph>) {
        if self.cap == 0 {
            return;
        }
        self.entries.insert(0, (key, Arc::clone(graph)));
        self.entries.truncate(self.cap);
    }
}

/// The single simulation engine, named only so the repository
/// benchmark's calls to [`WorkerContext::with_engine`] keep compiling;
/// every request runs on [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// [`simulate`], the only engine.
    Legacy,
}

/// Memo size (interned models plus one per memo) past which a worker
/// drops all its allocation memos. Requests pick `(algo, P, μ)` and
/// model seeds freely, so without a bound every model ever seen would
/// stay resident. Steady mixed traffic keeps a working set of a few
/// thousand models per worker, far below this.
const MEMO_LIMIT: usize = 1 << 16;

/// Per-worker state reused across requests: one [`AllocCache`] per
/// distinct `(algo, P, μ)` triple seen by this worker, so repeated
/// traffic against the same platform skips the local-allocation binary
/// search for every model it has seen before. The algorithm is part of
/// the key: the two registered algorithms make different decisions for
/// the same model, so their memos must never be shared. The memos are
/// dropped together once they grow past `MEMO_LIMIT`; allocation is a
/// pure function of the model, so dropping them never changes a reply.
#[derive(Debug)]
pub struct WorkerContext {
    caches: HashMap<(AlgoName, u32, u64), AllocCache>,
    graphs: GraphCache,
    limits: ServiceLimits,
}

impl Default for WorkerContext {
    fn default() -> Self {
        Self::with_limits(ServiceLimits::default())
    }
}

impl WorkerContext {
    /// Fresh context with default limits.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh context with explicit limits.
    #[must_use]
    pub fn with_limits(limits: ServiceLimits) -> Self {
        Self {
            caches: HashMap::new(),
            graphs: GraphCache::new(limits.graph_cache_cap),
            limits,
        }
    }

    /// No-op kept only so the repository benchmark, which still names
    /// an engine, keeps compiling; there is one engine.
    #[must_use]
    pub fn with_engine(self, _engine: EngineChoice) -> Self {
        self
    }

    /// Distinct `(algo, P, μ)` caches currently held.
    #[must_use]
    pub fn cache_count(&self) -> usize {
        self.caches.len()
    }

    /// Total distinct models interned across all held caches.
    #[must_use]
    pub fn interned_models(&self) -> usize {
        self.caches.values().map(AllocCache::len).sum()
    }

    /// Named-generator requests served from the frozen-graph cache.
    #[must_use]
    pub fn graph_cache_hits(&self) -> u64 {
        self.graphs.hits
    }

    /// Named-generator requests that had to construct their graph.
    #[must_use]
    pub fn graph_cache_misses(&self) -> u64 {
        self.graphs.misses
    }

    /// Frozen graphs currently retained by the cache.
    #[must_use]
    pub fn graph_cache_len(&self) -> usize {
        self.graphs.entries.len()
    }

    /// Execute one submit request, returning the reply body.
    /// Infallible at this layer: every failure becomes a structured
    /// `{"status": "error"}` object.
    #[must_use]
    pub fn handle(&mut self, req: &SubmitRequest) -> Json {
        match self.try_handle(req) {
            Ok(v) => v,
            Err(msg) => obj(vec![
                ("status", Json::Str("error".into())),
                ("error", Json::Str(msg)),
            ]),
        }
    }

    fn try_handle(&mut self, req: &SubmitRequest) -> Result<Json, String> {
        let (graph, p) = self.build_graph(req)?;
        let class = parse_model_class(&req.model)?;
        let class = match &req.graph {
            // Inline workflows carry their own models; their class (if
            // homogeneous) beats the request's default.
            GraphSpec::Inline(_) => graph.model_class().unwrap_or(class),
            GraphSpec::Named { .. } | GraphSpec::TraceDot(_) | GraphSpec::TraceJson(_) => class,
        };
        let schedule = self.run_scheduler(req, &graph, p, class)?;
        schedule
            .validate(&graph)
            .map_err(|e| format!("produced invalid schedule: {e}"))?;

        let b = graph.bounds(p);
        let lb = b.lower_bound();
        #[allow(clippy::cast_precision_loss)]
        let mut members = vec![
            ("status", Json::Str("ok".into())),
            ("n_tasks", Json::Num(graph.n_tasks() as f64)),
            ("p", Json::Num(f64::from(p))),
            ("makespan", Json::Num(schedule.makespan)),
            ("lower_bound", Json::Num(lb)),
            (
                "normalized",
                Json::Num(if lb > 0.0 {
                    schedule.makespan / lb
                } else {
                    1.0
                }),
            ),
            ("utilization", Json::Num(schedule.utilization())),
        ];
        if req.include_allocations {
            members.push(("allocations", allocations_json(&schedule)));
        }
        Ok(obj(members))
    }

    fn build_graph(&mut self, req: &SubmitRequest) -> Result<(Arc<TaskGraph>, u32), String> {
        let limits = self.limits;
        // Validate `p` before any generator runs (the samplers assert
        // on `p = 0`; the service must reply, not panic).
        if let Some(p) = req.p {
            if p < 1 || p > limits.max_p {
                return Err(format!("`p` = {p} outside [1, {}]", limits.max_p));
            }
        }
        let (graph, hint) = match &req.graph {
            GraphSpec::Inline(mtg) => {
                let (g, hint) = parse_workflow(mtg).map_err(|e| format!("bad mtg: {e}"))?;
                (Arc::new(g), hint)
            }
            GraphSpec::Named { shape, size } => {
                if *size > limits.max_shape_size {
                    return Err(format!(
                        "size {size} exceeds the limit {}",
                        limits.max_shape_size
                    ));
                }
                // `max_shape_size` alone cannot protect the daemon:
                // fft/in-tree/out-tree are exponential in `size` and
                // lu/cholesky cubic, so the task count must be bounded
                // *before* construction, not discovered after an OOM.
                let est = gen::estimated_tasks(shape, *size)?;
                if est > limits.max_tasks as u128 {
                    return Err(format!(
                        "`{shape}` of size {size} would have {est} tasks, more than the limit {}",
                        limits.max_tasks
                    ));
                }
                let class = parse_model_class(&req.model)?;
                let p = req.p.ok_or("generated graphs require `p`")?;
                let key = GraphKey {
                    shape: shape.clone(),
                    size: *size,
                    seed: req.seed,
                    class,
                    p,
                };
                let g = match self.graphs.get(&key) {
                    Some(g) => g,
                    None => {
                        let g = Arc::new(gen::by_name(shape, *size, class, p, req.seed)?);
                        self.graphs.put(key, &g);
                        g
                    }
                };
                (g, Some(p))
            }
            GraphSpec::TraceDot(text) | GraphSpec::TraceJson(text) => {
                let class = parse_model_class(&req.model)?;
                let p = req.p.ok_or("trace graphs require `p`")?;
                let format = match &req.graph {
                    GraphSpec::TraceDot(_) => TraceFormat::Dot,
                    _ => TraceFormat::Json,
                };
                let g = build_trace_graph(text, format, class, p, req.seed, &limits)?;
                (Arc::new(g), Some(p))
            }
        };
        if graph.n_tasks() > limits.max_tasks {
            return Err(format!(
                "graph has {} tasks, more than the limit {}",
                graph.n_tasks(),
                limits.max_tasks
            ));
        }
        let p = match req.p.or(hint) {
            Some(p) if p >= 1 && p <= limits.max_p => p,
            Some(p) => return Err(format!("`p` = {p} outside [1, {}]", limits.max_p)),
            None => return Err("no `p` given and the workflow has no `p` hint".to_string()),
        };
        Ok((graph, p))
    }

    fn run_scheduler(
        &mut self,
        req: &SubmitRequest,
        graph: &TaskGraph,
        p: u32,
        class: ModelClass,
    ) -> Result<Schedule, String> {
        let opts = if req.include_allocations {
            SimOptions::new(p).with_proc_ids()
        } else {
            SimOptions::new(p)
        };
        let sim_err = |e: moldable_sim::SimError| format!("simulation failed: {e}");
        let algo = registry::by_name(&req.algo)?;
        if req.scheduler != "online" && algo != AlgoName::Icpp22 {
            return Err(format!(
                "`algo` = `{algo}` only applies to the `online` scheduler, not `{}`",
                req.scheduler
            ));
        }
        match req.scheduler.as_str() {
            "online" => {
                let mu = req.mu.unwrap_or_else(|| algo.optimal_mu(class));
                if !(mu > 0.0 && mu <= moldable_model::MU_MAX + 1e-12) {
                    return Err(format!(
                        "mu must lie in (0, {:.6}], got {mu}",
                        moldable_model::MU_MAX
                    ));
                }
                let mut s = OnlineScheduler::with_algo(algo, mu);
                if let Some(name) = &req.policy {
                    let policy = QueuePolicy::all()
                        .into_iter()
                        .find(|p| p.name() == name)
                        .ok_or_else(|| format!("unknown policy `{name}`"))?;
                    s = s.with_policy(policy);
                }
                // Reuse this worker's warm cache for the (algo, P, μ) triple.
                if let Some(cache) = self.caches.remove(&(algo, p, mu.to_bits())) {
                    s = s.with_alloc_cache(cache);
                }
                let result = simulate(graph, &mut s, &opts);
                if let Some(cache) = s.take_alloc_cache() {
                    self.caches.insert((algo, p, mu.to_bits()), cache);
                    if self.interned_models() + self.cache_count() > MEMO_LIMIT {
                        self.caches.clear();
                    }
                }
                result.map_err(sim_err)
            }
            "one-proc" => simulate(graph, &mut baselines::one_proc(), &opts).map_err(sim_err),
            "max-proc" => simulate(graph, &mut baselines::max_proc(), &opts).map_err(sim_err),
            "ect" => simulate(graph, &mut baselines::EctScheduler::new(), &opts).map_err(sim_err),
            "equal-share" => {
                simulate(graph, &mut baselines::EqualShareScheduler::new(), &opts).map_err(sim_err)
            }
            "backfill" => {
                let mu = req.mu.unwrap_or_else(|| class.optimal_mu());
                simulate(
                    graph,
                    &mut moldable_core::EasyBackfillScheduler::new(mu),
                    &opts,
                )
                .map_err(sim_err)
            }
            "adaptive" => simulate(graph, &mut moldable_core::AdaptiveScheduler::new(), &opts)
                .map_err(sim_err),
            "cpa" => {
                let allocs = moldable_offline::cpa_allocations(graph, p);
                let mut s = moldable_offline::cpa::FixedAllocScheduler::new(allocs);
                simulate(graph, &mut s, &opts).map_err(sim_err)
            }
            other => Err(format!("unknown scheduler `{other}`")),
        }
    }
}

/// Parse and weight a workflow trace under the same task guard the
/// named generators get (shared by one-shot submits and the session
/// layer).
pub(crate) fn build_trace_graph(
    text: &str,
    format: TraceFormat,
    class: ModelClass,
    p_total: u32,
    seed: u64,
    limits: &ServiceLimits,
) -> Result<TaskGraph, String> {
    let trace_limits = TraceLimits {
        max_tasks: limits.max_tasks as u64,
    };
    let trace = parse_trace(text, format, &trace_limits).map_err(|e| format!("bad trace: {e}"))?;
    trace
        .into_graph(class, p_total, seed)
        .map_err(|e| format!("bad trace: {e}"))
}

/// Parse a model-class name (the same names the CLI accepts).
pub(crate) fn parse_model_class(name: &str) -> Result<ModelClass, String> {
    Ok(match name {
        "roofline" => ModelClass::Roofline,
        "communication" | "comm" => ModelClass::Communication,
        "amdahl" => ModelClass::Amdahl,
        "general" => ModelClass::General,
        other => return Err(format!("unknown model class `{other}`")),
    })
}

fn allocations_json(schedule: &Schedule) -> Json {
    Json::Arr(
        schedule
            .placements
            .iter()
            .map(|pl| {
                #[allow(clippy::cast_precision_loss)]
                obj(vec![
                    ("task", Json::Num(pl.task.index() as f64)),
                    ("procs", Json::Num(f64::from(pl.procs))),
                    ("start", Json::Num(pl.start)),
                    ("end", Json::Num(pl.end)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{GraphSpec, SubmitRequest};

    fn named(shape: &str, size: u32, p: u32, seed: u64) -> SubmitRequest {
        SubmitRequest {
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
        }
    }

    #[test]
    fn submit_produces_consistent_summary() {
        let mut ctx = WorkerContext::new();
        let r = ctx.handle(&named("cholesky", 6, 32, 7));
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"));
        let makespan = r.get("makespan").unwrap().as_f64().unwrap();
        let lb = r.get("lower_bound").unwrap().as_f64().unwrap();
        let normalized = r.get("normalized").unwrap().as_f64().unwrap();
        assert!(makespan >= lb);
        assert!((normalized - makespan / lb).abs() < 1e-9);
        // Theorem 3 bound for Amdahl: 4.74 x the lower bound.
        assert!(normalized <= 4.74 + 1e-9);
    }

    #[test]
    fn online_replies_are_pinned() {
        // Every reply field, including per-task allocations (start
        // order and widths), hashes to an FNV-1a-64 value recorded
        // while a batched engine could also serve `online` requests
        // and gave byte-equal replies.
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let cases = [
            (named("cholesky", 6, 32, 7), 0x7e5e_6653_8e3d_da5a),
            (named("layered", 8, 24, 9), 0x3dcd_802d_614d_5b51),
        ];
        for (mut req, pin) in cases {
            req.include_allocations = true;
            let reply = WorkerContext::new().handle(&req);
            assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
            let text = reply.encode();
            assert_eq!(fnv1a(text.as_bytes()), pin, "{text}");
        }
    }

    #[test]
    fn same_seed_same_answer_and_cache_reuse() {
        let mut ctx = WorkerContext::new();
        let a = ctx.handle(&named("layered", 8, 64, 123));
        let interned_after_first = ctx.interned_models();
        let b = ctx.handle(&named("layered", 8, 64, 123));
        assert_eq!(a, b, "per-seed determinism");
        assert_eq!(ctx.cache_count(), 1, "one (P, mu) pair");
        assert_eq!(
            ctx.interned_models(),
            interned_after_first,
            "second identical request interned nothing new"
        );
        // A different platform size forms a second cache.
        let _ = ctx.handle(&named("layered", 8, 32, 123));
        assert_eq!(ctx.cache_count(), 2);
    }

    #[test]
    fn graph_cache_hits_on_identical_named_submits_and_misses_on_new_seed() {
        let mut ctx = WorkerContext::new();
        let a = ctx.handle(&named("layered", 8, 64, 123));
        assert_eq!((ctx.graph_cache_hits(), ctx.graph_cache_misses()), (0, 1));
        let b = ctx.handle(&named("layered", 8, 64, 123));
        assert_eq!(a, b, "cached graph gives the identical reply");
        assert_eq!((ctx.graph_cache_hits(), ctx.graph_cache_misses()), (1, 1));
        // A different seed is a different graph: miss.
        let _ = ctx.handle(&named("layered", 8, 64, 124));
        assert_eq!((ctx.graph_cache_hits(), ctx.graph_cache_misses()), (1, 2));
        assert_eq!(ctx.graph_cache_len(), 2);
        // Every key component participates in identity.
        let _ = ctx.handle(&named("layered", 9, 64, 123)); // size
        let _ = ctx.handle(&named("layered", 8, 32, 123)); // p
        let _ = ctx.handle(&named("fft", 8, 64, 123)); // shape
        let mut req = named("layered", 8, 64, 123);
        req.model = "roofline".into(); // class
        let _ = ctx.handle(&req);
        assert_eq!((ctx.graph_cache_hits(), ctx.graph_cache_misses()), (1, 6));
    }

    #[test]
    fn graph_cache_evicts_lru_and_cap_zero_disables() {
        let mut ctx = WorkerContext::with_limits(ServiceLimits {
            graph_cache_cap: 2,
            ..ServiceLimits::default()
        });
        let _ = ctx.handle(&named("chain", 4, 8, 1)); // miss: [1]
        let _ = ctx.handle(&named("chain", 4, 8, 2)); // miss: [2, 1]
        let _ = ctx.handle(&named("chain", 4, 8, 1)); // hit:  [1, 2]
        let _ = ctx.handle(&named("chain", 4, 8, 3)); // miss: [3, 1] — evicts 2
        let _ = ctx.handle(&named("chain", 4, 8, 2)); // miss again
        assert_eq!((ctx.graph_cache_hits(), ctx.graph_cache_misses()), (1, 4));
        assert_eq!(ctx.graph_cache_len(), 2);

        let mut off = WorkerContext::with_limits(ServiceLimits {
            graph_cache_cap: 0,
            ..ServiceLimits::default()
        });
        let a = off.handle(&named("chain", 4, 8, 1));
        let b = off.handle(&named("chain", 4, 8, 1));
        assert_eq!(a, b);
        assert_eq!((off.graph_cache_hits(), off.graph_cache_misses()), (0, 2));
        assert_eq!(off.graph_cache_len(), 0);
    }

    #[test]
    fn inline_mtg_uses_hint_and_allocations_are_reported() {
        let mut ctx = WorkerContext::new();
        let req = SubmitRequest {
            graph: GraphSpec::Inline(
                "p 8\ntask 0 amdahl(w=4, d=1)\ntask 1 amdahl(w=2, d=0.5)\nedge 0 1\n".into(),
            ),
            p: None,
            model: "amdahl".into(),
            seed: 0,
            scheduler: "online".into(),
            algo: "icpp22".into(),
            mu: None,
            policy: None,
            include_allocations: true,
        };
        let r = ctx.handle(&req);
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert_eq!(r.get("p").unwrap().as_u64(), Some(8), "p hint picked up");
        let allocs = r.get("allocations").unwrap().as_arr().unwrap();
        assert_eq!(allocs.len(), 2);
        assert!(allocs[0].get("procs").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn trace_submits_schedule_with_guard_parity() {
        let dot = "digraph wf { a -> b; a -> c; b -> d; c -> d; }";
        let req = SubmitRequest {
            graph: GraphSpec::TraceDot(dot.into()),
            ..named("chain", 3, 16, 7)
        };
        let mut ctx = WorkerContext::new();
        let r = ctx.handle(&req);
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(4));
        // Determinism: same trace + seed => same reply.
        assert_eq!(r, ctx.handle(&req));

        let json = r#"{"tasks":[{"id":"a"},{"id":"b","parents":["a"]}]}"#;
        let jreq = SubmitRequest {
            graph: GraphSpec::TraceJson(json.into()),
            ..named("chain", 3, 16, 7)
        };
        let r = ctx.handle(&jreq);
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
        assert_eq!(r.get("n_tasks").unwrap().as_u64(), Some(2));

        // Guard parity: the service task cap binds during trace
        // parsing, exactly as for generated shapes.
        let mut small = WorkerContext::with_limits(ServiceLimits {
            max_tasks: 2,
            ..ServiceLimits::default()
        });
        let r = small.handle(&req);
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        let msg = r.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("more than the limit"), "{msg}");

        // Traces require an explicit platform size.
        let r = ctx.handle(&SubmitRequest {
            p: None,
            ..req.clone()
        });
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        assert!(r
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("require `p`"));
    }

    #[test]
    fn every_scheduler_name_runs() {
        let mut ctx = WorkerContext::new();
        for sched in [
            "online",
            "one-proc",
            "max-proc",
            "ect",
            "equal-share",
            "backfill",
            "adaptive",
            "cpa",
        ] {
            let mut req = named("lu", 3, 16, 1);
            req.scheduler = sched.into();
            let r = ctx.handle(&req);
            assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{sched}");
        }
    }

    #[test]
    fn oversized_generated_shapes_are_rejected_within_documented_limits() {
        // Both requests are well-formed and inside the default
        // `max_shape_size`; before the pre-construction estimate they
        // panicked (fft: shift overflow) or OOMed (cholesky: ~2e13
        // tasks). They must come back as structured errors instantly.
        let mut ctx = WorkerContext::new();
        for (shape, size) in [
            ("fft", 64),
            ("fft", 20),
            ("cholesky", 50_000),
            ("in-tree", 64),
        ] {
            let r = ctx.handle(&named(shape, size, 32, 1));
            assert_eq!(
                r.get("status").unwrap().as_str(),
                Some("error"),
                "{shape} {size}"
            );
            let msg = r.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains("more than the limit"), "{shape} {size}: {msg}");
        }
        // A modest fft still works.
        let r = ctx.handle(&named("fft", 8, 32, 1));
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"), "{r:?}");
    }

    #[test]
    fn errors_are_structured_not_panics() {
        let mut ctx = WorkerContext::with_limits(ServiceLimits {
            max_tasks: 10,
            max_shape_size: 4,
            max_p: 64,
            ..ServiceLimits::default()
        });
        let cases = [
            (named("hexagon", 3, 8, 1), "unknown shape"),
            (named("chain", 99, 8, 1), "exceeds the limit"),
            (named("cholesky", 4, 8, 1), "more than the limit"),
            (named("chain", 3, 0, 1), "outside"),
            (named("chain", 3, 1 << 10, 1), "outside"),
            (
                {
                    let mut r = named("chain", 3, 8, 1);
                    r.scheduler = "bogus".into();
                    r
                },
                "unknown scheduler",
            ),
            (
                {
                    let mut r = named("chain", 3, 8, 1);
                    r.mu = Some(0.7);
                    r
                },
                "mu must lie",
            ),
            (
                {
                    let mut r = named("chain", 3, 8, 1);
                    r.policy = Some("bogus".into());
                    r
                },
                "unknown policy",
            ),
            (
                {
                    let mut r = named("chain", 3, 8, 1);
                    r.model = "bogus".into();
                    r
                },
                "unknown model class",
            ),
            (
                SubmitRequest {
                    graph: GraphSpec::Inline("task 0 nonsense(w=1)\n".into()),
                    ..named("chain", 3, 8, 1)
                },
                "bad mtg",
            ),
            (
                SubmitRequest {
                    graph: GraphSpec::Inline("task 0 amdahl(w=1)\n".into()),
                    p: None,
                    ..named("chain", 3, 8, 1)
                },
                "no `p` given",
            ),
        ];
        for (req, needle) in cases {
            let r = ctx.handle(&req);
            assert_eq!(r.get("status").unwrap().as_str(), Some("error"), "{req:?}");
            let msg = r.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
    }

    #[test]
    fn improved23_is_selectable_and_deterministic() {
        let mut ctx = WorkerContext::new();
        let mut req = named("layered", 8, 48, 5);
        req.algo = "improved23".into();
        req.include_allocations = true;
        let a = ctx.handle(&req);
        assert_eq!(a.get("status").unwrap().as_str(), Some("ok"), "{a:?}");
        assert_eq!(a, ctx.handle(&req), "per-seed determinism");
    }

    #[test]
    fn alloc_caches_key_on_the_algorithm() {
        // Same shape, seed, P, and an *explicit* shared mu: only the
        // algorithm distinguishes the two requests, so sharing one
        // cache would silently cross-contaminate their decisions.
        let mut ctx = WorkerContext::new();
        let mut a = named("layered", 8, 48, 5);
        a.mu = Some(0.3);
        let mut b = a.clone();
        b.algo = "improved23".into();
        assert_eq!(ctx.handle(&a).get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(ctx.cache_count(), 1);
        assert_eq!(ctx.handle(&b).get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(ctx.cache_count(), 2, "one cache per algorithm");
        // Warm repeats reuse their own cache rather than forming more.
        let _ = ctx.handle(&a);
        let _ = ctx.handle(&b);
        assert_eq!(ctx.cache_count(), 2);
    }

    #[test]
    fn alloc_memos_stay_bounded_under_never_repeated_models() {
        // Every request brings a new μ and a new seed, so nothing it
        // interns is ever reused. Each fresh memo stops interning once
        // its hit rate shows the models never repeat (about 4 097
        // entries out of 12k), so 20 requests pass the limit once.
        let mut ctx = WorkerContext::new();
        let mut dropped = false;
        let mut last = 0;
        for i in 0..20u32 {
            let mut req = named("independent", 12_000, 64, 500 + u64::from(i));
            req.mu = Some(0.2 + 0.005 * f64::from(i));
            let got = ctx.handle(&req);
            assert_eq!(got.get("status").unwrap().as_str(), Some("ok"), "{got:?}");
            assert_eq!(
                got,
                WorkerContext::new().handle(&req),
                "memo state never changes a reply"
            );
            let size = ctx.interned_models() + ctx.cache_count();
            assert!(size <= MEMO_LIMIT, "{size} memo entries held");
            dropped |= size < last;
            last = size;
        }
        assert!(dropped, "the limit was reached and the memos dropped");
    }

    #[test]
    fn algo_errors_are_structured() {
        let mut ctx = WorkerContext::new();
        let mut unknown = named("chain", 3, 8, 1);
        unknown.algo = "fastest".into();
        let r = ctx.handle(&unknown);
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        let msg = r.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("unknown algo `fastest`"), "{msg}");
        assert!(
            msg.contains("icpp22") && msg.contains("improved23"),
            "{msg}"
        );

        let mut wrong_sched = named("chain", 3, 8, 1);
        wrong_sched.scheduler = "ect".into();
        wrong_sched.algo = "improved23".into();
        let r = ctx.handle(&wrong_sched);
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        let msg = r.get("error").unwrap().as_str().unwrap();
        assert!(
            msg.contains("only applies to the `online` scheduler"),
            "{msg}"
        );

        // The default algo on a baseline scheduler stays fine.
        let mut ok = named("chain", 3, 8, 1);
        ok.scheduler = "ect".into();
        assert_eq!(ctx.handle(&ok).get("status").unwrap().as_str(), Some("ok"));
    }
}

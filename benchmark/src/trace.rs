//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! each layer. They live in a pre-sized `Vec` and are written when the
//! run ends, as Chrome trace-event JSON (the format Perfetto loads) and
//! as a per-layer self-time summary. A disabled tracer records nothing,
//! so plain runs and traced runs share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use moldable_serve::json::{obj, Json};

use crate::metrics::{mean, rank_quantile};

/// Spans kept per tracer; later spans are counted as dropped. Bounds the
/// memory a traced run can take.
const CAPACITY: usize = 400_000;
/// Spans a tracer starts with room for.
const PRESIZE: usize = 65_536;
/// Spans of each tracer written to the Chrome trace, which bounds the
/// file's size. The per-layer summary covers every kept span.
const WRITTEN: usize = 40_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or rep) identifier shared by the spans of one operation.
    pub req: u64,
    pub tid: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` when not recording.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now(), 0)
    }

    fn with_origin(on: bool, t0: Instant, tid: u32) -> Self {
        Self {
            on,
            t0,
            tid,
            spans: Vec::with_capacity(if on { PRESIZE } else { 0 }),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer for another thread, sharing this one's time origin.
    /// Merge it back with [`Tracer::absorb`].
    pub fn fork(&self, tid: u32) -> Self {
        Self::with_origin(self.on, self.t0, tid)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            tid: self.tid,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// End a span under a name decided only after the call returned
    /// (e.g. whether a request hit a cache).
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(idx) = id {
            self.spans[idx].name = name;
        }
        self.end(id);
    }

    /// Take over the spans a forked tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.dropped += other.dropped;
        let room = CAPACITY.saturating_sub(offset);
        let kept = other.spans.len().min(room);
        self.dropped += (other.spans.len() - kept) as u64;
        self.spans
            .extend(other.spans.into_iter().take(kept).map(|mut s| {
                // A parent past the kept prefix was dropped with it.
                s.parent = s.parent.filter(|&p| p < kept).map(|p| p + offset);
                s
            }));
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time (duration minus the time covered by direct children)
    /// of every recorded span, grouped by name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            by_name.entry(s.name).or_default().push(own as f64);
        }
        by_name
    }

    /// Mean self time of the spans named `name`, in nanoseconds.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        self.self_times_ns().get(name).map_or(0.0, |v| mean(v))
    }
}

/// Per-layer summary over several tracers: count, mean, median and p99
/// of self time per span name.
pub fn layers_json(tracers: &[&Tracer]) -> Json {
    let mut merged: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (name, v) in t.self_times_ns() {
            merged.entry(name).or_default().extend(v);
        }
    }
    Json::Obj(
        merged
            .into_iter()
            .map(|(name, mut v)| {
                v.sort_by(f64::total_cmp);
                let us = |ns: f64| Json::Num(ns / 1e3);
                let layer = obj(vec![
                    ("count", Json::Num(v.len() as f64)),
                    ("mean_us", us(mean(&v))),
                    ("median_us", us(rank_quantile(&v, 0.5))),
                    ("p99_us", us(rank_quantile(&v, 0.99))),
                    ("total_s", Json::Num(v.iter().sum::<f64>() / 1e9)),
                ]);
                (name.to_string(), layer)
            })
            .collect(),
    )
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event for each of
/// the first [`WRITTEN`] spans of every tracer. A parent is always
/// recorded before its children, so the written prefix keeps every
/// parent it refers to. Span ids are numbered across tracers.
pub fn chrome_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut base = 0;
    for t in tracers {
        let written = t.spans.len().min(WRITTEN);
        for (i, s) in t.spans[..written].iter().enumerate() {
            if base + i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| (base + p) as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"span\":{},\"parent\":{parent}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.req,
                base + i,
            );
        }
        base += written;
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let times = t.self_times_ns();
        assert!(times["inner"][0] >= 2e6);
        assert!(times["outer"][0] < times["inner"][0]);
        let parsed = moldable_serve::json::parse(&chrome_json(&[&t])).expect("valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            2
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_and_forks_merge() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", 1);
        off.end(id);
        assert_eq!(off.span_count(), 0);

        let mut main = Tracer::new(true);
        let mut worker = main.fork(2);
        let a = worker.begin("a", 7);
        let b = worker.begin("b", 7);
        worker.end(b);
        worker.end(a);
        let root = main.begin("root", 0);
        main.end(root);
        main.absorb(worker);
        assert_eq!(main.span_count(), 3);
        assert_eq!(main.spans[2].parent, Some(1));
    }
}

//! The worker pool: bounded per-worker request shards with spill-over
//! and work-stealing, and the submit/batch executors that run on them.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::{self, obj, Json};
use crate::proto::{Request, SubmitRequest};
use crate::service::WorkerContext;
use crate::stats::ServerStats;

use super::{inline_reply, Completion, Job, JobKind, Shared};

/// How long an idle worker parks on its own shard before re-scanning
/// its neighbours for work to steal.
const STEAL_TICK: Duration = Duration::from_millis(10);

/// One bounded per-worker job queue.
pub(super) struct Shard {
    queue: Mutex<VecDeque<Job>>,
    pub(super) ready: Condvar,
    cap: usize,
}

impl Shard {
    pub(super) fn new(cap: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Push unless full; `Err` hands the job back for spill-over.
    pub(super) fn try_push(&self, job: Job, stats: &ServerStats) -> Result<(), Job> {
        let mut q = self.queue.lock().expect("queue lock");
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop without blocking.
    fn try_pop(&self, stats: &ServerStats) -> Option<Job> {
        let mut q = self.queue.lock().expect("queue lock");
        let job = q.pop_front();
        if job.is_some() {
            stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    /// Park briefly waiting for a local push (bounds steal latency).
    fn idle_wait(&self, timeout: Duration) {
        let q = self.queue.lock().expect("queue lock");
        if q.is_empty() {
            let _ = self.ready.wait_timeout(q, timeout).expect("queue lock");
        }
    }
}

/// Split `total` queue capacity across `n` shards so the per-shard
/// caps sum to exactly `total` (the first `total % n` shards take the
/// remainder).
pub(super) fn shard_caps(total: usize, n: usize) -> Vec<usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Run one request handler with panic containment: a panicking handler
/// becomes a structured `error` reply instead of killing the calling
/// worker thread. Without this, each panic would permanently shrink
/// the pool until every submit times out — silent total loss of
/// service. Returns the reply and whether the handler panicked.
fn catch_panic_reply(f: impl FnOnce() -> Json + std::panic::UnwindSafe) -> (Json, bool) {
    match std::panic::catch_unwind(f) {
        Ok(reply) => (reply, false),
        Err(_) => (error_json("internal error: request handler panicked"), true),
    }
}

/// A structured error as a [`Json`] value (the in-memory counterpart
/// of [`proto::error_reply`], for batch result arrays).
fn error_json(msg: &str) -> Json {
    obj(vec![
        ("status", Json::Str("error".into())),
        ("error", Json::Str(msg.into())),
    ])
}

/// Per-worker execution state: the warm [`WorkerContext`] plus the
/// graph-cache counters already published into shared stats.
struct WorkerState {
    ctx: WorkerContext,
    seen_hits: u64,
    seen_misses: u64,
}

/// Execute one submit on this worker with panic containment, publish
/// graph-cache deltas, and bump `completed`/`errors` by reply status.
fn run_submit(shared: &Shared, state: &mut WorkerState, req: &SubmitRequest) -> Json {
    let inject_panic = shared.hooks.take_panic();
    let (reply, panicked) = {
        let ctx = &mut state.ctx;
        catch_panic_reply(std::panic::AssertUnwindSafe(|| {
            assert!(!inject_panic, "chaos: injected worker panic");
            ctx.handle(req)
        }))
    };
    // Graph-cache counters are per-context; publish deltas into the
    // shared stats so the totals survive a post-panic context reset.
    shared.stats.graph_cache_hits.fetch_add(
        state.ctx.graph_cache_hits() - state.seen_hits,
        Ordering::Relaxed,
    );
    shared.stats.graph_cache_misses.fetch_add(
        state.ctx.graph_cache_misses() - state.seen_misses,
        Ordering::Relaxed,
    );
    state.seen_hits = state.ctx.graph_cache_hits();
    state.seen_misses = state.ctx.graph_cache_misses();
    if panicked {
        // The context's caches may have been mid-update when the
        // handler unwound; start this worker over with fresh state.
        state.ctx = WorkerContext::with_limits(shared.config.limits);
        state.seen_hits = 0;
        state.seen_misses = 0;
    }
    let ok = reply.get("status").and_then(Json::as_str) == Some("ok");
    ServerStats::bump(if ok {
        &shared.stats.completed
    } else {
        &shared.stats.errors
    });
    reply
}

/// Execute one batch item. Submits get the full single-submit ledger
/// treatment (`submitted`/`accepted` on entry, `submit_ok` /
/// `submit_errors` by status); inline verbs answer exactly as they
/// would standalone; nested batches are refused.
fn run_batch_item(
    shared: &Shared,
    state: &mut WorkerState,
    item: &[u8],
    enqueued: Instant,
) -> Json {
    match Request::parse(item) {
        Err(msg) => {
            ServerStats::bump(&shared.stats.errors);
            error_json(&msg)
        }
        Ok(Request::Submit(req)) => {
            ServerStats::bump(&shared.stats.submitted);
            ServerStats::bump(&shared.stats.accepted);
            let reply = run_submit(shared, state, &req);
            let ok = reply.get("status").and_then(Json::as_str) == Some("ok");
            ServerStats::bump(if ok {
                &shared.stats.submit_ok
            } else {
                &shared.stats.submit_errors
            });
            shared.stats.latency.record(enqueued.elapsed());
            reply
        }
        Ok(Request::Batch(_)) => {
            ServerStats::bump(&shared.stats.errors);
            error_json("nested submit_batch is not allowed")
        }
        Ok(req) => {
            let bytes = inline_reply(shared, &req).expect("non-submit verbs answer inline");
            let text = String::from_utf8_lossy(&bytes);
            json::parse(&text).unwrap_or_else(|_| error_json("internal error: bad inline reply"))
        }
    }
}

/// Execute a whole admitted batch on this worker. An admitted batch
/// always runs to completion — drain waits for it like any other
/// queued work — so every item's ledger entries resolve.
fn run_batch(
    shared: &Shared,
    state: &mut WorkerState,
    items: &[Vec<u8>],
    enqueued: Instant,
) -> Json {
    ServerStats::bump(&shared.stats.batches);
    shared
        .stats
        .batch_items
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    let results = items
        .iter()
        .map(|item| run_batch_item(shared, state, item, enqueued))
        .collect();
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("results", Json::Arr(results)),
    ])
}

/// Pop the next job for worker `me`: own shard first, then steal from
/// the neighbours, then park briefly. `None` once draining and every
/// shard is empty.
fn next_job(shared: &Shared, me: usize) -> Option<Job> {
    let n = shared.shards.len();
    loop {
        if let Some(job) = shared.shards[me].try_pop(&shared.stats) {
            return Some(job);
        }
        for k in 1..n {
            if let Some(job) = shared.shards[(me + k) % n].try_pop(&shared.stats) {
                ServerStats::bump(&shared.stats.shard_steals);
                return Some(job);
            }
        }
        if shared.draining() {
            return None;
        }
        shared.shards[me].idle_wait(STEAL_TICK);
    }
}

pub(super) fn worker_loop(shared: &Shared, me: usize) {
    let mut state = WorkerState {
        ctx: WorkerContext::with_limits(shared.config.limits),
        seen_hits: 0,
        seen_misses: 0,
    };
    while let Some(job) = next_job(shared, me) {
        let Job {
            kind,
            token,
            enqueued,
        } = job;
        let reply = match kind {
            JobKind::Submit(req) => {
                let reply = run_submit(shared, &mut state, &req);
                shared.stats.latency.record(enqueued.elapsed());
                reply
            }
            JobKind::Batch(items) => run_batch(shared, &mut state, &items, enqueued),
        };
        shared.push_completion(Completion { token, reply });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    #[test]
    fn panicking_handler_becomes_structured_error() {
        // Silence the default hook's backtrace spam for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (reply, panicked) = catch_panic_reply(|| panic!("boom"));
        std::panic::set_hook(prev);
        assert!(panicked);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("error"));
        assert!(reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panicked"));
    }

    #[test]
    fn normal_handler_passes_through() {
        let (reply, panicked) = catch_panic_reply(|| obj(vec![("status", Json::Str("ok".into()))]));
        assert!(!panicked);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn shard_caps_sum_to_total() {
        for (total, n) in [(256usize, 8usize), (1, 4), (2, 4), (7, 3), (0, 2)] {
            let caps = shard_caps(total, n);
            assert_eq!(caps.len(), n);
            assert_eq!(caps.iter().sum::<usize>(), total, "total {total} n {n}");
            // Remainder spreads one-deep: caps differ by at most 1.
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn error_json_matches_wire_error_reply() {
        let from_json = error_json("nope").encode().into_bytes();
        assert_eq!(from_json, proto::error_reply("nope"));
    }
}

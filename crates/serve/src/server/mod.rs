//! The `moldable-serve` daemon: a TCP server built on the standard
//! library alone.
//!
//! Threading model (see DESIGN.md §"Service layer"):
//!
//! * One non-blocking **event-loop** thread multiplexes the listener
//!   and every client socket through `epoll(7)` (Linux only; on other
//!   targets [`Server::start`] returns [`io::ErrorKind::Unsupported`]).
//!   Client sockets are registered edge-triggered with per-connection
//!   read/write buffers and an incremental
//!   [`crate::proto::FrameDecoder`], so thousands of idle connections
//!   cost no threads. Inline verbs (`ping`/`stats`/session traffic) are
//!   answered on the loop; submits are handed to the worker pool with
//!   a pending-token and answered when the worker's completion comes
//!   back over a wake pipe.
//! * A fixed **worker pool** executes submit requests from *bounded
//!   per-worker shards*: a submit lands on its connection's home
//!   shard, spills to the next shard when full, and idle workers steal
//!   from their neighbours, while total capacity stays exactly
//!   `queue_cap`.
//!
//! Backpressure is explicit: when every shard is full the submit gets
//! `{"status": "overloaded"}` immediately. A connection whose inbox or
//! unsent replies pile up stops being read until it catches up, so a
//! client that never reads its replies stalls in its own writes
//! instead of growing the daemon; a frame that stays half-sent for
//! longer than 10 s (`FRAME_TIMEOUT`) closes its connection. A
//! `shutdown` request (or SIGINT via
//! [`install_drain_signals`]) starts a graceful drain: accepting
//! stops, queued work is finished and answered, then every thread
//! exits. The `submit_batch` verb packs many requests into one frame;
//! a single worker executes the items in order and one reply frame
//! carries all the results.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use moldable_model::ModelClass;
use moldable_tenant::TenantConfig;

use crate::json::{obj, Json};
use crate::proto::{self, Request, SubmitRequest};
use crate::service::ServiceLimits;
use crate::sessions::SessionHub;
use crate::stats::ServerStats;
use workers::{shard_caps, worker_loop, Shard};

mod workers;

/// How long idle loops sleep between polls; bounds the latency of
/// noticing a drain request.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long a frame may take to arrive once its first byte has: a
/// connection that stays mid-frame for longer is closed. Also how long
/// a drain waits for in-flight connections before force-closing them.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute worker threads (one request shard each).
    pub workers: usize,
    /// Bounded request-queue capacity, summed across every shard;
    /// beyond it submits get `overloaded` replies.
    pub queue_cap: usize,
    /// Maximum accepted frame size in bytes.
    pub max_frame: u32,
    /// Per-request timeout: a submit unanswered after this long gets a
    /// structured `error` reply.
    pub request_timeout: Duration,
    /// Guard rails on request contents.
    pub limits: ServiceLimits,
    /// The streaming session layer: shared platform size, allocation
    /// μ, per-tenant quotas, idle reaping.
    pub tenant: TenantConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".to_string(),
            workers: thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_cap: 256,
            max_frame: 1 << 20,
            request_timeout: Duration::from_secs(30),
            limits: ServiceLimits::default(),
            tenant: TenantConfig::new(64, ModelClass::Amdahl.optimal_mu()),
        }
    }
}

/// Deterministic in-process fault-injection points, for the chaos
/// harness (`crates/chaos`). All-zero (the default) injects nothing;
/// production servers never arm these. The knobs are plain atomics so
/// a chaos scenario can arm them on a *live* server without taking any
/// lock the request path uses.
#[derive(Debug, Default)]
pub struct FaultHooks {
    /// How many upcoming submit executions must panic inside the
    /// worker (exercising the `catch_unwind` containment path). Each
    /// injected panic consumes one unit.
    panic_budget: AtomicU64,
    /// Milliseconds subtracted from the configured per-request timeout
    /// — simulated clock skew. Skew past the timeout makes every
    /// submit time out at the transport layer while the worker still
    /// finishes the job, the worst-case accounting race.
    timeout_skew_ms: AtomicU64,
}

impl FaultHooks {
    /// Arm `n` additional worker-panic injections.
    pub fn arm_panics(&self, n: u64) {
        self.panic_budget.fetch_add(n, Ordering::SeqCst);
    }

    /// Panic injections still pending.
    #[must_use]
    pub fn pending_panics(&self) -> u64 {
        self.panic_budget.load(Ordering::SeqCst)
    }

    /// Set the clock skew subtracted from the request timeout.
    pub fn set_timeout_skew(&self, skew: Duration) {
        let ms = u64::try_from(skew.as_millis()).unwrap_or(u64::MAX);
        self.timeout_skew_ms.store(ms, Ordering::SeqCst);
    }

    /// Consume one panic injection if any is armed.
    fn take_panic(&self) -> bool {
        self.panic_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// The effective request timeout after skew.
    fn skewed(&self, timeout: Duration) -> Duration {
        timeout.saturating_sub(Duration::from_millis(
            self.timeout_skew_ms.load(Ordering::SeqCst),
        ))
    }
}

/// What a queued job executes.
enum JobKind {
    /// One parsed submit request.
    Submit(Box<SubmitRequest>),
    /// A `submit_batch`: the raw payloads of the inner requests,
    /// parsed and executed in order by a single worker.
    Batch(Vec<Vec<u8>>),
}

/// One queued job awaiting a worker.
struct Job {
    kind: JobKind,
    /// The event loop's pending-request token; the completion carries
    /// it back.
    token: u64,
    enqueued: Instant,
}

/// A finished job travelling back from a worker to the event loop.
struct Completion {
    token: u64,
    reply: Json,
}

/// State shared by every server thread.
struct Shared {
    shards: Vec<Shard>,
    draining: AtomicBool,
    stats: ServerStats,
    config: ServerConfig,
    hooks: FaultHooks,
    hub: SessionHub,
    completions: Mutex<Vec<Completion>>,
    /// The write end of the event loop's wake pipe, installed by the
    /// loop at start-up (boxed, so only the loop names its type).
    wake: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Close every streaming session too: in-flight DAGs finish and
        // stay pollable, new session traffic is refused.
        self.hub.drain();
        for shard in &self.shards {
            shard.ready.notify_all();
        }
        self.wake_loop();
    }

    /// Try to enqueue on the connection's home shard (so one client
    /// keeps one worker's caches warm), spilling to the next shards
    /// when full; `Err` means every shard was full (backpressure).
    fn enqueue(&self, mut job: Job, conn_id: u64) -> Result<(), ()> {
        let n = self.shards.len();
        let home = usize::try_from(conn_id % n as u64).unwrap_or(0);
        for k in 0..n {
            match self.shards[(home + k) % n].try_push(job, &self.stats) {
                Ok(()) => {
                    if k > 0 {
                        ServerStats::bump(&self.stats.shard_spills);
                    }
                    return Ok(());
                }
                Err(back) => job = back,
            }
        }
        Err(())
    }

    fn take_completions(&self) -> Vec<Completion> {
        let mut done = self.completions.lock().expect("completions lock");
        std::mem::take(&mut *done)
    }

    fn push_completion(&self, done: Completion) {
        {
            let mut list = self.completions.lock().expect("completions lock");
            list.push(done);
        }
        self.wake_loop();
    }

    /// Nudge the event loop out of `epoll_wait` (completion or drain).
    fn wake_loop(&self) {
        let mut slot = self.wake.lock().expect("wake lock");
        if let Some(tx) = slot.as_mut() {
            // The pipe is non-blocking; a full pipe already guarantees
            // a pending wake, so the result is irrelevant.
            let _ = tx.write(&[1]);
        }
    }
}

/// A running daemon. Dropping without [`Server::join`] leaks threads;
/// call [`Server::trigger_drain`] + [`Server::join`] (or use
/// [`Server::run_until_drained`]).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live —
    /// [`Server::local_addr`] is immediately connectable.
    ///
    /// # Errors
    ///
    /// Propagates a bind or event-loop setup failure (epoll instance,
    /// wake pipe, listener registration); off Linux, always
    /// [`io::ErrorKind::Unsupported`].
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let hub = SessionHub::new(config.tenant, config.limits);
        let shards = shard_caps(config.queue_cap, workers)
            .into_iter()
            .map(Shard::new)
            .collect();
        let shared = Arc::new(Shared {
            shards,
            draining: AtomicBool::new(false),
            stats: ServerStats::new(),
            config,
            hooks: FaultHooks::default(),
            hub,
            completions: Mutex::new(Vec::new()),
            wake: Mutex::new(None),
        });
        // Start the loop before the workers, so it is already polling
        // when the caller announces the address.
        let event_loop = event_loop::EventLoop::new(listener, &shared)?;
        let event_loop = thread::Builder::new()
            .name("serve-epoll".to_string())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();

        Ok(Self {
            local_addr,
            shared,
            event_loop,
            workers: worker_handles,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters (shared with every thread).
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The streaming session hub (shared with the event loop and every
    /// worker).
    #[must_use]
    pub fn session_hub(&self) -> &SessionHub {
        &self.shared.hub
    }

    /// The fault-injection knobs (all disarmed by default). Chaos
    /// scenarios arm them on a live server; normal operation never
    /// touches this.
    #[must_use]
    pub fn fault_hooks(&self) -> &FaultHooks {
        &self.shared.hooks
    }

    /// Worker threads still running. The pool is fixed-size, so this
    /// equals the configured worker count for the server's whole life
    /// (panics are contained, never thread deaths) until a drain
    /// completes — the chaos harness asserts exactly that.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Whether a drain has been requested (by [`Server::trigger_drain`]
    /// or a `shutdown` request).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Begin a graceful drain: stop accepting, finish queued work.
    pub fn trigger_drain(&self) {
        self.shared.start_drain();
    }

    /// Wait for every thread to exit (drain must have been triggered,
    /// or this blocks until a `shutdown` request arrives).
    pub fn join(self) {
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Convenience for the CLI: block until a drain is requested (via
    /// `shutdown` request or [`install_drain_signals`]'s SIGINT/SIGTERM
    /// flag), then drain and join.
    pub fn run_until_drained(self) {
        while !self.is_draining() && !drain_requested() {
            thread::sleep(IDLE_TICK);
        }
        self.trigger_drain();
        self.join();
    }
}

/// Answer every verb that runs without a worker: observability, drain
/// control, and the session layer. Returns `None` for `submit` and
/// `submit_batch`, which go through the queue.
fn inline_reply(shared: &Shared, req: &Request) -> Option<Vec<u8>> {
    Some(match req {
        Request::Submit(_) | Request::Batch(_) => return None,
        Request::Ping => obj(vec![
            ("status", Json::Str("ok".into())),
            ("pong", Json::Bool(true)),
        ])
        .encode()
        .into_bytes(),
        Request::Stats => obj(vec![
            ("status", Json::Str("ok".into())),
            ("draining", Json::Bool(shared.draining())),
            ("stats", shared.stats.to_json()),
            ("sessions", shared.hub.summary_json()),
        ])
        .encode()
        .into_bytes(),
        Request::Shutdown => {
            shared.start_drain();
            obj(vec![
                ("status", Json::Str("ok".into())),
                ("draining", Json::Bool(true)),
            ])
            .encode()
            .into_bytes()
        }
        // Session verbs run inline on the event loop: they never
        // simulate more than the conservative clock allows per poll,
        // and graph construction happens before the hub lock is taken.
        // Opening and submitting are refused during a drain; polling
        // and closing still work so clients can collect what their
        // in-flight DAGs produced.
        Request::OpenSession(r) => {
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                proto::error_reply("server is draining")
            } else {
                shared.hub.open(r, &shared.stats)
            }
        }
        Request::SubmitDag(r) => {
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                ServerStats::bump(&shared.stats.session_dags_submitted);
                ServerStats::bump(&shared.stats.session_dags_errors);
                proto::error_reply("server is draining")
            } else {
                shared.hub.submit_dag(r, &shared.stats)
            }
        }
        Request::Poll(r) => shared.hub.poll(r, &shared.stats),
        Request::CloseSession(r) => shared.hub.close(r, &shared.stats),
    })
}

/// The reply to an empty `submit_batch` (answered without a worker).
fn empty_batch_reply() -> Vec<u8> {
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("results", Json::Arr(Vec::new())),
    ])
    .encode()
    .into_bytes()
}

/// The non-blocking epoll event loop: one thread multiplexing the
/// listener, the worker wake pipe, and every client connection.
#[cfg(target_os = "linux")]
mod event_loop;

/// Off Linux there is no `epoll(7)`, so the daemon cannot start.
#[cfg(not(target_os = "linux"))]
mod event_loop {
    use super::{io, Arc, Shared, TcpListener};

    pub(super) struct EventLoop;

    impl EventLoop {
        pub(super) fn new(_: TcpListener, _: &Arc<Shared>) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the moldable-serve event loop needs epoll(7), which only Linux has",
            ))
        }

        pub(super) fn run(self) {}
    }
}

#[cfg(unix)]
mod drain_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // async-signal-safe: a single atomic store.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // `signal(2)` from libc, which every Rust binary on unix links
        // already — no new dependency. SIG_ERR is ignored: failing to
        // install a handler only loses Ctrl-C niceness.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let h = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: installing an async-signal-safe handler (it performs
        // one atomic store) for signals we own as a daemon binary.
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

/// Install SIGINT/SIGTERM handlers that flag a graceful drain (no-op
/// off unix). Pair with [`Server::run_until_drained`].
pub fn install_drain_signals() {
    #[cfg(unix)]
    drain_signal::install();
}

/// Whether a drain signal has fired since [`install_drain_signals`].
#[must_use]
pub fn drain_requested() -> bool {
    #[cfg(unix)]
    {
        drain_signal::TRIGGERED.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

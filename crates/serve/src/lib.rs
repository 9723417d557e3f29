//! `moldable-serve` — scheduling as a service.
//!
//! The paper's algorithm is an *online* scheduler: tasks are revealed
//! over time and decisions are irrevocable. That is exactly the shape
//! of a long-running service, so this crate wraps the workspace's
//! Algorithm 1+2 implementation and simulator in a standard-library
//! TCP daemon:
//!
//! * [`proto`] — the length-prefixed JSON wire protocol;
//! * [`json`] — hand-rolled JSON encode/parse (no external deps):
//!   [`moldable_graph::json`], shared with trace import;
//! * [`service`] — the request→schedule executor with per-worker
//!   [`AllocCache`](moldable_core::AllocCache) reuse, the scheduler
//!   table ([`SchedulerChoice`]) the CLI shares, and the one guarded
//!   graph builder of `submit` and `submit_dag`;
//! * [`server`] — the daemon: a non-blocking `epoll(7)` event loop
//!   with per-connection backpressure and a frame deadline, per-worker
//!   request shards with spill-over and work-stealing, explicit
//!   `overloaded` backpressure, per-request timeouts, `stats` with
//!   latency percentiles, graceful drain on `shutdown` requests or
//!   SIGINT/SIGTERM;
//! * [`epoll`] — the minimal `epoll(7)` FFI wrapper (Linux only);
//! * [`stats`] — counters and the log-scale latency histogram;
//! * [`sessions`] — the streaming multi-tenant layer: clients open
//!   sessions, stream DAGs with release dates onto one shared
//!   simulated platform ([`moldable_tenant`]), and poll incremental
//!   completions — with per-tenant quotas and DRR fairness;
//! * [`loadgen`] — open/closed-loop one-shot load plus a
//!   deterministic session workload driver producing
//!   `results/BENCH_serve.json` / `BENCH_sessions.json`.
//!
//! # Example
//!
//! ```
//! use moldable_serve::loadgen::Client;
//! use moldable_serve::proto::{GraphSpec, Request, SubmitRequest};
//! use moldable_serve::server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//! let reply = client
//!     .call(&Request::Submit(Box::new(SubmitRequest {
//!         graph: GraphSpec::Named { shape: "cholesky".into(), size: 4 },
//!         p: Some(16),
//!         model: "amdahl".into(),
//!         seed: 7,
//!         scheduler: "online".into(),
//!         algo: "icpp22".into(),
//!         mu: None,
//!         policy: None,
//!         include_allocations: false,
//!     })))
//!     .unwrap();
//! assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
//! assert!(reply.get("makespan").unwrap().as_f64().unwrap() > 0.0);
//!
//! server.trigger_drain();
//! server.join();
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_os = "linux")]
pub mod epoll;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod service;
pub mod sessions;
pub mod stats;

pub use moldable_graph::json;

pub use loadgen::{
    run_sessions, Client, LoadConfig, LoadMode, LoadReport, SessionLoadConfig, SessionLoadReport,
};
pub use proto::{
    CloseSessionRequest, GraphSpec, OpenSessionRequest, PollRequest, Request, SubmitDagRequest,
    SubmitRequest,
};
pub use server::{install_drain_signals, FaultHooks, Server, ServerConfig};
pub use service::{scheduler_names, EngineChoice, SchedulerChoice, ServiceLimits, WorkerContext};
pub use sessions::SessionHub;
pub use stats::{Accounting, ServerStats};

//! Streaming multi-tenant session layer: online DAG arrivals as a
//! service.
//!
//! The one-shot pipeline (generate → schedule → reply) treats each
//! request as its own private platform. This crate models the setting
//! the paper actually studies — *online* arrivals competing for one
//! set of `P` processors — as a long-lived service: tenants open
//! sessions, stream task graphs with release dates, and read back
//! completions incrementally while every session's work contends on
//! the same simulated platform.
//!
//! Two layers, over the simulator's arrivals instance
//! [`moldable_sim::WorldInstance`] (a growing multi-DAG instance with
//! deterministic arrival order):
//!
//! * [`DrrScheduler`] — deficit-round-robin fairness across sessions,
//!   work-conserving, allocating per task with Algorithm 1.
//! * [`TenantService`] — session lifecycle (open/submit/poll/close,
//!   idle reaping), per-tenant admission quotas, conservative virtual
//!   time, and a per-tenant accounting ledger.
//!
//! Determinism is the design invariant: the full event log is a pure
//! function of the submitted workload, independent of how client
//! requests interleave in wall time (see the conservative-sync notes
//! on [`TenantService`]).

#![forbid(unsafe_code)]

mod drr;
mod service;

pub use drr::DrrScheduler;
pub use service::{
    CloseReply, EventKind, Ledger, OpenReply, PollReply, ServiceSummary, SessionEvent,
    SessionState, SubmitReply, TenantConfig, TenantError, TenantQuotas, TenantService,
};

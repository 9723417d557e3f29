//! Session lifecycle, admission control, and accounting.
//!
//! [`TenantService`] is the front door of the session layer: clients
//! open named sessions under a tenant, stream DAG submissions with
//! release dates, poll for incremental completions, and close. All
//! sessions share one simulated platform — a [`Stepper`] over the
//! simulator's arrivals instance [`WorldInstance`], scheduled by
//! [`DrrScheduler`] — so tenants genuinely contend for the same `P`
//! processors.
//!
//! # Conservative time synchronization
//!
//! Virtual time only moves when *every* open session has promised not
//! to submit work earlier. Each session carries a **frontier**: its
//! promise that all future submissions satisfy `at >= frontier`
//! (submissions bump it to their own date; [`TenantService::poll`]'s
//! `until` bumps it explicitly; a fresh session starts at the current
//! world time). The world advances *strictly below* the minimum
//! frontier across open sessions — the null-message rule of
//! conservative parallel discrete-event simulation — so every
//! decision point sees all arrivals for its instant, no matter how
//! client requests interleave in wall time. The event log is
//! therefore a pure function of the submitted workload: same
//! sessions, same DAGs, same dates ⇒ byte-identical events, in the
//! same global order.
//!
//! # Session state machine
//!
//! `Open → Draining → Drained`. [`TenantService::close_session`] (or
//! an idle reap via [`TenantService::tick`]) moves a session to
//! Draining: it stops constraining the clock and rejects submissions,
//! but its in-flight DAGs keep running and their completion events
//! keep buffering. When the last DAG finishes, the session is
//! Drained; polls then report `closed` once the buffer empties. The
//! label stays reserved for the service's lifetime, so late polls
//! never alias a stranger's session.
//!
//! # Accounting
//!
//! Every `submit_dag` attempt that names a session of tenant `T`
//! increments `T`'s `submitted` counter and exactly one of: `ok`
//! (admitted, counted at DAG completion), `errors` (structural
//! rejections — closed session, non-monotone date, empty DAG, id
//! space), or `drops` (quota rejections). At quiescence the ledger
//! balances: `submitted == ok + errors + drops`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use moldable_core::AlgoName;
use moldable_graph::TaskGraph;
use moldable_sim::{DagIdx, IdSpaceExhausted, SimError, SimOptions, Stepper, WorldInstance};

use crate::drr::DrrScheduler;

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Concurrently open sessions per tenant.
    pub max_sessions: u32,
    /// In-flight (admitted, not yet completed) DAGs per tenant.
    pub max_dags_in_flight: u32,
    /// In-flight tasks per tenant, summed over its DAGs.
    pub max_tasks_in_flight: u64,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            max_dags_in_flight: 256,
            max_tasks_in_flight: 1_000_000,
        }
    }
}

/// Service configuration: the shared platform and the quota policy.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Processors of the shared platform.
    pub p_total: u32,
    /// Algorithm 1's allocation parameter for all sessions.
    pub mu: f64,
    /// Per-tenant admission limits.
    pub quotas: TenantQuotas,
    /// Reap sessions idle longer than this (wall-clock ms); `None`
    /// disables reaping.
    pub idle_timeout_ms: Option<u64>,
}

impl TenantConfig {
    /// A config with default quotas and no idle reaping.
    #[must_use]
    pub fn new(p_total: u32, mu: f64) -> Self {
        Self {
            p_total,
            mu,
            quotas: TenantQuotas::default(),
            idle_timeout_ms: None,
        }
    }
}

/// Session lifecycle state (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepting submissions; constrains the world clock.
    Open,
    /// Closed to submissions; in-flight DAGs still running.
    Draining,
    /// All DAGs done; only residual events remain.
    Drained,
}

/// What happened, attached to a session's event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A task of this session's DAG `dag` completed.
    TaskDone {
        /// Task id local to the DAG.
        task: u32,
        /// Completion time (virtual).
        end: f64,
        /// Processors it held.
        procs: u32,
    },
    /// All tasks of DAG `dag` completed.
    DagDone {
        /// Completion time of the DAG's last task.
        at: f64,
    },
}

/// One buffered completion event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEvent {
    /// Global materialization sequence — totally ordered across all
    /// sessions; merging per-session streams by `seq` reproduces the
    /// deterministic world order.
    pub seq: u64,
    /// DAG index *within the session* (admission order).
    pub dag: u32,
    /// The event.
    pub kind: EventKind,
}

/// Per-tenant accounting. `submitted == ok + errors + drops` holds at
/// quiescence (no in-flight DAGs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `submit_dag` attempts that named a session of this tenant.
    pub submitted: u64,
    /// DAGs that ran to completion.
    pub ok: u64,
    /// Structural rejections (closed session, bad date, empty DAG…).
    pub errors: u64,
    /// Quota rejections.
    pub drops: u64,
}

/// Session-layer failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantError {
    /// No session with this label.
    UnknownSession(String),
    /// The label is already taken (labels stay reserved after close).
    DuplicateSession(String),
    /// The session no longer accepts submissions.
    SessionClosed(String),
    /// Submission date below the session's frontier.
    NonMonotonicSubmit {
        /// The offending date.
        at: f64,
        /// The session's current frontier.
        frontier: f64,
    },
    /// A per-tenant quota would be exceeded.
    QuotaExceeded {
        /// Which quota: `"sessions"`, `"dags"`, or `"tasks"`.
        scope: &'static str,
        /// Current usage.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The DAG has no tasks.
    EmptyDag,
    /// A non-finite or negative release date.
    BadReleaseDate(f64),
    /// The global task-id space is exhausted.
    IdSpace(IdSpaceExhausted),
    /// The shared platform hit an engine error and is poisoned.
    Wedged(SimError),
}

impl TenantError {
    /// Is this a quota rejection (for the wire's `quota_exceeded`)?
    #[must_use]
    pub fn is_quota(&self) -> bool {
        matches!(self, Self::QuotaExceeded { .. })
    }
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownSession(l) => write!(f, "unknown session `{l}`"),
            Self::DuplicateSession(l) => write!(f, "session `{l}` already exists"),
            Self::SessionClosed(l) => write!(f, "session `{l}` is closed to submissions"),
            Self::NonMonotonicSubmit { at, frontier } => write!(
                f,
                "submission at {at} is before the session frontier {frontier}"
            ),
            Self::QuotaExceeded { scope, used, limit } => {
                write!(f, "tenant quota exceeded: {used}/{limit} {scope}")
            }
            Self::EmptyDag => write!(f, "submitted DAG has no tasks"),
            Self::BadReleaseDate(at) => {
                write!(f, "release date {at} must be finite and >= 0")
            }
            Self::IdSpace(e) => write!(f, "{e}"),
            Self::Wedged(e) => write!(f, "shared platform wedged: {e}"),
        }
    }
}

impl std::error::Error for TenantError {}

/// Reply to [`TenantService::open_session`].
#[derive(Debug, Clone, Copy)]
pub struct OpenReply {
    /// World virtual time at open — also the session's initial
    /// frontier: first submissions must be at or after it.
    pub now: f64,
    /// The quota policy the session runs under.
    pub quotas: TenantQuotas,
}

/// Reply to [`TenantService::submit_dag`].
#[derive(Debug, Clone, Copy)]
pub struct SubmitReply {
    /// The DAG's index within the session (admission order) — the
    /// `dag` field of its future events.
    pub dag: u32,
    /// Tasks in the DAG.
    pub n_tasks: u32,
}

/// Reply to [`TenantService::poll`].
#[derive(Debug, Clone)]
pub struct PollReply {
    /// Drained events, oldest first.
    pub events: Vec<SessionEvent>,
    /// World virtual time after the poll's pump.
    pub now: f64,
    /// Events still buffered after this reply.
    pub pending_events: usize,
    /// The session is Drained and its buffer is empty: nothing more
    /// will ever arrive.
    pub closed: bool,
}

/// Reply to [`TenantService::close_session`].
#[derive(Debug, Clone, Copy)]
pub struct CloseReply {
    /// DAGs the session admitted over its lifetime.
    pub dags_admitted: u32,
    /// DAGs still running at close (drain continues in background).
    pub dags_in_flight: u32,
    /// Events buffered and not yet polled.
    pub pending_events: usize,
}

/// A point-in-time summary for stats endpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceSummary {
    /// Sessions in [`SessionState::Open`].
    pub sessions_open: usize,
    /// Sessions in [`SessionState::Draining`].
    pub sessions_draining: usize,
    /// Sessions in [`SessionState::Drained`].
    pub sessions_drained: usize,
    /// Distinct tenants seen.
    pub tenants: usize,
    /// World virtual time.
    pub now: f64,
    /// Tasks completed on the shared platform.
    pub tasks_completed: u64,
    /// Events buffered across all sessions.
    pub events_pending: usize,
    /// Sessions reaped by the idle timeout so far.
    pub sessions_reaped: u64,
}

struct Session {
    label: String,
    tenant: usize,
    state: SessionState,
    frontier: f64,
    /// World DAG index per session-local DAG number.
    dags: Vec<DagIdx>,
    dags_done: u32,
    events: VecDeque<SessionEvent>,
    last_activity_ms: u64,
}

struct Tenant {
    name: String,
    sessions_open: u32,
    dags_in_flight: u32,
    tasks_in_flight: u64,
    ledger: Ledger,
}

struct DagOwner {
    session: u32,
    local_no: u32,
    n_tasks: u32,
    /// Tasks turned into events so far. Materialization runs after a
    /// whole advance, when the live frontier may already show the DAG
    /// finished — the DagDone event must fire exactly once, on the
    /// *last materialized* task, so doneness is counted here.
    n_materialized: u32,
}

/// The multi-tenant session service over one shared platform.
pub struct TenantService {
    cfg: TenantConfig,
    stepper: Stepper<WorldInstance, DrrScheduler>,
    sessions: Vec<Session>,
    by_label: HashMap<String, u32>,
    tenants: Vec<Tenant>,
    by_tenant: HashMap<String, u32>,
    /// World DAG index → owning session and session-local number.
    dag_owner: Vec<DagOwner>,
    next_event_seq: u64,
    scratch: Vec<usize>,
    sessions_reaped: u64,
}

impl TenantService {
    /// A fresh service: empty world, no sessions.
    #[must_use]
    pub fn new(cfg: TenantConfig) -> Self {
        let opts = SimOptions::new(cfg.p_total);
        let scheduler = DrrScheduler::new(cfg.p_total, cfg.mu);
        Self {
            cfg,
            stepper: Stepper::new(WorldInstance::new(), scheduler, &opts),
            sessions: Vec::new(),
            by_label: HashMap::new(),
            tenants: Vec::new(),
            by_tenant: HashMap::new(),
            dag_owner: Vec::new(),
            next_event_seq: 0,
            scratch: Vec::new(),
            sessions_reaped: 0,
        }
    }

    /// World virtual time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.stepper.now()
    }

    /// The configuration the service runs under.
    #[must_use]
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// The ledger of `tenant`, if it has been seen.
    #[must_use]
    pub fn ledger(&self, tenant: &str) -> Option<Ledger> {
        self.by_tenant
            .get(tenant)
            .map(|&i| self.tenants[i as usize].ledger)
    }

    /// All tenants with their ledgers, in first-seen order.
    pub fn ledgers(&self) -> impl Iterator<Item = (&str, Ledger)> {
        self.tenants.iter().map(|t| (t.name.as_str(), t.ledger))
    }

    /// Point-in-time summary for stats endpoints.
    #[must_use]
    pub fn summary(&self) -> ServiceSummary {
        let mut s = ServiceSummary {
            tenants: self.tenants.len(),
            now: self.stepper.now(),
            tasks_completed: self.stepper.instance().n_completed(),
            sessions_reaped: self.sessions_reaped,
            ..ServiceSummary::default()
        };
        for sess in &self.sessions {
            match sess.state {
                SessionState::Open => s.sessions_open += 1,
                SessionState::Draining => s.sessions_draining += 1,
                SessionState::Drained => s.sessions_drained += 1,
            }
            s.events_pending += sess.events.len();
        }
        s
    }

    /// Open a session named `label` under `tenant`. `now_ms` is the
    /// caller's wall clock, used only for idle accounting.
    ///
    /// # Errors
    ///
    /// [`TenantError::DuplicateSession`] if the label is taken,
    /// [`TenantError::QuotaExceeded`] over the session quota.
    pub fn open_session(
        &mut self,
        tenant: &str,
        label: &str,
        now_ms: u64,
    ) -> Result<OpenReply, TenantError> {
        if self.by_label.contains_key(label) {
            return Err(TenantError::DuplicateSession(label.to_string()));
        }
        let t = self.tenant_slot(tenant);
        let quotas = self.cfg.quotas;
        {
            let tn = &self.tenants[t];
            if tn.sessions_open >= quotas.max_sessions {
                return Err(TenantError::QuotaExceeded {
                    scope: "sessions",
                    used: u64::from(tn.sessions_open),
                    limit: u64::from(quotas.max_sessions),
                });
            }
        }
        let slot = u32::try_from(self.sessions.len()).expect("session count fits u32");
        // A fresh session may submit no earlier than the world has
        // already advanced; its frontier starts there and pins the
        // clock until the session moves it or closes.
        let now = self.stepper.now();
        self.sessions.push(Session {
            label: label.to_string(),
            tenant: t,
            state: SessionState::Open,
            frontier: now,
            dags: Vec::new(),
            dags_done: 0,
            events: VecDeque::new(),
            last_activity_ms: now_ms,
        });
        self.by_label.insert(label.to_string(), slot);
        self.tenants[t].sessions_open += 1;
        Ok(OpenReply { now, quotas })
    }

    /// Submit `graph` to session `label` with release date `at`
    /// (virtual time, `>=` the session frontier), allocating with
    /// registry algorithm `algo`. DAGs of different algorithms share
    /// the platform; each task allocates through its own DAG's
    /// algorithm.
    ///
    /// # Errors
    ///
    /// See [`TenantError`]; quota rejections count as ledger drops,
    /// other rejections as ledger errors.
    pub fn submit_dag(
        &mut self,
        label: &str,
        graph: Arc<TaskGraph>,
        at: f64,
        algo: AlgoName,
        now_ms: u64,
    ) -> Result<SubmitReply, TenantError> {
        let slot = *self
            .by_label
            .get(label)
            .ok_or_else(|| TenantError::UnknownSession(label.to_string()))?
            as usize;
        let tenant = self.sessions[slot].tenant;
        self.tenants[tenant].ledger.submitted += 1;
        match self.try_admit(slot, graph, at, algo, now_ms) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                if e.is_quota() {
                    self.tenants[tenant].ledger.drops += 1;
                } else {
                    self.tenants[tenant].ledger.errors += 1;
                }
                Err(e)
            }
        }
    }

    fn try_admit(
        &mut self,
        slot: usize,
        graph: Arc<TaskGraph>,
        at: f64,
        algo: AlgoName,
        now_ms: u64,
    ) -> Result<SubmitReply, TenantError> {
        let n_tasks = graph.n_tasks();
        if n_tasks == 0 {
            return Err(TenantError::EmptyDag);
        }
        if !(at.is_finite() && at >= 0.0) {
            return Err(TenantError::BadReleaseDate(at));
        }
        let (tenant, frontier, state) = {
            let s = &self.sessions[slot];
            (s.tenant, s.frontier, s.state)
        };
        if state != SessionState::Open {
            return Err(TenantError::SessionClosed(
                self.sessions[slot].label.clone(),
            ));
        }
        if at < frontier {
            return Err(TenantError::NonMonotonicSubmit { at, frontier });
        }
        let q = self.cfg.quotas;
        let tn = &self.tenants[tenant];
        if tn.dags_in_flight >= q.max_dags_in_flight {
            return Err(TenantError::QuotaExceeded {
                scope: "dags",
                used: u64::from(tn.dags_in_flight),
                limit: u64::from(q.max_dags_in_flight),
            });
        }
        if tn.tasks_in_flight + n_tasks as u64 > q.max_tasks_in_flight {
            return Err(TenantError::QuotaExceeded {
                scope: "tasks",
                used: tn.tasks_in_flight,
                limit: q.max_tasks_in_flight,
            });
        }

        let dag = self
            .stepper
            .instance_mut()
            .submit(graph, at)
            .map_err(TenantError::IdSpace)?;
        self.stepper
            .scheduler_mut()
            .register_tasks(slot, n_tasks, algo);
        debug_assert_eq!(dag.0 as usize, self.dag_owner.len());
        let local_no = u32::try_from(self.sessions[slot].dags.len()).expect("dag count fits u32");
        self.dag_owner.push(DagOwner {
            session: u32::try_from(slot).expect("slot fits u32"),
            local_no,
            n_tasks: u32::try_from(n_tasks).expect("checked against u32 id space"),
            n_materialized: 0,
        });
        let s = &mut self.sessions[slot];
        s.dags.push(dag);
        s.frontier = at;
        s.last_activity_ms = now_ms;
        let tn = &mut self.tenants[tenant];
        tn.dags_in_flight += 1;
        tn.tasks_in_flight += n_tasks as u64;
        Ok(SubmitReply {
            dag: local_no,
            n_tasks: u32::try_from(n_tasks).expect("checked against u32 id space"),
        })
    }

    /// Poll session `label`: promise no submissions before `until`
    /// (bumping the session frontier), advance the shared world as far
    /// as every open session allows, and drain up to `max_events`
    /// buffered events.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownSession`], or [`TenantError::Wedged`] if
    /// the platform hit an engine error.
    pub fn poll(
        &mut self,
        label: &str,
        until: f64,
        max_events: usize,
        now_ms: u64,
    ) -> Result<PollReply, TenantError> {
        let slot = *self
            .by_label
            .get(label)
            .ok_or_else(|| TenantError::UnknownSession(label.to_string()))?
            as usize;
        {
            let s = &mut self.sessions[slot];
            s.last_activity_ms = now_ms;
            if s.state == SessionState::Open && until.is_finite() && until > s.frontier {
                s.frontier = until;
            }
        }
        self.pump()?;
        let s = &mut self.sessions[slot];
        let take = max_events.min(s.events.len());
        let events: Vec<SessionEvent> = s.events.drain(..take).collect();
        Ok(PollReply {
            events,
            now: self.stepper.now(),
            pending_events: self.sessions[slot].events.len(),
            closed: self.sessions[slot].state == SessionState::Drained
                && self.sessions[slot].events.is_empty(),
        })
    }

    /// Close session `label`: no further submissions; in-flight DAGs
    /// drain in the background and their events stay pollable.
    /// Idempotent on already-closed sessions.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownSession`], or [`TenantError::Wedged`].
    pub fn close_session(&mut self, label: &str, now_ms: u64) -> Result<CloseReply, TenantError> {
        let slot = *self
            .by_label
            .get(label)
            .ok_or_else(|| TenantError::UnknownSession(label.to_string()))?
            as usize;
        self.transition_to_draining(slot, now_ms);
        self.pump()?;
        let s = &self.sessions[slot];
        let dags_admitted = u32::try_from(s.dags.len()).expect("fits");
        Ok(CloseReply {
            dags_admitted,
            dags_in_flight: dags_admitted - s.dags_done,
            pending_events: s.events.len(),
        })
    }

    /// Reap sessions idle past the configured timeout, closing them as
    /// [`TenantService::close_session`] would. Returns the number
    /// reaped. No-op when reaping is disabled.
    pub fn tick(&mut self, now_ms: u64) -> usize {
        let Some(timeout) = self.cfg.idle_timeout_ms else {
            return 0;
        };
        let mut reaped = 0;
        for slot in 0..self.sessions.len() {
            let s = &self.sessions[slot];
            if s.state == SessionState::Open && now_ms.saturating_sub(s.last_activity_ms) > timeout
            {
                self.transition_to_draining(slot, now_ms);
                self.sessions_reaped += 1;
                reaped += 1;
            }
        }
        reaped
    }

    /// Close every session and run the world to quiescence. Used at
    /// shutdown and by tests asserting ledger balance.
    ///
    /// # Errors
    ///
    /// [`TenantError::Wedged`] if the platform hit an engine error.
    pub fn drain(&mut self, now_ms: u64) -> Result<(), TenantError> {
        for slot in 0..self.sessions.len() {
            self.transition_to_draining(slot, now_ms);
        }
        self.pump()
    }

    fn transition_to_draining(&mut self, slot: usize, now_ms: u64) {
        let s = &mut self.sessions[slot];
        if s.state != SessionState::Open {
            return;
        }
        s.state = if s.dags_done as usize == s.dags.len() {
            SessionState::Drained
        } else {
            SessionState::Draining
        };
        s.last_activity_ms = now_ms;
        let t = s.tenant;
        self.tenants[t].sessions_open -= 1;
    }

    /// The horizon virtual time may safely reach: strictly below the
    /// minimum frontier of open sessions; unbounded with none open.
    fn safe_horizon(&self) -> f64 {
        self.sessions
            .iter()
            .filter(|s| s.state == SessionState::Open)
            .map(|s| s.frontier)
            .fold(f64::INFINITY, f64::min)
    }

    /// Advance the shared platform to the safe horizon and
    /// materialize completions into per-session event buffers.
    fn pump(&mut self) -> Result<(), TenantError> {
        let safe = self.safe_horizon();
        let target = if safe == f64::INFINITY {
            f64::INFINITY
        } else if safe <= 0.0 {
            return Ok(());
        } else {
            // Exclusive horizon: events exactly at an open frontier
            // must wait until every session that could still submit
            // for that instant has moved past it.
            f64::from_bits(safe.to_bits() - 1)
        };
        let mut comps = std::mem::take(&mut self.scratch);
        comps.clear();
        let advanced = self.stepper.advance_until(target, &mut comps);
        if let Err(e) = advanced {
            self.scratch = comps;
            return Err(TenantError::Wedged(e));
        }
        for idx in comps.drain(..) {
            self.materialize(idx);
        }
        self.scratch = comps;
        Ok(())
    }

    /// Turn a retired placement into session events and accounting.
    fn materialize(&mut self, placement_idx: usize) {
        let pl = &self.stepper.placements()[placement_idx];
        let (task, end, procs) = (pl.task, pl.end, pl.procs);
        let (dag, local) = self.stepper.instance().locate(task);
        let owner = &mut self.dag_owner[dag.0 as usize];
        owner.n_materialized += 1;
        let dag_finished = owner.n_materialized == owner.n_tasks;
        let (slot, local_no) = (owner.session as usize, owner.local_no);
        let tenant = self.sessions[slot].tenant;

        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.sessions[slot].events.push_back(SessionEvent {
            seq,
            dag: local_no,
            kind: EventKind::TaskDone {
                task: local.0,
                end,
                procs,
            },
        });
        self.tenants[tenant].tasks_in_flight -= 1;

        if dag_finished {
            let seq = self.next_event_seq;
            self.next_event_seq += 1;
            let s = &mut self.sessions[slot];
            s.events.push_back(SessionEvent {
                seq,
                dag: local_no,
                kind: EventKind::DagDone { at: end },
            });
            s.dags_done += 1;
            if s.state == SessionState::Draining && s.dags_done as usize == s.dags.len() {
                s.state = SessionState::Drained;
            }
            let tn = &mut self.tenants[tenant];
            tn.dags_in_flight -= 1;
            tn.ledger.ok += 1;
        }
    }

    fn tenant_slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.by_tenant.get(name) {
            return i as usize;
        }
        let i = u32::try_from(self.tenants.len()).expect("tenant count fits u32");
        self.tenants.push(Tenant {
            name: name.to_string(),
            sessions_open: 0,
            dags_in_flight: 0,
            tasks_in_flight: 0,
            ledger: Ledger::default(),
        });
        self.by_tenant.insert(name.to_string(), i);
        i as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::{GraphBuilder, TaskId};
    use moldable_model::SpeedupModel;

    const MU: f64 = 0.38;
    const ALGO: AlgoName = AlgoName::Icpp22;

    /// A fully serial task: `time(p) = w` for all `p`, so Algorithm 1
    /// allocates exactly one processor — start/end times in these
    /// tests stay round numbers.
    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(0.0, w).unwrap()
    }

    fn chain(ws: &[f64]) -> Arc<TaskGraph> {
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = ws.iter().map(|&w| b.add_task(unit(w))).collect();
        for pair in ids.windows(2) {
            b.add_edge(pair[0], pair[1]).unwrap();
        }
        Arc::new(b.freeze())
    }

    fn svc(p: u32) -> TenantService {
        TenantService::new(TenantConfig::new(p, MU))
    }

    #[test]
    fn single_session_end_to_end() {
        let mut s = svc(4);
        let open = s.open_session("acme", "s1", 0).unwrap();
        assert_eq!(open.now, 0.0);
        let sub = s
            .submit_dag("s1", chain(&[1.0, 2.0]), 0.0, ALGO, 0)
            .unwrap();
        assert_eq!((sub.dag, sub.n_tasks), (0, 2));
        // Frontier still 0: nothing can run yet.
        let r = s.poll("s1", 0.0, 64, 0).unwrap();
        assert!(r.events.is_empty());
        // Promise no submissions before t=10: the chain completes.
        let r = s.poll("s1", 10.0, 64, 0).unwrap();
        assert_eq!(r.events.len(), 3, "2 TaskDone + 1 DagDone: {r:?}");
        assert_eq!(
            r.events[0].kind,
            EventKind::TaskDone {
                task: 0,
                end: 1.0,
                procs: 1
            }
        );
        assert_eq!(
            r.events[1].kind,
            EventKind::TaskDone {
                task: 1,
                end: 3.0,
                procs: 1
            }
        );
        assert_eq!(r.events[2].kind, EventKind::DagDone { at: 3.0 });
        assert!(!r.closed);
        let c = s.close_session("s1", 0).unwrap();
        assert_eq!(c.dags_in_flight, 0);
        let r = s.poll("s1", 0.0, 64, 0).unwrap();
        assert!(r.closed);
        assert_eq!(
            s.ledger("acme").unwrap(),
            Ledger {
                submitted: 1,
                ok: 1,
                errors: 0,
                drops: 0
            }
        );
    }

    #[test]
    fn frontier_gates_world_progress_across_sessions() {
        let mut s = svc(4);
        s.open_session("a", "fast", 0).unwrap();
        s.open_session("b", "slow", 0).unwrap();
        s.submit_dag("fast", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        // `slow` still pins the clock at 0 — polling `fast` far ahead
        // must not advance past slow's frontier.
        let r = s.poll("fast", 100.0, 64, 0).unwrap();
        assert!(r.events.is_empty(), "{r:?}");
        // slow promises t >= 50: fast's task (ends at 1) materializes.
        let r = s.poll("slow", 50.0, 64, 0).unwrap();
        assert!(r.events.is_empty());
        let r = s.poll("fast", 100.0, 64, 0).unwrap();
        assert_eq!(r.events.len(), 2);
    }

    #[test]
    fn submissions_below_the_frontier_are_rejected() {
        let mut s = svc(4);
        s.open_session("t", "s", 0).unwrap();
        s.submit_dag("s", chain(&[1.0]), 5.0, ALGO, 0).unwrap();
        let err = s.submit_dag("s", chain(&[1.0]), 4.0, ALGO, 0).unwrap_err();
        assert_eq!(
            err,
            TenantError::NonMonotonicSubmit {
                at: 4.0,
                frontier: 5.0
            }
        );
        // Equal to the frontier is fine (same-instant arrivals).
        s.submit_dag("s", chain(&[1.0]), 5.0, ALGO, 0).unwrap();
        let l = s.ledger("t").unwrap();
        assert_eq!((l.submitted, l.errors), (3, 1));
    }

    #[test]
    fn dag_quota_rejects_and_ledgers_drops() {
        let mut cfg = TenantConfig::new(4, MU);
        cfg.quotas.max_dags_in_flight = 2;
        let mut s = TenantService::new(cfg);
        s.open_session("t", "s", 0).unwrap();
        s.submit_dag("s", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        s.submit_dag("s", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        let err = s.submit_dag("s", chain(&[1.0]), 0.0, ALGO, 0).unwrap_err();
        assert!(err.is_quota(), "{err}");
        assert_eq!(
            err,
            TenantError::QuotaExceeded {
                scope: "dags",
                used: 2,
                limit: 2
            }
        );
        // Drain: in-flight DAGs complete, quota frees, ledger balances.
        s.drain(0).unwrap();
        let l = s.ledger("t").unwrap();
        assert_eq!(
            l,
            Ledger {
                submitted: 3,
                ok: 2,
                errors: 0,
                drops: 1
            }
        );
        assert_eq!(l.submitted, l.ok + l.errors + l.drops);
    }

    #[test]
    fn task_quota_counts_in_flight_tasks() {
        let mut cfg = TenantConfig::new(4, MU);
        cfg.quotas.max_tasks_in_flight = 3;
        let mut s = TenantService::new(cfg);
        s.open_session("t", "s", 0).unwrap();
        s.submit_dag("s", chain(&[1.0, 1.0]), 0.0, ALGO, 0).unwrap();
        let err = s
            .submit_dag("s", chain(&[1.0, 1.0]), 0.0, ALGO, 0)
            .unwrap_err();
        assert_eq!(
            err,
            TenantError::QuotaExceeded {
                scope: "tasks",
                used: 2,
                limit: 3
            }
        );
        // A 1-task DAG still fits.
        s.submit_dag("s", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
    }

    #[test]
    fn session_quota_limits_concurrent_opens() {
        let mut cfg = TenantConfig::new(4, MU);
        cfg.quotas.max_sessions = 1;
        let mut s = TenantService::new(cfg);
        s.open_session("t", "s1", 0).unwrap();
        let err = s.open_session("t", "s2", 0).unwrap_err();
        assert!(err.is_quota());
        // Another tenant is unaffected; closing frees the slot.
        s.open_session("u", "u1", 0).unwrap();
        s.close_session("s1", 0).unwrap();
        s.open_session("t", "s3", 0).unwrap();
    }

    #[test]
    fn drain_on_close_keeps_events_pollable() {
        let mut s = svc(2);
        s.open_session("t", "s", 0).unwrap();
        s.submit_dag("s", chain(&[2.0, 3.0]), 0.0, ALGO, 0).unwrap();
        let c = s.close_session("s", 0).unwrap();
        // Closing lifts the frontier: the whole chain drains.
        assert_eq!(c.dags_admitted, 1);
        let r = s.poll("s", 0.0, 1, 0).unwrap();
        assert_eq!(r.events.len(), 1, "max_events respected");
        assert_eq!(r.pending_events, 2);
        assert!(!r.closed);
        let r = s.poll("s", 0.0, 64, 0).unwrap();
        assert_eq!(r.events.len(), 2);
        assert!(r.closed);
        // Submissions after close are structural errors.
        let err = s.submit_dag("s", chain(&[1.0]), 9.0, ALGO, 0).unwrap_err();
        assert_eq!(err, TenantError::SessionClosed("s".to_string()));
        let l = s.ledger("t").unwrap();
        assert_eq!(
            l,
            Ledger {
                submitted: 2,
                ok: 1,
                errors: 1,
                drops: 0
            }
        );
    }

    #[test]
    fn idle_sessions_are_reaped_and_unblock_the_clock() {
        let mut cfg = TenantConfig::new(4, MU);
        cfg.idle_timeout_ms = Some(1_000);
        let mut s = TenantService::new(cfg);
        s.open_session("t", "busy", 0).unwrap();
        s.open_session("t", "ghost", 0).unwrap();
        s.submit_dag("busy", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        // ghost pins the clock at 0; poll can't see the completion.
        let r = s.poll("busy", 10.0, 64, 1_500).unwrap();
        assert!(r.events.is_empty());
        // Wall time passes; ghost exceeds its idle budget.
        assert_eq!(s.tick(2_000), 1);
        assert_eq!(s.summary().sessions_reaped, 1);
        let r = s.poll("busy", 10.0, 64, 2_000).unwrap();
        assert_eq!(r.events.len(), 2, "{r:?}");
    }

    #[test]
    fn labels_stay_reserved_and_unknown_sessions_error() {
        let mut s = svc(2);
        s.open_session("t", "s", 0).unwrap();
        assert_eq!(
            s.open_session("t", "s", 0).unwrap_err(),
            TenantError::DuplicateSession("s".to_string())
        );
        s.close_session("s", 0).unwrap();
        assert_eq!(
            s.open_session("t", "s", 0).unwrap_err(),
            TenantError::DuplicateSession("s".to_string())
        );
        assert_eq!(
            s.poll("nope", 0.0, 1, 0).unwrap_err(),
            TenantError::UnknownSession("nope".to_string())
        );
    }

    #[test]
    fn empty_and_bad_submissions_are_structural_errors() {
        let mut s = svc(2);
        s.open_session("t", "s", 0).unwrap();
        let empty = Arc::new(GraphBuilder::new().freeze());
        assert_eq!(
            s.submit_dag("s", empty, 0.0, ALGO, 0).unwrap_err(),
            TenantError::EmptyDag
        );
        assert!(matches!(
            s.submit_dag("s", chain(&[1.0]), f64::NAN, ALGO, 0).unwrap_err(),
            TenantError::BadReleaseDate(at) if at.is_nan()
        ));
        let l = s.ledger("t").unwrap();
        assert_eq!((l.submitted, l.errors), (2, 2));
    }

    #[test]
    fn event_log_is_deterministic_across_runs() {
        let run = || {
            let mut s = svc(3);
            s.open_session("a", "a1", 0).unwrap();
            s.open_session("b", "b1", 0).unwrap();
            for i in 0..4 {
                let at = f64::from(i);
                s.submit_dag("a1", chain(&[1.0, 2.0]), at, ALGO, 0).unwrap();
                s.submit_dag("b1", chain(&[1.5]), at, ALGO, 0).unwrap();
            }
            s.drain(0).unwrap();
            let mut all = Vec::new();
            for label in ["a1", "b1"] {
                let r = s.poll(label, 0.0, usize::MAX, 0).unwrap();
                assert!(r.closed);
                all.extend(r.events.into_iter().map(|e| (e.seq, label, e.dag, e.kind)));
            }
            all.sort_by_key(|(seq, ..)| *seq);
            all
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Sequence numbers are the dense global order.
        for (i, (seq, ..)) in a.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
    }

    #[test]
    fn fairness_a_flood_cannot_starve_a_quiet_tenant() {
        let mut s = svc(2);
        s.open_session("noisy", "n", 0).unwrap();
        s.open_session("quiet", "q", 0).unwrap();
        // noisy floods 40 unit tasks at t=0; quiet submits one.
        for _ in 0..20 {
            s.submit_dag("n", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        }
        s.submit_dag("q", chain(&[1.0]), 0.0, ALGO, 0).unwrap();
        s.drain(0).unwrap();
        let r = s.poll("q", 0.0, 64, 0).unwrap();
        let end = r
            .events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::TaskDone { end, .. } => Some(end),
                EventKind::DagDone { .. } => None,
            })
            .unwrap();
        // With P=2 and DRR, the quiet task is in the first wave: it
        // must finish at t=1, not after the flood.
        assert_eq!(end, 1.0, "quiet tenant's task ran immediately");
    }

    #[test]
    fn ledger_balances_for_many_tenants_after_drain() {
        let mut cfg = TenantConfig::new(4, MU);
        cfg.quotas.max_dags_in_flight = 3;
        let mut s = TenantService::new(cfg);
        for t in 0..5 {
            let tenant = format!("t{t}");
            for k in 0..2 {
                let label = format!("t{t}-s{k}");
                s.open_session(&tenant, &label, 0).unwrap();
                for i in 0..4 {
                    let _ = s.submit_dag(&label, chain(&[1.0, 1.0]), f64::from(i), ALGO, 0);
                }
            }
        }
        s.drain(0).unwrap();
        for (_, l) in s.ledgers() {
            assert_eq!(l.submitted, l.ok + l.errors + l.drops, "{l:?}");
            assert_eq!(l.submitted, 8);
            assert!(l.drops > 0, "the 3-dag quota fired: {l:?}");
        }
        let sum = s.summary();
        assert_eq!(sum.sessions_open, 0);
        assert_eq!(sum.sessions_drained, 10);
    }

    /// The `serve_sessions` benchmark shape run in process: 4 tenants ×
    /// 50 sessions, 25 rounds of Cholesky-4 (Amdahl models, seeds
    /// `round · 200 + session`) on P = 64, closed in order and polled
    /// dry.
    fn serve_sessions_shape() -> TenantService {
        use moldable_graph::gen;
        use moldable_model::ModelClass;
        let mut cfg = TenantConfig::new(64, ModelClass::Amdahl.optimal_mu());
        cfg.quotas.max_sessions = 1000;
        cfg.quotas.max_dags_in_flight = 4_000_000;
        let (tenants, per_tenant, rounds) = (4, 50, 25);
        let label = |idx: usize| format!("t{}-s{}", idx / per_tenant, idx % per_tenant);
        let mut s = TenantService::new(cfg);
        for idx in 0..tenants * per_tenant {
            s.open_session(&format!("t{}", idx / per_tenant), &label(idx), 0)
                .unwrap();
        }
        for round in 0..rounds {
            for idx in 0..tenants * per_tenant {
                let seed = (round * tenants * per_tenant + idx) as u64;
                let g = gen::by_name("cholesky", 4, ModelClass::Amdahl, 64, seed).unwrap();
                s.submit_dag(&label(idx), Arc::new(g), round as f64, ALGO, 0)
                    .unwrap();
            }
        }
        for idx in 0..tenants * per_tenant {
            s.close_session(&label(idx), 0).unwrap();
        }
        for idx in 0..tenants * per_tenant {
            while !s
                .poll(&label(idx), f64::NEG_INFINITY, 4096, 0)
                .unwrap()
                .closed
            {}
        }
        assert_eq!(s.summary().tasks_completed, 100_000);
        s
    }

    #[test]
    fn drr_decision_points_read_a_pinned_number_of_slots() {
        // The linear passes this scheduler replaced read 121 084 018
        // slot states on this workload (the same count, added to that
        // implementation): every decision instant counted the non-empty
        // queues, replenished every slot, then took up to three cyclic
        // passes over all 200 slots, and the engine's re-call took two
        // more.
        const LINEAR: u64 = 121_084_018;
        let s = serve_sessions_shape();
        let visits = s.stepper.scheduler().slot_visits();
        assert!(visits * 4 <= LINEAR, "{visits} slot visits");
        // 10 183 581 of them are replenish visits: 100 020 decision
        // instants × ~102 slots that hold ready work or emptied since
        // the previous instant. Replenishing all 200 slots at every
        // instant read 20 004 000 (24 957 872 in total).
        assert_eq!(visits, 15_137_453);
    }

    #[test]
    fn drr_caches_stop_probing_once_models_never_repeat() {
        // Every one of the 100 000 releases carries a distinct model,
        // so the memo policy's bypass stops probing after
        // `BYPASS_MIN_PROBES` misses. A cache that only rebuilt itself
        // past its size bound probed on every release (34 463 probes
        // and entries left after one rebuild at 65 537).
        use moldable_core::memo::BYPASS_MIN_PROBES;
        let s = serve_sessions_shape();
        let caches = s.stepper.scheduler().caches();
        let probes: u64 = caches.iter().map(|c| c.probes()).sum();
        let held: usize = caches.iter().map(|c| c.len()).sum();
        assert_eq!(probes, BYPASS_MIN_PROBES);
        assert!(held as u64 <= BYPASS_MIN_PROBES, "{held} models held");
    }
}

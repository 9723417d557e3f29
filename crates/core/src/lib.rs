//! The paper's online scheduling algorithm and the baselines it is
//! compared against.
//!
//! * [`allocator`] — **Algorithm 2**: the two-step processor
//!   allocation (local-processor-allocation step minimizing the area
//!   ratio `α` subject to the time-stretch constraint
//!   `β ≤ (1−2μ)/(μ(1−μ))`, then the `⌈μP⌉` cap) — plus the
//!   Improved'23 *dual* allocation ([`allocate_improved`]) that
//!   minimizes time subject to an area budget.
//! * [`OnlineScheduler`] — **Algorithm 1**: list scheduling over a
//!   waiting queue of available tasks, with the allocation of
//!   Algorithm 2 and a per-model-class choice of `μ` (Theorems 1–4).
//! * [`registry`] — the algorithm registry: both online algorithms
//!   behind stable names (`icpp22`, `improved23`) with their per-class
//!   parameters and proven envelopes, mirroring
//!   `moldable_graph::gen::by_name`.
//! * [`baselines`] — reference schedulers: naive allocations
//!   (1 processor, `p_max`), the earliest-completion-time heuristic,
//!   the equal-share strategy of Figure 4(b), and the two ablations of
//!   Algorithm 2 (LPA without cap, cap without LPA).
//!
//! # Example
//!
//! ```
//! use moldable_core::OnlineScheduler;
//! use moldable_graph::gen;
//! use moldable_model::{ModelClass, SpeedupModel};
//! use moldable_sim::{simulate, SimOptions};
//!
//! // A 4-stage fork-join of Amdahl tasks on 32 processors.
//! let mut assign = |_ctx: gen::TaskCtx<'_>| SpeedupModel::amdahl(50.0, 1.0).unwrap();
//! let g = gen::fork_join(8, 4, &mut assign);
//!
//! let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
//! let schedule = simulate(&g, &mut sched, &SimOptions::new(32)).unwrap();
//! schedule.validate(&g).unwrap();
//!
//! // Theorem 3: the makespan is at most 4.74x the Lemma 2 lower bound.
//! let lb = g.bounds(32).lower_bound();
//! assert!(schedule.makespan <= 4.74 * lb);
//! ```

#![forbid(unsafe_code)]

pub mod allocator;
pub mod baselines;

pub mod memo;
pub mod ready_queue;
pub mod registry;

mod adaptive;
mod backfill;
mod online;
mod policy;

pub use adaptive::AdaptiveScheduler;
pub use allocator::{
    allocate, allocate_improved, allocate_improved_linear_reference, allocate_linear_reference,
    mu_cap, Allocation,
};
pub use backfill::EasyBackfillScheduler;
pub use memo::AllocCache;
pub use online::OnlineScheduler;
pub use policy::QueuePolicy;
pub use ready_queue::{IndexedQueue, ReadyItem};
pub use registry::{AlgoName, ALGOS};

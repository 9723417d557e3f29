//! Exact discrete-event simulation of a platform with `P` identical
//! processors executing a moldable task graph.
//!
//! This is the "testbed" substrate of the reproduction: the paper's
//! platform model (Section 3.1) is abstract — `P` identical processors,
//! non-preemptive moldable tasks, no data-transfer cost — so an exact
//! event-driven simulator reproduces it with no approximation.
//!
//! The key abstraction is the [`Scheduler`] trait: the engine owns the
//! task graph and *reveals* tasks to the scheduler only when all their
//! predecessors have completed (the online information model), then
//! asks the scheduler which available tasks to start whenever
//! processors free up. The engine never leaks unrevealed structure.
//!
//! For adaptive lower bounds (the paper's Section 5 adversary decides
//! the graph *in response to* the algorithm's behaviour), the engine
//! also runs against the more general [`Instance`] trait, of which a
//! [`moldable_graph::TaskGraph`] is the static special case.
//!
//! There is one engine, [`Stepper`]: [`simulate`] and
//! [`simulate_instance`] run it to quiescence, and long-lived services
//! advance it in slices. The loop costs little per event; the cost of
//! a release or a decision point belongs to the scheduler, so a
//! scheduler's fast path lives in its own [`Scheduler::release`] and
//! [`Scheduler::select_into`] (as `moldable_core::OnlineScheduler`'s
//! does), not in a second engine.
//!
//! # Example
//!
//! ```
//! use moldable_graph::{GraphBuilder, TaskId};
//! use moldable_model::SpeedupModel;
//! use moldable_sim::{simulate, Scheduler, SimOptions};
//!
//! /// A toy scheduler: run every available task on one processor.
//! #[derive(Default)]
//! struct OneProc { queue: Vec<TaskId> }
//! impl Scheduler for OneProc {
//!     fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
//!         self.queue.push(task);
//!     }
//!     fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
//!         let take = (free as usize).min(self.queue.len());
//!         self.queue.drain(..take).map(|t| (t, 1)).collect()
//!     }
//! }
//!
//! let mut g = GraphBuilder::new();
//! let a = g.add_task(SpeedupModel::amdahl(2.0, 0.0).unwrap());
//! let b = g.add_task(SpeedupModel::amdahl(3.0, 0.0).unwrap());
//! g.add_edge(a, b).unwrap();
//! let g = g.freeze();
//!
//! let schedule = simulate(&g, &mut OneProc::default(), &SimOptions::new(4)).unwrap();
//! assert_eq!(schedule.makespan, 5.0);
//! schedule.validate(&g).unwrap();
//! ```

#![forbid(unsafe_code)]

mod arrivals;
mod engine;
mod gantt;
mod procmap;
mod profile;
mod schedule;
mod stepper;
mod svg;
mod trace;
mod validate;

pub use arrivals::TimedArrivals;
/// Alias of [`simulate`], kept only because the repository benchmark
/// (`benchmark/`) calls it by this name.
pub use engine::simulate as simulate_batched;
pub use engine::{
    simulate, simulate_instance, GraphInstance, Instance, Scheduler, SimError, SimOptions,
};
pub use gantt::gantt_ascii;
pub use procmap::ProcPool;
pub use profile::{interval_profile, IntervalProfile};
pub use schedule::{Placement, Schedule, ScheduleBuilder};
pub use stepper::Stepper;
pub use validate::ValidationError;

//! Task graphs of moldable tasks, workload generators, and the
//! makespan lower bounds of Section 3.2.
//!
//! A [`TaskGraph`] is an immutable DAG in CSR form whose nodes carry a
//! [`moldable_model::SpeedupModel`]; edges are precedence constraints.
//! Graphs are assembled through a mutable [`GraphBuilder`] and then
//! *frozen*: built offline (the adversary or workload generator knows
//! everything) but *consumed* online — the simulator only reveals a
//! task to the scheduler once all its predecessors completed, via
//! [`Frontier`].
//!
//! The builder, the frozen graph and the frontier are generic over
//! the per-task payload (`TaskGraph<T = SpeedupModel>`), so a platform
//! whose tasks carry more than one model — the hybrid CPU+GPU crate's
//! one model per pool — uses the same graph type, unchanged structure
//! code and the same revelation.
//!
//! # Example
//!
//! ```
//! use moldable_graph::GraphBuilder;
//! use moldable_model::SpeedupModel;
//!
//! // a → b, a → c  (fork)
//! let mut b_ = GraphBuilder::new();
//! let a = b_.add_task(SpeedupModel::amdahl(4.0, 1.0).unwrap());
//! let b = b_.add_task(SpeedupModel::amdahl(8.0, 0.5).unwrap());
//! let c = b_.add_task(SpeedupModel::amdahl(2.0, 0.0).unwrap());
//! b_.add_edge(a, b).unwrap();
//! b_.add_edge(a, c).unwrap();
//! let g = b_.freeze();
//!
//! assert_eq!(g.n_tasks(), 3);
//! assert_eq!(g.sources(), &[a]);
//! let lb = g.bounds(16); // Lemma 2 lower bounds on a 16-proc platform
//! assert!(lb.lower_bound() > 0.0);
//! ```

#![forbid(unsafe_code)]

mod bounds;
mod builder;
mod dot;
mod fileio;
mod frontier;
mod stats;
mod task_graph;

pub mod gen;
pub mod json;
pub mod trace;

pub use bounds::GraphBounds;
pub use builder::GraphBuilder;
pub use fileio::{parse_workflow, WorkflowError};
pub use frontier::Frontier;
pub use stats::GraphStats;
pub use task_graph::{GraphError, TaskGraph, TaskId};
pub use trace::{parse_trace, TraceError, TraceFormat, TraceLimits, WorkflowTrace};

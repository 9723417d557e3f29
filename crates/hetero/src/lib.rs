//! Extension: online scheduling of moldable task graphs on *hybrid*
//! platforms with two processor pools (CPUs and GPUs).
//!
//! The paper's related work cites Canon, Marchal, Simon & Vivien's
//! online scheduling on heterogeneous platforms (but without moldable
//! tasks); its conclusion calls for "extending to other online
//! scheduling settings". This crate combines the two: every task is
//! moldable *within* a pool (a [`SpeedupModel`](moldable_model::SpeedupModel)
//! per pool) and the
//! online scheduler must pick, at launch, both a pool and an
//! allocation — non-preemptively, with the same online revelation
//! model as the homogeneous case.
//!
//! A hybrid graph is the homogeneous [`moldable_graph::TaskGraph`] with
//! a [`HeteroTask`] (both pool models) per node, built with
//! [`moldable_graph::GraphBuilder`] and frozen like any other graph.
//! The hybrid platform is a two-lane [`moldable_sim::Platform`], so
//! [`simulate_hetero`] is one run of the homogeneous engine's
//! [`moldable_sim::Stepper`] over a [`moldable_sim::GraphInstance`] of
//! the graph, and the schedulers implement
//! [`moldable_sim::Scheduler`]`<HeteroPlatform>`.
//!
//! No constant competitive ratio is claimed here (none is known for
//! this combination); the crate provides the machinery — platform,
//! graph, schedulers, and a *valid* fractional lower bound — and the
//! `hetero` experiment compares the pool-choice rules.

#![forbid(unsafe_code)]

mod bound;
mod engine;
mod graph;
mod sched;

pub use bound::hetero_lower_bound;
pub use engine::{simulate_hetero, HeteroSchedule};
pub use graph::{HeteroGraph, HeteroPlatform, HeteroTask, Pool};
pub use sched::{CpuOnly, GpuOnly, HeteroEct, MuHetero};

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    /// End-to-end smoke: everything exported works together.
    #[test]
    fn end_to_end_smoke() {
        let platform = HeteroPlatform { cpus: 8, gpus: 2 };
        let mut g = GraphBuilder::new();
        // A CPU-friendly task and a GPU-friendly one, in a chain.
        let a = g.add_task(HeteroTask {
            cpu: SpeedupModel::amdahl(8.0, 0.5).unwrap(),
            gpu: SpeedupModel::amdahl(32.0, 4.0).unwrap(),
        });
        let b = g.add_task(HeteroTask {
            cpu: SpeedupModel::amdahl(64.0, 2.0).unwrap(),
            gpu: SpeedupModel::amdahl(4.0, 0.1).unwrap(),
        });
        g.add_edge(a, b).unwrap();
        let g = g.freeze();

        let mut sched = MuHetero::default_mu();
        let s = simulate_hetero(&g, platform, &mut sched).unwrap();
        s.validate(&g, platform).unwrap();
        assert!(s.makespan > 0.0);
        assert!(s.makespan >= hetero_lower_bound(&g, platform) - 1e-9);
    }
}

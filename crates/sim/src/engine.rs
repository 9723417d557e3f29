//! The engine's traits ([`Platform`], [`Scheduler`], [`Instance`]),
//! its options and errors, and the one-shot entry points [`simulate`]
//! and [`simulate_instance`]. Both entry points run the event loop of
//! [`Stepper`] to quiescence; it is the crate's only per-event loop.

use std::fmt;

use moldable_graph::{Frontier, TaskGraph, TaskId};
use moldable_model::SpeedupModel;

use crate::{Schedule, Stepper};

/// The processors a run shares out, as seen by the engine: one or more
/// *lanes* (pools of identical processors), a free count per lane, and
/// the per-task model that gives a duration on `p` processors of a
/// lane. A value of the type is a vector of processor counts: the
/// engine starts from the platform's size and hands the scheduler the
/// counts that are currently free.
///
/// The paper's platform is `u32`: `P` identical processors in one lane
/// `()`, with a [`SpeedupModel`] per task. It is the default parameter
/// of [`Scheduler`], [`Instance`] and [`Stepper`], so the homogeneous
/// case names no platform at all and its per-placement lane log is a
/// zero-sized `Vec<()>`.
pub trait Platform: Copy + fmt::Debug {
    /// Which pool a task runs on, fixed at its start.
    type Lane: Copy;
    /// What the scheduler learns about a task at its release.
    type Task: ?Sized;
    /// One start decision: task, lane and allocation, in the form the
    /// scheduler appends it.
    type Pick: Copy;

    /// The count of `lane`: the engine reads it, takes a start's
    /// processors from it and gives them back at the completion.
    fn free_mut(&mut self, lane: Self::Lane) -> &mut u32;
    /// The task, lane and allocation of a pick.
    fn split(pick: Self::Pick) -> (TaskId, Self::Lane, u32);
    /// Execution time of `task` on `p` processors of `lane`.
    fn time(task: &Self::Task, lane: Self::Lane, p: u32) -> f64;
}

impl Platform for u32 {
    type Lane = ();
    type Task = SpeedupModel;
    type Pick = (TaskId, u32);

    fn free_mut(&mut self, (): ()) -> &mut u32 {
        self
    }

    fn split((task, p): (TaskId, u32)) -> (TaskId, (), u32) {
        (task, (), p)
    }

    fn time(task: &SpeedupModel, (): (), p: u32) -> f64 {
        task.time(p)
    }
}

/// An online scheduling policy, driven by the engine.
///
/// The engine calls [`Scheduler::release`] exactly once per task, when
/// the task becomes *available* (all predecessors done) — this is the
/// only point where the scheduler learns the task exists and sees its
/// speedup model, matching the paper's online information model. At
/// every decision point (time 0 and each completion) the engine calls
/// [`Scheduler::select_into`] repeatedly until it appends nothing.
pub trait Scheduler<P: Platform = u32> {
    /// Called once before the simulation starts, with the platform's
    /// size (`P` on the homogeneous platform).
    fn init(&mut self, platform: P) {
        let _ = platform;
    }

    /// A task has become available; its execution-time parameters are
    /// now known.
    fn release(&mut self, task: TaskId, model: &P::Task);

    /// Choose tasks to start *now*, appending them to `out`. `free`
    /// holds the currently idle processors of each lane; the total
    /// allocation the appended batch puts on a lane must not exceed
    /// that lane's count. Append nothing to wait for the next event.
    /// The engine clears and reuses one buffer across all decision
    /// points, so a scheduler that keeps its own scratch runs
    /// allocation-free at steady state; implementations must only
    /// append.
    fn select_into(&mut self, now: f64, free: P, out: &mut Vec<P::Pick>);
}

/// A source of tasks for the engine. The static case is a
/// [`TaskGraph`] whose payload is the platform's task type (see
/// [`GraphInstance`], which serves every platform); adaptive
/// adversaries (the paper's Section 5) implement this directly and may
/// decide the remaining structure *after* observing completions.
///
/// Tasks are released through two hooks: [`Instance::arrivals_into`]
/// at the times [`Instance::next_arrival`] announces (time 0 for a
/// graph's sources, release dates for timed arrivals) and
/// [`Instance::on_complete_into`] at each completion. Both append bare
/// [`TaskId`]s; the engine looks up the speedup function through
/// [`Instance::model`] whenever it needs one. This keeps model
/// *ownership* with the instance — the engine never clones a
/// `SpeedupModel` per task, which used to dominate release cost on
/// large instances (a clone bumps an `Arc` for table/formula models and
/// copies parameter structs for closed-form ones, per task).
pub trait Instance<P: Platform = u32> {
    /// `task` completed at simulated time `time`; append the tasks that
    /// become available as a result to `out`, in release order.
    /// Adaptive adversaries may use `time` to record their decision
    /// points. The engine clears and reuses one scratch buffer across
    /// all completions; implementations must only append.
    fn on_complete_into(&mut self, task: TaskId, time: f64, out: &mut Vec<TaskId>);

    /// Have all tasks of the instance completed?
    fn is_done(&self) -> bool;

    /// The model of a task this instance has released. Must be stable
    /// from the task's release to its completion.
    fn model(&self, task: TaskId) -> &P::Task;

    /// Expected number of tasks this instance will release (0 when
    /// unknown). The engine pre-sizes its per-task state from this, so
    /// a good hint avoids re-allocation on million-task instances.
    fn size_hint(&self) -> usize {
        0
    }

    /// Next time at which tasks arrive *independently of completions*:
    /// `Some(0.0)` while tasks available from the start (a graph's
    /// sources) are still to be released, then release dates (the
    /// online-independent-tasks model of Ye et al.). `None` means all
    /// future releases are triggered by completions.
    fn next_arrival(&self) -> Option<f64>;

    /// Append the tasks arriving at `time` to `out`, in release order.
    /// The engine calls this when the clock reaches the time
    /// [`Instance::next_arrival`] announced, and again while that
    /// still returns a time `<= time`. It reuses one scratch buffer,
    /// as for [`Instance::on_complete_into`]; implementations must only
    /// append.
    fn arrivals_into(&mut self, time: f64, out: &mut Vec<TaskId>);
}

/// Forwards every method, so a borrowed scheduler (`&mut dyn
/// Scheduler` in [`simulate`]) keeps its own `init`.
impl<P: Platform, T: Scheduler<P> + ?Sized> Scheduler<P> for &mut T {
    fn init(&mut self, platform: P) {
        (**self).init(platform);
    }

    fn release(&mut self, task: TaskId, model: &P::Task) {
        (**self).release(task, model);
    }

    fn select_into(&mut self, now: f64, free: P, out: &mut Vec<P::Pick>) {
        (**self).select_into(now, free, out);
    }
}

/// Forwards every method, so a borrowed instance keeps its own size
/// hint and timed arrivals.
impl<P: Platform, T: Instance<P> + ?Sized> Instance<P> for &mut T {
    fn on_complete_into(&mut self, task: TaskId, time: f64, out: &mut Vec<TaskId>) {
        (**self).on_complete_into(task, time, out);
    }

    fn is_done(&self) -> bool {
        (**self).is_done()
    }

    fn model(&self, task: TaskId) -> &P::Task {
        (**self).model(task)
    }

    fn size_hint(&self) -> usize {
        (**self).size_hint()
    }

    fn next_arrival(&self) -> Option<f64> {
        (**self).next_arrival()
    }

    fn arrivals_into(&mut self, time: f64, out: &mut Vec<TaskId>) {
        (**self).arrivals_into(time, out);
    }
}

/// Adapter: a static [`TaskGraph`] as an [`Instance`] of every
/// platform whose per-task model is the graph's payload: a
/// `TaskGraph` runs on `u32`, a graph of hybrid tasks on the hybrid
/// platform.
pub struct GraphInstance<'a, T = SpeedupModel> {
    graph: &'a TaskGraph<T>,
    frontier: Frontier,
    /// The sources have arrived (at time 0).
    started: bool,
}

impl<'a, T> GraphInstance<'a, T> {
    /// Wrap a graph for simulation.
    #[must_use]
    pub fn new(graph: &'a TaskGraph<T>) -> Self {
        Self {
            graph,
            frontier: Frontier::new(graph),
            started: false,
        }
    }
}

impl<T, P: Platform<Task = T>> Instance<P> for GraphInstance<'_, T> {
    fn on_complete_into(&mut self, task: TaskId, _time: f64, out: &mut Vec<TaskId>) {
        self.frontier.complete_into(self.graph, task, out);
    }

    fn is_done(&self) -> bool {
        self.frontier.all_done()
    }

    fn model(&self, task: TaskId) -> &T {
        self.graph.model(task)
    }

    fn size_hint(&self) -> usize {
        self.graph.n_tasks()
    }

    fn next_arrival(&self) -> Option<f64> {
        (!self.started).then_some(0.0)
    }

    /// The sources, in id order: the paper's release at time 0.
    fn arrivals_into(&mut self, _time: f64, out: &mut Vec<TaskId>) {
        self.started = true;
        out.extend_from_slice(self.graph.sources());
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Platform size `P ≥ 1`.
    pub p_total: u32,
    /// Record concrete processor ids per placement (needed for Gantt
    /// rendering; adds O(fragments) bookkeeping per task).
    pub record_proc_ids: bool,
}

impl SimOptions {
    /// Options for a `P`-processor platform without id recording.
    #[must_use]
    pub fn new(p_total: u32) -> Self {
        assert!(p_total >= 1);
        Self {
            p_total,
            record_proc_ids: false,
        }
    }

    /// Enable concrete processor-id recording (for Gantt charts).
    #[must_use]
    pub fn with_proc_ids(mut self) -> Self {
        self.record_proc_ids = true;
        self
    }
}

/// Ways a simulation can fail. All of these indicate a *scheduler*
/// (or instance) bug, never an engine limitation; the engine refuses
/// to mask them.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scheduler started a task the engine never released to it.
    NotAvailable(TaskId),
    /// The scheduler started a task with a zero-processor allocation.
    ZeroProcs(TaskId),
    /// The scheduler's batch exceeded the free processors of a lane.
    Oversubscribed {
        /// Offending task.
        task: TaskId,
        /// Processors the task asked for.
        want: u32,
        /// Processors of the task's lane actually free at that point
        /// of the batch.
        free: u32,
    },
    /// Available tasks exist but nothing is running and the scheduler
    /// selects nothing: the simulation can make no further progress.
    Stuck {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Tasks completed so far.
        completed: usize,
    },
    /// The instance reports tasks outstanding but the engine has none
    /// available, running or arriving (or the instance flipped back to
    /// unfinished after quiescence). An instance that releases nothing
    /// at time 0 and never reports done gets this error, not
    /// [`SimError::Stuck`]: no scheduler could have made progress.
    InconsistentInstance,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAvailable(t) => write!(f, "scheduler started unavailable task {t}"),
            Self::ZeroProcs(t) => write!(f, "scheduler started {t} on zero processors"),
            Self::Oversubscribed { task, want, free } => {
                write!(
                    f,
                    "scheduler oversubscribed: {task} wants {want}, only {free} free"
                )
            }
            Self::Stuck { time, completed } => {
                write!(f, "no progress at t={time} after {completed} completions")
            }
            Self::InconsistentInstance => write!(f, "instance reported inconsistent state"),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulate a static task graph under `scheduler`: [`simulate_instance`]
/// over a [`GraphInstance`], with the instance statically dispatched.
///
/// # Errors
///
/// Propagates any [`SimError`] the scheduler provokes.
pub fn simulate(
    graph: &TaskGraph,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    Stepper::new(GraphInstance::new(graph), scheduler, opts).finish()
}

/// Run an [`Instance`] (static or adaptive) to completion under
/// `scheduler` on `opts.p_total` processors: a [`Stepper`] advanced to
/// quiescence in one call.
///
/// Task ids issued by the instance are expected to be small dense
/// integers (they index internal vectors).
///
/// # Errors
///
/// Returns a [`SimError`] if the scheduler oversubscribes, starts an
/// unavailable task, or wedges the simulation.
pub fn simulate_instance(
    instance: &mut dyn Instance,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    Stepper::new(instance, scheduler, opts).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Greedy FIFO: start queued tasks on a fixed allocation while they fit.
    struct Fifo {
        alloc: u32,
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Fifo {
        fn new(alloc: u32) -> Self {
            Self {
                alloc,
                queue: std::collections::VecDeque::new(),
            }
        }
    }

    impl Scheduler for Fifo {
        fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
            self.queue.push_back(task);
        }
        fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
            while free >= self.alloc {
                match self.queue.pop_front() {
                    Some(t) => {
                        out.push((t, self.alloc));
                        free -= self.alloc;
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn chain_runs_serially() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(2.0));
        let b = g.add_task(unit(3.0));
        let c = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        let g = g.freeze();
        let s = simulate(&g, &mut Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 6.0);
        assert_eq!(s.placements.len(), 3);
        assert_eq!(s.placement(b).unwrap().start, 2.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn independents_run_in_parallel_up_to_capacity() {
        let mut g = GraphBuilder::new();
        for _ in 0..6 {
            g.add_task(unit(1.0));
        }
        let g = g.freeze();
        // P = 4, one proc each: 4 run at t=0, 2 at t=1.
        let s = simulate(&g, &mut Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 2.0);
        assert_eq!(s.placements.iter().filter(|p| p.start == 0.0).count(), 4);
        s.validate(&g).unwrap();
    }

    #[test]
    fn simultaneous_completions_release_together() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        let c = g.add_task(unit(1.0));
        g.add_edge(a, c).unwrap();
        g.add_edge(b, c).unwrap();
        let g = g.freeze();
        let s = simulate(&g, &mut Fifo::new(2), &SimOptions::new(4)).unwrap();
        // a and b run in parallel on 2 procs each over [0, 0.5);
        // c starts exactly when both complete.
        assert_eq!(s.placement(c).unwrap().start, 0.5);
        assert_eq!(s.makespan, 1.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn oversubscription_is_detected() {
        struct Bad;
        impl Scheduler for Bad {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select_into(&mut self, _now: f64, _free: u32, out: &mut Vec<(TaskId, u32)>) {
                out.push((TaskId(0), 99));
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate(&g, &mut Bad, &SimOptions::new(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Oversubscribed {
                want: 99,
                free: 4,
                ..
            }
        ));
    }

    #[test]
    fn unavailable_task_is_detected() {
        struct Eager;
        impl Scheduler for Eager {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select_into(&mut self, _now: f64, _free: u32, out: &mut Vec<(TaskId, u32)>) {
                out.push((TaskId(1), 1)); // task 1 not yet revealed
            }
        }
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let err = simulate(&g, &mut Eager, &SimOptions::new(4)).unwrap_err();
        assert_eq!(err, SimError::NotAvailable(TaskId(1)));
    }

    #[test]
    fn zero_proc_start_is_detected() {
        struct Zero;
        impl Scheduler for Zero {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select_into(&mut self, _now: f64, _free: u32, out: &mut Vec<(TaskId, u32)>) {
                out.push((TaskId(0), 0));
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate(&g, &mut Zero, &SimOptions::new(4)).unwrap_err();
        assert_eq!(err, SimError::ZeroProcs(TaskId(0)));
    }

    #[test]
    fn lazy_scheduler_is_stuck() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select_into(&mut self, _now: f64, _free: u32, _out: &mut Vec<(TaskId, u32)>) {}
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate(&g, &mut Lazy, &SimOptions::new(4)).unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }));
    }

    #[test]
    fn proc_ids_recorded_when_requested() {
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        g.add_task(unit(1.0));
        let g = g.freeze();
        let opts = SimOptions::new(4).with_proc_ids();
        let s = simulate(&g, &mut Fifo::new(2), &opts).unwrap();
        assert_eq!(s.proc_ranges(0), [(0, 1)]);
        assert_eq!(s.proc_ranges(1), [(2, 3)]);
    }

    #[test]
    fn release_times_are_recorded() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(2.0));
        let b = g.add_task(unit(3.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let s = simulate(&g, &mut Fifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.placement(a).unwrap().released, 0.0);
        // b was revealed when a completed at t = 2 and started right away.
        assert_eq!(s.placement(b).unwrap().released, 2.0);
        assert_eq!(s.placement(b).unwrap().waiting(), 0.0);
        assert_eq!(s.placement(b).unwrap().flow(), 3.0);
    }

    #[test]
    fn moldable_allocation_changes_duration() {
        let mut g = GraphBuilder::new();
        g.add_task(unit(8.0));
        let g = g.freeze();
        let s = simulate(&g, &mut Fifo::new(4), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 2.0); // 8 / 4
        let s = simulate(&g, &mut Fifo::new(2), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 4.0); // 8 / 2
    }

    #[test]
    fn empty_graph_simulates_to_empty_schedule() {
        let g = TaskGraph::empty();
        let s = simulate(&g, &mut Fifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.makespan, 0.0);
        assert!(s.placements.is_empty());
    }

    #[test]
    fn utilization_of_saturated_schedule_is_one() {
        let mut g = GraphBuilder::new();
        for _ in 0..4 {
            g.add_task(unit(3.0));
        }
        let g = g.freeze();
        let s = simulate(&g, &mut Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }
}

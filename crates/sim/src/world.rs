//! The arrivals instance: many DAGs with release dates, one processor
//! pool.
//!
//! [`WorldInstance`] implements [`Instance`] over a *growing*
//! population of task graphs. Each admitted DAG gets a dense block of
//! global task ids (`base .. base + n_tasks`), a private [`Frontier`],
//! and a release date; the instance melds them into one arrival stream
//! for the engine: a DAG "arrives" by releasing its sources at its
//! release date, and completions propagate through its own frontier
//! only. Ye et al.'s online independent tasks with release dates (the
//! paper's Table 2) are the special case of one-task DAGs
//! ([`WorldInstance::from_releases`]); the session layer submits whole
//! DAGs.
//!
//! Arrival determinism: pending DAGs are ordered by `(release date,
//! submission order)`, so two DAGs submitted for the same instant
//! release in admission order, bit-identically on every run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use moldable_graph::{Frontier, GraphBuilder, TaskGraph, TaskId};
use moldable_model::SpeedupModel;

use crate::Instance;

/// Index of a DAG within a [`WorldInstance`], in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DagIdx(pub u32);

/// Admission failure: the global task-id space is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdSpaceExhausted {
    /// Tasks already registered.
    pub used: u64,
    /// Tasks the rejected DAG would have added.
    pub requested: u64,
}

impl fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "world task-id space exhausted: {} tasks registered, {} more requested, limit {}",
            self.used,
            self.requested,
            u32::MAX
        )
    }
}

impl std::error::Error for IdSpaceExhausted {}

struct DagSlot {
    graph: Arc<TaskGraph>,
    base: u32,
    frontier: Frontier,
    release_date: f64,
}

/// A pending DAG arrival, min-ordered by `(date, dag)`: DAG indices
/// follow submission order.
struct Pending {
    at: f64,
    dag: u32,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.dag.cmp(&other.dag))
    }
}

/// A multi-DAG instance sharing one simulated platform.
#[derive(Default)]
pub struct WorldInstance {
    dags: Vec<DagSlot>,
    /// Global task id → owning DAG (parallel growth with id blocks).
    task_dag: Vec<u32>,
    pending: BinaryHeap<Reverse<Pending>>,
    n_tasks: u64,
    completed: u64,
}

impl WorldInstance {
    /// An empty world: no DAGs, zero tasks, trivially done.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A world of one-task DAGs, one per `(release date, model)` pair:
    /// the pairs are sorted stably by date and submitted in that order,
    /// so task `i` is the `i`-th pair after sorting and equal dates keep
    /// their order.
    ///
    /// # Panics
    ///
    /// Panics if a release date is negative or non-finite, or if there
    /// are more pairs than `u32` task ids.
    #[must_use]
    pub fn from_releases(mut releases: Vec<(f64, SpeedupModel)>) -> Self {
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut world = Self::new();
        for (at, model) in releases {
            let mut task = GraphBuilder::with_capacity(1);
            task.add_task(model);
            world
                .submit(Arc::new(task.freeze()), at)
                .expect("one task per pair fits the id space");
        }
        world
    }

    /// Admit `graph` with release date `at`, assigning it the next
    /// block of global task ids. Callers enforce monotonicity of `at`
    /// against the engine clock; the world only orders arrivals.
    ///
    /// # Errors
    ///
    /// [`IdSpaceExhausted`] when the block would overflow `u32` ids.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or non-finite (the contract of
    /// release dates throughout the simulator).
    pub fn submit(&mut self, graph: Arc<TaskGraph>, at: f64) -> Result<DagIdx, IdSpaceExhausted> {
        assert!(
            at.is_finite() && at >= 0.0,
            "release dates must be finite and >= 0"
        );
        let n = graph.n_tasks() as u64;
        if self.n_tasks + n > u64::from(u32::MAX) {
            return Err(IdSpaceExhausted {
                used: self.n_tasks,
                requested: n,
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        let base = self.n_tasks as u32;
        let dag = u32::try_from(self.dags.len()).expect("dag count within task count");
        let frontier = Frontier::new(&graph);
        self.task_dag
            .resize(self.task_dag.len() + graph.n_tasks(), dag);
        self.dags.push(DagSlot {
            graph,
            base,
            frontier,
            release_date: at,
        });
        self.n_tasks += n;
        self.pending.push(Reverse(Pending { at, dag }));
        Ok(DagIdx(dag))
    }

    /// Number of admitted DAGs.
    #[must_use]
    pub fn n_dags(&self) -> usize {
        self.dags.len()
    }

    /// Total tasks registered across all DAGs.
    #[must_use]
    pub fn n_tasks(&self) -> u64 {
        self.n_tasks
    }

    /// Tasks completed across all DAGs.
    #[must_use]
    pub fn n_completed(&self) -> u64 {
        self.completed
    }

    /// The DAG owning a global task id, plus the task's id local to
    /// that DAG.
    #[must_use]
    pub fn locate(&self, task: TaskId) -> (DagIdx, TaskId) {
        let dag = self.task_dag[task.index()];
        let base = self.dags[dag as usize].base;
        (DagIdx(dag), TaskId(task.0 - base))
    }

    /// Has this DAG fully completed?
    #[must_use]
    pub fn dag_done(&self, dag: DagIdx) -> bool {
        self.dags[dag.0 as usize].frontier.all_done()
    }

    /// Tasks in this DAG.
    #[must_use]
    pub fn dag_tasks(&self, dag: DagIdx) -> usize {
        self.dags[dag.0 as usize].graph.n_tasks()
    }

    /// The DAG's release date.
    #[must_use]
    pub fn dag_release_date(&self, dag: DagIdx) -> f64 {
        self.dags[dag.0 as usize].release_date
    }
}

impl Instance for WorldInstance {
    fn on_complete_into(&mut self, task: TaskId, _time: f64, out: &mut Vec<TaskId>) {
        let dag = self.task_dag[task.index()] as usize;
        let slot = &mut self.dags[dag];
        let local = TaskId(task.0 - slot.base);
        let first = out.len();
        slot.frontier.complete_into(&slot.graph, local, out);
        // The frontier appends ids local to this DAG; globalize only those.
        for t in &mut out[first..] {
            t.0 += slot.base;
        }
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.completed == self.n_tasks && self.pending.is_empty()
    }

    fn model(&self, task: TaskId) -> &SpeedupModel {
        let dag = self.task_dag[task.index()] as usize;
        let slot = &self.dags[dag];
        slot.graph.model(TaskId(task.0 - slot.base))
    }

    fn size_hint(&self) -> usize {
        usize::try_from(self.n_tasks).unwrap_or(usize::MAX)
    }

    fn next_arrival(&self) -> Option<f64> {
        self.pending.peek().map(|Reverse(p)| p.at)
    }

    fn arrivals_into(&mut self, time: f64, out: &mut Vec<TaskId>) {
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.at > time {
                break;
            }
            let dag = self.pending.pop().expect("peeked").0.dag as usize;
            let slot = &self.dags[dag];
            // A DAG arrives by releasing its sources, in id order —
            // the order `GraphInstance` releases them in.
            out.extend(slot.graph.sources().iter().map(|t| TaskId(slot.base + t.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_instance, Scheduler, SimOptions};

    /// Greedy: run every released task immediately on 1 processor.
    #[derive(Default)]
    struct OneProcGreedy {
        queue: Vec<TaskId>,
    }

    impl Scheduler for OneProcGreedy {
        fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
            self.queue.push(task);
        }
        fn select_into(&mut self, _now: f64, free: u32, out: &mut Vec<(TaskId, u32)>) {
            let take = (free as usize).min(self.queue.len());
            out.extend(self.queue.drain(..take).map(|t| (t, 1)));
        }
    }

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    fn arrivals(w: &mut WorldInstance, time: f64) -> Vec<TaskId> {
        let mut out = Vec::new();
        w.arrivals_into(time, &mut out);
        out
    }

    /// `releases` run on `p` processors under [`OneProcGreedy`].
    fn run(releases: Vec<(f64, SpeedupModel)>, p: u32) -> crate::Schedule {
        let mut w = WorldInstance::from_releases(releases);
        simulate_instance(&mut w, &mut OneProcGreedy::default(), &SimOptions::new(p)).unwrap()
    }

    fn chain(ws: &[f64]) -> Arc<TaskGraph> {
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = ws.iter().map(|&w| b.add_task(unit(w))).collect();
        for pair in ids.windows(2) {
            b.add_edge(pair[0], pair[1]).unwrap();
        }
        Arc::new(b.freeze())
    }

    #[test]
    fn ids_are_blocked_per_dag_and_locatable() {
        let mut w = WorldInstance::new();
        let d0 = w.submit(chain(&[1.0, 2.0]), 0.0).unwrap();
        let d1 = w.submit(chain(&[3.0]), 1.0).unwrap();
        assert_eq!((d0, d1), (DagIdx(0), DagIdx(1)));
        assert_eq!(w.n_tasks(), 3);
        assert_eq!(w.locate(TaskId(0)), (DagIdx(0), TaskId(0)));
        assert_eq!(w.locate(TaskId(1)), (DagIdx(0), TaskId(1)));
        assert_eq!(w.locate(TaskId(2)), (DagIdx(1), TaskId(0)));
        assert_eq!(w.model(TaskId(2)).time(1), 3.0);
    }

    #[test]
    fn arrivals_release_sources_in_date_then_submission_order() {
        let mut w = WorldInstance::new();
        // Submitted out of date order; ties broken by submission.
        let _a = w.submit(chain(&[1.0]), 5.0).unwrap();
        let _b = w.submit(chain(&[1.0, 1.0]), 0.0).unwrap();
        let _c = w.submit(chain(&[1.0]), 5.0).unwrap();
        assert_eq!(w.next_arrival(), Some(0.0));
        assert_eq!(arrivals(&mut w, 0.0), vec![TaskId(1)]);
        assert_eq!(w.next_arrival(), Some(5.0));
        // Both date-5 DAGs in one batch, submission order a then c.
        assert_eq!(arrivals(&mut w, 5.0), vec![TaskId(0), TaskId(3)]);
        assert_eq!(w.next_arrival(), None);
    }

    #[test]
    fn completions_propagate_within_one_dag_only() {
        let mut w = WorldInstance::new();
        let d0 = w.submit(chain(&[1.0, 2.0]), 0.0).unwrap();
        let _d1 = w.submit(chain(&[1.0, 1.0]), 0.0).unwrap();
        let _ = arrivals(&mut w, 0.0);
        let mut newly = Vec::new();
        w.on_complete_into(TaskId(0), 1.0, &mut newly);
        assert_eq!(newly, vec![TaskId(1)], "successor inside dag 0 only");
        assert!(!w.dag_done(d0));
        w.on_complete_into(TaskId(1), 3.0, &mut newly);
        assert!(w.dag_done(d0));
        assert!(!w.is_done());
    }

    #[test]
    fn on_complete_into_appends_global_ids_and_keeps_earlier_entries() {
        let mut w = WorldInstance::new();
        let _d0 = w.submit(chain(&[1.0, 1.0]), 0.0).unwrap();
        // Dag 1 (base 2): a fork, source 0 → {1, 2}.
        let mut g = GraphBuilder::new();
        let s = g.add_task(unit(1.0));
        for _ in 0..2 {
            let t = g.add_task(unit(1.0));
            g.add_edge(s, t).unwrap();
        }
        let _d1 = w.submit(Arc::new(g.freeze()), 0.0).unwrap();
        assert_eq!(arrivals(&mut w, 0.0), vec![TaskId(0), TaskId(2)]);
        let mut out = vec![TaskId(7), TaskId(0)];
        w.on_complete_into(TaskId(2), 1.0, &mut out);
        assert_eq!(
            out,
            vec![TaskId(7), TaskId(0), TaskId(3), TaskId(4)],
            "earlier entries untouched; new ids carry dag 1's base"
        );
        w.on_complete_into(TaskId(0), 1.0, &mut out);
        assert_eq!(out[4..], [TaskId(1)], "dag 0's successor appended last");
        assert_eq!(out[..4], [TaskId(7), TaskId(0), TaskId(3), TaskId(4)]);
    }

    #[test]
    fn empty_world_is_done_and_work_arrives_later() {
        let mut w = WorldInstance::new();
        assert!(w.is_done());
        assert_eq!(w.next_arrival(), None);
        let s =
            simulate_instance(&mut w, &mut OneProcGreedy::default(), &SimOptions::new(2)).unwrap();
        assert_eq!(s.makespan, 0.0);
        assert!(s.placements.is_empty());
        let _ = w.submit(chain(&[1.0]), 2.0).unwrap();
        assert!(!w.is_done());
        assert_eq!(w.next_arrival(), Some(2.0));
    }

    #[test]
    fn id_space_overflow_is_a_structured_error() {
        let mut w = WorldInstance::new();
        w.n_tasks = u64::from(u32::MAX) - 1; // simulate a full world
        let err = w.submit(chain(&[1.0, 1.0]), 0.0).unwrap_err();
        assert_eq!(err.requested, 2);
        assert!(err.to_string().contains("task-id space exhausted"));
    }

    #[test]
    #[should_panic(expected = "release dates")]
    fn rejects_negative_release() {
        let _ = WorldInstance::from_releases(vec![(-1.0, unit(1.0))]);
    }

    #[test]
    fn from_releases_sorts_stably_by_date() {
        // Ties submitted out of order with distinct models: the
        // 1.0-dated pair keeps submission order (w=10 before w=20) and
        // so does the 0.0-dated pair.
        let mut w = WorldInstance::from_releases(vec![
            (1.0, unit(10.0)),
            (0.0, unit(1.0)),
            (1.0, unit(20.0)),
            (0.0, unit(2.0)),
        ]);
        let works: Vec<f64> = (0..4).map(|i| w.model(TaskId(i)).time(1)).collect();
        assert_eq!(works, [1.0, 2.0, 10.0, 20.0]);
        assert_eq!(w.dag_release_date(DagIdx(2)), 1.0);
        assert_eq!(w.next_arrival(), Some(0.0));
        assert_eq!(arrivals(&mut w, 0.5), [TaskId(0), TaskId(1)]);
        assert_eq!(arrivals(&mut w, 1.0), [TaskId(2), TaskId(3)]);
        assert_eq!(w.next_arrival(), None);
    }

    #[test]
    fn tasks_wait_for_their_release_dates() {
        let s = run(
            vec![(0.0, unit(1.0)), (5.0, unit(1.0)), (5.0, unit(1.0))],
            4,
        );
        assert_eq!(s.placements[0].start, 0.0);
        // Both late tasks start exactly at their release date (idle gap
        // in between — the engine must jump, not deadlock).
        assert_eq!(s.placements[1].start, 5.0);
        assert_eq!(s.placements[2].start, 5.0);
        assert_eq!(s.makespan, 6.0);
        s.check_capacity(1e-9).unwrap();
    }

    #[test]
    fn arrival_during_execution_is_picked_up_at_release() {
        // The second task arrives at t = 2 while the first still runs;
        // a processor is free, so it starts at its release.
        let s = run(vec![(0.0, unit(10.0)), (2.0, unit(1.0))], 2);
        assert_eq!(s.placements[1].start, 2.0);
        assert_eq!(s.makespan, 10.0);
    }

    #[test]
    fn zero_length_gaps_queue_beyond_capacity_deterministically() {
        // Five tasks, zero inter-arrival gap, two processors: the
        // overflow queues in release order — starts at 1, 1, 2, 2, 3.
        let s = run((0..5).map(|_| (1.0, unit(1.0))).collect(), 2);
        let starts: Vec<f64> = s.placements.iter().map(|p| p.start).collect();
        assert_eq!(starts, [1.0, 1.0, 2.0, 2.0, 3.0]);
        let tasks: Vec<u32> = s.placements.iter().map(|p| p.task.0).collect();
        assert_eq!(tasks, [0, 1, 2, 3, 4], "FIFO order across the tie");
        assert_eq!(s.makespan, 4.0);
    }

    #[test]
    fn simultaneous_arrival_and_completion_orders_completion_first() {
        // Task 0 ends at t = 4; task 1 releases at t = 4. The freed
        // processor must be visible to the newly released task.
        let s = run(vec![(0.0, unit(4.0)), (4.0, unit(1.0))], 1);
        assert_eq!(s.placements[1].start, 4.0);
        assert_eq!(s.makespan, 5.0);
    }
}

//! Online-independent-tasks instance: tasks with release dates.
//!
//! This is the other online model from the paper's Table 2 (Ye et al.,
//! Havill & Mao): tasks are *independent* but arrive over time, and the
//! scheduler learns a task's speedup function only at its release date.

use moldable_graph::TaskId;
use moldable_model::SpeedupModel;

use crate::Instance;

/// A stream of independent moldable tasks with release dates.
#[derive(Debug)]
pub struct TimedArrivals {
    /// `(release date, model)` sorted by release date.
    releases: Vec<(f64, SpeedupModel)>,
    next: usize,
    completed: usize,
}

impl TimedArrivals {
    /// Build from `(release date, model)` pairs; the list is sorted
    /// internally. Task `i` (after sorting) gets `TaskId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if any release date is negative or non-finite.
    #[must_use]
    pub fn new(mut releases: Vec<(f64, SpeedupModel)>) -> Self {
        for (r, _) in &releases {
            assert!(
                r.is_finite() && *r >= 0.0,
                "release dates must be finite and >= 0"
            );
        }
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self {
            releases,
            next: 0,
            completed: 0,
        }
    }

    /// Number of tasks in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// Is the stream empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// The (sorted) release date of task `i`.
    #[must_use]
    pub fn release_date(&self, i: usize) -> f64 {
        self.releases[i].0
    }
}

impl Instance for TimedArrivals {
    fn initial(&mut self) -> Vec<TaskId> {
        // Tasks with release date 0 come through `arrivals` at t = 0.
        Vec::new()
    }

    fn on_complete_into(&mut self, _task: TaskId, _time: f64, _out: &mut Vec<TaskId>) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.completed == self.releases.len()
    }

    fn model(&self, task: TaskId) -> &SpeedupModel {
        &self.releases[task.index()].1
    }

    fn size_hint(&self) -> usize {
        self.releases.len()
    }

    fn next_arrival(&self) -> Option<f64> {
        self.releases.get(self.next).map(|(r, _)| *r)
    }

    fn arrivals(&mut self, time: f64) -> Vec<TaskId> {
        let mut out = Vec::new();
        while let Some((r, _)) = self.releases.get(self.next) {
            if *r <= time {
                out.push(TaskId(u32::try_from(self.next).expect("fits u32")));
                self.next += 1;
            } else {
                break;
            }
        }
        out
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

    #[test]
    fn tasks_wait_for_their_release_dates() {
        let mut inst =
            TimedArrivals::new(vec![(0.0, unit(1.0)), (5.0, unit(1.0)), (5.0, unit(1.0))]);
        let s = simulate_instance(
            &mut inst,
            &mut OneProcGreedy::default(),
            &SimOptions::new(4),
        )
        .unwrap();
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
        let mut inst = TimedArrivals::new(vec![(0.0, unit(10.0)), (2.0, unit(1.0))]);
        let s = simulate_instance(
            &mut inst,
            &mut OneProcGreedy::default(),
            &SimOptions::new(2),
        )
        .unwrap();
        // Second task arrives at t = 2 while the first still runs; a
        // processor is free, so it starts immediately at its release.
        assert_eq!(s.placements[1].start, 2.0);
        assert_eq!(s.makespan, 10.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut inst = TimedArrivals::new(vec![(3.0, unit(1.0)), (1.0, unit(2.0))]);
        assert_eq!(inst.release_date(0), 1.0);
        assert_eq!(inst.next_arrival(), Some(1.0));
        let got = inst.arrivals(2.0);
        assert_eq!(got, vec![TaskId(0)]);
    }

    #[test]
    fn empty_stream_simulates_to_empty_schedule() {
        let mut inst = TimedArrivals::new(Vec::new());
        let s = simulate_instance(
            &mut inst,
            &mut OneProcGreedy::default(),
            &SimOptions::new(2),
        )
        .unwrap();
        assert_eq!(s.makespan, 0.0);
        assert!(inst.is_empty());
    }

    #[test]
    #[should_panic(expected = "release dates")]
    fn rejects_negative_release() {
        let _ = TimedArrivals::new(vec![(-1.0, unit(1.0))]);
    }

    #[test]
    fn simultaneous_arrivals_at_one_instant_release_in_submission_order() {
        // Three tasks share one release date. `sort_by` is stable, so
        // equal dates keep their submission order, ids are assigned in
        // that order, and one `arrivals` call returns all of them.
        let mut inst =
            TimedArrivals::new(vec![(2.0, unit(1.0)), (2.0, unit(2.0)), (2.0, unit(3.0))]);
        assert_eq!(inst.next_arrival(), Some(2.0));
        let got = inst.arrivals(2.0);
        assert_eq!(got, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(inst.next_arrival(), None, "the instant was fully drained");
        // The model of each id is the one submitted at that position.
        assert_eq!(inst.model(TaskId(1)).time(1), 2.0);
    }

    #[test]
    fn zero_length_gaps_queue_beyond_capacity_deterministically() {
        // Five tasks, zero inter-arrival gap, two processors: the
        // overflow queues in release order — starts at 1, 1, 2, 2, 3.
        let releases: Vec<(f64, SpeedupModel)> = (0..5).map(|_| (1.0, unit(1.0))).collect();
        let mut inst = TimedArrivals::new(releases);
        let s = simulate_instance(
            &mut inst,
            &mut OneProcGreedy::default(),
            &SimOptions::new(2),
        )
        .unwrap();
        let starts: Vec<f64> = s.placements.iter().map(|p| p.start).collect();
        assert_eq!(starts, vec![1.0, 1.0, 2.0, 2.0, 3.0]);
        let tasks: Vec<u32> = s.placements.iter().map(|p| p.task.0).collect();
        assert_eq!(tasks, vec![0, 1, 2, 3, 4], "FIFO order across the tie");
        assert_eq!(s.makespan, 4.0);
    }

    #[test]
    fn equal_date_ties_are_stable_under_interleaved_submission() {
        // Ties submitted out of order with distinct models: after the
        // stable sort, the 1.0-dated pair keeps submission order
        // (w=10 before w=20) and so does the 0.0-dated pair.
        let mut inst = TimedArrivals::new(vec![
            (1.0, unit(10.0)),
            (0.0, unit(1.0)),
            (1.0, unit(20.0)),
            (0.0, unit(2.0)),
        ]);
        assert_eq!(inst.model(TaskId(0)).time(1), 1.0);
        assert_eq!(inst.model(TaskId(1)).time(1), 2.0);
        assert_eq!(inst.model(TaskId(2)).time(1), 10.0);
        assert_eq!(inst.model(TaskId(3)).time(1), 20.0);
        assert_eq!(inst.arrivals(0.0), vec![TaskId(0), TaskId(1)]);
        assert_eq!(inst.arrivals(1.0), vec![TaskId(2), TaskId(3)]);
    }

    #[test]
    fn simultaneous_arrival_and_completion_orders_completion_first() {
        // Task 0 ends at t = 4; task 1 releases at t = 4. The freed
        // processor must be visible to the newly released task.
        let mut inst = TimedArrivals::new(vec![(0.0, unit(4.0)), (4.0, unit(1.0))]);
        let s = simulate_instance(
            &mut inst,
            &mut OneProcGreedy::default(),
            &SimOptions::new(1),
        )
        .unwrap();
        assert_eq!(s.placements[1].start, 4.0);
        assert_eq!(s.makespan, 5.0);
    }
}

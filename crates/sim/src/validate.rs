//! Schedule validation: the safety net under every experiment.
//!
//! Both simulated and hand-built (proof) schedules are checked against
//! the platform model: each task placed exactly once, durations
//! consistent with the speedup model, precedence respected, and at most
//! `P` processors busy at any instant.

use std::fmt;

use moldable_graph::{TaskGraph, TaskId};

use crate::{Placement, Schedule};

/// A violation found by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A task of the graph never ran.
    MissingTask(TaskId),
    /// The schedule placed a task that is not part of the graph.
    ForeignTask(TaskId),
    /// A task ran more than once (no restarts allowed).
    DuplicateTask(TaskId),
    /// Allocation outside `[1, P]`.
    BadAllocation {
        /// Offending task.
        task: TaskId,
        /// Its processor allocation.
        procs: u32,
    },
    /// Placement duration does not equal `t(procs)`.
    WrongDuration {
        /// Offending task.
        task: TaskId,
        /// Duration found in the schedule.
        got: f64,
        /// Duration the model dictates.
        want: f64,
    },
    /// A task started before one of its predecessors finished.
    PrecedenceViolated {
        /// The dependent task.
        task: TaskId,
        /// The predecessor that was still running.
        pred: TaskId,
    },
    /// More than `P` processors busy at some instant.
    CapacityExceeded {
        /// A time at which the platform was oversubscribed.
        time: f64,
        /// Processors in use at that time.
        used: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingTask(t) => write!(f, "task {t} never executed"),
            Self::ForeignTask(t) => write!(f, "task {t} is not part of the graph"),
            Self::DuplicateTask(t) => write!(f, "task {t} executed more than once"),
            Self::BadAllocation { task, procs } => {
                write!(f, "task {task} has invalid allocation {procs}")
            }
            Self::WrongDuration { task, got, want } => {
                write!(f, "task {task} ran for {got}, model says {want}")
            }
            Self::PrecedenceViolated { task, pred } => {
                write!(f, "task {task} started before predecessor {pred} finished")
            }
            Self::CapacityExceeded { time, used } => {
                write!(f, "{used} processors busy at t={time}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Relative tolerance used for time comparisons: durations are computed
/// in one `f64` expression each, so only a few ulps of slack are needed.
const RTOL: f64 = 1e-9;

impl Schedule {
    /// Validate this schedule against `graph`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found (completeness, allocation
    /// range, model-consistent durations, precedence, capacity).
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), ValidationError> {
        self.validate_inner(graph, true)
    }

    /// Like [`Schedule::validate`] but skipping the duration-vs-model
    /// check — used for schedules of *adaptive* instances whose
    /// realized models are known to the adversary, not the graph.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate_structure(&self, graph: &TaskGraph) -> Result<(), ValidationError> {
        self.validate_inner(graph, false)
    }

    fn validate_inner(
        &self,
        graph: &TaskGraph,
        check_durations: bool,
    ) -> Result<(), ValidationError> {
        let n = graph.n_tasks();
        // Placement index of each task, `UNSEEN` until it is placed.
        const UNSEEN: u32 = u32::MAX;
        let mut seen = vec![UNSEEN; n];
        for (idx, pl) in self.placements.iter().enumerate() {
            let t = pl.task;
            if t.index() >= n {
                return Err(ValidationError::ForeignTask(t));
            }
            if seen[t.index()] != UNSEEN {
                return Err(ValidationError::DuplicateTask(t));
            }
            // Each task is placed at most once, so `idx < n ≤ u32::MAX`.
            seen[t.index()] = u32::try_from(idx).expect("placement index fits in u32");
            if pl.procs == 0 || pl.procs > self.p_total {
                return Err(ValidationError::BadAllocation {
                    task: t,
                    procs: pl.procs,
                });
            }
            if check_durations {
                let want = graph.model(t).time(pl.procs);
                let got = pl.duration();
                if (got - want).abs() > RTOL * want.max(1.0) {
                    return Err(ValidationError::WrongDuration { task: t, got, want });
                }
            }
        }
        if let Some(t) = graph.task_ids().find(|t| seen[t.index()] == UNSEEN) {
            return Err(ValidationError::MissingTask(t));
        }
        // Precedence.
        let tol = RTOL * self.makespan.max(1.0);
        let placement = |t: TaskId| &self.placements[seen[t.index()] as usize];
        for t in graph.task_ids() {
            let start = placement(t).start;
            for &p in graph.preds(t) {
                if start < placement(p).end - tol {
                    return Err(ValidationError::PrecedenceViolated { task: t, pred: p });
                }
            }
        }
        drop(seen);
        self.check_capacity(tol)
    }

    /// Sweep-line capacity check, independently useful for hand-built
    /// schedules over instances without a full graph.
    ///
    /// Every start adds its processors and every end gives them back.
    /// Events closer than `tol` to the first event of a window are
    /// summed together before the check, so their order inside the
    /// window cannot matter, and back-to-back tasks whose end and start
    /// differ by rounding do not double-count. The starts are read in
    /// placement order (through a sorted index only when the
    /// placements are out of start order) and merged with the
    /// `(end, procs)` pairs sorted by end: 16 bytes per placement, plus
    /// 4 for the index when one is needed, and nothing per window.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::CapacityExceeded`] if more than
    /// `p_total` processors are ever busy (after merging events closer
    /// than `tol`), with the time of the window's first event.
    pub fn check_capacity(&self, tol: f64) -> Result<(), ValidationError> {
        let pls = &self.placements;
        let mut ends: Vec<(f64, u32)> = Vec::with_capacity(pls.len());
        let mut in_order = true;
        for (i, pl) in pls.iter().enumerate() {
            ends.push((pl.end, pl.procs));
            in_order &= i == 0 || pls[i - 1].start.total_cmp(&pl.start).is_le();
        }
        ends.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let start = |pl: &Placement| (pl.start, pl.procs);
        if in_order {
            self.sweep(pls.iter().map(start), &ends, tol)
        } else {
            let n = u32::try_from(pls.len()).expect("placement count fits in u32");
            let mut order: Vec<u32> = (0..n).collect();
            order
                .sort_unstable_by(|&a, &b| pls[a as usize].start.total_cmp(&pls[b as usize].start));
            self.sweep(order.iter().map(|&i| start(&pls[i as usize])), &ends, tol)
        }
    }

    /// The sweep of [`Schedule::check_capacity`] over `(start, procs)`
    /// and `(end, procs)` pairs, each in `total_cmp` order of time.
    fn sweep(
        &self,
        starts: impl Iterator<Item = (f64, u32)>,
        ends: &[(f64, u32)],
        tol: f64,
    ) -> Result<(), ValidationError> {
        let mut starts = starts.peekable();
        let mut ends = ends.iter().copied().peekable();
        let mut used: i64 = 0;
        loop {
            // The window opens at the earliest pending event; ends sort
            // before starts at equal times.
            let t0 = match (starts.peek(), ends.peek()) {
                (Some(&(s, _)), Some(&(e, _))) if s.total_cmp(&e).is_lt() => s,
                (_, Some(&(e, _))) => e,
                (Some(&(s, _)), None) => s,
                (None, None) => break,
            };
            // `total_cmp` equality takes the opening event even where the
            // difference is NaN (non-finite times), so the sweep always
            // advances.
            let in_window = |&(t, _): &(f64, u32)| t - t0 <= tol || t.total_cmp(&t0).is_eq();
            while let Some((_, procs)) = ends.next_if(in_window) {
                used -= i64::from(procs);
            }
            while let Some((_, procs)) = starts.next_if(in_window) {
                used += i64::from(procs);
            }
            if used > i64::from(self.p_total) {
                return Err(ValidationError::CapacityExceeded {
                    time: t0,
                    used: u64::try_from(used).expect("positive"),
                });
            }
        }
        debug_assert_eq!(used, 0, "every start has a matching end");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleBuilder;
    use moldable_graph::GraphBuilder;
    use moldable_model::rng::{Rng, StdRng};
    use moldable_model::SpeedupModel;

    /// The sort-based sweep `check_capacity` used before it merged
    /// starts with ends: every start and end as one event, all events
    /// sorted by time (ends first on ties), and the events of each
    /// window collected into a `Vec` and applied ends first. Kept as
    /// the oracle the merged sweep must agree with.
    fn sort_sweep(s: &Schedule, tol: f64) -> Result<(), ValidationError> {
        let mut events: Vec<(f64, i8, u32)> = Vec::with_capacity(s.placements.len() * 2);
        for pl in &s.placements {
            events.push((pl.start, 1, pl.procs));
            events.push((pl.end, -1, pl.procs));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t0 = events[i].0;
            let mut j = i;
            while j < events.len() && events[j].0 - t0 <= tol {
                j += 1;
            }
            let mut batch: Vec<&(f64, i8, u32)> = events[i..j].iter().collect();
            batch.sort_by_key(|a| a.1);
            for &&(_, sign, procs) in &batch {
                used += i64::from(sign) * i64::from(procs);
            }
            if used > i64::from(s.p_total) {
                return Err(ValidationError::CapacityExceeded {
                    time: t0,
                    used: u64::try_from(used).expect("positive"),
                });
            }
            i = j;
        }
        Ok(())
    }

    /// A random schedule on a quarter-unit grid, so starts and ends
    /// often coincide; some times are nudged by 1e-12 (inside the
    /// validation tolerance), some tasks have zero length, some starts
    /// are `-0.0`, and the platform is often oversubscribed. `sorted`
    /// puts the placements in start order, otherwise they are
    /// shuffled.
    fn random_schedule(rng: &mut StdRng, sorted: bool) -> Schedule {
        let p_total = rng.gen_range(1..=8u32);
        let n = rng.gen_range(0..=24usize);
        let mut placements: Vec<Placement> = (0..n)
            .map(|i| {
                let mut start = f64::from(rng.gen_range(0..=12u32)) * 0.25;
                if rng.gen_bool(0.2) {
                    start += 1e-12;
                }
                if start == 0.0 && rng.gen_bool(0.5) {
                    start = -0.0;
                }
                let duration = if rng.gen_bool(0.15) {
                    0.0
                } else if rng.gen_bool(0.2) {
                    f64::from(rng.gen_range(1..=8u32)) * 0.25 - 1e-12
                } else {
                    f64::from(rng.gen_range(1..=8u32)) * 0.25
                };
                let procs = rng.gen_range(1..=p_total);
                Placement {
                    task: TaskId(u32::try_from(i).unwrap()),
                    start,
                    end: start + duration,
                    procs,
                    released: start,
                }
            })
            .collect();
        if sorted {
            placements.sort_by(|a, b| a.start.total_cmp(&b.start));
        } else {
            for i in (1..placements.len()).rev() {
                placements.swap(i, rng.gen_range(0..=i));
            }
        }
        let makespan = placements.iter().map(|p| p.end).fold(0.0, f64::max);
        Schedule::new(p_total, placements, makespan)
    }

    #[test]
    fn merged_sweep_matches_the_sort_sweep_on_random_schedules() {
        let mut rng = StdRng::seed_from_u64(0xCA9A_C17E);
        let (mut ok, mut exceeded) = (0, 0);
        for round in 0..3_000 {
            let s = random_schedule(&mut rng, round % 2 == 0);
            for tol in [0.0, RTOL * s.makespan.max(1.0), 0.3] {
                let want = sort_sweep(&s, tol);
                assert_eq!(s.check_capacity(tol), want, "tol {tol}: {:?}", s.placements);
                if want.is_ok() {
                    ok += 1;
                } else {
                    exceeded += 1;
                }
            }
        }
        assert!(
            ok > 1_000 && exceeded > 1_000,
            "ok {ok}, exceeded {exceeded}"
        );
    }

    #[test]
    fn capacity_error_reports_the_window_start() {
        let mut sb = ScheduleBuilder::new(4);
        sb.place(TaskId(0), 0.0, 1.0, 3);
        sb.place(TaskId(1), 0.5, 1.0, 1);
        // Inside the window that opens at 0.5, so reported at 0.5.
        sb.place(TaskId(2), 0.5 + 1e-12, 1.0, 3);
        let err = sb.build().check_capacity(1e-9).unwrap_err();
        assert_eq!(
            err,
            ValidationError::CapacityExceeded { time: 0.5, used: 7 }
        );
    }

    /// The sort-based sweep never left a window that opened at an
    /// infinite time (`∞ − ∞` is NaN, so not even the opening event
    /// fell inside it); the merged sweep always takes the opening event.
    #[test]
    fn an_infinite_end_does_not_stall_the_sweep() {
        let mut sb = ScheduleBuilder::new(2);
        sb.place(TaskId(0), 0.0, f64::INFINITY, 2);
        sb.place(TaskId(1), 1.0, 1.0, 1);
        let s = sb.build();
        assert_eq!(
            s.check_capacity(1e-9),
            Err(ValidationError::CapacityExceeded { time: 1.0, used: 3 })
        );
        let mut sb = ScheduleBuilder::new(2);
        sb.place(TaskId(0), 0.0, f64::INFINITY, 2);
        let s = sb.build();
        assert_eq!(s.check_capacity(1e-9), Ok(()));
    }

    fn two_task_graph() -> (TaskGraph, TaskId, TaskId) {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(2.0, 0.0).unwrap());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        (g, a, b)
    }

    #[test]
    fn valid_schedule_passes() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4); // t(4) = 1
        sb.place(b, 1.0, 1.0, 2); // t(2) = 1
        sb.build().validate(&g).unwrap();
    }

    #[test]
    fn missing_task_detected() {
        let (g, a, _b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        let err = sb.build().validate(&g).unwrap_err();
        assert!(matches!(err, ValidationError::MissingTask(_)));
    }

    #[test]
    fn duplicate_task_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 1.0, 1.0, 2);
        sb.place(a, 2.0, 1.0, 4);
        let err = sb.build().validate(&g).unwrap_err();
        assert_eq!(err, ValidationError::DuplicateTask(a));
    }

    #[test]
    fn wrong_duration_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 5.0, 4); // model says 1.0
        sb.place(b, 5.0, 1.0, 2);
        let err = sb.build().validate(&g).unwrap_err();
        assert!(matches!(err, ValidationError::WrongDuration { task, .. } if task == a));
        // validate_structure ignores durations
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 5.0, 4);
        sb.place(b, 5.0, 1.0, 2);
        sb.build().validate_structure(&g).unwrap();
    }

    #[test]
    fn precedence_violation_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 0.5, 1.0, 2); // starts before a ends
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert_eq!(
            err,
            ValidationError::PrecedenceViolated { task: b, pred: a }
        );
    }

    #[test]
    fn capacity_violation_detected() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(3.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(3.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 3);
        sb.place(b, 0.5, 1.0, 3); // overlap: 6 > 4
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::CapacityExceeded { used: 6, .. }
        ));
    }

    #[test]
    fn back_to_back_full_platform_is_fine() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 1.0, 1.0, 4); // starts exactly when a ends
        sb.build().validate_structure(&g).unwrap();
    }

    #[test]
    fn bad_allocation_detected() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 0.5, 8);
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert_eq!(err, ValidationError::BadAllocation { task: a, procs: 8 });
    }
}

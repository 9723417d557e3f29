//! The data-oriented batched simulation engine.
//!
//! [`simulate_batched`] is a specialization of the per-event engine,
//! [`crate::Stepper`] (which [`crate::simulate`] runs), for the
//! overwhelmingly common case: a *static* frozen [`TaskGraph`] driven
//! by a scheduler that can accept releases in batches. It produces
//! bit-identical [`Schedule`]s — same placement order, same start
//! times, same makespan — while removing the per-event overheads that
//! dominate the general path on million-task instances:
//!
//! * **Struct-of-arrays task state.** Status and indegree countdown
//!   live in flat arrays indexed by the frozen graph's dense CSR task
//!   ids (`Vec<u8>` / `Vec<u32>`), sized once up front — no `Option`
//!   wrappers, no growth checks in the loop, no [`crate::engine::Instance`]
//!   virtual dispatch between the event loop and the frontier.
//! * **Fat completion events.** Each heap event carries the completing
//!   task and its processor count inline, so retiring a completion
//!   never random-reads the placements array (64 bytes per entry on a
//!   10^6-task run — a guaranteed cache miss per event on the general
//!   path).
//! * **Batched event processing.** All completions at the current
//!   simulated time are drained as one batch, their processors freed
//!   together, their successors revealed into a single reused buffer,
//!   and the scheduler notified through *one*
//!   [`BatchScheduler::release_batch`] call per event instead of one
//!   virtual `release` per task. Same-instant starts are pushed back
//!   into the heap in submission order.
//!
//! [`crate::Stepper`] is the executable reference; the differential
//! suite in `tests/batched_engine_equivalence.rs` drives both engines
//! over every generator shape and the paper's adversarial witnesses,
//! demanding byte-equal schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_graph::{TaskGraph, TaskId};

use crate::stepper::Completion;
use crate::{Placement, ProcPool, Schedule, SimError, SimOptions};

/// One task start chosen by a [`BatchScheduler`].
///
/// Unlike the general engine — which re-derives a task's duration from
/// its speedup model at start time — the batched engine trusts the
/// scheduler's `dur`, because the scheduler already evaluated
/// `model.time(procs)` when it keyed the task into its ready queue.
/// `dur` **must** equal `model.time(procs)` bit-exactly for the
/// schedules of the two engines to coincide; since both sides compute
/// the same pure function on the same inputs, any scheduler that
/// forwards its own keying computation satisfies this for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStart {
    /// The task to start now.
    pub task: TaskId,
    /// Processors to hold for the whole execution.
    pub procs: u32,
    /// Execution time on `procs` processors: `model.time(procs)`.
    pub dur: f64,
    /// Simulated time at which the task was released to the scheduler.
    pub released: f64,
}

/// A scheduler driven by the batched engine.
///
/// The contract mirrors [`crate::Scheduler`], with the two hot methods
/// batched: every task is released exactly once, releases arrive in
/// the same order the general engine would have issued its per-task
/// `release` calls (completion order, then successor-edge order
/// within a completion), and at every decision point the engine calls
/// [`BatchScheduler::select_batch`] until it returns an empty batch.
pub trait BatchScheduler {
    /// Called once before the simulation starts.
    fn init(&mut self, p_total: u32) {
        let _ = p_total;
    }

    /// `tasks` became available at time `now` (in revelation order);
    /// their execution-time parameters are now known through `graph`.
    fn release_batch(&mut self, graph: &TaskGraph, now: f64, tasks: &[TaskId]);

    /// Append tasks to start *now* to `out`; the total `procs` of the
    /// appended batch must not exceed `free`. The buffer arrives
    /// empty; leave it empty to wait for the next event.
    fn select_batch(&mut self, now: f64, free: u32, out: &mut Vec<BatchStart>);
}

/// Task state column values (plain `u8`, not an enum, so the state
/// array is a byte per task and comparisons compile to immediate
/// loads).
const NOT_RELEASED: u8 = 0;
const AVAILABLE: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// Run a frozen [`TaskGraph`] to completion under a [`BatchScheduler`]
/// on `opts.p_total` processors, using the data-oriented batched hot
/// path. Observationally identical to [`crate::simulate`] driving the
/// equivalent per-task [`crate::Scheduler`].
///
/// # Errors
///
/// Returns the same [`SimError`]s as the general engine: a scheduler
/// that oversubscribes, starts an unavailable task, starts on zero
/// processors, or wedges the simulation is reported, never masked.
///
/// # Panics
///
/// Panics if the graph has more than `u32::MAX` placements (the frozen
/// id space already bounds tasks to `u32`).
pub fn simulate_batched<S: BatchScheduler + ?Sized>(
    graph: &TaskGraph,
    scheduler: &mut S,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    let n = graph.n_tasks();
    let p_total = opts.p_total;
    scheduler.init(p_total);

    // SoA task state, sized once — ids are dense by construction.
    let mut state: Vec<u8> = vec![NOT_RELEASED; n];
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| u32::try_from(graph.preds(TaskId(i as u32)).len()).expect("pred count fits u32"))
        .collect();

    let mut free = p_total;
    let mut pool = opts.record_proc_ids.then(|| ProcPool::new(p_total));
    let mut placements: Vec<Placement> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<Completion>> =
        BinaryHeap::with_capacity((p_total as usize).min(n.max(1)));
    let mut time = 0.0f64;
    let mut completed = 0usize;

    // Scratch buffers reused across all events: the steady-state loop
    // allocates nothing.
    let mut newly: Vec<TaskId> = graph.sources().to_vec();
    let mut starts: Vec<BatchStart> = Vec::new();
    let mut batch: Vec<Completion> = Vec::new();

    // Release the initial frontier (sources, in id order — exactly the
    // frozen Frontier's `initial`).
    for &t in &newly {
        state[t.index()] = AVAILABLE;
    }
    scheduler.release_batch(graph, 0.0, &newly);

    // Decision point: ask the scheduler until it passes, validating
    // and starting each submitted batch in order.
    macro_rules! decide {
        () => {
            loop {
                starts.clear();
                scheduler.select_batch(time, free, &mut starts);
                if starts.is_empty() {
                    break;
                }
                for s in starts.drain(..) {
                    let i = s.task.index();
                    if i >= n || state[i] != AVAILABLE {
                        return Err(SimError::NotAvailable(s.task));
                    }
                    if s.procs == 0 {
                        return Err(SimError::ZeroProcs(s.task));
                    }
                    if s.procs > free {
                        return Err(SimError::Oversubscribed {
                            task: s.task,
                            want: s.procs,
                            free,
                        });
                    }
                    let proc_ranges = match &mut pool {
                        Some(pool) => pool.alloc(s.procs).expect("pool tracks free count"),
                        None => Vec::new(),
                    };
                    free -= s.procs;
                    state[i] = RUNNING;
                    let idx = u32::try_from(placements.len()).expect("placements fit u32");
                    placements.push(Placement {
                        task: s.task,
                        start: time,
                        end: time + s.dur,
                        procs: s.procs,
                        proc_ranges,
                        released: s.released,
                    });
                    heap.push(Reverse(Completion {
                        time: time + s.dur,
                        idx,
                        task: s.task,
                        procs: s.procs,
                    }));
                }
            }
        };
    }
    decide!();

    while let Some(&Reverse(head)) = heap.peek() {
        time = head.time;
        // Drain *all* completions at this instant as one batch — the
        // heap pops them in (time, idx) order, as in `Stepper`.
        batch.clear();
        while let Some(&Reverse(ev)) = heap.peek() {
            if ev.time != time {
                break;
            }
            heap.pop();
            batch.push(ev);
        }
        // 1) free the processors of every completion in the batch
        for ev in &batch {
            free += ev.procs;
            if let Some(pool) = &mut pool {
                // Ranges live in the placements array only when id
                // recording is on; this cold path random-reads it.
                pool.release(&placements[ev.idx as usize].proc_ranges);
            }
            state[ev.task.index()] = DONE;
            completed += 1;
        }
        // 2) reveal the consequences, in completion order then
        //    successor-edge order — one concatenated batch.
        newly.clear();
        for ev in &batch {
            for &s in graph.succs(ev.task) {
                let r = &mut indeg[s.index()];
                debug_assert!(*r > 0, "{s} revealed before its predecessors");
                *r -= 1;
                if *r == 0 {
                    newly.push(s);
                }
            }
        }
        if !newly.is_empty() {
            for &t in &newly {
                debug_assert_eq!(state[t.index()], NOT_RELEASED);
                state[t.index()] = AVAILABLE;
            }
            scheduler.release_batch(graph, time, &newly);
        }
        // 3) new decision point
        decide!();

        if heap.is_empty() && completed < n {
            // Nothing running, tasks outstanding: the scheduler refused
            // available work (or a dependency cycle — impossible in a
            // frozen graph — left tasks unreleasable).
            let any_available = state.contains(&AVAILABLE);
            return Err(if any_available {
                SimError::Stuck { time, completed }
            } else {
                SimError::InconsistentInstance
            });
        }
    }

    if completed == 0 && n > 0 {
        // Nothing ever ran (the scheduler refused the initial frontier).
        return Err(SimError::Stuck {
            time: 0.0,
            completed: 0,
        });
    }

    Ok(Schedule {
        p_total,
        placements,
        makespan: time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Greedy FIFO on a fixed allocation, batched form of the general
    /// engine's test scheduler.
    struct BatchFifo {
        alloc: u32,
        queue: std::collections::VecDeque<(TaskId, f64, f64)>,
    }

    impl BatchFifo {
        fn new(alloc: u32) -> Self {
            Self {
                alloc,
                queue: std::collections::VecDeque::new(),
            }
        }
    }

    impl BatchScheduler for BatchFifo {
        fn release_batch(&mut self, graph: &TaskGraph, now: f64, tasks: &[TaskId]) {
            for &t in tasks {
                self.queue
                    .push_back((t, graph.model(t).time(self.alloc), now));
            }
        }
        fn select_batch(&mut self, _now: f64, free: u32, out: &mut Vec<BatchStart>) {
            let mut free = free;
            while free >= self.alloc {
                match self.queue.pop_front() {
                    Some((task, dur, released)) => {
                        out.push(BatchStart {
                            task,
                            procs: self.alloc,
                            dur,
                            released,
                        });
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
        let s = simulate_batched(&g, &mut BatchFifo::new(1), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 6.0);
        assert_eq!(s.placements.len(), 3);
        assert_eq!(s.placement(b).unwrap().start, 2.0);
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
        let s = simulate_batched(&g, &mut BatchFifo::new(2), &SimOptions::new(4)).unwrap();
        assert_eq!(s.placement(c).unwrap().start, 0.5);
        assert_eq!(s.makespan, 1.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn release_times_are_recorded() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(2.0));
        let b = g.add_task(unit(3.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let s = simulate_batched(&g, &mut BatchFifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.placement(a).unwrap().released, 0.0);
        assert_eq!(s.placement(b).unwrap().released, 2.0);
    }

    #[test]
    fn proc_ids_recorded_when_requested() {
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        g.add_task(unit(1.0));
        let g = g.freeze();
        let opts = SimOptions::new(4).with_proc_ids();
        let s = simulate_batched(&g, &mut BatchFifo::new(2), &opts).unwrap();
        assert_eq!(s.placements[0].proc_ranges, vec![(0, 1)]);
        assert_eq!(s.placements[1].proc_ranges, vec![(2, 3)]);
    }

    #[test]
    fn oversubscription_is_detected() {
        struct Bad;
        impl BatchScheduler for Bad {
            fn release_batch(&mut self, _g: &TaskGraph, _n: f64, _t: &[TaskId]) {}
            fn select_batch(&mut self, _now: f64, _free: u32, out: &mut Vec<BatchStart>) {
                out.push(BatchStart {
                    task: TaskId(0),
                    procs: 99,
                    dur: 1.0,
                    released: 0.0,
                });
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate_batched(&g, &mut Bad, &SimOptions::new(4)).unwrap_err();
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
    fn unavailable_and_zero_proc_starts_are_detected() {
        struct Eager(u32);
        impl BatchScheduler for Eager {
            fn release_batch(&mut self, _g: &TaskGraph, _n: f64, _t: &[TaskId]) {}
            fn select_batch(&mut self, _now: f64, _free: u32, out: &mut Vec<BatchStart>) {
                out.push(BatchStart {
                    task: TaskId(1),
                    procs: self.0,
                    dur: 1.0,
                    released: 0.0,
                });
            }
        }
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let err = simulate_batched(&g, &mut Eager(1), &SimOptions::new(4)).unwrap_err();
        assert_eq!(err, SimError::NotAvailable(TaskId(1)));

        struct Zero;
        impl BatchScheduler for Zero {
            fn release_batch(&mut self, _g: &TaskGraph, _n: f64, _t: &[TaskId]) {}
            fn select_batch(&mut self, _now: f64, _free: u32, out: &mut Vec<BatchStart>) {
                out.push(BatchStart {
                    task: TaskId(0),
                    procs: 0,
                    dur: 1.0,
                    released: 0.0,
                });
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate_batched(&g, &mut Zero, &SimOptions::new(4)).unwrap_err();
        assert_eq!(err, SimError::ZeroProcs(TaskId(0)));
    }

    #[test]
    fn lazy_scheduler_is_stuck() {
        struct Lazy;
        impl BatchScheduler for Lazy {
            fn release_batch(&mut self, _g: &TaskGraph, _n: f64, _t: &[TaskId]) {}
            fn select_batch(&mut self, _now: f64, _free: u32, _out: &mut Vec<BatchStart>) {}
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = simulate_batched(&g, &mut Lazy, &SimOptions::new(4)).unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }));
    }

    #[test]
    fn empty_graph_simulates_to_empty_schedule() {
        let g = TaskGraph::empty();
        let s = simulate_batched(&g, &mut BatchFifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.makespan, 0.0);
        assert!(s.placements.is_empty());
    }
}

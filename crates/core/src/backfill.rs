//! EASY backfilling on top of Algorithm 2's allocations.
//!
//! Plain list scheduling (Algorithm 1) lets *any* fitting task jump
//! ahead, which can starve wide tasks behind a stream of narrow ones.
//! Batch schedulers solve this with *EASY backfilling* (Lifka '95):
//! strict FIFO for the queue head — if it does not fit, it gets a
//! *reservation* at the earliest time enough processors free up — and
//! later tasks may run out of order only if they cannot delay that
//! reservation.
//!
//! Moldable tasks with known speedup functions make this precise: once
//! Algorithm 2 fixes an allocation, the duration `t(p)` is exact, so
//! the shadow time and the backfill test need no estimates. This is an
//! extension scheduler (not in the paper): it keeps every schedule
//! valid and is compared against FIFO list scheduling in the ablation
//! bench.

use std::collections::VecDeque;

use moldable_graph::TaskId;
use moldable_model::SpeedupModel;
use moldable_sim::Scheduler;

use crate::allocate;

/// EASY-backfilling scheduler using Algorithm 2 allocations.
#[derive(Debug)]
pub struct EasyBackfillScheduler {
    mu: f64,
    p_total: u32,
    queue: VecDeque<QItem>,
    /// Running tasks: `(end time, procs)` — maintained from our own
    /// start decisions (durations are exact).
    running: Vec<(f64, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct QItem {
    task: TaskId,
    procs: u32,
    duration: f64,
}

impl EasyBackfillScheduler {
    /// Backfilling scheduler with Algorithm 2 allocations at `mu`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is outside `(0, (3−√5)/2]`.
    #[must_use]
    pub fn new(mu: f64) -> Self {
        crate::allocator::assert_mu(mu);
        Self {
            mu,
            p_total: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
        }
    }

    /// Earliest time at which `need` processors will be free, given
    /// `free` currently free and the recorded running set; also the
    /// number of processors free at that time beyond `need` ("extra").
    fn shadow(&self, now: f64, free: u32, need: u32) -> (f64, u32) {
        debug_assert!(need > free, "shadow only queried when head does not fit");
        let mut ends: Vec<(f64, u32)> = self.running.clone();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut avail = free;
        for (end, procs) in ends {
            avail += procs;
            if avail >= need {
                return (end.max(now), avail - need);
            }
        }
        // All running tasks accounted for; if still short, the head can
        // never run — impossible when allocations are capped at P.
        unreachable!("head allocation exceeds the platform")
    }
}

impl Scheduler for EasyBackfillScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        let allocation = allocate(model, self.p_total, self.mu);
        let procs = allocation.capped;
        self.queue.push_back(QItem {
            task,
            procs,
            duration: model.time(procs),
        });
    }

    fn select_into(&mut self, now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        // Drop finished entries from the running set.
        self.running.retain(|&(end, _)| end > now + 1e-15);

        // 1) Strict FIFO: start head tasks while they fit.
        while let Some(&head) = self.queue.front() {
            if head.procs <= free {
                self.queue.pop_front();
                free -= head.procs;
                self.running.push((now + head.duration, head.procs));
                out.push((head.task, head.procs));
            } else {
                break;
            }
        }

        // 2) Head blocked: compute its reservation and backfill.
        if let Some(&head) = self.queue.front() {
            if free > 0 && self.queue.len() > 1 {
                let (shadow_time, mut extra) = self.shadow(now, free, head.procs);
                let mut i = 1;
                while i < self.queue.len() {
                    let cand = self.queue[i];
                    let fits = cand.procs <= free;
                    // Safe to backfill if it ends before the shadow
                    // time, or is narrow enough to coexist with the
                    // head's reservation. A long backfill holds its
                    // processors at the shadow time, so it consumes
                    // part of `extra` — decrement, or several narrow
                    // long tasks could jointly delay the head.
                    let ends_before_shadow = now + cand.duration <= shadow_time + 1e-15;
                    let safe = ends_before_shadow || cand.procs <= extra;
                    if fits && safe {
                        if !ends_before_shadow {
                            extra -= cand.procs;
                        }
                        self.queue.remove(i);
                        free -= cand.procs;
                        self.running.push((now + cand.duration, cand.procs));
                        out.push((cand.task, cand.procs));
                        // The shadow time itself can only stay or move
                        // earlier (short backfills release before it),
                        // so continuing with the same shadow is sound.
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;
    use moldable_model::{ModelClass, MU_MAX};
    use moldable_sim::{simulate, SimOptions};

    fn rigid(w: f64, pbar: u32) -> SpeedupModel {
        SpeedupModel::roofline(w, pbar).unwrap()
    }

    // All scenarios use P = 6 with mu = MU_MAX: the Algorithm 2 cap is
    // ceil(0.382*6) = 3, so roofline tasks with pbar <= 3 keep their
    // natural width. Two 2-proc/10s tasks occupy the platform, leaving
    // 2 processors free, and a 3-proc head is blocked with shadow time
    // 10 and extra = 1 (4 processors available once the first long task
    // ends, 3 of them reserved).

    fn blocked_head_graph() -> (GraphBuilder, [TaskId; 3]) {
        let mut g = GraphBuilder::new();
        let l1 = g.add_task(rigid(20.0, 2)); // t(2) = 10
        let l2 = g.add_task(rigid(20.0, 2)); // t(2) = 10
        let wide = g.add_task(rigid(3.0, 3)); // t(3) = 1, needs 3 > 2 free
        (g, [l1, l2, wide])
    }

    use moldable_graph::TaskId;

    #[test]
    fn backfills_short_task_into_the_gap() {
        let (mut g, [l1, l2, wide]) = blocked_head_graph();
        let short = g.add_task(rigid(2.0, 1)); // t(1) = 2 <= shadow 10
        let g = g.freeze();
        let mut s = EasyBackfillScheduler::new(MU_MAX);
        let sched = simulate(&g, &mut s, &SimOptions::new(6)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(sched.placement(l1).unwrap().start, 0.0);
        assert_eq!(sched.placement(l2).unwrap().start, 0.0);
        assert_eq!(sched.placement(short).unwrap().start, 0.0, "backfilled");
        assert_eq!(
            sched.placement(wide).unwrap().start,
            10.0,
            "reservation held"
        );
    }

    #[test]
    fn does_not_backfill_a_task_that_would_delay_the_head() {
        let (mut g, [_, _, wide]) = blocked_head_graph();
        // 2 procs for 60s: ends after the shadow (10) and is wider than
        // extra (1) — starting it would push the head to t = 60.
        let blocker = g.add_task(rigid(120.0, 2));
        let g = g.freeze();
        let mut s = EasyBackfillScheduler::new(MU_MAX);
        let sched = simulate(&g, &mut s, &SimOptions::new(6)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(sched.placement(wide).unwrap().start, 10.0, "head on time");
        assert!(
            sched.placement(blocker).unwrap().start >= 10.0,
            "blocker held back"
        );
        // Contrast: the paper's FIFO list scheduler starts the blocker
        // immediately (no reservations).
        let mut fifo = crate::OnlineScheduler::with_mu(MU_MAX);
        let fs = simulate(&g, &mut fifo, &SimOptions::new(6)).unwrap();
        assert_eq!(fs.placement(blocker).unwrap().start, 0.0);
    }

    #[test]
    fn narrow_long_task_coexists_with_the_reservation() {
        let (mut g, [_, _, wide]) = blocked_head_graph();
        // 1 proc for 50s: ends long after the shadow, but its width (1)
        // fits inside `extra` (1), so it cannot delay the head.
        let narrow = g.add_task(rigid(50.0, 1));
        let g = g.freeze();
        let mut s = EasyBackfillScheduler::new(MU_MAX);
        let sched = simulate(&g, &mut s, &SimOptions::new(6)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(sched.placement(narrow).unwrap().start, 0.0, "coexists");
        assert_eq!(
            sched.placement(wide).unwrap().start,
            10.0,
            "head still on time"
        );
    }

    #[test]
    fn two_long_narrow_tasks_cannot_jointly_delay_the_head() {
        // P = 6. l1 (2 procs) ends at 10, l2 (2 procs) at 50 — free 2.
        // Head wide(3): shadow = 10 (avail 4), extra = 1. Two narrow
        // 60s tasks are each individually within `extra`, but together
        // they would hold 2 processors at t = 10 and push the head to
        // t = 50. EASY must admit at most one.
        let mut g = GraphBuilder::new();
        let _l1 = g.add_task(rigid(20.0, 2)); // t(2) = 10
        let _l2 = g.add_task(rigid(100.0, 2)); // t(2) = 50
        let wide = g.add_task(rigid(3.0, 3));
        let n1 = g.add_task(rigid(60.0, 1)); // t(1) = 60
        let n2 = g.add_task(rigid(60.0, 1));
        let g = g.freeze();
        let mut s = EasyBackfillScheduler::new(MU_MAX);
        let sched = simulate(&g, &mut s, &SimOptions::new(6)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(sched.placement(wide).unwrap().start, 10.0, "head on time");
        let starts = [
            sched.placement(n1).unwrap().start,
            sched.placement(n2).unwrap().start,
        ];
        assert!(
            starts.iter().filter(|&&t| t == 0.0).count() <= 1,
            "only one long narrow task may take the reservation slack: {starts:?}"
        );
    }

    #[test]
    fn valid_on_random_workflows_and_competitive_in_practice() {
        use moldable_graph::gen;
        use moldable_model::rng::StdRng;
        use moldable_model::sample::ParamDistribution;
        let p_total = 32;
        for class in ModelClass::bounded_classes() {
            let mu = class.optimal_mu();
            for seed in 0..3u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let dist = ParamDistribution::default();
                let mut assign = gen::weighted_sampler(class, dist, p_total, &mut rng);
                let g = gen::lu(5, &mut assign);
                let mut s = EasyBackfillScheduler::new(mu);
                let sched = simulate(&g, &mut s, &SimOptions::new(p_total)).unwrap();
                sched.validate(&g).unwrap();
                // No guarantee is *proved* for backfilling, but on
                // monotonic workloads it stays in the same ballpark.
                let lb = g.bounds(p_total).lower_bound();
                assert!(sched.makespan <= 8.0 * lb, "{class} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mu must lie in")]
    fn rejects_bad_mu() {
        let _ = EasyBackfillScheduler::new(0.5);
    }
}

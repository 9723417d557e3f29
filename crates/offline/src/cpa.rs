//! CPA-style offline allocation for task graphs.
//!
//! Radulescu & van Gemund's *Critical Path and Area* balancing — the
//! practical relative of the Lepère–Trystram–Woeginger offline
//! algorithm the paper cites for moldable DAGs: every task starts at
//! one processor; while the critical path `C` dominates the average
//! area `A/P`, widen the critical-path task with the best
//! time-gain-per-extra-area; then list-schedule with the allocations
//! fixed. Knows the whole graph, so it is a legitimate *offline*
//! comparator for the online algorithm.

use moldable_graph::{TaskGraph, TaskId};
use moldable_sim::{simulate, Schedule, Scheduler, SimError, SimOptions};

/// Compute CPA allocations for every task of `graph` on `p_total`
/// processors.
///
/// O(iterations × (n + m)) with at most `Σ (p_max − 1)` iterations.
///
/// # Panics
///
/// Panics if `p_total == 0`.
#[must_use]
pub fn cpa_allocations(graph: &TaskGraph, p_total: u32) -> Vec<u32> {
    assert!(p_total >= 1);
    let n = graph.n_tasks();
    let p_max: Vec<u32> = graph
        .task_ids()
        .map(|t| graph.model(t).p_max(p_total))
        .collect();
    let mut alloc = vec![1u32; n];
    if n == 0 {
        return alloc;
    }
    let topo = graph.topo_order();
    loop {
        // Current times and total area under `alloc`.
        let time = |t: TaskId| graph.model(t).time(alloc[t.index()]);
        let total_area: f64 = graph
            .task_ids()
            .map(|t| graph.model(t).area(alloc[t.index()]))
            .sum();
        // Longest path under current allocations, with back-pointers.
        let mut dist = vec![0.0f64; n];
        let mut back: Vec<Option<TaskId>> = vec![None; n];
        let mut best_end: Option<TaskId> = None;
        let mut c = 0.0f64;
        for &t in &topo {
            let mut longest = 0.0;
            let mut bp = None;
            for &p in graph.preds(t) {
                if dist[p.index()] > longest {
                    longest = dist[p.index()];
                    bp = Some(p);
                }
            }
            dist[t.index()] = longest + time(t);
            back[t.index()] = bp;
            if dist[t.index()] > c {
                c = dist[t.index()];
                best_end = Some(t);
            }
        }
        if c <= total_area / f64::from(p_total) {
            break; // balanced: widening further only grows the area
        }
        // Walk the critical path; pick the widening with the best
        // time gain per extra area.
        let mut best: Option<(f64, TaskId)> = None;
        let mut cur = best_end;
        while let Some(t) = cur {
            let p = alloc[t.index()];
            if p < p_max[t.index()] {
                let m = graph.model(t);
                let gain = m.time(p) - m.time(p + 1);
                let cost = (m.area(p + 1) - m.area(p)).max(1e-300);
                let score = gain / cost;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, t));
                }
            }
            cur = back[t.index()];
        }
        match best {
            Some((_, t)) => alloc[t.index()] += 1,
            None => break, // whole critical path already at p_max
        }
    }
    alloc
}

/// List scheduling with a fixed per-task allocation table — the second
/// phase of CPA (and a useful building block for any precomputed
/// allocation).
#[derive(Debug)]
pub struct FixedAllocScheduler {
    allocs: Vec<u32>,
    queue: std::collections::VecDeque<TaskId>,
}

impl FixedAllocScheduler {
    /// Schedule with `allocs[t]` processors for task `t`.
    #[must_use]
    pub fn new(allocs: Vec<u32>) -> Self {
        Self {
            allocs,
            queue: std::collections::VecDeque::new(),
        }
    }
}

impl Scheduler for FixedAllocScheduler {
    fn release(&mut self, task: TaskId, _model: &moldable_model::SpeedupModel) {
        assert!(
            task.index() < self.allocs.len(),
            "allocation table too small"
        );
        self.queue.push_back(task);
    }

    fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        self.queue.retain(|&t| {
            let p = self.allocs[t.index()];
            if p <= free {
                free -= p;
                out.push((t, p));
                false
            } else {
                true
            }
        });
    }
}

/// Full CPA: allocate with [`cpa_allocations`], then list-schedule.
///
/// # Errors
///
/// Propagates simulator errors (none occur for valid graphs).
pub fn cpa_schedule(graph: &TaskGraph, p_total: u32) -> Result<Schedule, SimError> {
    let allocs = cpa_allocations(graph, p_total);
    let mut sched = FixedAllocScheduler::new(allocs);
    simulate(graph, &mut sched, &SimOptions::new(p_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    #[test]
    fn chain_gets_widened_to_the_max() {
        // A pure chain: area bound is tiny, critical path dominates, so
        // CPA widens every task to p_max.
        let mut g = GraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..4 {
            let t = g.add_task(SpeedupModel::roofline(8.0, 4).unwrap());
            if let Some(p) = prev {
                g.add_edge(p, t).unwrap();
            }
            prev = Some(t);
        }
        let g = g.freeze();
        let alloc = cpa_allocations(&g, 8);
        assert_eq!(alloc, vec![4, 4, 4, 4]);
        let s = cpa_schedule(&g, 8).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.makespan, 4.0 * 2.0);
    }

    #[test]
    fn independent_tasks_stay_narrow() {
        // Plenty of independent Amdahl tasks: the area bound dominates,
        // so CPA stops early and keeps tasks near 1 processor.
        let mut g = GraphBuilder::new();
        for _ in 0..16 {
            g.add_task(SpeedupModel::amdahl(4.0, 1.0).unwrap());
        }
        let g = g.freeze();
        let alloc = cpa_allocations(&g, 4);
        assert!(alloc.iter().all(|&p| p <= 2), "allocs = {alloc:?}");
        let s = cpa_schedule(&g, 4).unwrap();
        s.validate(&g).unwrap();
    }

    #[test]
    fn balances_c_and_a() {
        // After CPA, either C <= A/P or the path is saturated.
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(20.0, 0.5).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(12.0, 0.1).unwrap());
        let c = g.add_task(SpeedupModel::amdahl(6.0, 0.2).unwrap());
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        let g = g.freeze();
        let p_total = 8;
        let alloc = cpa_allocations(&g, p_total);
        let area: f64 = g
            .task_ids()
            .map(|t| g.model(t).area(alloc[t.index()]))
            .sum();
        // critical path under alloc
        let ta = g.model(a).time(alloc[0]);
        let tb = g.model(b).time(alloc[1]);
        let tc = g.model(c).time(alloc[2]);
        let cp = ta + tb.max(tc);
        let saturated = alloc
            .iter()
            .enumerate()
            .any(|(i, &p)| p == g.model(TaskId(i as u32)).p_max(p_total));
        assert!(cp <= area / f64::from(p_total) + 1e-9 || saturated);
    }

    #[test]
    fn cpa_beats_one_proc_on_chains_and_respects_bounds() {
        let mut g = GraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..6 {
            let t = g.add_task(SpeedupModel::amdahl(10.0 + f64::from(i), 0.5).unwrap());
            if let Some(p) = prev {
                g.add_edge(p, t).unwrap();
            }
            prev = Some(t);
        }
        let g = g.freeze();
        let p_total = 8;
        let s = cpa_schedule(&g, p_total).unwrap();
        s.validate(&g).unwrap();
        let mut one = moldable_core::baselines::one_proc();
        let s1 = simulate(&g, &mut one, &SimOptions::new(p_total)).unwrap();
        assert!(s.makespan < s1.makespan);
        assert!(s.makespan >= g.bounds(p_total).lower_bound() - 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::empty();
        assert!(cpa_allocations(&g, 4).is_empty());
        assert_eq!(cpa_schedule(&g, 4).unwrap().makespan, 0.0);
    }
}

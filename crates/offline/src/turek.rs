//! Turek-style dual approximation for *independent* moldable tasks.
//!
//! Turek, Wolf & Yu (SPAA '92) — the offline 2-approximation in the
//! paper's Table 2. The dual-approximation skeleton implemented here:
//!
//! 1. binary-search the smallest target `τ` that passes the relaxed
//!    feasibility test: every task admits an allocation with
//!    `t(p) ≤ τ`, and the resulting minimal-area allocations satisfy
//!    `Σ a(p_j) ≤ P·τ`. That `τ*` lower-bounds the optimum;
//! 2. allocate each task its smallest `p` with `t(p) ≤ τ*` and
//!    list-schedule widest-first.
//!
//! The classic analysis bounds the result by a small constant times
//! `τ*`; the tests assert the practical bound `T ≤ 2τ*` on sampled
//! workloads and the universal one `T ≥ τ*` from the dual.

use moldable_graph::TaskGraph;
use moldable_model::SpeedupModel;
use moldable_sim::{simulate, Schedule, SimOptions};

/// Outcome of the dual approximation.
#[derive(Debug)]
pub struct TurekResult {
    /// The schedule produced by phase 2.
    pub schedule: Schedule,
    /// The dual bound `τ*` (a lower bound on the optimal makespan).
    pub tau: f64,
    /// The allocations chosen at `τ*`.
    pub allocations: Vec<u32>,
}

/// Smallest `p ∈ [1, p_max]` with `t(p) ≤ τ`, or `None`.
fn min_alloc_for(model: &SpeedupModel, p_total: u32, tau: f64) -> Option<u32> {
    let p_max = model.p_max(p_total);
    if model.time(p_max) > tau {
        return None;
    }
    // t is non-increasing on [1, p_max] (Lemma 1): binary search.
    let (mut lo, mut hi) = (1u32, p_max);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if model.time(mid) <= tau {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Relaxed feasibility: allocations exist and their area fits `P·τ`.
fn feasible(models: &[&SpeedupModel], p_total: u32, tau: f64) -> Option<Vec<u32>> {
    let mut allocs = Vec::with_capacity(models.len());
    let mut area = 0.0;
    for m in models {
        let p = min_alloc_for(m, p_total, tau)?;
        area += m.area(p);
        allocs.push(p);
    }
    (area <= f64::from(p_total) * tau * (1.0 + 1e-12)).then_some(allocs)
}

/// Run the dual approximation on an *independent* task set (`graph`
/// must have no edges) and return the schedule plus the dual bound.
///
/// # Panics
///
/// Panics if the graph has precedence edges (the Turek scheme is for
/// independent tasks) or `p_total == 0`.
#[must_use]
pub fn turek_schedule(graph: &TaskGraph, p_total: u32) -> TurekResult {
    assert!(p_total >= 1);
    assert_eq!(
        graph.n_edges(),
        0,
        "Turek's scheme handles independent tasks only"
    );
    let models: Vec<&SpeedupModel> = graph.task_ids().map(|t| graph.model(t)).collect();
    if models.is_empty() {
        return TurekResult {
            schedule: Schedule::new(p_total, Vec::new(), 0.0),
            tau: 0.0,
            allocations: Vec::new(),
        };
    }
    // Bracket tau: the max t_min is always necessary; running
    // everything serially on one processor is always sufficient.
    let lo0 = models
        .iter()
        .map(|m| m.t_min(p_total))
        .fold(0.0f64, f64::max)
        .max(models.iter().map(|m| m.a_min()).sum::<f64>() / f64::from(p_total));
    let hi0 = models.iter().map(|m| m.time(1)).sum::<f64>();
    let (mut lo, mut hi) = (lo0, hi0.max(lo0));
    debug_assert!(feasible(&models, p_total, hi).is_some());
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if feasible(&models, p_total, mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let tau = hi;
    let allocations = feasible(&models, p_total, tau).expect("hi stays feasible");

    // Phase 2: list-schedule widest-first (better shelf packing).
    let mut sched = WidestFirst::new(allocations.clone());
    let schedule = simulate(graph, &mut sched, &SimOptions::new(p_total))
        .expect("independent tasks always schedule");
    TurekResult {
        schedule,
        tau,
        allocations,
    }
}

/// List scheduler with fixed allocations that scans its queue
/// widest-allocation-first.
#[derive(Debug)]
struct WidestFirst {
    allocs: Vec<u32>,
    queue: Vec<moldable_graph::TaskId>,
}

impl WidestFirst {
    fn new(allocs: Vec<u32>) -> Self {
        Self {
            allocs,
            queue: Vec::new(),
        }
    }
}

impl moldable_sim::Scheduler for WidestFirst {
    fn release(&mut self, task: moldable_graph::TaskId, _m: &SpeedupModel) {
        let key = std::cmp::Reverse(self.allocs[task.index()]);
        let pos = self
            .queue
            .partition_point(|&t| std::cmp::Reverse(self.allocs[t.index()]) <= key);
        self.queue.insert(pos, task);
    }

    fn select_into(
        &mut self,
        _now: f64,
        mut free: u32,
        out: &mut Vec<(moldable_graph::TaskId, u32)>,
    ) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;
    use moldable_model::rng::StdRng;
    use moldable_model::sample::ParamDistribution;
    use moldable_model::ModelClass;

    fn independent(n: usize, class: ModelClass, p_total: u32, seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = ParamDistribution::default();
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(dist.sample(class, p_total, &mut rng));
        }
        g.freeze()
    }

    #[test]
    fn tau_is_a_valid_lower_bound() {
        for seed in 0..5 {
            let g = independent(24, ModelClass::Amdahl, 16, seed);
            let r = turek_schedule(&g, 16);
            r.schedule.validate(&g).unwrap();
            // tau lower-bounds any schedule's makespan...
            assert!(r.schedule.makespan >= r.tau - 1e-9);
            // ...and is itself at least the Lemma 2 bound.
            assert!(r.tau >= g.bounds(16).lower_bound() - 1e-6);
        }
    }

    #[test]
    fn achieves_two_tau_on_sampled_workloads() {
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
        ] {
            for seed in 0..5 {
                let g = independent(30, class, 12, seed * 3 + 1);
                let r = turek_schedule(&g, 12);
                assert!(
                    r.schedule.makespan <= 2.0 * r.tau + 1e-9,
                    "{class} seed {seed}: {} > 2 x {}",
                    r.schedule.makespan,
                    r.tau
                );
            }
        }
    }

    #[test]
    fn allocation_is_minimal_for_tau() {
        let g = independent(10, ModelClass::Amdahl, 8, 7);
        let r = turek_schedule(&g, 8);
        for (t, &p) in g.task_ids().zip(&r.allocations) {
            let m = g.model(t);
            assert!(m.time(p) <= r.tau * (1.0 + 1e-9));
            if p > 1 {
                assert!(m.time(p - 1) > r.tau * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn single_task_gets_its_t_min() {
        let mut g = GraphBuilder::new();
        g.add_task(moldable_model::SpeedupModel::amdahl(10.0, 1.0).unwrap());
        let g = g.freeze();
        let r = turek_schedule(&g, 4);
        assert!((r.schedule.makespan - (10.0 / 4.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "independent tasks only")]
    fn rejects_graphs_with_edges() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(moldable_model::SpeedupModel::amdahl(1.0, 0.0).unwrap());
        let b = g.add_task(moldable_model::SpeedupModel::amdahl(1.0, 0.0).unwrap());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let _ = turek_schedule(&g, 4);
    }

    #[test]
    fn empty_set() {
        let g = TaskGraph::empty();
        let r = turek_schedule(&g, 4);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.schedule.makespan, 0.0);
    }
}

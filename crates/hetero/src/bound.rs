//! A valid makespan lower bound for the hybrid platform.
//!
//! Lemma 2's two bounds generalize:
//!
//! * **critical path** — weight each task by the best minimum time
//!   over the two pools, `min(t_min^cpu, t_min^gpu)`;
//! * **area** — every schedule assigns each task wholly to one pool,
//!   where it consumes at least its minimum area for that pool; so the
//!   *fractional* relaxation `min_x max(Σ xₜ·a_cᵗ / P_c,
//!   Σ (1−xₜ)·a_gᵗ / P_g)` (with `xₜ ∈ [0,1]`) lower-bounds any
//!   schedule's makespan. The fractional optimum is computed by binary
//!   search on `T` with a greedy feasibility check (tasks sorted by
//!   relative pool cost, at most one split fractionally).

use crate::{HeteroGraph, HeteroPlatform};

/// `max(fractional area bound, best-pool critical path)`.
///
/// # Panics
///
/// Panics if either pool is empty.
#[must_use]
pub fn hetero_lower_bound(graph: &HeteroGraph, platform: HeteroPlatform) -> f64 {
    assert!(platform.cpus >= 1 && platform.gpus >= 1);
    let n = graph.n_tasks();
    if n == 0 {
        return 0.0;
    }

    // Critical path with best-pool t_min per task.
    let t_best: Vec<f64> = graph
        .task_ids()
        .map(|t| {
            let task = graph.model(t);
            let tc = task.cpu.t_min(platform.cpus);
            let tg = task.gpu.t_min(platform.gpus);
            tc.min(tg)
        })
        .collect();
    let mut dist = vec![0.0f64; n];
    let mut c_min = 0.0f64;
    for t in graph.topo_order() {
        let longest = graph
            .preds(t)
            .iter()
            .map(|p| dist[p.index()])
            .fold(0.0, f64::max);
        dist[t.index()] = longest + t_best[t.index()];
        c_min = c_min.max(dist[t.index()]);
    }

    // Fractional area bound.
    let a_c: Vec<f64> = graph
        .task_ids()
        .map(|t| graph.model(t).cpu.a_min())
        .collect();
    let a_g: Vec<f64> = graph
        .task_ids()
        .map(|t| graph.model(t).gpu.a_min())
        .collect();
    let pc = f64::from(platform.cpus);
    let pg = f64::from(platform.gpus);
    // Order by how much cheaper the CPU is, relatively.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        let ri = a_c[i] / a_g[i].max(1e-300);
        let rj = a_c[j] / a_g[j].max(1e-300);
        ri.total_cmp(&rj)
    });
    // feasible(T): can the CPU take a prefix (fractionally) such that
    // both pools finish their share of the area by T?
    let feasible = |t_cap: f64| -> bool {
        let mut cpu_budget = pc * t_cap;
        let mut gpu_load = 0.0f64;
        for &i in &order {
            if a_c[i] <= cpu_budget {
                cpu_budget -= a_c[i];
            } else {
                // split fractionally: the CPU takes what fits
                let frac = (cpu_budget / a_c[i]).clamp(0.0, 1.0);
                cpu_budget = 0.0;
                gpu_load += (1.0 - frac) * a_g[i];
            }
        }
        gpu_load <= pg * t_cap * (1.0 + 1e-12)
    };
    // Bracket: all-on-best-pool serially is clearly feasible.
    let mut hi = (a_c.iter().sum::<f64>() / pc).max(a_g.iter().sum::<f64>() / pg);
    let mut lo = 0.0f64;
    if hi == 0.0 {
        return c_min;
    }
    debug_assert!(feasible(hi));
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    c_min.max(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeteroTask;
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn t(wc: f64, wg: f64) -> HeteroTask {
        HeteroTask {
            cpu: SpeedupModel::amdahl(wc, 0.0).unwrap(),
            gpu: SpeedupModel::amdahl(wg, 0.0).unwrap(),
        }
    }

    #[test]
    fn single_task_bound_is_best_pool_t_min() {
        let mut g = GraphBuilder::new();
        g.add_task(t(8.0, 40.0));
        let g = g.freeze();
        let pf = HeteroPlatform { cpus: 4, gpus: 2 };
        // best pool: cpu, t_min = 8/4 = 2; area: all on cpu = 8/4 = 2.
        let lb = hetero_lower_bound(&g, pf);
        assert!((lb - 2.0).abs() < 1e-9, "lb = {lb}");
    }

    #[test]
    fn area_splits_across_pools() {
        // 8 identical tasks, each 4 work on either pool; Pc = 2, Pg = 2.
        // Best split: half the area each side: 4*4/2 = 8.
        let mut g = GraphBuilder::new();
        for _ in 0..8 {
            g.add_task(t(4.0, 4.0));
        }
        let g = g.freeze();
        let pf = HeteroPlatform { cpus: 2, gpus: 2 };
        let lb = hetero_lower_bound(&g, pf);
        assert!((lb - 8.0).abs() < 1e-6, "lb = {lb}");
    }

    #[test]
    fn bound_respects_pool_affinity() {
        // CPU-only-cheap tasks: the fractional optimum puts only a
        // little on the expensive GPU.
        let mut g = GraphBuilder::new();
        for _ in 0..4 {
            g.add_task(t(2.0, 200.0));
        }
        let g = g.freeze();
        let pf = HeteroPlatform { cpus: 2, gpus: 2 };
        let lb = hetero_lower_bound(&g, pf);
        // all-on-cpu: 8/2 = 4; mixing in the gpu is worse than 4?
        // moving one task to gpu: max(6/2, 200/2) = 100. So lb ~<= 4.
        assert!(lb <= 4.0 + 1e-6, "lb = {lb}");
        assert!(lb > 3.0, "still must pay most of the cpu area: {lb}");
    }

    #[test]
    fn critical_path_dominates_on_chains() {
        let mut g = GraphBuilder::new();
        let mut prev = None;
        for _ in 0..5 {
            let id = g.add_task(HeteroTask {
                cpu: SpeedupModel::amdahl(4.0, 1.0).unwrap(),
                gpu: SpeedupModel::amdahl(4.0, 2.0).unwrap(),
            });
            if let Some(p) = prev {
                g.add_edge(p, id).unwrap();
            }
            prev = Some(id);
        }
        let g = g.freeze();
        let pf = HeteroPlatform { cpus: 4, gpus: 4 };
        // per-task best t_min = min(4/4+1, 4/4+2) = 2; chain of 5 -> 10.
        let lb = hetero_lower_bound(&g, pf);
        assert!((lb - 10.0).abs() < 1e-9, "lb = {lb}");
    }

    #[test]
    fn every_simulated_schedule_respects_the_bound() {
        use crate::{simulate_hetero, HeteroEct, MuHetero};
        let mut g = GraphBuilder::new();
        let mut prev = None;
        for i in 0..10 {
            let (wc, wg) = if i % 3 == 0 { (30.0, 5.0) } else { (5.0, 30.0) };
            let id = g.add_task(t(wc, wg));
            if i % 2 == 0 {
                if let Some(p) = prev {
                    g.add_edge(p, id).unwrap();
                }
            }
            prev = Some(id);
        }
        let g = g.freeze();
        let pf = HeteroPlatform { cpus: 3, gpus: 3 };
        let lb = hetero_lower_bound(&g, pf);
        for mk in [0usize, 1] {
            let makespan = if mk == 0 {
                simulate_hetero(&g, pf, &mut MuHetero::default_mu())
                    .unwrap()
                    .makespan
            } else {
                simulate_hetero(&g, pf, &mut HeteroEct::new())
                    .unwrap()
                    .makespan
            };
            assert!(makespan >= lb - 1e-9, "scheduler {mk}: {makespan} < {lb}");
        }
    }

    #[test]
    fn empty_graph_is_zero() {
        let g: HeteroGraph = GraphBuilder::new().freeze();
        assert_eq!(
            hetero_lower_bound(&g, HeteroPlatform { cpus: 2, gpus: 2 }),
            0.0
        );
    }
}

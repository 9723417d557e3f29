//! Property tests for the hybrid-platform extension.
//!
//! Gated behind the non-default `slow-tests` feature: each test sweeps
//! many random instances, which is too slow for the tier-1 suite.

#![cfg(feature = "slow-tests")]

use moldable_graph::GraphBuilder;
use moldable_hetero::{
    hetero_lower_bound, simulate_hetero, HeteroEct, HeteroGraph, HeteroPlatform, HeteroTask,
    MuHetero, Pool,
};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;

fn random_hetero(seed: u64, n: usize, pf: HeteroPlatform) -> HeteroGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = ParamDistribution::default();
    let mut g = GraphBuilder::new();
    let mut ids = Vec::new();
    for _ in 0..n {
        let cpu = dist.sample(ModelClass::Amdahl, pf.cpus, &mut rng);
        let gpu = dist.sample(ModelClass::Amdahl, pf.gpus, &mut rng);
        ids.push(g.add_task(HeteroTask { cpu, gpu }));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.2) {
                g.add_edge(ids[i], ids[j]).unwrap();
            }
        }
    }
    g.freeze()
}

/// Both hybrid schedulers always produce feasible schedules that
/// respect the fractional lower bound, and every task lands on exactly
/// one pool.
#[test]
fn hybrid_schedules_are_feasible_and_bounded() {
    for case in 0u64..64 {
        let mut crng = StdRng::seed_from_u64(0x4E7 ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..25);
        let cpus = crng.gen_range(2u32..16);
        let gpus = crng.gen_range(1u32..8);
        let pf = HeteroPlatform { cpus, gpus };
        let g = random_hetero(seed, n, pf);
        let lb = hetero_lower_bound(&g, pf);
        for which in 0..2 {
            let hs = if which == 0 {
                simulate_hetero(&g, pf, &mut MuHetero::default_mu()).unwrap()
            } else {
                simulate_hetero(&g, pf, &mut HeteroEct::new()).unwrap()
            };
            hs.validate(&g, pf).unwrap();
            assert!(
                hs.makespan >= lb - 1e-9,
                "scheduler {which}: {} < lb {lb}",
                hs.makespan
            );
            assert_eq!(hs.cpu.placements.len() + hs.gpu.placements.len(), n);
            // assignment vector agrees with where placements live
            for pl in &hs.cpu.placements {
                assert_eq!(hs.assignment[pl.task.index()], Pool::Cpu);
            }
            for pl in &hs.gpu.placements {
                assert_eq!(hs.assignment[pl.task.index()], Pool::Gpu);
            }
        }
    }
}

/// The fractional bound never exceeds the all-on-one-pool bounds (it
/// optimizes over a superset of assignments).
#[test]
fn fractional_bound_below_single_pool_area() {
    for case in 0u64..64 {
        let mut crng = StdRng::seed_from_u64(0xF2AC ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..20);
        let pf = HeteroPlatform { cpus: 6, gpus: 3 };
        let g = random_hetero(seed, n, pf);
        let lb = hetero_lower_bound(&g, pf);
        let area_cpu: f64 =
            g.task_ids().map(|t| g.model(t).cpu.a_min()).sum::<f64>() / f64::from(pf.cpus);
        let area_gpu: f64 =
            g.task_ids().map(|t| g.model(t).gpu.a_min()).sum::<f64>() / f64::from(pf.gpus);
        // The path component can exceed single-pool *area*, so compare
        // only the area part: lb is max(path, frac-area); frac-area <=
        // min(all-cpu, all-gpu). Reconstruct: lb <= max(path, min areas).
        let path_only = {
            // per-task best tmin path
            let mut dist = vec![0.0f64; g.n_tasks()];
            let mut c = 0.0f64;
            for t in g.topo_order() {
                let best = g
                    .model(t)
                    .cpu
                    .t_min(pf.cpus)
                    .min(g.model(t).gpu.t_min(pf.gpus));
                let longest = g
                    .preds(t)
                    .iter()
                    .map(|p| dist[p.index()])
                    .fold(0.0, f64::max);
                dist[t.index()] = longest + best;
                c = c.max(dist[t.index()]);
            }
            c
        };
        assert!(lb <= path_only.max(area_cpu.min(area_gpu)) + 1e-6);
    }
}

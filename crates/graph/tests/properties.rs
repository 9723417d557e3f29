//! Property tests for the graph substrate.
//!
//! Gated behind the non-default `slow-tests` feature: each test sweeps
//! many random DAGs, which is too slow for the tier-1 suite.

#![cfg(feature = "slow-tests")]

use moldable_graph::{gen, Frontier, GraphBuilder, TaskGraph};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::SpeedupModel;

fn unit_assign() -> impl FnMut(gen::TaskCtx<'_>) -> SpeedupModel {
    |_| SpeedupModel::amdahl(1.0, 0.0).unwrap()
}

fn random_graph(seed: u64, n: usize, p_edge: f64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_dag(n, p_edge, &mut rng, &mut unit_assign())
}

/// Topological order covers all tasks and respects every edge.
#[test]
fn topo_order_is_valid() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0x7090 ^ case);
        let seed = rng.next_u64();
        let n = rng.gen_range(1usize..40);
        let p = rng.gen_range(0.0f64..0.5);
        let g = random_graph(seed, n, p);
        let order = g.topo_order();
        assert_eq!(order.len(), n);
        let mut pos = vec![0usize; n];
        for (i, t) in order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for t in g.task_ids() {
            for s in g.succs(t) {
                assert!(pos[t.index()] < pos[s.index()]);
            }
        }
    }
}

/// Driving the frontier through any completion order consistent with
/// availability completes every task exactly once.
#[test]
fn frontier_releases_everything_once() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0xF407 ^ case);
        let seed = rng.next_u64();
        let n = rng.gen_range(1usize..30);
        let p = rng.gen_range(0.0f64..0.4);
        let g = random_graph(seed, n, p);
        let mut f = Frontier::new(&g);
        let mut available = g.sources().to_vec();
        let mut completed = 0usize;
        let mut released = available.len();
        // complete in "stack" order (depth-first-ish, different from
        // topo order) to exercise non-FIFO completion patterns
        while let Some(t) = available.pop() {
            let before = available.len();
            f.complete_into(&g, t, &mut available);
            completed += 1;
            released += available.len() - before;
        }
        assert_eq!(completed, n);
        assert_eq!(released, n);
        assert!(f.all_done());
    }
}

/// Levels are consistent: every edge goes to a strictly higher level,
/// and depth == max level + 1.
#[test]
fn levels_are_monotone() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0x1E7E ^ case);
        let seed = rng.next_u64();
        let n = rng.gen_range(1usize..40);
        let p = rng.gen_range(0.0f64..0.5);
        let g = random_graph(seed, n, p);
        let levels = g.levels();
        for t in g.task_ids() {
            for s in g.succs(t) {
                assert!(levels[s.index()] > levels[t.index()]);
            }
        }
        let max = levels.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(g.depth(), max + 1);
    }
}

/// Removing the redundant edges preserves reachability (checked via
/// depth and levels, which are reachability functions).
#[test]
fn transitive_reduction_preserves_levels() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(0x72ED ^ case);
        let seed = rng.next_u64();
        let n = rng.gen_range(2usize..25);
        let g = random_graph(seed, n, 0.35);
        let redundant: std::collections::HashSet<_> = g.redundant_edges().into_iter().collect();
        // rebuild without redundant edges
        let mut h = GraphBuilder::new();
        for t in g.task_ids() {
            let _ = h.add_task(g.model(t).clone());
        }
        for t in g.task_ids() {
            for &s in g.succs(t) {
                if !redundant.contains(&(t, s)) {
                    h.add_edge(t, s).unwrap();
                }
            }
        }
        let h = h.freeze();
        assert_eq!(g.levels(), h.levels(), "reduction changed reachability");
        // and the reduced graph has no redundant edges left
        assert!(h.redundant_edges().is_empty());
    }
}

/// The workflow text format round-trips arbitrary generated DAGs.
#[test]
fn workflow_format_roundtrips() {
    for case in 0u64..128 {
        let mut crng = StdRng::seed_from_u64(0x400D ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(0usize..20);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut assign =
            gen::weighted_sampler(moldable_model::ModelClass::General, dist, 16, &mut rng);
        let mut srng = StdRng::seed_from_u64(seed ^ 1);
        let g = gen::random_dag(n, 0.25, &mut srng, &mut assign);
        let text = g.to_workflow(Some(16));
        let (g2, p) = moldable_graph::parse_workflow(&text).unwrap();
        assert_eq!(p, Some(16));
        assert_eq!(g2.n_tasks(), g.n_tasks());
        assert_eq!(g2.n_edges(), g.n_edges());
        for t in g.task_ids() {
            assert_eq!(g.succs(t), g2.succs(t));
            for q in [1u32, 2, 7, 16] {
                let a = g.model(t).time(q);
                let b = g2.model(t).time(q);
                assert!(
                    (a - b).abs() <= 1e-12 * a.max(1.0),
                    "t{}({q}): {a} vs {b}",
                    t.0
                );
            }
        }
    }
}

/// Lemma 2 bound parts are individually sane on random graphs.
#[test]
fn bounds_are_sane() {
    for case in 0u64..128 {
        let mut crng = StdRng::seed_from_u64(0xB0B5 ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..30);
        let p_total = crng.gen_range(1u32..32);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut assign =
            gen::weighted_sampler(moldable_model::ModelClass::Amdahl, dist, p_total, &mut rng);
        let mut srng = StdRng::seed_from_u64(seed ^ 2);
        let g = gen::random_dag(n, 0.2, &mut srng, &mut assign);
        let b = g.bounds(p_total);
        // C_min is at least the largest single t_min and at most the
        // serial sum of t_min.
        let tmins: Vec<f64> = g.task_ids().map(|t| g.model(t).t_min(p_total)).collect();
        let max = tmins.iter().copied().fold(0.0, f64::max);
        let sum: f64 = tmins.iter().sum();
        assert!(b.c_min >= max - 1e-12);
        assert!(b.c_min <= sum + 1e-9);
        // The critical path achieves C_min.
        let path_len: f64 = b
            .critical_path
            .iter()
            .map(|t| g.model(*t).t_min(p_total))
            .sum();
        assert!((path_len - b.c_min).abs() < 1e-9);
    }
}

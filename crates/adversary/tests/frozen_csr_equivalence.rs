//! Differential tests: the frozen-CSR engine path must be
//! *observationally identical* to the legacy mutable-adjacency path.
//!
//! The frozen [`moldable_graph::TaskGraph`] changed three things at
//! once: adjacency moved from `Vec<Vec<TaskId>>` to flat CSR slices,
//! sources are precomputed at freeze instead of scanned per run, and
//! the engine's reveal loop reuses buffers instead of allocating. Any
//! of those could silently reorder task revelation — and revelation
//! order decides tie-breaks, so it decides schedules. These tests run
//! the same instance through both paths and demand bit-identical
//! schedules: same start times, same widths, same makespan.
//!
//! The legacy path is an [`Instance`] implemented directly over nested
//! `Vec<Vec<TaskId>>` adjacency rebuilt from the frozen graph,
//! replicating the pre-CSR `Frontier` semantics exactly: sources by
//! O(n) empty-preds scan in id order, revelation in per-task
//! edge-insertion order.

use moldable_adversary::{amdahl, arbitrary, communication, general, generic, roofline};
use moldable_core::OnlineScheduler;
use moldable_graph::{gen, GraphBuilder, TaskGraph, TaskId};
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::{simulate, simulate_instance, Instance, Schedule, SimOptions};

/// The legacy in-memory form of a graph: one payload and two nested
/// adjacency lists per task.
struct Legacy {
    models: Vec<SpeedupModel>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
}

/// Rebuild nested adjacency from a frozen graph, adding edges in the
/// frozen graph's per-task successor order. Freezing preserves
/// insertion order, so this is the legacy in-memory form of the same
/// instance.
fn thaw(g: &TaskGraph) -> Legacy {
    let n = g.n_tasks();
    let mut legacy = Legacy {
        models: g.task_ids().map(|t| g.model(t).clone()).collect(),
        preds: vec![Vec::new(); n],
        succs: vec![Vec::new(); n],
    };
    for t in g.task_ids() {
        for &s in g.succs(t) {
            legacy.succs[t.index()].push(s);
            legacy.preds[s.index()].push(t);
        }
    }
    legacy
}

/// The pre-refactor revelation semantics over nested adjacency.
struct LegacyInstance<'a> {
    graph: &'a Legacy,
    remaining_preds: Vec<u32>,
    n_completed: usize,
    started: bool,
}

impl<'a> LegacyInstance<'a> {
    fn new(graph: &'a Legacy) -> Self {
        let remaining_preds = graph
            .preds
            .iter()
            .map(|p| u32::try_from(p.len()).unwrap())
            .collect();
        Self {
            graph,
            remaining_preds,
            n_completed: 0,
            started: false,
        }
    }
}

impl Instance for LegacyInstance<'_> {
    fn next_arrival(&self) -> Option<f64> {
        (!self.started).then_some(0.0)
    }

    fn arrivals_into(&mut self, _time: f64, out: &mut Vec<TaskId>) {
        // The legacy source scan: every task with no predecessors, in
        // id order.
        self.started = true;
        out.extend(
            (0..self.graph.models.len() as u32)
                .map(TaskId)
                .filter(|t| self.graph.preds[t.index()].is_empty()),
        );
    }

    fn on_complete_into(&mut self, task: TaskId, _time: f64, newly: &mut Vec<TaskId>) {
        self.n_completed += 1;
        for &s in &self.graph.succs[task.index()] {
            let r = &mut self.remaining_preds[s.index()];
            *r -= 1;
            if *r == 0 {
                newly.push(s);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.n_completed == self.graph.models.len()
    }

    fn model(&self, task: TaskId) -> &SpeedupModel {
        &self.graph.models[task.index()]
    }

    fn size_hint(&self) -> usize {
        self.graph.models.len()
    }
}

fn assert_same_schedule(a: &Schedule, b: &Schedule, ctx: &str) {
    assert_eq!(a.makespan, b.makespan, "{ctx}: makespans differ");
    assert_eq!(
        a.placements, b.placements,
        "{ctx}: placements differ (start order or widths)"
    );
}

/// Run `g` through the frozen-CSR fast path and through the legacy
/// instance, with identically configured schedulers, and compare.
fn differential(g: &TaskGraph, p_total: u32, mu: f64, ctx: &str) {
    let mut fast = OnlineScheduler::with_mu(mu);
    let a = simulate(g, &mut fast, &SimOptions::new(p_total)).unwrap();
    a.validate(g).unwrap();

    let nested = thaw(g);
    let mut legacy = LegacyInstance::new(&nested);
    let mut slow = OnlineScheduler::with_mu(mu);
    let b = simulate_instance(&mut legacy, &mut slow, &SimOptions::new(p_total)).unwrap();

    assert_same_schedule(&a, &b, ctx);
}

#[test]
fn frozen_engine_matches_legacy_on_generator_shapes() {
    // The seeded shapes named in the experiment configs, plus the
    // remaining generators at a smaller size — every shape family
    // exercises a distinct CSR layout (chains, fans, trees,
    // butterflies, dense kernels).
    let cases: &[(&str, u32)] = &[
        ("layered", 12),
        ("fft", 5),
        ("cholesky", 8),
        ("chain", 20),
        ("independent", 20),
        ("fork-join", 6),
        ("in-tree", 5),
        ("out-tree", 5),
        ("random", 40),
        ("lu", 6),
        ("wavefront", 7),
    ];
    for &(shape, size) in cases {
        for seed in [7u64, 42] {
            for class in [ModelClass::Roofline, ModelClass::Amdahl] {
                let p = 32;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                differential(
                    &g,
                    p,
                    class.optimal_mu(),
                    &format!("{shape}/{size} seed={seed} {class:?}"),
                );
            }
        }
    }
}

#[test]
fn frozen_engine_matches_legacy_on_lower_bound_instances() {
    // The Section 5 constructions are the instances most sensitive to
    // revelation order: their proofs depend on B-tasks being revealed
    // before the next A-task. Run each theorem's witness through both
    // paths at the sizes the experiment harness uses.
    let instances = [
        ("roofline-17", roofline::instance(17)),
        ("roofline-64", roofline::instance(64)),
        ("communication-12", communication::instance(12)),
        ("communication-47", communication::instance(47)),
        ("amdahl-k5", amdahl::instance(5)),
        ("general-k6", general::instance(6)),
    ];
    for (name, inst) in instances {
        differential(&inst.graph, inst.p_total, inst.mu, name);
        // The frozen path must still realize the theorem's ratio.
        let (_, ratio) = inst.run_online();
        assert!(ratio >= 1.0, "{name}: ratio {ratio} below 1");
    }
}

#[test]
fn frozen_engine_matches_legacy_on_figure_graphs() {
    // Figure 3's chain bundle (Theorem 9's static skeleton) and the
    // Figure 1 generic layered graph at an off-theorem size.
    for l in [2u32, 3, 4] {
        let (g, _) = arbitrary::fig3_graph(l);
        let p = arbitrary::params(l).p_total;
        differential(&g, p, 0.3, &format!("fig3 l={l}"));
    }
    let inst = generic::GenericInstance::build(
        4,
        3,
        &SpeedupModel::amdahl(8.0, 0.25).unwrap(),
        &SpeedupModel::roofline(4.0, 2).unwrap(),
        SpeedupModel::amdahl(2.0, 0.1).unwrap(),
    );
    differential(&inst.graph, 16, 0.3, "generic 4x3");
}

#[test]
fn frozen_engine_matches_legacy_on_random_dags() {
    // Density sweep over layered-random DAGs with mixed model classes:
    // the shapes above are all structured; this covers irregular
    // adjacency (empty succ lists, high-degree hubs, cross-layer
    // skips).
    let dist = ParamDistribution::default();
    for case in 0..8u64 {
        let p_total = 24;
        let class = ModelClass::General;
        let mut mrng = StdRng::seed_from_u64(case * 131 + 17);
        let mut assign = gen::weighted_sampler(class, dist.clone(), p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case * 37 + 5);
        let density = 0.1 + 0.1 * (case as f64);
        let g = gen::layered_random(5, 9, density, &mut srng, &mut assign);
        differential(&g, p_total, 0.25, &format!("random-dag case {case}"));
    }
}

#[test]
fn thaw_roundtrips_structure_exactly() {
    // The rebuild helper itself must be faithful, or the differential
    // proves nothing: thaw(g)'s nested lists hold g's adjacency, and
    // replaying them through the checked builder API reproduces g's
    // CSR arrays.
    for (shape, size) in [("cholesky", 8u32), ("fft", 5), ("layered", 10)] {
        let g = gen::by_name(shape, size, ModelClass::Amdahl, 16, 3).unwrap();
        let nested = thaw(&g);
        let mut b = GraphBuilder::with_capacity(g.n_tasks());
        for m in &nested.models {
            b.add_task(m.clone());
        }
        for t in g.task_ids() {
            for &s in &nested.succs[t.index()] {
                b.add_edge(t, s).expect("frozen graphs are acyclic");
            }
        }
        let g2 = b.freeze();
        assert_eq!(g.n_tasks(), g2.n_tasks(), "{shape}");
        assert_eq!(g.n_edges(), g2.n_edges(), "{shape}");
        assert_eq!(g.sources(), g2.sources(), "{shape}");
        for t in g.task_ids() {
            // Succ order is the revelation order and must survive
            // exactly. Pred lists are only ever *counted* (never
            // iterated in order), and the rebuild's global edge
            // sequence differs from the generator's, so preds compare
            // as sets.
            assert_eq!(g.succs(t), nested.succs[t.index()], "{shape} {t}");
            assert_eq!(g.succs(t), g2.succs(t), "{shape} {t}");
            let mut p1 = g.preds(t).to_vec();
            let mut p2 = nested.preds[t.index()].clone();
            p1.sort_unstable_by_key(|t| t.0);
            p2.sort_unstable_by_key(|t| t.0);
            assert_eq!(p1, p2, "{shape} {t}");
            assert_eq!(g2.preds(t), nested.preds[t.index()], "{shape} {t}");
        }
    }
}

//! Schedule pins for the online scheduler's hot path: the indexed
//! ready queue and the memoized allocator.
//!
//! These are the safety net for the O(n log n) hot path — fast,
//! deterministic, and always on (unlike the `slow-tests` property
//! suites). Each test runs its instances through `OnlineScheduler`
//! (indexed queue + `AllocCache`) under every queue policy and folds
//! the schedules' FNV-1a-64 fingerprints, in order, into one pinned
//! value. The pins were recorded while the sorted-`Vec` reference
//! queue still existed and produced the same schedules byte for byte,
//! so they hold the indexed queue to the reference's start orders,
//! widths and makespans on random DAGs, structured graphs, tie-heavy
//! batches, deep queues, and the paper's lower-bound constructions.

use moldable_core::{allocate, AllocCache, OnlineScheduler, QueuePolicy};
use moldable_graph::{gen, GraphBuilder, TaskGraph};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel, MU_MAX};
use moldable_sim::{simulate, Schedule, SimOptions};

const POLICIES: [QueuePolicy; 5] = [
    QueuePolicy::Fifo,
    QueuePolicy::ShortestFirst,
    QueuePolicy::LongestFirst,
    QueuePolicy::SmallestAllocFirst,
    QueuePolicy::LargestAllocFirst,
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 over each placement's task, start/end/released bits and
/// processor count, little-endian in placement order, then the
/// makespan bits (`online_schedule_pins.rs`'s fingerprint; no
/// processor ids are recorded here).
fn fingerprint(s: &Schedule) -> u64 {
    let mut h = FNV_OFFSET;
    for pl in &s.placements {
        h = fnv1a(h, &pl.task.0.to_le_bytes());
        h = fnv1a(h, &pl.start.to_bits().to_le_bytes());
        h = fnv1a(h, &pl.end.to_bits().to_le_bytes());
        h = fnv1a(h, &pl.released.to_bits().to_le_bytes());
        h = fnv1a(h, &pl.procs.to_le_bytes());
    }
    fnv1a(h, &s.makespan.to_bits().to_le_bytes())
}

/// The schedules of one test, fingerprinted in run order.
#[derive(Default)]
struct Pin {
    cases: Vec<(String, u64)>,
}

impl Pin {
    /// Run one graph under one policy, validate the schedule and
    /// record its fingerprint.
    fn run(&mut self, g: &TaskGraph, p_total: u32, mu: f64, policy: QueuePolicy, ctx: &str) {
        let mut s = OnlineScheduler::with_mu(mu).with_policy(policy);
        let a = simulate(g, &mut s, &SimOptions::new(p_total)).unwrap();
        a.validate(g).unwrap();
        self.cases.push((ctx.to_owned(), fingerprint(&a)));
    }

    /// Assert the fold of every case fingerprint, in run order, equals
    /// `pin`; on a mismatch, print each case's fingerprint so the first
    /// diverging case can be read off.
    fn check(&self, pin: u64) {
        let got = self
            .cases
            .iter()
            .fold(FNV_OFFSET, |h, (_, f)| fnv1a(h, &f.to_le_bytes()));
        if got != pin {
            let rows: Vec<String> = self
                .cases
                .iter()
                .map(|(ctx, f)| format!("  {f:#018x}  {ctx}"))
                .collect();
            panic!(
                "schedule pin {got:#018x} != pinned {pin:#018x} over {} cases:\n{}",
                self.cases.len(),
                rows.join("\n")
            );
        }
    }
}

#[test]
fn random_dag_schedules_are_pinned() {
    let mut pin = Pin::default();
    let dist = ParamDistribution::default();
    for case in 0..24u64 {
        let mut crng = StdRng::seed_from_u64(0xD1FF ^ case);
        let class = [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ][crng.gen_range(0usize..5)];
        let p_total = crng.gen_range(2u32..96);
        let layers = crng.gen_range(2usize..8);
        let width = crng.gen_range(1usize..12);
        let density = crng.gen_range(0.1f64..0.9);
        let mu = crng.gen_range(0.05f64..MU_MAX);

        let mut mrng = StdRng::seed_from_u64(case * 71 + 3);
        let mut assign = gen::weighted_sampler(class, dist.clone(), p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case * 31 + 1);
        let g = gen::layered_random(layers, width, density, &mut srng, &mut assign);

        for policy in POLICIES {
            pin.run(&g, p_total, mu, policy, &format!("case {case} {policy:?}"));
        }
    }
    pin.check(0x555c_6c71_c915_7a44);
}

#[test]
fn structured_graph_schedules_are_pinned() {
    let mut pin = Pin::default();
    let p_total = 32;
    type Assign<'a> = &'a mut dyn FnMut(gen::TaskCtx<'_>) -> SpeedupModel;
    let build = |class: ModelClass, seed: u64, make: &dyn Fn(Assign<'_>) -> TaskGraph| {
        let mut mrng = StdRng::seed_from_u64(seed);
        let mut assign =
            gen::weighted_sampler(class, ParamDistribution::default(), p_total, &mut mrng);
        make(&mut assign)
    };
    let graphs: [(&str, TaskGraph); 4] = [
        (
            "fork_join",
            build(ModelClass::General, 0x57A7, &|a| gen::fork_join(12, 4, a)),
        ),
        (
            "fft",
            build(ModelClass::Amdahl, 0x57A8, &|a| gen::fft(4, a)),
        ),
        (
            "lu",
            build(ModelClass::Communication, 0x57A9, &|a| gen::lu(6, a)),
        ),
        (
            "independent",
            build(ModelClass::Roofline, 0x57AA, &|a| gen::independent(64, a)),
        ),
    ];
    for (name, g) in graphs {
        for policy in POLICIES {
            pin.run(&g, p_total, MU_MAX, policy, &format!("{name} {policy:?}"));
        }
    }
    pin.check(0x07ad_71d1_9f90_0461);
}

#[test]
fn equal_duration_completion_batches_are_pinned() {
    let mut pin = Pin::default();
    // Many identical tasks completing at the same instant stress the
    // decision-point batching: every policy primary is tied, so the
    // release-sequence tiebreak alone determines the start order.
    let mut g = GraphBuilder::new();
    let mut roots = Vec::new();
    for _ in 0..16 {
        roots.push(g.add_task(SpeedupModel::roofline(4.0, 2).unwrap()));
    }
    // A second wave fanning in/out of the first: each child depends on
    // two parents, all durations equal.
    for i in 0..24 {
        let c = g.add_task(SpeedupModel::roofline(4.0, 2).unwrap());
        g.add_edge(roots[i % 16], c).unwrap();
        g.add_edge(roots[(i + 5) % 16], c).unwrap();
    }
    let g = g.freeze();
    for p_total in [3u32, 8, 13, 64] {
        for policy in POLICIES {
            pin.run(&g, p_total, 0.3, policy, &format!("P={p_total} {policy:?}"));
        }
    }
    pin.check(0xdae7_aa3d_0094_c759);
}

#[test]
fn tiny_platform_and_serial_queue_schedules_are_pinned() {
    let mut pin = Pin::default();
    // P = 1 forces everything through the queue one task at a time —
    // maximal queue residency, worst case for ordering bugs.
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(0x0001);
    let mut assign = gen::weighted_sampler(ModelClass::Arbitrary, dist, 4, &mut mrng);
    let mut srng = StdRng::seed_from_u64(2);
    let g = gen::layered_random(6, 6, 0.3, &mut srng, &mut assign);
    for policy in POLICIES {
        pin.run(&g, 1, 0.2, policy, &format!("P=1 {policy:?}"));
        pin.run(&g, 2, 0.2, policy, &format!("P=2 {policy:?}"));
    }
    pin.check(0x6667_9300_e8f1_53ba);
}

#[test]
fn deep_queues_across_the_spill_threshold_are_pinned() {
    let mut pin = Pin::default();
    // 3000 independent tasks on a small platform hold thousands of
    // waiting tasks at once, over a hundred per allocation bucket on
    // average. Under FIFO and the two allocation policies every key
    // appends to its bucket's run; under the two duration policies most
    // keys arrive out of order and go through the buckets' heaps. None
    // of it may move a schedule. (The pin was recorded when this depth
    // crossed the earlier position-indexed queue's spill threshold.)
    let dist = ParamDistribution::default();
    let p_total = 24;
    let mut mrng = StdRng::seed_from_u64(0xDEE9);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let g = gen::independent(3000, &mut assign);
    for policy in POLICIES {
        pin.run(&g, p_total, MU_MAX, policy, &format!("deep {policy:?}"));
    }
    pin.check(0x328b_427c_9a1e_6215);
}

#[test]
fn adversary_instance_schedules_are_pinned() {
    let mut pin = Pin::default();
    // The paper's own lower-bound constructions are the nastiest
    // instances we know how to build: they are engineered to force the
    // algorithm into pathological allocation patterns, so any ordering
    // divergence between the queues shows up here first. Run each
    // instance at its proof μ and at a second, off-proof μ.
    use moldable_adversary as adversary;

    let instances: Vec<(&str, moldable_adversary::LowerBoundInstance)> = vec![
        ("roofline P=17", adversary::roofline::instance(17)),
        ("roofline P=64", adversary::roofline::instance(64)),
        ("communication P=12", adversary::communication::instance(12)),
        ("communication P=47", adversary::communication::instance(47)),
        ("amdahl K=5", adversary::amdahl::instance(5)),
        ("general K=6", adversary::general::instance(6)),
    ];
    for (name, inst) in &instances {
        for policy in POLICIES {
            pin.run(
                &inst.graph,
                inst.p_total,
                inst.mu,
                policy,
                &format!("{name} proof-mu {policy:?}"),
            );
            pin.run(
                &inst.graph,
                inst.p_total,
                (inst.mu * 0.5).max(0.05),
                policy,
                &format!("{name} off-mu {policy:?}"),
            );
        }
    }
    pin.check(0xaa68_5108_8b80_d3b5);
}

#[test]
fn fig3_chain_graph_schedules_are_pinned() {
    let mut pin = Pin::default();
    // Theorem 9's chain forest (Figure 3): thousands of equal-duration
    // chain tasks whose releases arrive in large simultaneous batches —
    // a worst case for tie-breaking inside the ready queue.
    use moldable_adversary::arbitrary;

    for l in [1u32, 2] {
        let pr = arbitrary::params(l);
        let (g, chains) = arbitrary::fig3_graph(l);
        assert_eq!(g.n_tasks() as u64, pr.n_tasks, "l={l}: task count");
        assert_eq!(chains.len() as u64, pr.n_chains, "l={l}: chain count");
        for policy in POLICIES {
            pin.run(
                &g,
                pr.p_total,
                MU_MAX,
                policy,
                &format!("fig3 l={l} {policy:?}"),
            );
            // Starved platform: far fewer processors than the
            // construction assumes, so the queue stays deep.
            pin.run(
                &g,
                3,
                0.15,
                policy,
                &format!("fig3-starved l={l} {policy:?}"),
            );
        }
    }
    pin.check(0x6894_9f1a_7bf7_03fd);
}

#[test]
fn memoized_allocator_matches_direct_allocate() {
    let dist = ParamDistribution::default();
    for case in 0..8u64 {
        let mut crng = StdRng::seed_from_u64(0xA110C ^ case);
        let p_total = crng.gen_range(1u32..128);
        let mu = crng.gen_range(0.05f64..MU_MAX);
        let mut cache = AllocCache::new(p_total, mu);
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mut mrng = StdRng::seed_from_u64(case * 131 + 7);
            for _ in 0..40 {
                let m = dist.sample(class, p_total, &mut mrng);
                let direct = allocate(&m, p_total, mu);
                assert_eq!(cache.allocate(&m), direct, "cold, {class}, case {case}");
                assert_eq!(cache.allocate(&m), direct, "hot, {class}, case {case}");
            }
        }
    }
}

#[test]
fn scheduler_with_cache_matches_uncached_decisions() {
    // End to end: the scheduler's cached release path must record the
    // exact decisions `allocate` would make task by task.
    let dist = ParamDistribution::default();
    let p_total = 48;
    let mu = ModelClass::General.optimal_mu();
    let mut mrng = StdRng::seed_from_u64(0xCAFE);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let mut srng = StdRng::seed_from_u64(0xBEEF);
    let g = gen::layered_random(6, 10, 0.4, &mut srng, &mut assign);
    let mut s = OnlineScheduler::with_mu(mu).record_decisions(true);
    let sched = simulate(&g, &mut s, &SimOptions::new(p_total)).unwrap();
    sched.validate(&g).unwrap();
    for t in g.task_ids() {
        let d = s.decision(t).expect("recorded");
        assert_eq!(d, allocate(g.model(t), p_total, mu), "task {t:?}");
    }
}

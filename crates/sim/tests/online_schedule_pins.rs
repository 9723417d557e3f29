//! Online-scheduler schedule pins: every instance below runs through
//! [`simulate`] with a freshly built [`OnlineScheduler`], and its
//! schedule must hash to a pinned FNV-1a-64 value — once plain and
//! once with processor-id recording on.
//!
//! The pins were recorded while a second, batched engine still existed
//! and produced byte-equal schedules on every one of these instances,
//! so they hold the engine to the revelation order, tie-breaks and
//! allocations that both engines agreed on. The instances cover every
//! generator shape (chains never batch completions, independent sets
//! batch maximally, trees and butterflies batch per level), the
//! paper's lower-bound constructions (the most sensitive to
//! revelation order), and random layered DAGs with near-equal
//! durations that produce accidental ties.
//!
//! The last test pins run grouping, one of the release path's two
//! shortcuts, by count rather than by timing: the allocation-cache
//! probes of a run are a pure function of the input. The other
//! shortcut, the cache bypass, is pinned the same way in
//! `moldable_core`'s `online` unit tests.

use moldable_adversary::{amdahl, arbitrary, communication, general, generic, roofline};
use moldable_core::OnlineScheduler;
use moldable_graph::{gen, GraphBuilder, TaskGraph};
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::{simulate, Schedule, SimOptions};

/// FNV-1a-64 over each placement's task, start/end/released bits,
/// processor count and processor ranges (empty unless ids were
/// recorded), little-endian in placement order, then the makespan bits.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for pl in &s.placements {
        eat(&pl.task.0.to_le_bytes());
        eat(&pl.start.to_bits().to_le_bytes());
        eat(&pl.end.to_bits().to_le_bytes());
        eat(&pl.released.to_bits().to_le_bytes());
        eat(&pl.procs.to_le_bytes());
        for &(lo, hi) in &pl.proc_ranges {
            eat(&lo.to_le_bytes());
            eat(&hi.to_le_bytes());
        }
    }
    eat(&s.makespan.to_bits().to_le_bytes());
    h
}

/// Assert `s` hashes to `pin`; on a mismatch, print the whole schedule
/// so the first diverging placement can be read off.
fn assert_pinned(s: &Schedule, pin: u64, ctx: &str) {
    let got = fingerprint(s);
    if got != pin {
        let rows: Vec<String> = s
            .placements
            .iter()
            .map(|pl| {
                format!(
                    "  {} start={:?} end={:?} released={:?} procs={} ranges={:?}",
                    pl.task, pl.start, pl.end, pl.released, pl.procs, pl.proc_ranges
                )
            })
            .collect();
        panic!(
            "{ctx}: schedule fingerprint {got:#018x} != pinned {pin:#018x}\n\
             makespan={:?}\n{}",
            s.makespan,
            rows.join("\n")
        );
    }
}

/// Run `g` under the online scheduler with `mu`, plain and with
/// processor ids, validate both, and check them against `(plain, ids)`.
fn pinned(g: &TaskGraph, p_total: u32, mu: f64, pins: (u64, u64), ctx: &str) -> Schedule {
    let plain = simulate(
        g,
        &mut OnlineScheduler::with_mu(mu),
        &SimOptions::new(p_total),
    )
    .unwrap();
    plain.validate(g).unwrap();
    assert_pinned(&plain, pins.0, ctx);
    let opts = SimOptions::new(p_total).with_proc_ids();
    let ids = simulate(g, &mut OnlineScheduler::with_mu(mu), &opts).unwrap();
    assert_pinned(&ids, pins.1, &format!("{ctx} (proc ids)"));
    plain
}

/// `(plain, with proc ids)` fingerprints, in the loop order of
/// `online_schedules_are_pinned_on_generator_shapes`: shape, then seed
/// 7 and 42, then Roofline and Amdahl.
#[rustfmt::skip]
const SHAPE_PINS: [(u64, u64); 44] = [
    (0xa85e_5d6f_6fe4_8f20, 0x378e_d639_a7bb_9d9a),
    (0x0137_37da_9788_9117, 0x5406_1d97_aea7_6108),
    (0x52c5_15f2_67ef_52ce, 0xb6f1_8f5e_1454_94a7),
    (0xace0_a4a4_66b3_3bbf, 0x18d6_d1c2_3633_0467),
    (0x4514_cc66_7f48_8b53, 0xc1d1_f66c_70fb_977c),
    (0x5cac_bd6e_d857_2e32, 0x6b94_f7fb_6b85_d87a),
    (0xc500_992f_e21c_e69d, 0x7cf8_7c1d_8976_86fe),
    (0x55a6_4058_b485_9b16, 0x7872_4bba_6c71_2464),
    (0xc175_a922_87e2_e883, 0x3959_8ee2_a178_e0d6),
    (0x35b7_e675_ace9_a209, 0x3d0e_f116_22a1_60b1),
    (0xf491_6437_f36b_0697, 0x689f_aa90_a1f0_543f),
    (0xcb87_1a15_76f1_d347, 0x257e_ddae_b17a_688e),
    (0xd4ee_9d99_8014_d54b, 0x9f09_c2c0_8686_d166),
    (0xe92b_2d16_a96d_bcdd, 0xeaf6_a85e_8320_7d63),
    (0x4e8f_1d22_386e_da06, 0x960d_b4a7_7edb_d3a4),
    (0xf7ec_432e_22ce_459c, 0xda00_8021_a78c_182f),
    (0x4185_d2eb_17f3_9504, 0x1b81_44ce_f68f_1dcf),
    (0xb5a8_41f6_b041_3758, 0xf1a2_9cbb_7315_dd54),
    (0xabde_20bc_3cb7_a025, 0x6641_d6c8_a4c4_139f),
    (0x4f72_dfce_e9c7_6c56, 0x00d1_546b_efb0_4fb5),
    (0x50e1_3213_aed7_e417, 0xce2a_70d5_f57e_a691),
    (0x98ad_062e_98e6_d20a, 0x4ecf_f22f_3cba_e00b),
    (0x0a96_2f67_1105_4331, 0x41ee_583b_95f2_d9df),
    (0x8033_5af3_a159_a715, 0xa7c1_424f_8f70_71a9),
    (0x257a_e28c_d7a7_19ba, 0x4d60_4439_a87c_a351),
    (0xa8e6_9e82_2166_f8a9, 0xb0c3_8d1d_c1ba_9383),
    (0x20bc_0f94_c619_9b79, 0x8405_8536_438e_a957),
    (0x01e3_3bf6_09e5_934d, 0xc5f0_a264_02aa_feb0),
    (0x3c5f_14e4_6ff1_40f7, 0xa7a9_866d_bf8e_d719),
    (0x7c5d_2cde_a59f_fdf0, 0xd351_f7d0_5102_97b2),
    (0x48e1_40da_4151_b0dd, 0x1064_bfde_efbd_2a13),
    (0x0df8_5420_56af_5ba3, 0x21b6_edf0_6d73_98b2),
    (0x032f_1ad0_465e_b7bc, 0x9f88_e3e1_33c3_5a6d),
    (0x347b_6e14_2947_87e8, 0x51fe_35b8_b568_241d),
    (0x3bb6_6d9b_1063_4c46, 0xdaef_9591_4d09_b451),
    (0x7226_816b_49e5_cba1, 0x9a92_51fe_7ab0_6cfd),
    (0x7b29_d5ae_e1d5_2d03, 0xa428_e4de_9567_d095),
    (0x89a3_0158_f9fc_79fa, 0x0253_1c5b_f426_0f7f),
    (0x3f0a_9128_8f2a_9c62, 0x8af3_8f4a_be3f_105d),
    (0xc3ae_ebcf_2658_21fb, 0x9e0b_031f_db02_22c2),
    (0xbaaa_5753_a21b_3f04, 0x902b_904e_8de3_4d2b),
    (0x73b1_4e1e_552b_30b6, 0xfd44_1770_bd1f_d9ad),
    (0xcbb9_1b97_9acd_0264, 0xbdff_4e34_7536_6d6f),
    (0x3db4_efd0_ab5b_7491, 0x1934_8a15_a03b_161d),
];

#[test]
fn online_schedules_are_pinned_on_generator_shapes() {
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
    let mut pins = SHAPE_PINS.iter();
    for &(shape, size) in cases {
        for seed in [7u64, 42] {
            for class in [ModelClass::Roofline, ModelClass::Amdahl] {
                let p = 32;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                let ctx = format!("{shape}/{size} seed={seed} {class:?}");
                let pin = *pins.next().expect("one pin per case");
                pinned(&g, p, class.optimal_mu(), pin, &ctx);
            }
        }
    }
    assert!(pins.next().is_none(), "unused pins");
}

/// Fingerprints of the Section 5 constructions, in table order.
#[rustfmt::skip]
const LOWER_BOUND_PINS: [(u64, u64); 6] = [
    (0x24eb_03f7_71ca_b042, 0xa06c_a91e_5428_8c24),
    (0x61ad_93e0_b672_f8d8, 0x9842_dbf5_4667_fd60),
    (0x44fa_1801_6788_bb7c, 0xe7de_e450_2958_77a6),
    (0x6f73_3039_d493_bb72, 0xaaa4_d0e3_b2d4_60ce),
    (0x229a_88a8_534d_e782, 0x0c10_b467_ce84_386a),
    (0xb7ed_4479_5b68_ed49, 0x9d00_d6ac_ec80_4c5f),
];

#[test]
fn online_schedules_are_pinned_on_lower_bound_instances() {
    // Their proofs depend on B-tasks being revealed before the next
    // A-task, and identical-length stages put every completion in a
    // multi-event batch.
    let instances = [
        ("roofline-17", roofline::instance(17)),
        ("roofline-64", roofline::instance(64)),
        ("communication-12", communication::instance(12)),
        ("communication-47", communication::instance(47)),
        ("amdahl-k5", amdahl::instance(5)),
        ("general-k6", general::instance(6)),
    ];
    for ((name, inst), pin) in instances.iter().zip(LOWER_BOUND_PINS) {
        pinned(&inst.graph, inst.p_total, inst.mu, pin, name);
    }
}

/// Figure 3 at ℓ = 2, 3, 4, then the generic 4×3 graph.
#[rustfmt::skip]
const FIGURE_PINS: [(u64, u64); 4] = [
    (0x0355_5a11_4e94_3dce, 0x4b37_9f5b_2c8c_0b2e),
    (0xfc5d_fe76_28b3_a608, 0x9935_a998_ec21_3d95),
    (0xedb5_b15d_adc0_9be5, 0xb9ef_4f67_7d9a_0169),
    (0x17a2_ba39_ea72_cf7d, 0x668b_1c0b_977e_e33d),
];

#[test]
fn online_schedules_are_pinned_on_figure_graphs() {
    // Figure 3's chain bundle (Theorem 9's static skeleton) and the
    // Figure 1 generic layered graph at an off-theorem size.
    for (l, pin) in [2u32, 3, 4].into_iter().zip(FIGURE_PINS) {
        let (g, _) = arbitrary::fig3_graph(l);
        let p = arbitrary::params(l).p_total;
        pinned(&g, p, 0.3, pin, &format!("fig3 l={l}"));
    }
    let inst = generic::GenericInstance::build(
        4,
        3,
        &SpeedupModel::amdahl(8.0, 0.25).unwrap(),
        &SpeedupModel::roofline(4.0, 2).unwrap(),
        SpeedupModel::amdahl(2.0, 0.1).unwrap(),
    );
    pinned(&inst.graph, 16, 0.3, FIGURE_PINS[3], "generic 4x3");
}

/// Dense layered-random cases 0..8, then sparse-layered cases 0..4.
#[rustfmt::skip]
const RANDOM_PINS: [(u64, u64); 12] = [
    (0xf24d_bcae_d11d_7032, 0x9daf_6595_0529_e3c1),
    (0x9895_b284_912c_89a4, 0x21a2_4ef0_f020_3691),
    (0x65fb_cdf3_cc15_8d20, 0x6ced_569e_bb11_0bf0),
    (0xd7e9_3a71_95ca_4bb4, 0xc320_8c6d_6996_b8a6),
    (0xafcd_392a_e26e_9d88, 0x3bea_6f23_d4c5_0db4),
    (0xf9e8_1e2e_ae5b_dd82, 0x6275_7f23_7d2a_28f8),
    (0xd07a_2d0c_9b4b_8f3e, 0xd8a1_d7c1_705b_ae9b),
    (0x0e74_17c6_1c1d_b8fe, 0x029f_1eb1_d95d_68dd),
    (0xe708_7124_3b9d_c2a6, 0xd93a_e83f_47b1_3504),
    (0xaee8_57be_6057_7f7d, 0x751e_55b5_b5f2_139c),
    (0x7ff0_b254_e6bd_f3bb, 0x88a7_7b58_8893_e1f6),
    (0xe99a_1e4b_8dd1_a3be, 0x12cc_2c66_b460_12db),
];

#[test]
fn online_schedules_are_pinned_on_random_dags() {
    // Density sweep over layered-random DAGs with mixed General-class
    // models: irregular adjacency (empty succ lists, high-degree hubs)
    // plus near-equal durations that produce accidental ties.
    let mut pins = RANDOM_PINS.iter();
    let dist = ParamDistribution::default();
    for case in 0..8u64 {
        let p_total = 24;
        let class = ModelClass::General;
        let mut mrng = StdRng::seed_from_u64(case * 131 + 17);
        let mut assign = gen::weighted_sampler(class, dist.clone(), p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case * 37 + 5);
        let density = 0.1 + 0.1 * (case as f64);
        let g = gen::layered_random(5, 9, density, &mut srng, &mut assign);
        let pin = *pins.next().expect("one pin per case");
        pinned(&g, p_total, 0.25, pin, &format!("random-dag case {case}"));
    }
    // The sparse generator feeds the million-task bench.
    for case in 0..4u64 {
        let p_total = 24;
        let mut mrng = StdRng::seed_from_u64(case + 900);
        let dist = ParamDistribution::default();
        let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case + 77);
        let g = gen::layered_random_sparse(8, 24, 0.08, &mut srng, &mut assign);
        let pin = *pins.next().expect("one pin per case");
        pinned(
            &g,
            p_total,
            0.25,
            pin,
            &format!("sparse-layered case {case}"),
        );
    }
    assert!(pins.next().is_none(), "unused pins");
}

/// A model with `time(p) = w` for every `p`: Algorithm 2 allocates a
/// single processor and the duration is exact in binary arithmetic, so
/// finish times collide bit-for-bit by construction.
fn constant(w: f64) -> SpeedupModel {
    SpeedupModel::amdahl(0.0, w).unwrap()
}

const TIE_BREAK_PIN: (u64, u64) = (0xe005_7fc7_9389_6211, 0xcf61_23c3_4bfe_d4b1);

#[test]
fn simultaneous_finish_tie_break_is_pinned() {
    // Crafted instance: three sources finish at *exactly* t = 2.0 (the
    // durations are powers of two, so equality is bit-exact, not
    // approximate). Each source reveals two children; only 2 of the 6
    // children fit at once (P = 2, one processor each), so the start
    // order of the children is decided purely by revelation order and
    // queue tie-breaks: successors are revealed in completion-event
    // order (source id order here) and children start in
    // release-sequence order.
    let mut b = GraphBuilder::with_capacity(9);
    let s0 = b.add_task(constant(2.0));
    let s1 = b.add_task(constant(2.0));
    let s2 = b.add_task(constant(2.0));
    let mut children = Vec::new();
    for (i, &s) in [s0, s1, s2].iter().enumerate() {
        for j in 0..2 {
            // Distinct power-of-two durations so a reordering would
            // visibly change start times, not just task labels.
            let c = b.add_task(constant(0.25 * (1 + 2 * i + j) as f64));
            b.add_edge(s, c).unwrap();
            children.push(c);
        }
    }
    let g = b.freeze();
    let s = pinned(&g, 2, 0.3, TIE_BREAK_PIN, "tie-break pin");

    let order: Vec<u32> = s.placements.iter().map(|p| p.task.0).collect();
    // t=0: s0, s1 start (P=2). t=2: both finish in one batch, reveal
    // c0..c3 in source-id order; s2 was released first so it starts
    // first, then c0. t=4: s2 finishes revealing c4, c5; the queue
    // holds c1, c2, c3, c4, c5 and starts drain in release order as
    // processors free up.
    assert_eq!(order[..2], [s0.0, s1.0], "sources start in id order");
    assert_eq!(order[2], s2.0, "third source starts at the first batch");
    assert_eq!(
        order[3..5],
        [children[0].0, children[1].0],
        "children revealed by the t=2 batch start in revelation order"
    );
    let starts: Vec<f64> = s.placements.iter().map(|p| p.start).collect();
    assert_eq!(starts[..2], [0.0, 0.0]);
    assert_eq!(starts[2], 2.0, "s2 starts the instant s0/s1 finish");
}

#[test]
fn runs_of_equal_models_are_allocated_once() {
    // The Theorem 6 witness reveals its tasks in long runs that share
    // one model. The release path reuses the previous decision for a
    // bitwise-equal model, so the allocation cache is probed fewer
    // times than there are tasks.
    let inst = communication::instance(47);
    let mut s = OnlineScheduler::with_mu(inst.mu);
    simulate(&inst.graph, &mut s, &SimOptions::new(inst.p_total)).unwrap();
    let probes = s.take_alloc_cache().expect("init built a cache").probes();
    let tasks = inst.graph.n_tasks() as u64;
    assert!(probes < tasks, "{probes} probes for {tasks} tasks");
}

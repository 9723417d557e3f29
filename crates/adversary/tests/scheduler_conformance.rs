//! Cross-scheduler conformance harness.
//!
//! Every algorithm registered in [`moldable_core::registry`] is run
//! through the same gauntlet, so adding a scheduler to the registry
//! automatically subjects it to the full certification matrix:
//!
//! 1. **Schedule pins** — over generator shapes × seeds × speedup
//!    classes, on the Figure 3 chain forests, on the tiny instances
//!    and on the random property cases, each algorithm's schedule must
//!    hash to an FNV-1a-64 value recorded while a second, batched
//!    engine still existed and agreed byte for byte with
//!    [`moldable_sim::simulate`].
//! 2. **Envelope compliance** — on each Theorem 5–8 witness and on the
//!    Figure 3 chain forests, the measured competitive ratio must stay
//!    at or below the algorithm's proven upper bound
//!    ([`moldable_core::AlgoName::proven_upper_bound`]).
//! 3. **Optimality floor** — on tiny instances the makespan must be at
//!    least the exhaustive offline optimum
//!    ([`moldable_offline::optimal_makespan`]) and at least the
//!    Lemma 2 lower bound; every schedule passes the shared validator.
//! 4. **Registry ↔ analysis cross-check** — the registry's hard-coded
//!    envelopes must round-trip against the numerically minimized
//!    bounds in [`moldable_analysis::improved`] (the analysis crate
//!    deliberately has no dependency on the core crate, so the
//!    cross-check lives here).
//!
//! A hand-rolled property harness (random layered DAGs whose tasks
//! carry speedup models sampled from
//! [`moldable_model::sample::ParamDistribution`]) feeds the same
//! matrix with random valid model parameters and, on failure, shrinks
//! to a *minimal* failing `(graph, model, P)` triple before reporting.

use moldable_adversary::{amdahl, arbitrary, communication, general, roofline, LowerBoundInstance};
use moldable_core::registry::ALGOS;
use moldable_core::{AlgoName, OnlineScheduler};
use moldable_graph::{gen, TaskGraph};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;
use moldable_offline::{optimal_makespan, BruteForceLimits};
use moldable_sim::{simulate, Schedule, SimOptions};

/// The bounded classes every envelope is proven for. `Arbitrary` is
/// excluded on purpose: Theorem 9 shows no constant ratio exists.
const BOUNDED: [ModelClass; 4] = [
    ModelClass::Roofline,
    ModelClass::Communication,
    ModelClass::Amdahl,
    ModelClass::General,
];

/// Assert `s` hashes to `pin`; on a mismatch, print the whole schedule
/// so the first diverging placement can be read off.
fn assert_pinned(s: &Schedule, pin: u64, ctx: &str) {
    let got = s.fingerprint();
    if got != pin {
        let rows: Vec<String> = s
            .placements
            .iter()
            .map(|pl| {
                format!(
                    "  {} start={:?} end={:?} released={:?} procs={}",
                    pl.task, pl.start, pl.end, pl.released, pl.procs
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

/// Run `algo` on `g` with its envelope-optimal μ for `class`, validate
/// the schedule, check it against the next pin of `pins`, and return it.
fn run_pinned(
    g: &TaskGraph,
    p_total: u32,
    algo: AlgoName,
    class: ModelClass,
    pins: &mut std::slice::Iter<'_, u64>,
    ctx: &str,
) -> Schedule {
    let mut sched = OnlineScheduler::for_algo_class(algo, class);
    let s = simulate(g, &mut sched, &SimOptions::new(p_total))
        .unwrap_or_else(|e| panic!("{ctx} [{algo}]: simulation failed: {e}"));
    s.validate(g)
        .unwrap_or_else(|e| panic!("{ctx} [{algo}]: schedule invalid: {e}"));
    let pin = *pins.next().expect("one pin per case");
    assert_pinned(&s, pin, &format!("{ctx} [{algo}]"));
    s
}

/// One pin per `(shape, seed, class, algo)`, in the loop order of
/// `every_algorithm_keeps_its_pinned_schedules_on_generator_shapes`.
#[rustfmt::skip]
const SHAPE_PINS: [u64; 176] = [
    0x660f_9c17_7289_0313, 0x660f_9c17_7289_0313, 0x4699_4afc_7dc8_d859, 0x4699_4afc_7dc8_d859,
    0x8826_fc9c_bf16_b786, 0xabbe_9797_098d_54d0, 0x7ea8_338e_8ac8_dd00, 0x7572_f260_53ff_a7d6,
    0x0cf7_c8ae_ecca_b4aa, 0x0cf7_c8ae_ecca_b4aa, 0xdd27_826c_f734_8dc5, 0xdd27_826c_f734_8dc5,
    0x8ad7_507e_ba05_6aff, 0x1319_41cd_3cb1_7a1d, 0x3c1c_2a02_2c85_12aa, 0x9211_7b47_9aa6_b449,
    0x22d8_a864_1782_6aee, 0x22d8_a864_1782_6aee, 0x9d3b_80df_c3b4_3bf6, 0x9d3b_80df_c3b4_3bf6,
    0x26bc_288e_186e_5d4d, 0x4580_d49f_2681_8053, 0xccf8_03e9_22e7_72da, 0x834f_0be1_c208_735d,
    0xbd07_2103_8381_5a62, 0xbd07_2103_8381_5a62, 0x3946_14d9_73be_690d, 0x3946_14d9_73be_690d,
    0xe3ec_d2ed_6ad2_d0aa, 0x6aa4_cdb2_39db_1dd7, 0xb6a1_716d_cd0a_b8f7, 0x9e15_7148_3614_415a,
    0x8504_9c21_5b07_810c, 0x8504_9c21_5b07_810c, 0xc757_21fe_5369_a588, 0x7af3_f423_b12f_6a45,
    0x4b77_2e03_711a_9827, 0xabc1_3ed2_ebad_08a7, 0x61a8_fff7_5595_a58d, 0x48d8_770d_6a1e_5d3d,
    0x4b46_3fd6_14ce_f867, 0x4b46_3fd6_14ce_f867, 0xe7db_3cab_47f7_2bdf, 0x95c3_5178_85a5_3cd5,
    0x0b65_ecfc_a2b9_f06c, 0x2784_3b65_8f52_085d, 0x55c0_6ecb_1c8c_c740, 0x1292_4ee1_8f6b_b078,
    0x7edc_bea5_4e7e_00c2, 0x7edc_bea5_4e7e_00c2, 0x6129_6e1c_d96a_b17f, 0x6129_6e1c_d96a_b17f,
    0xf31d_2cfc_0dad_57bb, 0x32fb_2fe1_fa58_44c5, 0x9e4e_47f6_0d40_a813, 0xa518_9ae7_f482_dfc9,
    0xaa8e_61cd_ab8a_6d51, 0xaa8e_61cd_ab8a_6d51, 0x854b_3134_1ed1_3202, 0x854b_3134_1ed1_3202,
    0x84da_ab67_ee1c_7624, 0x7936_9411_f9b0_693f, 0x1b3e_2bca_a003_5132, 0x0f28_9e14_f02c_4644,
    0x418f_93e8_28b7_188a, 0x418f_93e8_28b7_188a, 0x413c_6e83_fc52_81b9, 0x413c_6e83_fc52_81b9,
    0xf787_8e90_7cb3_92c9, 0xef07_002b_5cb7_f965, 0xc5f2_7cae_f877_b3c6, 0x9142_a6af_9c14_f942,
    0xe608_e7ea_cdc9_5282, 0xe608_e7ea_cdc9_5282, 0xa9a3_0a8c_5b9c_5cad, 0xa9a3_0a8c_5b9c_5cad,
    0xdc8d_92e8_3e7d_5660, 0x059d_87d1_c632_5018, 0x7c2b_b156_5289_7e24, 0x1709_d7fd_01d4_a9e8,
    0x70bc_bed4_9480_954a, 0x70bc_bed4_9480_954a, 0x0c3c_c938_49fb_6d29, 0xc4f9_6c2d_d27b_bda4,
    0xa76d_0978_6beb_3b1d, 0x03fd_9e39_923f_4fd8, 0xf80e_8ec2_cb93_3cd1, 0xf901_853c_bbc9_b068,
    0xd7fa_457b_8a49_5ff7, 0xd7fa_457b_8a49_5ff7, 0x5acd_590e_118c_acb3, 0x70e1_9f40_17fc_4dcf,
    0xe5f2_a5a4_e04d_8e71, 0x089f_1fe5_44e5_b992, 0x0035_8c45_d3e5_1fdd, 0x8d6b_ec3d_4eb7_e8ea,
    0x105e_bbdf_ac76_dabc, 0x105e_bbdf_ac76_dabc, 0xec00_0611_0f1e_9a3a, 0xec00_0611_0f1e_9a3a,
    0xd55b_502a_c479_be78, 0x9498_723b_b3e9_5e5d, 0xc741_df34_b207_9821, 0x6321_ea82_e138_10dc,
    0xf7de_3e8b_4bc1_6acc, 0xf7de_3e8b_4bc1_6acc, 0xde28_a9d7_c7d0_59f4, 0xde28_a9d7_c7d0_59f4,
    0xfd9a_6340_7234_149d, 0x1a89_49ff_327c_8bb3, 0x63b0_97b4_267e_6a2c, 0x5ca6_d8c5_6d70_2899,
    0xaefe_fdb9_7cbd_503f, 0xaefe_fdb9_7cbd_503f, 0xfbc6_ed99_ec05_b693, 0xfbc6_ed99_ec05_b693,
    0x8f26_d8d0_9eb6_727d, 0xc2e7_7806_cb87_1254, 0x8923_81ad_d03c_a0b5, 0x1397_6a6a_2206_6c7a,
    0x079f_64ef_091d_e669, 0x079f_64ef_091d_e669, 0xe9a5_e7c2_f855_5191, 0xe9a5_e7c2_f855_5191,
    0xf03e_03c8_8cc2_c1b5, 0xe84a_06fa_e0a6_5f39, 0x957c_75f2_4779_0583, 0xcda5_678a_3b09_2094,
    0xed7c_ea34_bd56_99dd, 0xed7c_ea34_bd56_99dd, 0x1236_5f32_3f76_b553, 0x1236_5f32_3f76_b553,
    0xd73e_39de_1aa1_5e4f, 0x5ef0_73dc_8471_0932, 0x390e_f387_7134_cf24, 0xe42c_ea9e_709b_9f64,
    0x4f86_f6f1_f97e_83ac, 0x4f86_f6f1_f97e_83ac, 0x8af4_b040_baed_078e, 0x8af4_b040_baed_078e,
    0x0297_8adf_6380_b05f, 0xbf1e_b5e6_527b_7942, 0x608b_8a0c_e372_dc1a, 0xdb0d_8fa4_11f9_4a37,
    0x1bc6_829b_1e66_91ce, 0x1bc6_829b_1e66_91ce, 0xd915_3eeb_6f8e_d038, 0x6afc_648c_2fe5_62a4,
    0xa85a_eaf6_08c4_52d2, 0x2645_ceb0_9ed9_5638, 0x8238_a4b0_b355_58ed, 0xfa76_6d57_5411_ed54,
    0x1dc0_95e0_8995_a432, 0x1dc0_95e0_8995_a432, 0x73c1_2d41_dce2_ca38, 0x4efe_275a_d570_d9f5,
    0x93f8_168c_30e8_9cae, 0xaea2_4aa4_c572_ef4a, 0x874f_c908_76fc_0309, 0xa4ea_22e6_5f0a_626e,
    0xb88c_98b6_df1a_3312, 0xb88c_98b6_df1a_3312, 0xa5a8_b2f1_5024_0cf7, 0xa5a8_b2f1_5024_0cf7,
    0x5499_ac14_e4e4_6cce, 0xc029_670e_3f1d_9433, 0xabba_e869_9db9_cf6b, 0xb2d6_16a4_0270_5e06,
    0x213f_13c6_3c05_b52c, 0x213f_13c6_3c05_b52c, 0xec40_48d4_8e98_3149, 0xec40_48d4_8e98_3149,
    0x40b5_073b_64b1_3bc2, 0x4645_0b69_4175_1178, 0x151d_37be_30a9_b932, 0x5082_a30c_397a_af72,
];

#[test]
fn every_algorithm_keeps_its_pinned_schedules_on_generator_shapes() {
    // Every generator family × two seeds × every bounded class ×
    // every registered algorithm.
    let cases: &[(&str, u32)] = &[
        ("layered", 10),
        ("fft", 4),
        ("cholesky", 6),
        ("chain", 16),
        ("independent", 16),
        ("fork-join", 6),
        ("in-tree", 4),
        ("out-tree", 4),
        ("random", 30),
        ("lu", 5),
        ("wavefront", 6),
    ];
    let mut pins = SHAPE_PINS.iter();
    for &(shape, size) in cases {
        for seed in [7u64, 43] {
            for class in BOUNDED {
                let p = 24;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                for algo in ALGOS {
                    let ctx = format!("{shape}/{size} seed={seed} {class:?}");
                    run_pinned(&g, p, algo, class, &mut pins, &ctx);
                }
            }
        }
    }
    assert!(pins.next().is_none(), "unused pins");
}

#[test]
fn every_algorithm_respects_its_envelope_on_theorem_witnesses() {
    // The Section 5 witnesses are the *worst known inputs* for the
    // ICPP'22 algorithm; every registered algorithm must still clear
    // its own proven envelope on them — and on these witnesses the
    // Improved'23 dual allocation must never be worse than ICPP'22.
    let witnesses: [(&str, ModelClass, LowerBoundInstance); 4] = [
        (
            "roofline P=1e5",
            ModelClass::Roofline,
            roofline::instance(100_000),
        ),
        (
            "communication P=1001",
            ModelClass::Communication,
            communication::instance(1001),
        ),
        ("amdahl K=80", ModelClass::Amdahl, amdahl::instance(80)),
        ("general K=80", ModelClass::General, general::instance(80)),
    ];
    for (name, class, inst) in &witnesses {
        let mut by_algo = Vec::new();
        for algo in ALGOS {
            let (makespan, ratio) = inst.run_algo(algo, *class);
            let bound = algo.proven_upper_bound(*class);
            assert!(
                ratio <= bound,
                "{name} [{algo}]: measured ratio {ratio} exceeds proven envelope {bound}"
            );
            assert!(
                ratio >= 1.0,
                "{name} [{algo}]: ratio {ratio} below 1 — t_opt_upper is not an upper bound"
            );
            by_algo.push((algo, makespan, ratio));
        }
        let icpp = by_algo
            .iter()
            .find(|(a, ..)| *a == AlgoName::Icpp22)
            .unwrap();
        let improved = by_algo
            .iter()
            .find(|(a, ..)| *a == AlgoName::Improved23)
            .unwrap();
        assert!(
            improved.2 <= icpp.2 + 1e-12,
            "{name}: Improved'23 ratio {} worse than ICPP'22 {}",
            improved.2,
            icpp.2
        );
    }
}

/// One pin per `(l, algo)` of
/// `every_algorithm_stays_bounded_on_fig3_chain_forests`.
#[rustfmt::skip]
const FIG3_PINS: [u64; 4] = [
    0x0e80_d297_b11d_88d9, 0xf25c_3021_e453_58d9, 0x1d04_06d9_cbbd_6c73, 0x8dc0_24b7_0cb3_1c9f,
];

#[test]
fn every_algorithm_stays_bounded_on_fig3_chain_forests() {
    // Theorem 9's static skeleton: the Figure 3 chain forest with its
    // explicit offline schedule. No constant ratio exists in the limit
    // (the ratio grows as Ω(ln D)), but at ℓ = 2, 3 every algorithm
    // must stay inside its arbitrary-model envelope.
    let mut pins = FIG3_PINS.iter();
    for l in [2u32, 3] {
        let (g, offline) = arbitrary::offline_schedule(l);
        offline.validate(&g).expect("proof schedule is valid");
        let p = arbitrary::params(l).p_total;
        for algo in ALGOS {
            let class = ModelClass::Arbitrary;
            let s = run_pinned(&g, p, algo, class, &mut pins, &format!("fig3 l={l}"));
            let ratio = s.makespan / offline.makespan;
            let bound = algo.proven_upper_bound(ModelClass::Arbitrary);
            assert!(
                ratio <= bound,
                "fig3 l={l} [{algo}]: ratio {ratio} exceeds envelope {bound}"
            );
        }
    }
    assert!(pins.next().is_none(), "unused pins");
}

/// One pin per `(shape, class, P, algo)` of
/// `every_algorithm_beats_the_offline_optimum_and_lemma2_on_tiny_instances`.
#[rustfmt::skip]
const TINY_PINS: [u64; 64] = [
    0xd6d2_cabb_e224_9c99, 0xd6d2_cabb_e224_9c99, 0x031e_9c88_41c6_8edb, 0x031e_9c88_41c6_8edb,
    0x7844_fa8e_6404_63cc, 0x7844_fa8e_6404_63cc, 0xc196_1b43_610c_b273, 0xc196_1b43_610c_b273,
    0x833a_0c98_47e9_a3ab, 0x833a_0c98_47e9_a3ab, 0x833a_0c98_47e9_a3ab, 0x833a_0c98_47e9_a3ab,
    0xe896_a503_918e_dfe2, 0xe896_a503_918e_dfe2, 0x036a_9940_59ca_50ea, 0x85b3_b5e3_ae43_21a3,
    0xfdab_9104_85ed_d832, 0xfdab_9104_85ed_d832, 0x2363_b9cd_219d_a453, 0x2363_b9cd_219d_a453,
    0xe972_8b8c_3704_a057, 0xe972_8b8c_3704_a057, 0x8cf0_346c_828a_af73, 0x8cf0_346c_828a_af73,
    0x20d4_f1a9_1b3e_33ee, 0x20d4_f1a9_1b3e_33ee, 0x20d4_f1a9_1b3e_33ee, 0x20d4_f1a9_1b3e_33ee,
    0xe0d3_0622_c29d_1a8f, 0xe0d3_0622_c29d_1a8f, 0x9eee_4236_4d55_1dfd, 0xab98_140f_f5c8_142c,
    0xe846_0da6_4552_3d45, 0xe846_0da6_4552_3d45, 0xa2ac_fa42_46d2_a392, 0xa2ac_fa42_46d2_a392,
    0x24ff_2c11_8557_8d05, 0x24ff_2c11_8557_8d05, 0xbf57_0e0c_803a_12b1, 0xbf57_0e0c_803a_12b1,
    0xc8e7_d024_46b9_9468, 0xc8e7_d024_46b9_9468, 0x0dfe_5049_ed70_5c8d, 0x0dfe_5049_ed70_5c8d,
    0x44ad_6300_1dff_2dee, 0x44ad_6300_1dff_2dee, 0xdd36_aa0f_cd7c_88e8, 0x08da_306a_1343_ca38,
    0x0a1f_3674_d7f1_712c, 0x0a1f_3674_d7f1_712c, 0x2452_703e_9361_16bb, 0x2452_703e_9361_16bb,
    0xe1d3_3c7e_8e35_8d39, 0xe1d3_3c7e_8e35_8d39, 0x9367_0207_1bdf_fdea, 0x9367_0207_1bdf_fdea,
    0xcafa_37bc_2495_f9b9, 0xcafa_37bc_2495_f9b9, 0x05a5_87cb_6b79_ffbb, 0x05a5_87cb_6b79_ffbb,
    0xd0cd_bf8f_82c1_cb91, 0xd0cd_bf8f_82c1_cb91, 0x4e3e_7120_0d8c_68bc, 0xc7d8_d058_5ead_e03d,
];

#[test]
fn every_algorithm_beats_the_offline_optimum_and_lemma2_on_tiny_instances() {
    // On instances small enough to solve exhaustively, no online
    // algorithm may beat the offline optimum (that would mean the
    // simulation is cheating) and none may beat the Lemma 2 lower
    // bound (that would mean the bound is wrong).
    // Sizes chosen to stay within `BruteForceLimits::max_tasks = 10`:
    // chain-4 is 4 tasks, independent-5 is 5, fork-join-1 is 9
    // (3 stages of width 1 + fork/join), random-6 is 6.
    let cases: &[(&str, u32)] = &[
        ("chain", 4),
        ("fork-join", 1),
        ("independent", 5),
        ("random", 6),
    ];
    let mut pins = TINY_PINS.iter();
    for &(shape, size) in cases {
        for class in BOUNDED {
            for p in [4u32, 7] {
                let g = gen::by_name(shape, size, class, p, 11).unwrap();
                let opt = optimal_makespan(&g, p, BruteForceLimits::default())
                    .expect("tiny instances are within brute-force limits");
                let lb = g.bounds(p).lower_bound();
                assert!(
                    opt >= lb - 1e-9,
                    "{shape}/{class:?} P={p}: brute optimum {opt} below Lemma 2 bound {lb}"
                );
                for algo in ALGOS {
                    let ctx = format!("{shape}/{class:?} P={p}");
                    let s = run_pinned(&g, p, algo, class, &mut pins, &ctx);
                    assert!(
                        s.makespan >= opt - 1e-9,
                        "{shape}/{class:?} P={p} [{algo}]: makespan {} beats the brute-force optimum {opt}",
                        s.makespan
                    );
                    assert!(
                        s.makespan >= lb - 1e-9,
                        "{shape}/{class:?} P={p} [{algo}]: makespan {} beats the Lemma 2 bound {lb}",
                        s.makespan
                    );
                }
            }
        }
    }
    assert!(pins.next().is_none(), "unused pins");
}

#[test]
fn registry_envelopes_round_trip_against_the_analysis_crate() {
    // The registry hard-codes each algorithm's proven envelope (so the
    // scheduling crates need no analysis dependency); the analysis
    // crate minimizes the same envelopes numerically. They must agree:
    // the registry constant is the numeric minimum rounded *up* at 1e-3
    // granularity, and the registry's per-class μ sits at the minimizer.
    for class in BOUNDED {
        let bound = moldable_analysis::improved::upper_bound(class);
        let registry = AlgoName::Improved23.proven_upper_bound(class);
        assert!(
            bound.ratio <= registry,
            "{class:?}: analysis minimum {} above registry envelope {registry}",
            bound.ratio
        );
        assert!(
            registry - bound.ratio < 1.5e-3,
            "{class:?}: registry envelope {registry} is loose vs analysis minimum {}",
            bound.ratio
        );
        let mu = AlgoName::Improved23.optimal_mu(class);
        assert!(
            (mu - bound.mu).abs() < 1e-3,
            "{class:?}: registry mu {mu} drifted from analysis minimizer {}",
            bound.mu
        );
        // The whole point of the dual allocation: a strictly smaller
        // proven envelope than ICPP'22 on every bounded class.
        let icpp = AlgoName::Icpp22.proven_upper_bound(class);
        assert!(
            registry < icpp,
            "{class:?}: Improved'23 envelope {registry} not below ICPP'22 {icpp}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property harness: random (graph, model, P) triples with shrinking.
// ---------------------------------------------------------------------------

/// One random conformance case. The five fields fully determine the
/// `(graph, model, P)` triple: the DAG skeleton comes from
/// `gen::layered_random(layers, width, …, seed)` and every task's
/// speedup model is drawn from `ParamDistribution` for `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Case {
    layers: u32,
    width: u32,
    p: u32,
    class: ModelClass,
    seed: u64,
}

impl Case {
    /// Materialize the task graph for this case. Deterministic: the
    /// same case always builds the same graph with the same models.
    fn build(&self) -> TaskGraph {
        let dist = ParamDistribution::default();
        let mut mrng = StdRng::seed_from_u64(self.seed.wrapping_mul(131).wrapping_add(17));
        let mut assign = gen::weighted_sampler(self.class, dist, self.p, &mut mrng);
        let mut srng = StdRng::seed_from_u64(self.seed.wrapping_mul(37).wrapping_add(5));
        gen::layered_random(
            self.layers as usize,
            self.width as usize,
            0.35,
            &mut srng,
            &mut assign,
        )
    }

    /// Shrink candidates, strictly smaller, tried in order. The first
    /// failing candidate is taken, so shrinking is deterministic.
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        if self.layers > 1 {
            out.push(Case {
                layers: self.layers - 1,
                ..*self
            });
        }
        if self.width > 1 {
            out.push(Case {
                width: self.width - 1,
                ..*self
            });
        }
        if self.p > 1 {
            out.push(Case {
                p: self.p / 2,
                ..*self
            });
        }
        out
    }
}

/// Greedily shrink `case` to a local minimum of `fails`: a failing
/// case none of whose shrink candidates fails.
fn shrink(mut case: Case, fails: &dyn Fn(&Case) -> Option<String>) -> (Case, String) {
    let mut why = fails(&case).expect("shrink starts from a failing case");
    loop {
        let Some((next, next_why)) = case
            .shrink_candidates()
            .into_iter()
            .find_map(|c| fails(&c).map(|w| (c, w)))
        else {
            return (case, why);
        };
        case = next;
        why = next_why;
    }
}

/// The conformance predicate: `None` if the case passes for every
/// registered algorithm, `Some(reason)` otherwise.
fn conformance_failure(case: &Case) -> Option<String> {
    let g = case.build();
    let opts = SimOptions::new(case.p);
    let lb = g.bounds(case.p).lower_bound();
    for algo in ALGOS {
        let mut sched = OnlineScheduler::for_algo_class(algo, case.class);
        let a = match simulate(&g, &mut sched, &opts) {
            Ok(s) => s,
            Err(e) => return Some(format!("[{algo}] simulation failed: {e}")),
        };
        if let Err(e) = a.validate(&g) {
            return Some(format!("[{algo}] invalid schedule: {e}"));
        }
        if a.makespan < lb - 1e-9 {
            return Some(format!(
                "[{algo}] makespan {} beats the Lemma 2 bound {lb}",
                a.makespan
            ));
        }
    }
    None
}

/// One pin per `(case, algo)` of
/// `random_model_parameters_pass_the_conformance_matrix`.
#[rustfmt::skip]
const RANDOM_PINS: [u64; 96] = [
    0x986f_8203_3417_00e6, 0x9f18_68b2_140b_f016, 0xbd16_1f52_ff02_3ffd, 0xbd16_1f52_ff02_3ffd,
    0xcb7f_783c_7350_bf3b, 0xcb7f_783c_7350_bf3b, 0xef34_1d4f_50ec_f73d, 0xef34_1d4f_50ec_f73d,
    0xa06f_ca6c_4e43_d015, 0xa06f_ca6c_4e43_d015, 0xae30_a9de_511c_7b33, 0xae30_a9de_511c_7b33,
    0x5252_3d9e_f485_6b39, 0xaf38_5d7a_abb0_c8a5, 0x3e24_d58a_2e79_c5df, 0x3e24_d58a_2e79_c5df,
    0xf289_0c06_e76c_b078, 0xf289_0c06_e76c_b078, 0xf440_8d23_b87e_60b1, 0xed18_993e_c780_645a,
    0x0ea7_7c33_e35e_e42d, 0x0ea7_7c33_e35e_e42d, 0xf6be_974c_7c01_4436, 0xf6be_974c_7c01_4436,
    0x77af_6061_b7af_b8b1, 0x77af_6061_b7af_b8b1, 0x004b_e349_5be7_17cb, 0x7b7b_052d_ec88_7dc8,
    0xfd08_5e55_fd5a_3ca6, 0xfd08_5e55_fd5a_3ca6, 0x1898_d410_a5c2_a7f0, 0x1898_d410_a5c2_a7f0,
    0x8779_077f_529e_1b84, 0x8779_077f_529e_1b84, 0x3c96_b8e2_ce2e_9528, 0x07de_c6f2_9e60_ede7,
    0x8e11_cf17_f7d4_8a63, 0x8e11_cf17_f7d4_8a63, 0xf515_2557_68ee_b2e9, 0x9cd6_9fd9_ca62_08f1,
    0xa0c8_81be_cd3d_0a47, 0xa0c8_81be_cd3d_0a47, 0x6749_fe10_4485_6b5d, 0x6749_fe10_4485_6b5d,
    0xa714_d42c_2e3e_4a87, 0xa714_d42c_2e3e_4a87, 0x7348_658c_8de1_1a86, 0x6346_723f_958a_46c9,
    0xf8d0_692f_f43a_e730, 0x1f81_656c_7155_9c04, 0x0362_b596_97f9_0320, 0x0362_b596_97f9_0320,
    0xd93d_f2ab_e73e_d9a2, 0xd93d_f2ab_e73e_d9a2, 0xb954_1456_18ab_20a8, 0xb954_1456_18ab_20a8,
    0x706d_644f_b2c7_f59c, 0x6cbf_04ea_3b63_7354, 0xbbd6_f1f4_d5c3_ce8d, 0xbbd6_f1f4_d5c3_ce8d,
    0x2682_0a7b_7cc6_7d58, 0x2682_0a7b_7cc6_7d58, 0xfbde_446f_ef07_6e28, 0xfbde_446f_ef07_6e28,
    0xd3d3_b064_914d_4f55, 0x02dd_eefa_217a_161b, 0xcc98_fcb9_8b10_5454, 0xcc98_fcb9_8b10_5454,
    0xe9a9_3bbd_4b97_12cc, 0xe9a9_3bbd_4b97_12cc, 0x3168_2937_3f30_bd64, 0x3168_2937_3f30_bd64,
    0x94e9_63db_0f65_ce43, 0x8d8c_5c05_4ed4_64a6, 0x224b_2c05_5e2b_ae37, 0x224b_2c05_5e2b_ae37,
    0x3cd0_49a1_5cc8_ffb8, 0x2701_5978_b590_b63d, 0x6847_b7fc_9e7c_979d, 0x18ed_50de_0a19_2609,
    0x4eb8_83b7_1bb0_e20a, 0x9553_33c6_0c21_6cf4, 0x29c9_fa98_ace2_0c21, 0xea27_0974_6146_0f37,
    0x8573_3c28_1f91_7352, 0x8573_3c28_1f91_7352, 0x5d3f_82c4_23dc_b1b4, 0x5d3f_82c4_23dc_b1b4,
    0x9767_7e12_9db6_d0dd, 0x139f_87c2_5797_c7ab, 0xf22c_a128_371c_2e8c, 0x8f33_6117_d947_5202,
    0x999d_8ccd_1013_c7ff, 0x999d_8ccd_1013_c7ff, 0x00da_780c_8649_cbd8, 0x00da_780c_8649_cbd8,
];

#[test]
fn random_model_parameters_pass_the_conformance_matrix() {
    // 48 random (graph, model, P) triples across the bounded classes,
    // all through the full matrix. On failure the harness shrinks to a
    // minimal reproducer and prints it — the five `Case` fields are
    // everything needed to rebuild the exact graph and models. Passing
    // cases then check their schedules against the pins.
    let mut pins = RANDOM_PINS.iter();
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    for i in 0..48u64 {
        let case = Case {
            layers: u32::try_from(rng.gen_range(1u64..6)).expect("bounded"),
            width: u32::try_from(rng.gen_range(1u64..7)).expect("bounded"),
            p: u32::try_from(rng.gen_range(2u64..33)).expect("bounded"),
            class: BOUNDED[usize::try_from(rng.gen_range(0u64..4)).expect("bounded")],
            seed: i,
        };
        if conformance_failure(&case).is_some() {
            let (min, why) = shrink(case, &conformance_failure);
            let g = min.build();
            panic!(
                "conformance failure, minimal reproducer: {min:?} \
                 ({} tasks, class {:?}, P = {}) — {why}",
                g.n_tasks(),
                min.class,
                min.p
            );
        }
        let (g, ctx) = (case.build(), format!("{case:?}"));
        for algo in ALGOS {
            run_pinned(&g, case.p, algo, case.class, &mut pins, &ctx);
        }
    }
    assert!(pins.next().is_none(), "unused pins");
}

#[test]
fn shrinker_reduces_to_a_minimal_failing_triple() {
    // Exercise the shrinking machinery with an artificial predicate
    // (the conformance matrix itself passes, so a real failure cannot
    // drive this path deterministically): "fails" iff the graph has at
    // least 6 tasks and P ≥ 4. The minimum must still fail while every
    // one of its shrink candidates passes — the definition of minimal.
    let fails = |c: &Case| -> Option<String> {
        let g = c.build();
        (g.n_tasks() >= 6 && c.p >= 4).then(|| format!("{} tasks", g.n_tasks()))
    };
    let start = Case {
        layers: 5,
        width: 6,
        p: 32,
        class: ModelClass::Amdahl,
        seed: 9,
    };
    assert!(fails(&start).is_some(), "start case must fail");
    let (min, why) = shrink(start, &fails);
    assert!(fails(&min).is_some(), "shrunk case still fails ({why})");
    assert!(min.build().n_tasks() >= 6);
    for cand in min.shrink_candidates() {
        assert!(
            fails(&cand).is_none(),
            "{cand:?} still fails — {min:?} was not minimal"
        );
    }
    // The artificial failure is parameter-local, so the minimum is far
    // below the start: the shrinker really walked down.
    assert!(min.layers < start.layers || min.width < start.width);
    assert!(
        min.p <= 7,
        "P should have halved toward the threshold, got {}",
        min.p
    );
}

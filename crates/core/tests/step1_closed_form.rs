//! Differential test for Algorithm 2's Step 1: the closed form behind
//! [`allocate`] against a bisection reference (the O(log P) search it
//! replaced) on every `(model, P, μ)` triple, and against the
//! exhaustive minimum-area scan of [`allocate_linear_reference`]
//! wherever `P ≤ 4096`.
//!
//! Models come from two sources for each of the paper's four classes:
//! `gen::weighted_sampler` over `ParamDistribution::default()` (how the
//! generated workloads draw them), and log-uniform extreme parameters
//! spanning 24 decades. This is an integration test rather than a lib
//! test because the lib tests also run under Miri.
//!
//! ```text
//! cargo test -p moldable-core --test step1_closed_form
//! cargo test --release -p moldable-core --features slow-tests --test step1_closed_form
//! ```

use moldable_core::{allocate, allocate_linear_reference, mu_cap, Allocation, ALGOS};
use moldable_graph::gen::{self, TaskCtx};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::{delta, ModelClass, SpeedupModel, MU_MAX};

const PLATFORMS: [u32; 7] = [1, 2, 7, 64, 256, 1601, 262_144];

const CLASSES: [ModelClass; 4] = [
    ModelClass::Roofline,
    ModelClass::Communication,
    ModelClass::Amdahl,
    ModelClass::General,
];

/// Every registered algorithm's μ for every class, plus the largest
/// admissible μ and a small one (a loose constraint, `δ ≈ 19`).
fn mus() -> Vec<f64> {
    let mut mus: Vec<f64> = ALGOS
        .into_iter()
        .flat_map(|algo| {
            [
                ModelClass::Roofline,
                ModelClass::Communication,
                ModelClass::Amdahl,
                ModelClass::General,
                ModelClass::Arbitrary,
            ]
            .map(|class| algo.optimal_mu(class))
        })
        .chain([MU_MAX, 0.05])
        .collect();
    mus.sort_by(f64::total_cmp);
    mus.dedup();
    mus
}

/// Step 1 as the bisection over `[1, p_max]` that the closed form
/// replaced: the smallest `p` with `t(p) ≤ δ(μ)·t(p_max)·(1 + 1e-12)`
/// (the tolerance is the allocator's `BETA_RTOL`).
fn bisection_reference(model: &SpeedupModel, p_total: u32, mu: f64) -> Allocation {
    let p_max = model.p_max(p_total);
    let threshold = delta(mu) * model.time(p_max) * (1.0 + 1e-12);
    let (mut lo, mut hi) = (1u32, p_max);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if model.time(mid) <= threshold {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Allocation {
        initial: lo,
        capped: lo.min(mu_cap(p_total, mu)),
    }
}

/// `10^e` with `e` uniform in `[lo, hi)`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi))
}

/// A model of `class` with log-uniform parameters over 24 decades; the
/// `d` and `c` terms are zero a quarter of the time each, and `p̃` is
/// log-uniform in `[1, P]`.
fn extreme_model(class: ModelClass, p_total: u32, rng: &mut StdRng) -> SpeedupModel {
    let w = log_uniform(rng, -12.0, 12.0);
    let term = |rng: &mut StdRng| {
        if rng.gen_bool(0.25) {
            0.0
        } else {
            log_uniform(rng, -12.0, 12.0)
        }
    };
    let (d, c) = (term(rng), term(rng));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let pbar = (2f64.powf(rng.gen_range(0.0..=f64::from(p_total).log2())) as u32).max(1);
    match class {
        ModelClass::Roofline => SpeedupModel::roofline(w, pbar),
        ModelClass::Communication => SpeedupModel::communication(w, c),
        ModelClass::Amdahl => SpeedupModel::amdahl(w, d),
        _ => SpeedupModel::general(w, pbar, d, c),
    }
    .expect("positive finite parameters")
}

/// Checks `per_source` sampled and `per_source` extreme models of each
/// class on every platform and every μ; returns the number of triples.
fn run_differential(per_source: usize, seed: u64) -> u64 {
    let mus = mus();
    let dist = ParamDistribution::default();
    let mut triples = 0u64;
    let mut check = |model: &SpeedupModel, p_total: u32| {
        for &mu in &mus {
            let got = allocate(model, p_total, mu);
            assert_eq!(
                got,
                bisection_reference(model, p_total, mu),
                "bisection: {model:?}, P={p_total}, mu={mu}"
            );
            if p_total <= 4096 {
                // The scan minimizes the *computed* area. Where the exact
                // area is flat (roofline below p̃), rounding can make a
                // later p an ulp cheaper, so equal-to-rounding areas pass.
                let scan = allocate_linear_reference(model, p_total, mu);
                assert!(
                    got == scan
                        || model.area(got.initial) <= model.area(scan.initial) * (1.0 + 1e-12),
                    "linear scan: {model:?}, P={p_total}, mu={mu}: {got:?} vs {scan:?}"
                );
            }
            triples += 1;
        }
    };
    for (i, p_total) in PLATFORMS.into_iter().enumerate() {
        for (j, class) in CLASSES.into_iter().enumerate() {
            let cell = seed ^ ((i as u64) << 8 | j as u64);
            let mut srng = StdRng::seed_from_u64(cell);
            let mut sample = gen::weighted_sampler(class, dist.clone(), p_total, &mut srng);
            let mut xrng = StdRng::seed_from_u64(!cell);
            for index in 0..per_source {
                let sampled = sample(TaskCtx {
                    index,
                    kind: "layered",
                    weight: 1.0,
                });
                check(&sampled, p_total);
                check(&extreme_model(class, p_total, &mut xrng), p_total);
            }
        }
    }
    triples
}

#[test]
fn closed_form_matches_bisection_and_scan() {
    let triples = run_differential(600, 0x57E9_0001);
    assert!(triples >= 200_000, "only {triples} triples");
}

#[cfg(feature = "slow-tests")]
#[test]
fn closed_form_matches_bisection_and_scan_at_scale() {
    let triples = run_differential(30_000, 0x57E9_0002);
    assert!(triples >= 10_000_000, "only {triples} triples");
}

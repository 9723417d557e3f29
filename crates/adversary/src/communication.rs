//! Theorem 6: the communication-model lower bound (ratio → > 3.51).
//!
//! The Figure 1 graph with `X = ⌊(1−μ)P/2⌋ + 1`, `Y = P − 3` and task
//! families chosen so that the algorithm (μ ≈ 0.324) allocates
//! `p_A = ⌈μP⌉`, `p_B = 2`, `p_C = 1`, which forces it to serialize the
//! layers, while the proof's alternative schedule overlaps all the `B`
//! work with task `C`.

use moldable_analysis::lemma5_ratio;
use moldable_model::{delta, ModelClass, SpeedupModel};
use moldable_sim::Schedule;

use crate::generic::{GenericInstance, Layout};
use crate::{LowerBoundInstance, Place};

/// The construction's parameters, exposed for tests and reports.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// μ ≈ 0.324 (Theorem 2's optimum).
    pub mu: f64,
    /// δ = (1−2μ)/(μ(1−μ)) ≈ 1.61.
    pub delta: f64,
    /// `X = ⌊(1−μ)P/2⌋ + 1`.
    pub x: usize,
    /// `Y = P − 3`.
    pub y: usize,
    /// `w_B = 6δ/(3−δ) + 1/P`.
    pub w_b: f64,
}

/// Compute the Theorem 6 parameters for a platform of `p_total > 3`.
///
/// # Panics
///
/// Panics if `p_total <= 3`.
#[must_use]
pub fn params(p_total: u32) -> Params {
    assert!(p_total > 3, "Theorem 6 requires P > 3");
    let mu = ModelClass::Communication.optimal_mu();
    let d = delta(mu);
    let p = f64::from(p_total);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let x = (((1.0 - mu) * p / 2.0).floor() as usize) + 1;
    let y = p_total as usize - 3;
    let w_b = 6.0 * d / (3.0 - d) + 1.0 / p;
    Params {
        mu,
        delta: d,
        x,
        y,
        w_b,
    }
}

/// The proof's alternative schedule, in start order: `A_i` on all `P`
/// processors back to back over `[(i−1)/P, i/P)`; from `Y/P`, `C` on 3
/// processors for `t_C(3) = X·w_B` next to the B tasks on 1 processor
/// each, `X` waves of `Y = P − 3` tasks.
fn proof_placements(pr: &Params, p_total: u32, place: Place<'_>) {
    let p = f64::from(p_total);
    let ids = Layout { x: pr.x, y: pr.y };
    for i in 0..pr.y {
        #[allow(clippy::cast_precision_loss)]
        place(ids.a(i), i as f64 / p, 1.0 / p, p_total);
    }
    #[allow(clippy::cast_precision_loss)]
    let t_start = pr.y as f64 / p;
    for wave in 0..pr.x {
        #[allow(clippy::cast_precision_loss)]
        let s = t_start + wave as f64 * pr.w_b;
        for n in wave * pr.y..(wave + 1) * pr.y {
            place(ids.b(n), s, pr.w_b, 1);
        }
        if wave == 0 {
            place(ids.c(), t_start, xw_b(pr), 3);
        }
    }
}

/// `X·w_B`, the work scale of task `C`.
fn xw_b(pr: &Params) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let x = pr.x as f64;
    x * pr.w_b
}

/// Build the Theorem 6 instance for `p_total`; `t_opt_upper` is the
/// makespan of [`proof_schedule`]`(p_total)`, folded without building
/// it.
///
/// # Panics
///
/// Panics if `p_total <= 3`.
#[must_use]
pub fn instance(p_total: u32) -> LowerBoundInstance {
    let pr = params(p_total);

    // t_A(q) = 1/q                      (w = 1, c = 0)
    let model_a = SpeedupModel::communication(1.0, 0.0).expect("valid A task");
    // t_B(q) = w_B/q + (q − 1)          (w = w_B, c = 1)
    let model_b = SpeedupModel::communication(pr.w_b, 1.0).expect("valid B task");
    // t_C(q) = δXw_B/q + Xw_B(1/2 − δ/6)(q − 1)
    let xw_b = xw_b(&pr);
    let model_c = SpeedupModel::communication(pr.delta * xw_b, xw_b * (0.5 - pr.delta / 6.0))
        .expect("valid C task");

    let gi = GenericInstance::build(pr.x, pr.y, &model_a, &model_b, model_c);
    LowerBoundInstance {
        graph: gi.graph,
        p_total,
        mu: pr.mu,
        t_opt_upper: crate::proof_makespan(|place| proof_placements(&pr, p_total, place)),
    }
}

/// The proof's offline schedule of [`instance`]`(p_total)`, built on
/// request.
///
/// # Panics
///
/// Panics if `p_total <= 3`.
#[must_use]
pub fn proof_schedule(p_total: u32) -> Schedule {
    let pr = params(p_total);
    crate::proof_schedule(p_total, |place| {
        proof_placements(&pr, p_total, place);
    })
}

/// The asymptotic lower bound of Theorem 6:
/// `1/μ + μ/(1−2μ) − 1/(3(1−μ)) > 3.51`.
#[must_use]
pub fn asymptotic_bound() -> f64 {
    moldable_analysis::algorithm_lower_bound(ModelClass::Communication)
}

/// The Theorem 2 upper bound the measured ratio must respect.
#[must_use]
pub fn upper_bound() -> f64 {
    let mu = ModelClass::Communication.optimal_mu();
    let x = moldable_analysis::communication::x_star(mu).expect("mu* is feasible");
    lemma5_ratio(mu, moldable_analysis::communication::alpha(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::{allocate, mu_cap};

    #[test]
    fn parameters_match_paper() {
        let pr = params(1000);
        assert!((pr.delta - 1.613).abs() < 0.01, "delta = {}", pr.delta);
        assert!((pr.w_b - 6.979).abs() < 0.02, "w_B = {}", pr.w_b);
        assert_eq!(pr.y, 997);
        // X ≈ (1−μ)P/2 + 1 ≈ 339
        assert!((338..=340).contains(&pr.x), "X = {}", pr.x);
    }

    #[test]
    fn algorithm_allocations_match_proof() {
        // The proof hinges on p_A = ⌈μP⌉, p_B = 2, p_C = 1.
        let p_total = 500;
        let inst = instance(p_total);
        let pr = params(p_total);
        let gi_a = inst.graph.model(moldable_graph::TaskId(pr.x as u32)); // A_1
        let a = allocate(gi_a, p_total, pr.mu);
        assert_eq!(a.capped, mu_cap(p_total, pr.mu), "p_A must hit the cap");
        assert!(a.initial > a.capped);

        let gi_b = inst.graph.model(moldable_graph::TaskId(0)); // B_{1,1}
        let b = allocate(gi_b, p_total, pr.mu);
        assert_eq!(b.initial, 2, "p_B = 2");
        assert_eq!(b.capped, 2);

        let c_id = inst.graph.n_tasks() - 1;
        let gi_c = inst.graph.model(moldable_graph::TaskId(c_id as u32));
        let c = allocate(gi_c, p_total, pr.mu);
        assert_eq!(c.initial, 1, "p_C = 1");
    }

    #[test]
    fn proof_schedule_is_valid() {
        for p in [4u32, 5, 10, 47, 200] {
            let inst = instance(p);
            let proof = proof_schedule(p);
            proof.validate(&inst.graph).unwrap();
            assert_eq!(proof.makespan.to_bits(), inst.t_opt_upper.to_bits());
        }
    }

    #[test]
    fn layers_serialize_under_the_algorithm() {
        let p_total = 100;
        let inst = instance(p_total);
        let pr = params(p_total);
        let (makespan, ratio) = inst.run_online();
        // T = Y (t_B(2) + t_A(⌈μP⌉)) + t_C(1)
        let t_b2 = pr.w_b / 2.0 + 1.0;
        let cap = f64::from(mu_cap(p_total, pr.mu));
        #[allow(clippy::cast_precision_loss)]
        let expected = pr.y as f64 * (t_b2 + 1.0 / cap) + pr.delta * pr.x as f64 * pr.w_b;
        assert!(
            (makespan - expected).abs() < 1e-6 * expected,
            "makespan {makespan} vs predicted {expected}"
        );
        assert!(ratio > 3.0, "already far above trivial at P=100: {ratio}");
    }

    #[test]
    fn ratio_approaches_the_asymptote() {
        let bound = asymptotic_bound();
        assert!((bound - 3.513).abs() < 0.01);
        let (_, r) = instance(1001).run_online();
        assert!(r > 3.45, "P=1001: ratio {r}");
        assert!(r <= upper_bound() + 1e-9, "never above Theorem 2's bound");
    }
}

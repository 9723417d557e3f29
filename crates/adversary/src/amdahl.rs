//! Theorem 7: the Amdahl-model lower bound (ratio → > 4.73).
//!
//! The Figure 1 graph on `P = K²` processors with
//! `t_A(p) = K/p`, `t_B(p) = K/p + 1`, `t_C(p) = (δ−1)K/p + K`,
//! `X = ⌊K²(1−μ)/p_B⌋ + 1` and `Y = ⌊K(K−δ)/X⌋`, where `p_B` is the
//! allocation Algorithm 2 gives the B tasks (`⌈p*⌉` in the proof).
//!
//! The same construction instantiates Theorem 8 (general model) with
//! that model's μ — see [`crate::general`], which reuses
//! [`build_instance`].

use moldable_analysis::lemma5_ratio;
use moldable_core::allocate;
use moldable_model::{delta, ModelClass, SpeedupModel};
use moldable_sim::Schedule;

use crate::generic::{GenericInstance, Layout};
use crate::{LowerBoundInstance, Place};

/// Parameters of the Theorem 7/8 construction.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The μ the algorithm runs with.
    pub mu: f64,
    /// δ = (1−2μ)/(μ(1−μ)).
    pub delta: f64,
    /// `P = K²`.
    pub p_total: u32,
    /// The algorithm's allocation for B tasks (= ⌈p*⌉).
    pub p_b: u32,
    /// `X = ⌊K²(1−μ)/p_B⌋ + 1`.
    pub x: usize,
    /// `Y = ⌊K(K−δ)/X⌋`.
    pub y: usize,
}

/// The Theorem 7/8 construction for one `(K, μ)`: its parameters and
/// its three task models.
struct Construction {
    k: u32,
    params: Params,
    model_a: SpeedupModel,
    model_b: SpeedupModel,
    model_c: SpeedupModel,
}

impl Construction {
    /// # Panics
    ///
    /// Panics if `k <= 3` or the proof's precondition fails for `mu`.
    fn new(k: u32, mu: f64, make_model: impl Fn(f64, f64) -> SpeedupModel) -> Self {
        assert!(k > 3, "Theorem 7/8 requires K > 3");
        let d = delta(mu);
        assert!(
            5.0 * d - 2.0 * d * d - 2.0 <= 1e-9,
            "precondition 5d - 2d^2 - 2 <= 0 fails for mu={mu} (delta={d})"
        );
        let p_total = k * k;
        let kf = f64::from(k);

        let model_a = make_model(kf, 0.0); //            t_A(p) = K/p
        let model_b = make_model(kf, 1.0); //            t_B(p) = K/p + 1
        let model_c = make_model((d - 1.0) * kf, kf); // t_C(p) = (δ−1)K/p + K

        // p_B: what Algorithm 2 actually allocates to a B task.
        let p_b = allocate(&model_b, p_total, mu).capped;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let x = ((f64::from(p_total) * (1.0 - mu) / f64::from(p_b)).floor() as usize) + 1;
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let y = (kf * (kf - d) / x as f64).floor() as usize;
        assert!(y >= 1, "K too small for a full layer structure");
        Self {
            k,
            params: Params {
                mu,
                delta: d,
                p_total,
                p_b,
                x,
                y,
            },
            model_a,
            model_b,
            model_c,
        }
    }

    /// The proof's alternative schedule, in start order: `A_i` on all
    /// `P` processors back to back (`t*_A = K/K² = 1/K`); from `Y/K`,
    /// all `X·Y` B tasks on one processor each in parallel
    /// (`t*_B = K + 1`) and C on `⌈(δ−1)K⌉` processors
    /// (`t*_C = t_C(⌈(δ−1)K⌉) ≤ K + 1`).
    fn proof_placements(&self, place: Place<'_>) {
        let pr = &self.params;
        let kf = f64::from(self.k);
        let ids = Layout { x: pr.x, y: pr.y };
        for i in 0..pr.y {
            #[allow(clippy::cast_precision_loss)]
            place(ids.a(i), i as f64 / kf, 1.0 / kf, pr.p_total);
        }
        #[allow(clippy::cast_precision_loss)]
        let t_start = pr.y as f64 / kf;
        for n in 0..pr.x * pr.y {
            place(ids.b(n), t_start, kf + 1.0, 1);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let p_c = ((pr.delta - 1.0) * kf).ceil() as u32;
        place(ids.c(), t_start, self.model_c.time(p_c), p_c);
    }
}

/// Build the shared Theorem 7/8 instance for side length `K > 3` and
/// parameter `mu`, with `make_model(w, d)` constructing the
/// `t(p) = w/p + d` tasks in the desired model family (Amdahl for
/// Theorem 7, general-with-`c = 0` for Theorem 8). `t_opt_upper` is
/// the makespan of the proof's offline schedule, folded without
/// building it.
///
/// # Panics
///
/// Panics if `k <= 3` (the proof requires `K > 3`) or the proof's
/// precondition `5δ − 2δ² − 2 ≤ 0` fails for this μ.
#[must_use]
pub fn build_instance(
    k: u32,
    mu: f64,
    make_model: impl Fn(f64, f64) -> SpeedupModel,
) -> (LowerBoundInstance, Params) {
    let c = Construction::new(k, mu, make_model);
    let t_opt_upper = crate::proof_makespan(|place| c.proof_placements(place));
    let pr = c.params;
    let gi = GenericInstance::build(pr.x, pr.y, &c.model_a, &c.model_b, c.model_c);
    (
        LowerBoundInstance {
            graph: gi.graph,
            p_total: pr.p_total,
            mu,
            t_opt_upper,
        },
        pr,
    )
}

/// The parameters [`build_instance`] would return, without building
/// the graph.
///
/// # Panics
///
/// As [`build_instance`].
#[must_use]
pub(crate) fn build_params(
    k: u32,
    mu: f64,
    make_model: impl Fn(f64, f64) -> SpeedupModel,
) -> Params {
    Construction::new(k, mu, make_model).params
}

/// The proof's offline schedule of [`build_instance`]'s instance,
/// built on request.
///
/// # Panics
///
/// As [`build_instance`].
#[must_use]
pub(crate) fn build_proof_schedule(
    k: u32,
    mu: f64,
    make_model: impl Fn(f64, f64) -> SpeedupModel,
) -> Schedule {
    let c = Construction::new(k, mu, make_model);
    crate::proof_schedule(c.params.p_total, |place| {
        c.proof_placements(place);
    })
}

fn amdahl_model(w: f64, d: f64) -> SpeedupModel {
    SpeedupModel::amdahl(w, d).expect("valid Amdahl task")
}

/// The Theorem 7 instance (Amdahl model) for side length `K > 3`.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn instance(k: u32) -> LowerBoundInstance {
    build_instance(k, ModelClass::Amdahl.optimal_mu(), amdahl_model).0
}

/// Theorem 7's parameters for side length `k`, computed without
/// building the instance.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn params(k: u32) -> Params {
    build_params(k, ModelClass::Amdahl.optimal_mu(), amdahl_model)
}

/// The proof's offline schedule of [`instance`]`(k)`, built on request.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn proof_schedule(k: u32) -> Schedule {
    build_proof_schedule(k, ModelClass::Amdahl.optimal_mu(), amdahl_model)
}

/// The asymptotic bound of Theorem 7: `δ/((δ−1)(1−μ)) + δ > 4.73`.
#[must_use]
pub fn asymptotic_bound() -> f64 {
    moldable_analysis::algorithm_lower_bound(ModelClass::Amdahl)
}

/// Theorem 3's upper bound for cross-checking measured ratios.
#[must_use]
pub fn upper_bound() -> f64 {
    let mu = ModelClass::Amdahl.optimal_mu();
    let x = moldable_analysis::amdahl::x_star(mu).expect("mu* feasible");
    lemma5_ratio(mu, moldable_analysis::amdahl::alpha(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::mu_cap;
    use moldable_graph::TaskId;

    #[test]
    fn p_b_matches_proofs_ceil_p_star() {
        for k in [5u32, 10, 30, 100] {
            let pr = params(k);
            let kf = f64::from(k);
            let p_star = kf / (pr.delta * (1.0 / kf + 1.0) - 1.0);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let expected = p_star.ceil() as u32;
            assert_eq!(pr.p_b, expected, "K={k}");
            // The proof's bracket: K/(δ−1) − 2 ≤ p* ≤ p_B ≤ K/(δ−1) + 1.
            assert!(f64::from(pr.p_b) >= kf / (pr.delta - 1.0) - 2.0);
            assert!(f64::from(pr.p_b) <= kf / (pr.delta - 1.0) + 1.0);
        }
    }

    #[test]
    fn algorithm_allocations_match_proof() {
        let k = 20;
        let inst = instance(k);
        let pr = params(k);
        // A_1 sits right after the X B tasks of layer 1.
        let a1 = inst.graph.model(TaskId(u32::try_from(pr.x).unwrap()));
        let a = allocate(a1, pr.p_total, pr.mu);
        assert_eq!(a.capped, mu_cap(pr.p_total, pr.mu), "p_A = ceil(mu P)");
        assert!(a.initial > a.capped);
        let b1 = inst.graph.model(TaskId(0));
        let b = allocate(b1, pr.p_total, pr.mu);
        assert_eq!(b.capped, b.initial, "p_B is below the cap");
        let c = inst
            .graph
            .model(TaskId(u32::try_from(inst.graph.n_tasks() - 1).unwrap()));
        let c_alloc = allocate(c, pr.p_total, pr.mu);
        assert_eq!(c_alloc.initial, 1, "p_C = 1");
    }

    #[test]
    fn proof_schedule_is_valid() {
        for k in [4u32, 5, 12, 25] {
            let inst = instance(k);
            let proof = proof_schedule(k);
            proof.validate(&inst.graph).unwrap();
            assert_eq!(proof.makespan.to_bits(), inst.t_opt_upper.to_bits());
            // T_opt ≤ Y/K + K + 1 < K + 4 (the proof's bound).
            assert!(inst.t_opt_upper < f64::from(k) + 4.0);
        }
    }

    #[test]
    fn ratio_grows_toward_bound() {
        let bound = asymptotic_bound();
        assert!((bound - 4.7306).abs() < 0.001, "bound = {bound}");
        let mut prev = 0.0;
        for k in [10u32, 25, 60] {
            let (_, r) = instance(k).run_online();
            assert!(r > prev, "ratio should grow with K");
            assert!(r <= upper_bound() + 1e-9);
            prev = r;
        }
        assert!(prev > 4.3, "K=60 should exceed 4.3, got {prev}");
    }
}

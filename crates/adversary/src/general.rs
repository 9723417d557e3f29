//! Theorem 8: the general-model lower bound (ratio → > 5.25).
//!
//! "We can use the exact same instance as for the Amdahl model, but
//! with μ ≈ 0.211 and δ ≈ 3.47" — the tasks are built as
//! [`SpeedupModel::General`] with `c = 0` so the scheduler treats the
//! graph as a general-model workload and picks the general-model μ.

use moldable_analysis::lemma5_ratio;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::Schedule;

use crate::amdahl::{build_instance, build_params, build_proof_schedule, Params};
use crate::LowerBoundInstance;

fn make_model(p_total: u32) -> impl Fn(f64, f64) -> SpeedupModel {
    move |w, d| {
        // t(p) = w/p + d as a general-model task: p̄ = P, c = 0.
        SpeedupModel::general(w, p_total, d, 0.0).expect("valid general task")
    }
}

/// The Theorem 8 instance for side length `K > 3`.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn instance(k: u32) -> LowerBoundInstance {
    let mu = ModelClass::General.optimal_mu();
    build_instance(k, mu, make_model(k * k)).0
}

/// Theorem 8's parameters for side length `k`, computed without
/// building the instance.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn params(k: u32) -> Params {
    let mu = ModelClass::General.optimal_mu();
    build_params(k, mu, make_model(k * k))
}

/// The proof's offline schedule of [`instance`]`(k)`, built on request.
///
/// # Panics
///
/// Panics if `k <= 3`.
#[must_use]
pub fn proof_schedule(k: u32) -> Schedule {
    let mu = ModelClass::General.optimal_mu();
    build_proof_schedule(k, mu, make_model(k * k))
}

/// The asymptotic bound of Theorem 8: `δ/((δ−1)(1−μ)) + δ > 5.25`.
#[must_use]
pub fn asymptotic_bound() -> f64 {
    moldable_analysis::algorithm_lower_bound(ModelClass::General)
}

/// Theorem 4's upper bound for cross-checking measured ratios.
#[must_use]
pub fn upper_bound() -> f64 {
    let mu = ModelClass::General.optimal_mu();
    let x = moldable_analysis::general::x_star(mu).expect("mu* feasible");
    lemma5_ratio(mu, moldable_analysis::general::alpha(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_are_general_class() {
        let inst = instance(8);
        assert_eq!(inst.graph.model_class(), Some(ModelClass::General));
        assert!((inst.mu - 0.2107).abs() < 1e-3);
    }

    #[test]
    fn precondition_holds_for_general_mu() {
        // 5δ − 2δ² − 2 ≤ 0 must hold (δ ≈ 3.47).
        let pr = params(8);
        assert!((pr.delta - 3.47).abs() < 0.02, "delta = {}", pr.delta);
        assert!(5.0 * pr.delta - 2.0 * pr.delta * pr.delta - 2.0 <= 0.0);
    }

    #[test]
    fn proof_schedule_is_valid() {
        for k in [6u32, 15, 30] {
            let inst = instance(k);
            let proof = proof_schedule(k);
            proof.validate(&inst.graph).unwrap();
            assert_eq!(proof.makespan.to_bits(), inst.t_opt_upper.to_bits());
            assert!(inst.t_opt_upper < f64::from(k) + 4.0);
        }
    }

    #[test]
    fn ratio_grows_toward_525() {
        let bound = asymptotic_bound();
        assert!((bound - 5.25).abs() < 0.01, "bound = {bound}");
        let mut prev = 0.0;
        for k in [10u32, 25, 60] {
            let (_, r) = instance(k).run_online();
            assert!(r > prev, "ratio should grow with K");
            assert!(r <= upper_bound() + 1e-9, "never above Theorem 4");
            prev = r;
        }
        assert!(prev > 4.7, "K=60 should exceed 4.7, got {prev}");
    }
}

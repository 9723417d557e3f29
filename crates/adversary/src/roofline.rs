//! Theorem 5: the roofline lower bound.
//!
//! One task with `w = P` and `p̄ = P`. The algorithm (μ = (3−√5)/2)
//! must cap its allocation at `⌈μP⌉`, giving makespan `P/⌈μP⌉`, while
//! the optimal schedule uses all `P` processors for makespan 1. As
//! `P → ∞` the ratio tends to `1/μ = (3+√5)/2 ≈ 2.618`.

use moldable_graph::TaskId;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::Schedule;

use crate::{LowerBoundInstance, Place};

/// The proof's optimal schedule: the one task on all `P` processors,
/// makespan exactly 1.
fn proof_placements(p_total: u32, place: Place<'_>) {
    place(TaskId(0), 0.0, 1.0, p_total);
}

/// Build the Theorem 5 instance for a `P`-processor platform.
///
/// # Panics
///
/// Panics if `p_total == 0`.
#[must_use]
pub fn instance(p_total: u32) -> LowerBoundInstance {
    assert!(p_total >= 1);
    let mu = ModelClass::Roofline.optimal_mu();
    let mut graph = moldable_graph::GraphBuilder::new();
    graph.add_task(
        SpeedupModel::roofline(f64::from(p_total), p_total).expect("valid roofline task"),
    );
    LowerBoundInstance {
        graph: graph.freeze(),
        p_total,
        mu,
        t_opt_upper: crate::proof_makespan(|place| proof_placements(p_total, place)),
    }
}

/// The proof's offline schedule of [`instance`]`(p_total)`, built on
/// request.
///
/// # Panics
///
/// Panics if `p_total == 0`.
#[must_use]
pub fn proof_schedule(p_total: u32) -> Schedule {
    crate::proof_schedule(p_total, |place| proof_placements(p_total, place))
}

/// The measured ratio of the online algorithm on the Theorem 5
/// instance: `(P/⌈μP⌉) / 1`.
#[must_use]
pub fn measured_ratio(p_total: u32) -> f64 {
    let inst = instance(p_total);
    let (_, ratio) = inst.run_online();
    ratio
}

/// The asymptotic bound the theorem proves: `1/μ`.
#[must_use]
pub fn asymptotic_bound() -> f64 {
    1.0 / ModelClass::Roofline.optimal_mu()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proof_schedule_is_valid_and_unit_makespan() {
        let inst = instance(64);
        let proof = proof_schedule(64);
        proof.validate(&inst.graph).unwrap();
        assert_eq!(proof.makespan, 1.0);
        assert_eq!(proof.makespan.to_bits(), inst.t_opt_upper.to_bits());
    }

    #[test]
    fn algorithm_allocates_the_cap() {
        let p = 1000;
        let inst = instance(p);
        let (makespan, ratio) = inst.run_online();
        let cap = moldable_core::mu_cap(p, inst.mu);
        assert!((makespan - f64::from(p) / f64::from(cap)).abs() < 1e-9);
        assert!(ratio > 2.60 && ratio < 2.619, "ratio = {ratio}");
    }

    #[test]
    fn ratio_converges_to_asymptote_from_below() {
        let bound = asymptotic_bound();
        let mut prev = 0.0;
        for p in [100u32, 1_000, 10_000, 100_000] {
            let r = measured_ratio(p);
            assert!(r <= bound + 1e-9, "P={p}: {r} > {bound}");
            assert!(r >= prev - 1e-6, "ratio should approach the bound");
            prev = r;
        }
        assert!(bound - prev < 1e-3, "at P = 1e5 we are within 1e-3 of 1/mu");
    }

    #[test]
    fn never_exceeds_theorem1_upper_bound() {
        for p in [3u32, 7, 50, 333] {
            let r = measured_ratio(p);
            assert!(r <= 2.619, "P={p}: {r}");
        }
    }

    /// The proof places the instance's one task, `TaskId(0)`.
    #[test]
    fn instance_has_one_task() {
        let inst = instance(8);
        assert_eq!(inst.graph.n_tasks(), 1);
        assert_eq!(inst.graph.task_ids().next(), Some(TaskId(0)));
    }
}

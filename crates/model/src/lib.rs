//! Moldable-task speedup models and per-task allocation math.
//!
//! This crate implements Section 3 of Benoit, Perotin, Robert & Sun,
//! *Online Scheduling of Moldable Task Graphs under Common Speedup
//! Models* (ICPP '22): the execution-time function
//!
//! ```text
//! t_j(p) = w_j / min(p, p̃_j) + d_j + c_j (p − 1)          (Eq. 1)
//! ```
//!
//! its three named special cases (roofline, communication, Amdahl), an
//! *arbitrary* speedup model (tabulated or closure-based, used by the
//! paper's Section 5 lower bound), and the derived per-task quantities:
//! area `a_j(p) = p · t_j(p)`, the largest useful allocation `p_max`
//! (Eq. 5), the minimum execution time `t_min = t(p_max)`, and the
//! minimum area `a_min = a(1)` (Lemma 1 guarantees monotonicity on
//! `[1, p_max]`).
//!
//! Everything downstream — the online scheduler, the adversarial
//! lower-bound instances, and the competitive-ratio analysis — is built
//! on these primitives.
//!
//! # Example
//!
//! ```
//! use moldable_model::SpeedupModel;
//!
//! // An Amdahl task: 100 units of parallelizable work, 1 unit sequential.
//! let m = SpeedupModel::amdahl(100.0, 1.0).unwrap();
//! assert_eq!(m.time(1), 101.0);
//! assert_eq!(m.time(100), 2.0);
//! assert_eq!(m.p_max(64), 64); // Amdahl time decreases forever
//! assert_eq!(m.a_min(), 101.0);
//! ```

#![forbid(unsafe_code)]

mod class;
mod error;
mod limits;
mod parse;
mod speedup;

pub mod fit;
pub mod rng;
pub mod sample;

pub use class::ModelClass;
pub use error::ModelError;
pub use parse::ParseError;
pub use speedup::SpeedupModel;

/// Golden-ratio-derived upper limit on the paper's tuning parameter:
/// `μ ≤ (3 − √5)/2 ≈ 0.381966` (Section 4.2).
pub const MU_MAX: f64 = 0.38196601125010515; // (3 - sqrt(5)) / 2

/// Check that `mu` is admissible for Algorithm 2, `μ ∈ (0, (3−√5)/2]`
/// (Section 4.2), allowing `1e-12` above [`MU_MAX`] for a rounded
/// closed form. The one place this range is written: the schedulers'
/// asserts and the request validation of the CLI and the daemon all
/// call it.
///
/// # Errors
///
/// A message naming the range and the rejected value, for `NaN` too.
#[inline] // Algorithm 2 checks μ on every allocation.
pub fn check_mu(mu: f64) -> Result<f64, String> {
    if mu > 0.0 && mu <= MU_MAX + 1e-12 {
        Ok(mu)
    } else {
        Err(format!(
            "mu must lie in (0, (3-sqrt(5))/2] = (0, {MU_MAX:.6}], got {mu}"
        ))
    }
}

/// The constraint threshold `δ(μ) = (1 − 2μ) / (μ (1 − μ))` that bounds
/// the time stretch `β` in Step 1 of Algorithm 2.
///
/// The paper requires `μ ∈ (0, (3−√5)/2]` so that `δ(μ) ≥ 1`.
///
/// # Panics
///
/// Panics if `mu` is outside `(0, 1)`.
#[must_use]
pub fn delta(mu: f64) -> f64 {
    assert!(mu > 0.0 && mu < 1.0, "mu must lie in (0, 1), got {mu}");
    (1.0 - 2.0 * mu) / (mu * (1.0 - mu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_max_matches_closed_form() {
        let expected = (3.0 - 5.0_f64.sqrt()) / 2.0;
        assert!((MU_MAX - expected).abs() < 1e-15);
    }

    #[test]
    fn check_mu_accepts_the_admissible_range_only() {
        for mu in [1e-9, 0.2, MU_MAX, MU_MAX + 1e-13] {
            assert_eq!(check_mu(mu), Ok(mu));
        }
        for mu in [0.0, -1.0, MU_MAX + 1e-9, 0.6, f64::NAN, f64::INFINITY] {
            let e = check_mu(mu).unwrap_err();
            assert!(e.starts_with("mu must lie in (0, (3-sqrt(5))/2]"), "{e}");
        }
    }

    #[test]
    fn delta_at_mu_max_is_one() {
        // At the largest admissible μ the β-constraint collapses to β ≤ 1.
        assert!((delta(MU_MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_is_decreasing_in_mu() {
        let mut prev = f64::INFINITY;
        for i in 1..100 {
            let mu = f64::from(i) * 0.0038;
            let d = delta(mu);
            assert!(d < prev, "delta must strictly decrease on (0, 0.382]");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "mu must lie in (0, 1)")]
    fn delta_rejects_out_of_range() {
        let _ = delta(1.5);
    }
}

//! Algorithm 2: the two-step processor allocation.
//!
//! **Step 1 (local processor allocation).** Over `p ∈ [1, p_max]`,
//! minimize the area ratio `α_p = a(p)/a_min` subject to the
//! time-stretch constraint `β_p = t(p)/t_min ≤ δ(μ) = (1−2μ)/(μ(1−μ))`.
//! On `[1, p_max]`, `α_p` is non-decreasing and `β_p` non-increasing
//! (Lemma 1), so the constrained minimizer of `α` is simply the
//! *smallest* feasible `p`. For the paper's four models that `p` is the
//! smaller root of a quadratic, so Step 1 is O(1): one closed-form
//! estimate, confirmed by the float predicate at `p` and `p − 1`.
//!
//! **Step 2 (cap).** Reduce the allocation to `⌈μP⌉` if it exceeds it
//! (Eq. 7), so that medium-utilization intervals can always fit another
//! task — the Lepère–Trystram–Woeginger technique.
//!
//! A scheduler allocates many tasks on one `(algo, P, μ)`; the
//! crate-private `Allocator` computes that platform's constants once
//! (`δ(μ)`, `⌈μP⌉` and the Improved'23 `λ` per class) and is what the
//! memoized release path calls.

use moldable_model::{delta, ModelClass, SpeedupModel};

use crate::registry::AlgoName;

/// Result of Algorithm 2 for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Step 1's allocation `p_j` (the constrained α-minimizer).
    pub initial: u32,
    /// Step 2's final allocation `p'_j = min(p_j, ⌈μP⌉)`.
    pub capped: u32,
}

/// Relative tolerance for the β-constraint: `β ≤ δ` is checked as
/// `t(p) ≤ δ·t_min·(1 + BETA_RTOL)` so that the always-feasible point
/// `p = p_max` (where `β = 1 ≤ δ` exactly) survives float rounding.
const BETA_RTOL: f64 = 1e-12;

/// `⌈μP⌉` — the cap of Step 2.
///
/// # Panics
///
/// Panics if `mu` is outside `(0, 1)` or `p_total == 0`.
#[must_use]
pub fn mu_cap(p_total: u32, mu: f64) -> u32 {
    assert!(p_total >= 1);
    assert!(mu > 0.0 && mu < 1.0, "mu must lie in (0, 1)");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cap = (mu * f64::from(p_total)).ceil() as u32;
    cap.max(1)
}

/// Panic unless `mu` is admissible ([`moldable_model::check_mu`]): the
/// check shared by every entry point and by the schedulers.
#[inline]
pub(crate) fn assert_mu(mu: f64) {
    if let Err(e) = moldable_model::check_mu(mu) {
        panic!("{e}");
    }
}

/// Algorithm 2: allocate processors for one task on a `P = p_total`
/// platform with parameter `μ`.
///
/// For the paper's closed-form models Step 1 is O(1) (a quadratic's
/// root, confirmed by the float predicate at `p` and `p − 1`);
/// for arbitrary (table/closure) models it falls back to the O(p_max)
/// linear scan of [`allocate_linear_reference`], which needs no
/// monotonicity.
///
/// # Panics
///
/// Panics if `mu ∉ (0, (3−√5)/2]` (the constraint would be infeasible:
/// `δ(μ) < 1 ≤ β`), or `p_total == 0`.
#[must_use]
pub fn allocate(model: &SpeedupModel, p_total: u32, mu: f64) -> Allocation {
    assert_mu(mu);
    assert!(p_total >= 1);
    let initial = min_area_initial(model, p_total, mu, delta(mu));
    Allocation {
        initial,
        capped: initial.min(mu_cap(p_total, mu)),
    }
}

/// Step 1 of [`allocate`] with `δ(μ)` already computed.
fn min_area_initial(model: &SpeedupModel, p_total: u32, mu: f64, delta: f64) -> u32 {
    if let SpeedupModel::Table(_)
    | SpeedupModel::Formula {
        nonincreasing: false,
        ..
    } = model
    {
        return allocate_linear_reference(model, p_total, mu).initial;
    }
    let p_max = model.p_max(p_total);
    let threshold = delta * model.time(p_max) * (1.0 + BETA_RTOL);
    let p = smallest_feasible(model, p_max, threshold);
    debug_assert!(model.time(p) <= threshold, "p_max is always feasible");
    p
}

/// The smallest `p ∈ [1, p_max]` with `t(p) ≤ threshold`, given that
/// feasibility is monotone there (Lemma 1) and `p_max` is feasible.
///
/// On `[1, p_max]` every Eq. (1)–(4) model reads
/// `t(p) = w/p + d + c(p−1)` (roofline and general never pass `p̃`
/// there), so `t(p) ≤ T` is `c·p² − b·p + w ≤ 0` with `b = T + c − d`,
/// and the answer is the ceiling of the smaller root
/// `2w / (b + √(b² − 4cw))` (written without cancellation; it is
/// `w/b` when `c = 0`). The estimate is kept only if the float
/// predicate holds at `p` and fails at `p − 1`; otherwise the side that
/// failed is bisected, so a poor estimate costs O(log P), never O(P).
///
/// A formula flagged non-increasing has no closed form and bisects
/// `[1, p_max]`. That is the α-minimizer provided the model is also
/// area-monotone (Lemma 1's second condition) — the flag's contract.
fn smallest_feasible(model: &SpeedupModel, p_max: u32, threshold: f64) -> u32 {
    let (w, d, c) = match *model {
        SpeedupModel::Roofline { w, .. } => (w, 0.0, 0.0),
        SpeedupModel::Communication { w, c } => (w, 0.0, c),
        SpeedupModel::Amdahl { w, d } => (w, d, 0.0),
        SpeedupModel::General { w, d, c, .. } => (w, d, c),
        SpeedupModel::Table(_) | SpeedupModel::Formula { .. } => {
            return bisect_smallest(model, 1, p_max, threshold);
        }
    };
    let b = threshold + c - d;
    let root = 2.0 * w / (b + (b * b - 4.0 * c * w).max(0.0).sqrt());
    // `as` saturates: NaN lands on 0 and +inf on u32::MAX, both clamped.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let estimate = (root.ceil() as u32).clamp(1, p_max);
    settle(model, estimate, p_max, threshold)
}

/// Confirm `estimate ∈ [1, p_max]` as the smallest feasible `p`, or
/// bisect the bracket on the side where the check failed.
fn settle(model: &SpeedupModel, estimate: u32, p_max: u32, threshold: f64) -> u32 {
    if model.time(estimate) > threshold {
        bisect_smallest(
            model,
            estimate.saturating_add(1).min(p_max),
            p_max,
            threshold,
        )
    } else if estimate > 1 && model.time(estimate - 1) <= threshold {
        bisect_smallest(model, 1, estimate - 1, threshold)
    } else {
        estimate
    }
}

/// Bisection for the smallest `p ∈ [lo, hi]` with `t(p) ≤ threshold`,
/// where feasibility is monotone and `hi` is feasible.
fn bisect_smallest(model: &SpeedupModel, mut lo: u32, mut hi: u32, threshold: f64) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if model.time(mid) <= threshold {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Reference implementation of Step 1 by exhaustive scan: among all
/// `p ∈ [1, p_max]` with `β_p ≤ δ(μ)`, pick the one of minimum area
/// (ties broken toward smaller `p`). Correct for *any* model, monotone
/// or not; used to cross-check [`allocate`] in tests and to drive
/// arbitrary models.
///
/// # Panics
///
/// Same contract as [`allocate`].
#[must_use]
pub fn allocate_linear_reference(model: &SpeedupModel, p_total: u32, mu: f64) -> Allocation {
    assert_mu(mu);
    assert!(p_total >= 1);
    let p_max = model.p_max(p_total);
    let threshold = delta(mu) * model.time(p_max) * (1.0 + BETA_RTOL);
    let mut best: Option<(f64, u32)> = None;
    for p in 1..=p_max {
        if model.time(p) <= threshold {
            let area = model.area(p);
            if best.is_none_or(|(a, _)| area < a) {
                best = Some((area, p));
            }
        }
    }
    let (_, initial) = best.expect("p = p_max always satisfies the constraint");
    Allocation {
        initial,
        capped: initial.min(mu_cap(p_total, mu)),
    }
}

/// Relative tolerance for the area budget of the dual allocation:
/// `a(p) ≤ λ·a_min` is checked as `a(p) ≤ λ·a_min·(1 + AREA_RTOL)` so
/// that the always-feasible point `p = 1` (where `a = a_min` exactly
/// for monotone models) survives float rounding.
const AREA_RTOL: f64 = 1e-12;

/// The Improved'23 *dual* local allocation (after Perotin & Sun,
/// arXiv 2304.14127): over `p ∈ [1, p_max]`, minimize the execution
/// time `t(p)` subject to the **area budget** `a(p) ≤ λ·a_min`, where
/// `λ = lambda ≥ 1`; then cap at `⌈μP⌉` exactly like Algorithm 2's
/// Step 2.
///
/// On `[1, p_max]` the area is non-decreasing and the time
/// non-increasing (Lemma 1), so the feasible set is a prefix
/// `[1, p_λ]` and the constrained time-minimizer is simply the
/// *largest* feasible `p` — found here by binary search in O(log P).
/// This is the mirror image of [`allocate`], which takes the smallest
/// `p` meeting a time-stretch bound: the dual spends its whole area
/// budget on parallelism, and the budget makes the area stretch
/// `α ≤ λ` hold *by construction* (integer rounding only shrinks the
/// area), with no rounding slack.
///
/// Unlike [`allocate`], this keeps the bisection: in floats the area
/// predicate can have holes where the exact area is flat to within
/// rounding, and a closed-form estimate with a step-wise fix-up then
/// stops short of the boundary the bisection and the reference scan
/// agree on (pinned by the unit test
/// `dual_keeps_bisection_across_a_float_hole`).
///
/// For arbitrary (table / non-monotone closure) models it falls back
/// to the exhaustive scan of [`allocate_improved_linear_reference`].
///
/// # Panics
///
/// Panics if `mu ∉ (0, (3−√5)/2]`, `lambda < 1`, or `p_total == 0`.
#[must_use]
pub fn allocate_improved(model: &SpeedupModel, p_total: u32, mu: f64, lambda: f64) -> Allocation {
    assert_mu(mu);
    assert!(
        lambda >= 1.0,
        "the area budget needs lambda >= 1, got {lambda}"
    );
    assert!(p_total >= 1);
    let initial = max_budget_initial(model, p_total, mu, lambda);
    Allocation {
        initial,
        capped: initial.min(mu_cap(p_total, mu)),
    }
}

/// Step 1 of [`allocate_improved`]: the largest `p` within the budget.
fn max_budget_initial(model: &SpeedupModel, p_total: u32, mu: f64, lambda: f64) -> u32 {
    if let SpeedupModel::Table(_)
    | SpeedupModel::Formula {
        nonincreasing: false,
        ..
    } = model
    {
        return allocate_improved_linear_reference(model, p_total, mu, lambda).initial;
    }
    let p_max = model.p_max(p_total);
    let budget = lambda * model.a_min() * (1.0 + AREA_RTOL);
    // Binary search for the largest p in [1, p_max] with
    // a(p) <= budget; feasibility is a prefix because the area
    // is non-decreasing on [1, p_max] (Lemma 1).
    let (mut lo, mut hi) = (1u32, p_max);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if model.area(mid) <= budget {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    debug_assert!(model.area(lo) <= budget, "p = 1 is always feasible");
    lo
}

/// Reference implementation of the dual allocation by exhaustive scan:
/// among all `p ∈ [1, p_max]` with `a(p) ≤ λ·a_min` (with `a_min` the
/// exact minimum area over `[1, p_max]`), pick the one of minimum time
/// (ties broken toward smaller `p`). Correct for *any* model, monotone
/// or not; used to cross-check [`allocate_improved`] in tests and to
/// drive arbitrary models.
///
/// # Panics
///
/// Same contract as [`allocate_improved`].
#[must_use]
pub fn allocate_improved_linear_reference(
    model: &SpeedupModel,
    p_total: u32,
    mu: f64,
    lambda: f64,
) -> Allocation {
    assert_mu(mu);
    assert!(lambda >= 1.0, "the area budget needs lambda >= 1");
    assert!(p_total >= 1);
    let p_max = model.p_max(p_total);
    let a_min = (1..=p_max)
        .map(|p| model.area(p))
        .fold(f64::INFINITY, f64::min);
    let budget = lambda * a_min * (1.0 + AREA_RTOL);
    let mut best: Option<(f64, u32)> = None;
    for p in 1..=p_max {
        if model.area(p) <= budget {
            let time = model.time(p);
            if best.is_none_or(|(t, _)| time < t) {
                best = Some((time, p));
            }
        }
    }
    let (_, initial) = best.expect("the area minimizer always fits its own budget");
    Allocation {
        initial,
        capped: initial.min(mu_cap(p_total, mu)),
    }
}

/// Every model class, in declaration order, so `class as usize`
/// indexes it.
const CLASSES: [ModelClass; 5] = [
    ModelClass::Roofline,
    ModelClass::Communication,
    ModelClass::Amdahl,
    ModelClass::General,
    ModelClass::Arbitrary,
];

/// Algorithm 2 for one `(algo, P, μ)`, with the platform's constants
/// computed once: `δ(μ)`, the cap `⌈μP⌉` and the Improved'23 area
/// budget `λ` of every model class. [`Allocator::allocate`] returns
/// exactly what [`AlgoName::allocate`] returns for the same triple, but
/// a call pays no μ checks, no division for `δ` and no ceiling for the
/// cap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Allocator {
    algo: AlgoName,
    p_total: u32,
    mu: f64,
    delta: f64,
    cap: u32,
    /// `algo.lambda(class)`, indexed by `class as usize`.
    lambda: [f64; 5],
}

impl Allocator {
    /// The allocator for `algo` on a `P = p_total` platform with
    /// parameter `μ`.
    ///
    /// # Panics
    ///
    /// Same contract as [`allocate`]: `μ ∈ (0, (3−√5)/2]`,
    /// `p_total ≥ 1`.
    pub(crate) fn new(algo: AlgoName, p_total: u32, mu: f64) -> Self {
        assert_mu(mu);
        assert!(p_total >= 1);
        Self {
            algo,
            p_total,
            mu,
            delta: delta(mu),
            cap: mu_cap(p_total, mu),
            lambda: CLASSES.map(|class| algo.lambda(class)),
        }
    }

    pub(crate) fn algo(&self) -> AlgoName {
        self.algo
    }

    pub(crate) fn p_total(&self) -> u32 {
        self.p_total
    }

    pub(crate) fn mu(&self) -> f64 {
        self.mu
    }

    /// This platform's local allocation for one task.
    pub(crate) fn allocate(&self, model: &SpeedupModel) -> Allocation {
        let initial = match self.algo {
            AlgoName::Icpp22 => min_area_initial(model, self.p_total, self.mu, self.delta),
            AlgoName::Improved23 => {
                let lambda = self.lambda[model.class() as usize];
                max_budget_initial(model, self.p_total, self.mu, lambda)
            }
        };
        Allocation {
            initial,
            capped: initial.min(self.cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_model::{ModelClass, MU_MAX};

    #[test]
    fn mu_cap_rounds_up() {
        assert_eq!(mu_cap(10, 0.31), 4); // ceil(3.1)
        assert_eq!(mu_cap(10, 0.30), 3);
        assert_eq!(mu_cap(1, 0.2), 1); // never below 1
        assert_eq!(mu_cap(100, MU_MAX), 39); // ceil(38.1966)
    }

    #[test]
    fn roofline_takes_pbar_then_caps() {
        // Roofline: t_min at pbar, and beta < delta already at smaller p?
        // t(p) = w/p, t_min = w/pbar; beta_p = pbar/p. With mu = MU_MAX,
        // delta = 1: only p = pbar is feasible.
        let m = SpeedupModel::roofline(100.0, 50).unwrap();
        let a = allocate(&m, 100, MU_MAX);
        assert_eq!(a.initial, 50);
        assert_eq!(a.capped, 39); // ceil(0.382*100) = 39
                                  // Small task unaffected by the cap.
        let m = SpeedupModel::roofline(100.0, 10).unwrap();
        let a = allocate(&m, 100, MU_MAX);
        assert_eq!(a.initial, 10);
        assert_eq!(a.capped, 10);
    }

    #[test]
    fn smaller_mu_relaxes_constraint() {
        // Amdahl: beta_p = t(p)/t_min decreases with p. With a looser
        // delta (smaller mu), a smaller initial allocation is feasible.
        let m = SpeedupModel::amdahl(100.0, 1.0).unwrap();
        let tight = allocate(&m, 64, MU_MAX); // delta = 1
        let loose = allocate(&m, 64, 0.2); // delta = 3.75
        assert_eq!(tight.initial, 64, "delta = 1 forces p_max");
        assert!(loose.initial < tight.initial);
    }

    #[test]
    fn initial_allocation_satisfies_constraint_and_is_minimal() {
        let models = [
            SpeedupModel::roofline(123.0, 77).unwrap(),
            SpeedupModel::communication(345.0, 0.9).unwrap(),
            SpeedupModel::amdahl(512.0, 3.0).unwrap(),
            SpeedupModel::general(800.0, 60, 2.0, 0.4).unwrap(),
        ];
        for m in &models {
            for mu in [0.15, 0.211, 0.271, 0.324, MU_MAX] {
                let p_total = 128;
                let a = allocate(m, p_total, mu);
                let tmin = m.t_min(p_total);
                let d = delta(mu);
                assert!(
                    m.time(a.initial) <= d * tmin * (1.0 + 1e-9),
                    "constraint violated for {m:?} at mu={mu}"
                );
                if a.initial > 1 {
                    assert!(
                        m.time(a.initial - 1) > d * tmin,
                        "not minimal for {m:?} at mu={mu}: p-1 also feasible"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_linear_reference() {
        for mu in [0.211, 0.271, 0.324, MU_MAX] {
            for p_total in [1u32, 2, 3, 7, 32, 100] {
                let models = [
                    SpeedupModel::roofline(40.0, 12).unwrap(),
                    SpeedupModel::communication(90.0, 1.3).unwrap(),
                    SpeedupModel::amdahl(64.0, 2.0).unwrap(),
                    SpeedupModel::general(150.0, 20, 1.0, 0.7).unwrap(),
                ];
                for m in &models {
                    assert_eq!(
                        allocate(m, p_total, mu),
                        allocate_linear_reference(m, p_total, mu),
                        "mismatch for {m:?}, P={p_total}, mu={mu}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_wrong_estimate_settles_on_the_boundary() {
        // Whatever the estimate, bisecting the side whose check failed
        // lands on the true smallest feasible p.
        let m = SpeedupModel::amdahl(1000.0, 1.0).unwrap();
        let p_max = m.p_max(512);
        let threshold = delta(0.2) * m.time(p_max) * (1.0 + BETA_RTOL);
        let want = bisect_smallest(&m, 1, p_max, threshold);
        assert!(want > 2 && want < p_max);
        assert_eq!(smallest_feasible(&m, p_max, threshold), want);
        for estimate in [1, want - 2, want - 1, want, want + 1, want + 9, p_max] {
            assert_eq!(settle(&m, estimate, p_max, threshold), want, "{estimate}");
        }
    }

    #[test]
    fn arbitrary_model_uses_area_minimizing_scan() {
        // Non-monotone area: feasible set {2, 3, 4}, areas 4, 9, 4.8.
        // t: [10, 2, 3, 1.2], t_min = 1.2 at p=4. With mu=0.211,
        // delta ≈ 3.47: threshold ≈ 4.17 → p in {2, 4} feasible
        // (t=2, 1.2); p=3 (t=3) also feasible. Areas: 4, 9, 4.8 → p=2.
        let m = SpeedupModel::table(vec![10.0, 2.0, 3.0, 1.2]).unwrap();
        let a = allocate(&m, 8, 0.211);
        assert_eq!(a.initial, 2);
    }

    #[test]
    fn single_processor_platform() {
        let m = SpeedupModel::amdahl(10.0, 1.0).unwrap();
        let a = allocate(&m, 1, 0.3);
        assert_eq!(
            a,
            Allocation {
                initial: 1,
                capped: 1
            }
        );
    }

    #[test]
    fn optimal_mu_values_are_admissible_for_allocate() {
        let m = SpeedupModel::general(100.0, 32, 1.0, 0.1).unwrap();
        for class in ModelClass::bounded_classes() {
            let _ = allocate(&m, 64, class.optimal_mu());
        }
    }

    #[test]
    #[should_panic(expected = "mu must lie in (0, (3-sqrt(5))/2]")]
    fn rejects_mu_above_bound() {
        let m = SpeedupModel::amdahl(1.0, 0.0).unwrap();
        let _ = allocate(&m, 4, 0.5);
    }

    #[test]
    fn cap_applies_only_above_threshold() {
        // Communication task with p_hat far above the cap.
        let m = SpeedupModel::communication(1e6, 0.01).unwrap(); // s = 10^4
        let p_total = 100;
        let a = allocate(&m, p_total, 0.324);
        let cap = mu_cap(p_total, 0.324); // 33
        assert!(a.initial > cap);
        assert_eq!(a.capped, cap);
    }

    // ---- the Improved'23 dual allocation ----

    #[test]
    fn dual_respects_budget_and_is_maximal() {
        let models = [
            SpeedupModel::roofline(123.0, 77).unwrap(),
            SpeedupModel::communication(345.0, 0.9).unwrap(),
            SpeedupModel::amdahl(512.0, 3.0).unwrap(),
            SpeedupModel::general(800.0, 60, 2.0, 0.4).unwrap(),
        ];
        for m in &models {
            for lambda in [1.0, 1.2361, 1.7575, 2.5] {
                let p_total = 128;
                let a = allocate_improved(m, p_total, 0.3, lambda);
                let budget = lambda * m.a_min();
                assert!(
                    m.area(a.initial) <= budget * (1.0 + 1e-9),
                    "budget violated for {m:?} at lambda={lambda}"
                );
                if a.initial < m.p_max(p_total) {
                    assert!(
                        m.area(a.initial + 1) > budget,
                        "not maximal for {m:?} at lambda={lambda}: p+1 also fits"
                    );
                }
            }
        }
    }

    #[test]
    fn dual_binary_search_matches_linear_reference() {
        for lambda in [1.0, 1.2361, 1.7575, 1.764, 3.0] {
            for p_total in [1u32, 2, 3, 7, 32, 100] {
                let models = [
                    SpeedupModel::roofline(40.0, 12).unwrap(),
                    SpeedupModel::communication(90.0, 1.3).unwrap(),
                    SpeedupModel::amdahl(64.0, 2.0).unwrap(),
                    SpeedupModel::general(150.0, 20, 1.0, 0.7).unwrap(),
                ];
                for m in &models {
                    assert_eq!(
                        allocate_improved(m, p_total, 0.27, lambda),
                        allocate_improved_linear_reference(m, p_total, 0.27, lambda),
                        "mismatch for {m:?}, P={p_total}, lambda={lambda}"
                    );
                }
            }
        }
    }

    #[test]
    fn dual_coincides_with_icpp22_on_roofline() {
        // For roofline tasks both allocations take p_max (the area is
        // flat up to pbar), so at equal mu the two algorithms make
        // identical decisions.
        for (w, pbar, p_total) in [(100.0, 50, 100), (7.0, 200, 64), (1.0, 1, 16)] {
            let m = SpeedupModel::roofline(w, pbar).unwrap();
            assert_eq!(
                allocate_improved(&m, p_total, MU_MAX, 1.0),
                allocate(&m, p_total, MU_MAX),
            );
        }
    }

    #[test]
    fn dual_spends_the_budget_on_parallelism() {
        // Amdahl, lambda = 1.7575: p* ≈ (lambda-1)·w/d + lambda.
        let m = SpeedupModel::amdahl(100.0, 1.0).unwrap();
        let a = allocate_improved(&m, 512, 0.270875, 1.7575);
        assert!(a.initial >= 76 && a.initial <= 77, "got {}", a.initial);
        // The primal (min-area) allocation is far smaller at its mu*.
        let primal = allocate(&m, 512, 0.270875);
        assert!(primal.initial < a.initial);
        // lambda = 1 with strictly increasing area degenerates to p=1.
        let one = allocate_improved(&m, 512, 0.3, 1.0);
        assert_eq!(one.initial, 1);
    }

    #[test]
    fn dual_arbitrary_model_minimizes_time_within_budget() {
        // Areas: 10, 4, 9, 4.8 — a_min = 4 at p=2. lambda = 1.25 →
        // budget 5: feasible {2, 4} (areas 4, 4.8); times 2 vs 1.2 →
        // p = 4.
        let m = SpeedupModel::table(vec![10.0, 2.0, 3.0, 1.2]).unwrap();
        let a = allocate_improved(&m, 8, 0.3, 1.25);
        assert_eq!(a.initial, 4);
        // Tighter budget keeps only the area minimizer.
        let a = allocate_improved(&m, 8, 0.3, 1.0);
        assert_eq!(a.initial, 2);
    }

    #[test]
    fn dual_cap_applies() {
        let m = SpeedupModel::roofline(1e6, 10_000).unwrap();
        let p_total = 100;
        let a = allocate_improved(&m, p_total, 0.331, 1.2361);
        assert_eq!(a.capped, mu_cap(p_total, 0.331));
        assert!(a.initial > a.capped);
    }

    #[test]
    fn dual_keeps_bisection_across_a_float_hole() {
        // The dual's area predicate is not monotone in floats: here the
        // slope d/w of a(p) = w + d·p is below f64 resolution, so the
        // computed areas around the boundary round up and down. The
        // feasible set skips 38 159, and a closed form with a
        // step-wise fix-up would stop at 38 158; bisection and the
        // reference scan agree on 38 160.
        let m = SpeedupModel::amdahl(456_537_315.488_758, 1.196_605_730_534_834_6e-8).unwrap();
        let p_total = 57_141;
        let budget = m.a_min() * (1.0 + AREA_RTOL);
        assert!(m.area(38_158) <= budget);
        assert!(m.area(38_159) > budget, "the hole");
        assert!(m.area(38_160) <= budget);
        let a = allocate_improved(&m, p_total, 0.3, 1.0);
        assert_eq!(a.initial, 38_160);
        assert_eq!(a, allocate_improved_linear_reference(&m, p_total, 0.3, 1.0));
    }

    #[test]
    fn classes_are_listed_in_declaration_order() {
        for (i, class) in CLASSES.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class}");
        }
    }

    #[test]
    fn allocator_matches_the_public_functions() {
        let models = [
            SpeedupModel::roofline(123.0, 77).unwrap(),
            SpeedupModel::communication(345.0, 0.9).unwrap(),
            SpeedupModel::amdahl(512.0, 3.0).unwrap(),
            SpeedupModel::general(800.0, 60, 2.0, 0.4).unwrap(),
            SpeedupModel::table(vec![10.0, 2.0, 3.0, 1.2]).unwrap(),
            SpeedupModel::formula(|p| 10.0 / f64::from(p) + 1.0, true),
        ];
        for algo in crate::ALGOS {
            for mu in [0.05, 0.210_687, 0.331, MU_MAX] {
                for p_total in [1u32, 7, 128] {
                    let allocator = Allocator::new(algo, p_total, mu);
                    for m in &models {
                        assert_eq!(
                            allocator.allocate(m),
                            algo.allocate(m, p_total, mu),
                            "{algo} {m:?} P={p_total} mu={mu}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lambda >= 1")]
    fn dual_rejects_sub_unit_budget() {
        let m = SpeedupModel::amdahl(1.0, 0.0).unwrap();
        let _ = allocate_improved(&m, 4, 0.3, 0.9);
    }
}

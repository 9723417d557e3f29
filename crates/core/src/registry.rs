//! Scheduler-algorithm registry.
//!
//! The repository implements two online algorithms for moldable task
//! graphs behind the one `Scheduler` trait, both driven by the same
//! [`crate::OnlineScheduler`] and its release-path shortcuts:
//!
//! * [`AlgoName::Icpp22`] — the ICPP'22 algorithm of
//!   Benoit–Perotin–Robert–Sun: Algorithm 2 *minimizes area* subject to
//!   the time-stretch constraint `t(p) ≤ δ(μ)·t_min` ([`crate::allocate`]).
//! * [`AlgoName::Improved23`] — the dual local allocation in the spirit
//!   of Perotin & Sun's follow-up (arXiv 2304.14127): *minimize time*
//!   subject to an area budget `a(p) ≤ λ·a_min`
//!   ([`crate::allocate_improved`]), with a per-class budget `λ`.
//!
//! Both feed the same Algorithm 1 list scheduler and both cap the
//! allocation at `⌈μP⌉` (Eq. 7), so every envelope proved through
//! Lemma 5 applies to either: if the local allocation guarantees an
//! area stretch `≤ α` and a time stretch `≤ β ≤ δ(μ)`, the competitive
//! ratio is at most `(μα + 1 − 2μ)/(μ(1−μ))`. The dual allocation
//! enforces `α ≤ λ` *by construction* (integer rounding only shrinks
//! the area), which removes the rounding slack the ICPP'22 analysis
//! pays on the area side — on the communication model this tightens
//! the proven envelope from 3.61 to ≈ 3.37 (see
//! `moldable-analysis::improved`).
//!
//! The registry mirrors `moldable_graph::gen::by_name`: a stable string
//! name per algorithm ([`by_name`], [`AlgoName::name`]), used by the
//! CLI `--algo` flag and the serve wire protocol's `"algo"` field.

use moldable_model::ModelClass;

/// A registered online scheduling algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgoName {
    /// ICPP'22 Algorithm 2: minimum area subject to time stretch.
    Icpp22,
    /// The 2023 dual allocation: minimum time subject to area budget.
    Improved23,
}

/// Every registered algorithm, in registry order (`icpp22` first — the
/// wire default).
pub const ALGOS: [AlgoName; 2] = [AlgoName::Icpp22, AlgoName::Improved23];

/// Resolve an algorithm by its registry name ([`AlgoName::name`]).
///
/// # Errors
///
/// Returns a message naming the unknown algorithm and listing the
/// accepted names.
pub fn by_name(name: &str) -> Result<AlgoName, String> {
    ALGOS.into_iter().find(|a| a.name() == name).ok_or_else(|| {
        format!(
            "unknown algo `{name}`; expected one of {}",
            ALGOS.map(AlgoName::name).join(", ")
        )
    })
}

impl AlgoName {
    /// The registry name (round-trips through [`by_name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Icpp22 => "icpp22",
            Self::Improved23 => "improved23",
        }
    }

    /// The μ minimizing this algorithm's proven envelope for `class`.
    ///
    /// For ICPP'22 these are the paper's Theorems 1–4 values; for the
    /// dual allocation they minimize the Lemma 5 envelope over its
    /// (α, β) family (`moldable-analysis::improved` re-derives them
    /// numerically and pins the match).
    #[must_use]
    pub fn optimal_mu(self, class: ModelClass) -> f64 {
        match self {
            Self::Icpp22 => class.optimal_mu(),
            Self::Improved23 => match class {
                ModelClass::Roofline => moldable_model::MU_MAX,
                ModelClass::Communication => 0.331,
                ModelClass::Amdahl => 0.270875,
                ModelClass::General | ModelClass::Arbitrary => 0.210687,
            },
        }
    }

    /// The dual allocation's per-class area budget `λ` (only meaningful
    /// for [`AlgoName::Improved23`]; the ICPP'22 allocation has no area
    /// budget and returns 1).
    ///
    /// Each value is `α(x*)` at the envelope-optimal `x*` of the class:
    /// roofline `λ = 1` (the allocation is exactly `p_max`),
    /// communication `λ = 1 + x*²`, Amdahl `λ = 1 + x*`, general and
    /// arbitrary `λ = 1 + 1/x* + 1/x*²`.
    #[must_use]
    pub fn lambda(self, class: ModelClass) -> f64 {
        match self {
            Self::Icpp22 => 1.0,
            Self::Improved23 => match class {
                ModelClass::Roofline => 1.0,
                ModelClass::Communication => 1.2361,
                ModelClass::Amdahl => 1.7575,
                ModelClass::General | ModelClass::Arbitrary => 1.7640,
            },
        }
    }

    /// This algorithm's local allocation for one task: [`crate::allocate`]
    /// for ICPP'22, [`crate::allocate_improved`] (with the model
    /// class's own λ) for Improved'23. A pure function of
    /// `(self, model, p_total, mu)` — the memoized and direct paths
    /// can be mixed freely.
    ///
    /// # Panics
    ///
    /// Same contract as [`crate::allocate`].
    #[must_use]
    pub fn allocate(
        self,
        model: &moldable_model::SpeedupModel,
        p_total: u32,
        mu: f64,
    ) -> crate::Allocation {
        match self {
            Self::Icpp22 => crate::allocate(model, p_total, mu),
            Self::Improved23 => {
                crate::allocate_improved(model, p_total, mu, self.lambda(model.class()))
            }
        }
    }

    /// This algorithm's proven competitive-ratio envelope for `class`
    /// — the constant the conformance harness gates every measured
    /// witness ratio against.
    ///
    /// ICPP'22: Table 1 of the paper. Improved'23: the Lemma 5 value of
    /// the dual allocation's (α, β) family at the [`Self::optimal_mu`]
    /// and [`Self::lambda`] above, rounded up at the third decimal
    /// (`moldable-analysis::improved::upper_bound` re-derives each one
    /// numerically). The arbitrary class is gated by the general-model
    /// envelope, which its monotone instances satisfy.
    #[must_use]
    pub fn proven_upper_bound(self, class: ModelClass) -> f64 {
        match self {
            Self::Icpp22 => match class {
                ModelClass::Roofline => 2.62,
                ModelClass::Communication => 3.61,
                ModelClass::Amdahl => 4.74,
                ModelClass::General | ModelClass::Arbitrary => 5.72,
            },
            Self::Improved23 => match class {
                ModelClass::Roofline => 2.619,
                ModelClass::Communication => 3.375,
                ModelClass::Amdahl => 4.731,
                ModelClass::General | ModelClass::Arbitrary => 5.715,
            },
        }
    }
}

impl std::fmt::Display for AlgoName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (algo, name) in ALGOS.into_iter().zip(["icpp22", "improved23"]) {
            assert_eq!(algo.name(), name);
            assert_eq!(by_name(name).unwrap(), algo);
            assert_eq!(algo.to_string(), name);
        }
        assert_eq!(
            by_name("fastest").unwrap_err(),
            "unknown algo `fastest`; expected one of icpp22, improved23"
        );
    }

    #[test]
    fn optimal_mu_is_admissible_for_every_algo_and_class() {
        for algo in ALGOS {
            for class in [
                ModelClass::Roofline,
                ModelClass::Communication,
                ModelClass::Amdahl,
                ModelClass::General,
                ModelClass::Arbitrary,
            ] {
                let mu = algo.optimal_mu(class);
                assert!(
                    moldable_model::check_mu(mu).is_ok(),
                    "{algo}/{class}: mu={mu}"
                );
                assert!(algo.lambda(class) >= 1.0, "{algo}/{class}");
            }
        }
    }

    #[test]
    fn icpp22_bounds_match_table_1() {
        for class in ModelClass::bounded_classes() {
            assert_eq!(
                AlgoName::Icpp22.proven_upper_bound(class),
                class.proven_upper_bound().unwrap(),
                "{class}"
            );
        }
    }

    #[test]
    fn improved_envelope_never_exceeds_icpp22() {
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            assert!(
                AlgoName::Improved23.proven_upper_bound(class)
                    <= AlgoName::Icpp22.proven_upper_bound(class) + 5e-3,
                "{class}"
            );
        }
    }
}

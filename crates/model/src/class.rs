//! Classification of speedup models and the per-class tuning constants
//! proved optimal in the paper.

/// Which of the paper's speedup-model families a task belongs to.
///
/// The online algorithm's tuning parameter `μ` (and therefore its
/// competitive ratio) depends on the *family* of the execution-time
/// function, not on the individual task parameters; the scheduler picks
/// `μ` from the class of the task graph (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// `t(p) = w / min(p, p̃)` — linear speedup up to a parallelism cap
    /// (Eq. 2, Williams et al.'s roofline).
    Roofline,
    /// `t(p) = w/p + c (p − 1)` — perfectly parallel work plus a linear
    /// communication overhead (Eq. 3).
    Communication,
    /// `t(p) = w/p + d` — parallel fraction plus an inherently
    /// sequential fraction (Eq. 4, Amdahl's law).
    Amdahl,
    /// `t(p) = w / min(p, p̃) + d + c (p − 1)` — the general combination
    /// (Eq. 1).
    General,
    /// Any other execution-time function (tabulated or closure).
    /// The paper proves no deterministic online algorithm has a
    /// constant competitive ratio here (Theorem 9).
    Arbitrary,
}

impl ModelClass {
    /// The value of `μ` that minimizes the proven competitive-ratio
    /// upper bound for this class (Theorems 1–4).
    ///
    /// | class | μ* | ratio |
    /// |-------|-----|-------|
    /// | roofline | (3−√5)/2 ≈ 0.381966 | 2.62 |
    /// | communication | ≈ 0.324 | 3.61 |
    /// | Amdahl | ≈ 0.271 | 4.74 |
    /// | general | ≈ 0.211 | 5.72 |
    ///
    /// For [`ModelClass::Arbitrary`] no constant ratio exists; we fall
    /// back to the general-model μ, which is a reasonable heuristic but
    /// carries no guarantee.
    ///
    /// The figures below are the paper's rounded values refined by the
    /// numerical minimization in `moldable-analysis` (which also tests
    /// that these constants are the minimizers).
    #[must_use]
    pub fn optimal_mu(self) -> f64 {
        match self {
            Self::Roofline => crate::MU_MAX,
            Self::Communication => 0.323495,
            Self::Amdahl => 0.270875,
            Self::General | Self::Arbitrary => 0.210687,
        }
    }

    /// The paper's proven competitive-ratio upper bound for this class
    /// (Table 1). `None` for the arbitrary model, where no deterministic
    /// online algorithm can be constant-competitive.
    #[must_use]
    pub fn proven_upper_bound(self) -> Option<f64> {
        match self {
            Self::Roofline => Some(2.62),
            Self::Communication => Some(3.61),
            Self::Amdahl => Some(4.74),
            Self::General => Some(5.72),
            Self::Arbitrary => None,
        }
    }

    /// The paper's lower bound on the competitiveness of *this
    /// algorithm* for the class (Table 1, second row).
    #[must_use]
    pub fn proven_lower_bound(self) -> Option<f64> {
        match self {
            Self::Roofline => Some(2.61),
            Self::Communication => Some(3.51),
            Self::Amdahl => Some(4.73),
            Self::General => Some(5.25),
            Self::Arbitrary => None,
        }
    }

    /// Human-readable name, as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Roofline => "roofline",
            Self::Communication => "communication",
            Self::Amdahl => "amdahl",
            Self::General => "general",
            Self::Arbitrary => "arbitrary",
        }
    }

    /// The bounded class called `name` (its [`name`](Self::name), or
    /// `comm` for communication); `None` for anything else, including
    /// `arbitrary`. The CLI and the daemon both read model names here.
    #[must_use]
    pub fn by_name(name: &str) -> Option<ModelClass> {
        if name == "comm" {
            return Some(Self::Communication);
        }
        Self::bounded_classes()
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// All four classes with proven constant ratios, in Table 1 order.
    #[must_use]
    pub fn bounded_classes() -> [ModelClass; 4] {
        [
            Self::Roofline,
            Self::Communication,
            Self::Amdahl,
            Self::General,
        ]
    }

    /// The most general class that contains both operands.
    ///
    /// Used when a graph mixes tasks of different families: the
    /// scheduler must fall back to the μ of the common generalization.
    #[must_use]
    pub fn join(self, other: ModelClass) -> ModelClass {
        use ModelClass::{Amdahl, Arbitrary, Communication, General, Roofline};
        match (self, other) {
            (a, b) if a == b => a,
            (Arbitrary, _) | (_, Arbitrary) => Arbitrary,
            // Any two distinct members of {roofline, comm, amdahl,
            // general} only share the general model as an umbrella.
            (Roofline | Communication | Amdahl | General, _) => General,
        }
    }
}

impl std::fmt::Display for ModelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_mu_within_admissible_range() {
        for class in ModelClass::bounded_classes() {
            let mu = class.optimal_mu();
            assert!(crate::check_mu(mu).is_ok(), "{class}: mu={mu}");
        }
    }

    #[test]
    fn by_name_reads_every_bounded_class_and_the_comm_alias() {
        for class in ModelClass::bounded_classes() {
            assert_eq!(ModelClass::by_name(class.name()), Some(class));
        }
        assert_eq!(ModelClass::by_name("comm"), Some(ModelClass::Communication));
        assert_eq!(ModelClass::by_name("arbitrary"), None);
        assert_eq!(ModelClass::by_name("Amdahl"), None);
    }

    #[test]
    fn bounds_match_table1() {
        assert_eq!(ModelClass::Roofline.proven_upper_bound(), Some(2.62));
        assert_eq!(ModelClass::Communication.proven_upper_bound(), Some(3.61));
        assert_eq!(ModelClass::Amdahl.proven_upper_bound(), Some(4.74));
        assert_eq!(ModelClass::General.proven_upper_bound(), Some(5.72));
        assert_eq!(ModelClass::Arbitrary.proven_upper_bound(), None);
        assert_eq!(ModelClass::Roofline.proven_lower_bound(), Some(2.61));
        assert_eq!(ModelClass::Communication.proven_lower_bound(), Some(3.51));
        assert_eq!(ModelClass::Amdahl.proven_lower_bound(), Some(4.73));
        assert_eq!(ModelClass::General.proven_lower_bound(), Some(5.25));
    }

    #[test]
    fn lower_bounds_below_upper_bounds() {
        for class in ModelClass::bounded_classes() {
            assert!(class.proven_lower_bound().unwrap() <= class.proven_upper_bound().unwrap());
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        use ModelClass::*;
        let all = [Roofline, Communication, Amdahl, General, Arbitrary];
        for &a in &all {
            assert_eq!(a.join(a), a);
            for &b in &all {
                assert_eq!(a.join(b), b.join(a));
            }
        }
        assert_eq!(Roofline.join(Amdahl), General);
        assert_eq!(Communication.join(General), General);
        assert_eq!(Arbitrary.join(Roofline), Arbitrary);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelClass::Roofline.to_string(), "roofline");
        assert_eq!(ModelClass::General.to_string(), "general");
    }
}

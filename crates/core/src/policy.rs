//! Waiting-queue orderings for Algorithm 1.
//!
//! The paper inserts available tasks "without any priority
//! considerations" (pure FIFO) but remarks that "in practice certain
//! priority rules may work better". This module implements that remark:
//! the competitive-ratio proof is order-independent (any list schedule
//! satisfies Lemmas 3–4), so every policy here retains the guarantee
//! while potentially improving the constant in practice. The ablation
//! bench compares them.

use moldable_model::SpeedupModel;

/// How the waiting queue of Algorithm 1 is scanned at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Release order — the paper's stated behaviour.
    #[default]
    Fifo,
    /// Longest processing time (under the capped allocation) first —
    /// the classic LPT heuristic.
    LongestFirst,
    /// Shortest processing time first.
    ShortestFirst,
    /// Smallest allocation first: maximizes the number of running tasks.
    SmallestAllocFirst,
    /// Largest allocation first: drains wide tasks before narrow ones
    /// can fragment the platform.
    LargestAllocFirst,
}

impl QueuePolicy {
    /// Sort key: tasks with *smaller* key are tried first. `dur` is the
    /// task's execution time under its capped allocation, `alloc` the
    /// capped allocation, `seq` the release sequence number (always the
    /// final tie-breaker so every policy is deterministic and fair).
    #[must_use]
    pub fn key(self, dur: f64, alloc: u32, seq: u64) -> (f64, u64) {
        self.key_with(|| dur, alloc, seq)
    }

    /// [`QueuePolicy::key`] for a task with speedup model `model`,
    /// evaluating the duration only for the policies that order by it.
    pub(crate) fn key_for(self, model: &SpeedupModel, alloc: u32, seq: u64) -> (f64, u64) {
        self.key_with(|| model.time(alloc), alloc, seq)
    }

    fn key_with(self, dur: impl FnOnce() -> f64, alloc: u32, seq: u64) -> (f64, u64) {
        let primary = match self {
            Self::Fifo => 0.0,
            Self::LongestFirst => -dur(),
            Self::ShortestFirst => dur(),
            Self::SmallestAllocFirst => f64::from(alloc),
            Self::LargestAllocFirst => -f64::from(alloc),
        };
        (primary, seq)
    }

    /// All policies, for sweeps.
    #[must_use]
    pub fn all() -> [QueuePolicy; 5] {
        [
            Self::Fifo,
            Self::LongestFirst,
            Self::ShortestFirst,
            Self::SmallestAllocFirst,
            Self::LargestAllocFirst,
        ]
    }

    /// Short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::LongestFirst => "lpt",
            Self::ShortestFirst => "spt",
            Self::SmallestAllocFirst => "narrow-first",
            Self::LargestAllocFirst => "wide-first",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_by_sequence() {
        let a = QueuePolicy::Fifo.key(9.0, 5, 1);
        let b = QueuePolicy::Fifo.key(1.0, 1, 2);
        assert!(a < b);
    }

    #[test]
    fn lpt_prefers_long_tasks() {
        let long = QueuePolicy::LongestFirst.key(9.0, 1, 5);
        let short = QueuePolicy::LongestFirst.key(1.0, 1, 1);
        assert!(long < short);
    }

    #[test]
    fn spt_prefers_short_tasks() {
        let long = QueuePolicy::ShortestFirst.key(9.0, 1, 1);
        let short = QueuePolicy::ShortestFirst.key(1.0, 1, 5);
        assert!(short < long);
    }

    #[test]
    fn alloc_policies_order_by_width() {
        assert!(
            QueuePolicy::SmallestAllocFirst.key(1.0, 2, 9)
                < QueuePolicy::SmallestAllocFirst.key(1.0, 8, 1)
        );
        assert!(
            QueuePolicy::LargestAllocFirst.key(1.0, 8, 9)
                < QueuePolicy::LargestAllocFirst.key(1.0, 2, 1)
        );
    }

    #[test]
    fn duration_is_evaluated_exactly_when_the_key_reads_it() {
        let model = SpeedupModel::amdahl(10.0, 1.0).unwrap();
        for p in QueuePolicy::all() {
            let moves = [0.0, 1.0, 7.5, 1e9]
                .iter()
                .any(|&dur| p.key(dur, 3, 1) != p.key(2.0, 3, 1));
            let mut evaluated = false;
            let lazy = p.key_with(
                || {
                    evaluated = true;
                    2.0
                },
                3,
                1,
            );
            assert_eq!(lazy, p.key(2.0, 3, 1), "{}", p.name());
            assert_eq!(evaluated, moves, "{}", p.name());
            assert_eq!(p.key_for(&model, 3, 1), p.key(model.time(3), 3, 1));
        }
    }

    #[test]
    fn ties_break_by_sequence() {
        for p in QueuePolicy::all() {
            assert!(p.key(3.0, 3, 1) < p.key(3.0, 3, 2), "{}", p.name());
        }
    }
}

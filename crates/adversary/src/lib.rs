//! The paper's lower-bound constructions (Section 4.4 and Section 5).
//!
//! Each module builds an *instance* — a task graph plus, where the
//! proof gives one, the makespan of an explicit near-optimal offline
//! schedule — such that the online algorithm (or, for [`arbitrary`], *any*
//! deterministic online algorithm) is forced toward the proven
//! competitive-ratio lower bound:
//!
//! * [`generic`] — the layered graph of **Figure 1**, shared by
//!   Theorems 6–8;
//! * [`roofline`] — **Theorem 5**: one task, ratio → `1/μ ≈ 2.618`;
//! * [`communication`] — **Theorem 6**: ratio → `> 3.51`;
//! * [`amdahl`] — **Theorem 7**: ratio → `> 4.73`;
//! * [`general`] — **Theorem 8**: ratio → `> 5.25`;
//! * [`arbitrary`] — **Theorem 9 / Figures 3–4**: the adaptive chain
//!   adversary forcing `Ω(ln D)` on any deterministic algorithm.
//!
//! The proof schedules of Theorems 5–8 are built only on request, by
//! each module's `proof_schedule`: an instance keeps just their
//! makespan, folded from the same placement generator.
//!
//! # Example
//!
//! ```
//! use moldable_adversary::roofline;
//!
//! // Theorem 5: the measured ratio approaches 1/mu ≈ 2.618 as P grows.
//! let r = roofline::measured_ratio(10_000);
//! assert!(r > 2.61 && r < 2.62);
//! ```

#![forbid(unsafe_code)]

pub mod amdahl;
pub mod arbitrary;
pub mod communication;
pub mod general;
pub mod generic;
pub mod roofline;

use moldable_core::{AlgoName, OnlineScheduler};
use moldable_graph::{TaskGraph, TaskId};
use moldable_model::ModelClass;
use moldable_sim::{simulate, Schedule, ScheduleBuilder, SimOptions};

/// Where a proof's placement generator sends each placement:
/// `(task, start, duration, procs)`.
type Place<'a> = &'a mut dyn FnMut(TaskId, f64, f64, u32);

/// The makespan of the placements `placements` emits, folded without
/// storing them: the largest `start + duration`, as
/// [`ScheduleBuilder::build`] computes it.
fn proof_makespan(placements: impl FnOnce(Place<'_>)) -> f64 {
    let mut makespan = 0.0;
    placements(&mut |_, start, duration, _| makespan = f64::max(makespan, start + duration));
    makespan
}

/// The schedule of the placements `placements` emits.
fn proof_schedule(p_total: u32, placements: impl FnOnce(Place<'_>)) -> Schedule {
    let mut sb = ScheduleBuilder::new(p_total);
    placements(&mut |task, start, duration, procs| {
        sb.place(task, start, duration, procs);
    });
    sb.build()
}

/// A lower-bound instance ready to run: the graph, the μ the paper's
/// proof fixes for the online algorithm, and the makespan of the
/// proof's explicit alternative schedule (an upper bound on `T_opt`).
/// The schedule itself is built on request by the witness module's
/// `proof_schedule`.
#[derive(Debug)]
pub struct LowerBoundInstance {
    /// The adversarial task graph.
    pub graph: TaskGraph,
    /// Platform size the construction targets.
    pub p_total: u32,
    /// The μ the proof assumes the algorithm runs with.
    pub mu: f64,
    /// Makespan of the proof's explicit offline schedule (≥ `T_opt`).
    pub t_opt_upper: f64,
}

impl LowerBoundInstance {
    /// Run the paper's algorithm (with the instance's μ) on the
    /// instance and return `(makespan, ratio vs. t_opt_upper)`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails — the instances are valid by
    /// construction, so a failure is a bug.
    #[must_use]
    pub fn run_online(&self) -> (f64, f64) {
        let mut sched = OnlineScheduler::with_mu(self.mu);
        self.run_with(&mut sched)
    }

    /// Run any registered algorithm on the instance: ICPP'22 keeps the
    /// proof's μ (the witnesses are constructed against it); every
    /// other algorithm runs with its own envelope-optimal μ for
    /// `class`, since the witness is just an ordinary input to it.
    /// Returns `(makespan, ratio vs. t_opt_upper)`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails — the instances are valid by
    /// construction, so a failure is a bug.
    #[must_use]
    pub fn run_algo(&self, algo: AlgoName, class: ModelClass) -> (f64, f64) {
        let mut sched = match algo {
            AlgoName::Icpp22 => OnlineScheduler::with_mu(self.mu),
            other => OnlineScheduler::for_algo_class(other, class),
        };
        self.run_with(&mut sched)
    }

    fn run_with(&self, sched: &mut OnlineScheduler) -> (f64, f64) {
        let s = simulate(&self.graph, sched, &SimOptions::new(self.p_total))
            .expect("lower-bound instances simulate cleanly");
        s.validate(&self.graph).expect("online schedule is valid");
        (s.makespan, s.makespan / self.t_opt_upper)
    }
}

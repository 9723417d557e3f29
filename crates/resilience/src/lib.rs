//! Failure-prone execution of moldable task graphs.
//!
//! The paper notes (Section 2, discussing Benoit et al.'s resilient
//! scheduling) that "our results can readily carry over to the failure
//! scenario", where a task that fails (e.g. due to a silent error
//! detected at completion) must be re-executed until it succeeds. This
//! crate implements that scenario as a simulator [`Instance`]:
//!
//! * every *attempt* of a task is a fresh task revealed to the
//!   scheduler only when needed (failures are discovered on the fly —
//!   the semi-online model of the resilient-scheduling papers);
//! * an attempt fails independently with probability `q` (seeded,
//!   reproducible), in which case a new attempt of the same task is
//!   released; successors are released only after a *successful*
//!   attempt;
//! * the realized instance — the graph actually executed, with one
//!   node per attempt — is exposed afterwards so that makespans can be
//!   normalized by the realized lower bound (every attempt's work is
//!   mandatory in hindsight).
//!
//! # Example
//!
//! ```
//! use moldable_core::OnlineScheduler;
//! use moldable_graph::gen;
//! use moldable_model::{ModelClass, SpeedupModel};
//! use moldable_resilience::FaultyInstance;
//! use moldable_sim::{simulate_instance, SimOptions};
//!
//! let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(10.0, 1.0).unwrap();
//! let g = gen::fork_join(4, 2, &mut assign);
//!
//! let mut inst = FaultyInstance::new(&g, 0.3, 42); // 30% failures, seeded
//! let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
//! let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(16)).unwrap();
//! s.check_capacity(1e-9).unwrap();
//! assert!(inst.total_attempts() >= g.n_tasks() as u64);
//! ```

#![forbid(unsafe_code)]

use moldable_graph::{TaskGraph, TaskId};
use moldable_model::rng::Rng;
use moldable_model::rng::StdRng;
use moldable_model::SpeedupModel;
use moldable_sim::Instance;

/// How attempt failures are drawn.
///
/// The silent-error literature (and Benoit et al.'s resilient
/// scheduling, which the paper cites) models errors striking per unit
/// of *resource time*: a task running for `t` on `p` processors
/// survives with probability `exp(−λ·p·t)`. The constant-per-attempt
/// variant is the simpler model used in quick experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureModel {
    /// Every attempt fails independently with the same probability `q`.
    PerAttempt(f64),
    /// An attempt on `p` processors for time `t` fails with probability
    /// `1 − exp(−λ·p·t)` — larger/longer attempts fail more often.
    PerCoreTime(f64),
}

impl FailureModel {
    /// Failure probability of an attempt with the given area
    /// (`procs × duration`).
    #[must_use]
    pub fn failure_probability(self, area: f64) -> f64 {
        match self {
            Self::PerAttempt(q) => q,
            Self::PerCoreTime(lambda) => 1.0 - (-lambda * area).exp(),
        }
    }

    fn validate(self) {
        match self {
            Self::PerAttempt(q) => assert!(
                (0.0..1.0).contains(&q),
                "failure probability must be in [0, 1), got {q}"
            ),
            Self::PerCoreTime(lambda) => assert!(
                lambda.is_finite() && lambda >= 0.0,
                "failure rate must be finite and >= 0, got {lambda}"
            ),
        }
    }
}

/// A task graph executed on a failure-prone platform: each attempt
/// fails independently with probability `q` and is retried until it
/// succeeds.
#[derive(Debug)]
pub struct FaultyInstance<'a> {
    graph: &'a TaskGraph,
    failure: FailureModel,
    rng: StdRng,
    /// attempt id → original task.
    origin: Vec<TaskId>,
    /// per original task: attempts so far.
    attempts: Vec<u32>,
    /// per original task: remaining predecessors.
    remaining_preds: Vec<u32>,
    succeeded: Vec<bool>,
    n_succeeded: usize,
    next_id: u32,
    /// Optional cap on attempts per task (`None` = retry forever).
    max_attempts: Option<u32>,
    /// The sources' first attempts have arrived (at time 0).
    started: bool,
}

impl<'a> FaultyInstance<'a> {
    /// Wrap `graph` with i.i.d. per-attempt failure probability
    /// `fail_prob`, using a deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fail_prob < 1` (at `q = 1` no task ever
    /// completes).
    #[must_use]
    pub fn new(graph: &'a TaskGraph, fail_prob: f64, seed: u64) -> Self {
        Self::with_model(graph, FailureModel::PerAttempt(fail_prob), seed)
    }

    /// Wrap `graph` with an explicit [`FailureModel`].
    ///
    /// # Panics
    ///
    /// Panics if the model parameters are out of range.
    #[must_use]
    pub fn with_model(graph: &'a TaskGraph, failure: FailureModel, seed: u64) -> Self {
        failure.validate();
        let n = graph.n_tasks();
        Self {
            graph,
            failure,
            rng: StdRng::seed_from_u64(seed),
            origin: Vec::new(),
            attempts: vec![0; n],
            remaining_preds: graph
                .task_ids()
                .map(|t| u32::try_from(graph.preds(t).len()).expect("fits u32"))
                .collect(),
            succeeded: vec![false; n],
            n_succeeded: 0,
            next_id: 0,
            max_attempts: None,
            started: false,
        }
    }

    /// Cap the number of attempts per task (further failures are
    /// treated as success — "detected but accepted"). Mainly for tests.
    #[must_use]
    pub fn with_max_attempts(mut self, cap: u32) -> Self {
        assert!(cap >= 1);
        self.max_attempts = Some(cap);
        self
    }

    fn attempt_for(&mut self, task: TaskId) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.origin.len(), id.index());
        self.origin.push(task);
        self.attempts[task.index()] += 1;
        id
    }

    /// Total attempts released so far (≥ `n_tasks` on completion).
    #[must_use]
    pub fn total_attempts(&self) -> u64 {
        self.origin.len() as u64
    }

    /// Attempts used by one original task.
    #[must_use]
    pub fn attempts_of(&self, task: TaskId) -> u32 {
        self.attempts[task.index()]
    }

    /// The original task an attempt id executes.
    #[must_use]
    pub fn origin_of(&self, attempt: TaskId) -> TaskId {
        self.origin[attempt.index()]
    }

    /// The lower bound of Lemma 2 applied to the *realized* instance:
    /// every executed attempt is mandatory work in hindsight, so
    /// `A_min` sums `a_min` per attempt, and `C_min` weights each task
    /// on a path by `attempts × t_min`. Valid only after the run.
    #[must_use]
    pub fn realized_lower_bound(&self, p_total: u32) -> f64 {
        let g = self.graph;
        let a_min: f64 = g
            .task_ids()
            .map(|t| f64::from(self.attempts[t.index()]) * g.model(t).a_min())
            .sum();
        // longest path with attempt-weighted t_min
        let mut dist = vec![0.0f64; g.n_tasks()];
        let mut c_min = 0.0f64;
        for t in g.topo_order() {
            let w = f64::from(self.attempts[t.index()]) * g.model(t).t_min(p_total);
            let longest = g
                .preds(t)
                .iter()
                .map(|p| dist[p.index()])
                .fold(0.0, f64::max);
            dist[t.index()] = longest + w;
            c_min = c_min.max(dist[t.index()]);
        }
        (a_min / f64::from(p_total)).max(c_min)
    }
}

impl Instance for FaultyInstance<'_> {
    fn next_arrival(&self) -> Option<f64> {
        (!self.started).then_some(0.0)
    }

    /// A first attempt of every source, at time 0.
    fn arrivals_into(&mut self, _time: f64, out: &mut Vec<TaskId>) {
        self.started = true;
        let graph = self.graph;
        for &t in graph.sources() {
            out.push(self.attempt_for(t));
        }
    }

    fn on_complete_into(&mut self, attempt: TaskId, _time: f64, out: &mut Vec<TaskId>) {
        let task = self.origin[attempt.index()];
        debug_assert!(
            !self.succeeded[task.index()],
            "task completed after success"
        );
        let capped = self
            .max_attempts
            .is_some_and(|cap| self.attempts[task.index()] >= cap);
        // The instance does not observe the scheduler's allocation, so
        // PerCoreTime rates apply to the task's minimum area a_min — a
        // faithful model of "errors strike per unit of work" that stays
        // allocation-independent (monotonic tasks: a(1) <= a(p)).
        let q = self
            .failure
            .failure_probability(self.graph.model(task).a_min());
        if !capped && self.rng.gen_bool(q) {
            // Silent error detected at completion: run it again.
            out.push(self.attempt_for(task));
            return;
        }
        self.succeeded[task.index()] = true;
        self.n_succeeded += 1;
        for &s in self.graph.succs(task) {
            let r = &mut self.remaining_preds[s.index()];
            *r -= 1;
            if *r == 0 {
                out.push(self.attempt_for(s));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.n_succeeded == self.graph.n_tasks()
    }

    fn model(&self, attempt: TaskId) -> &SpeedupModel {
        // Every attempt runs the original task's model.
        self.graph.model(self.origin[attempt.index()])
    }

    fn size_hint(&self) -> usize {
        // At least one attempt per task; retries grow past the hint.
        self.graph.n_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::OnlineScheduler;
    use moldable_graph::gen;
    use moldable_graph::GraphBuilder;
    use moldable_model::ModelClass;
    use moldable_sim::{simulate, simulate_instance, SimOptions};

    fn chain(n: usize) -> TaskGraph {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(8.0, 0.5).unwrap();
        gen::chain(n, &mut assign)
    }

    #[test]
    fn zero_failure_matches_plain_simulation() {
        let g = chain(6);
        let opts = SimOptions::new(8);
        let mut plain = OnlineScheduler::for_class(ModelClass::Amdahl);
        let base = simulate(&g, &mut plain, &opts).unwrap();

        let mut inst = FaultyInstance::new(&g, 0.0, 1);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let faulty = simulate_instance(&mut inst, &mut sched, &opts).unwrap();
        assert_eq!(faulty.makespan, base.makespan);
        assert_eq!(inst.total_attempts(), 6);
        assert!(g.task_ids().all(|t| inst.attempts_of(t) == 1));
    }

    #[test]
    fn failures_cause_reexecution_and_still_complete() {
        let g = chain(10);
        let mut inst = FaultyInstance::new(&g, 0.5, 7);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(8)).unwrap();
        assert!(inst.is_done());
        assert!(inst.total_attempts() > 10, "q = 0.5 must trigger retries");
        s.check_capacity(1e-9).unwrap();
        // Makespan equals the sum over attempts (chain, serial).
        assert_eq!(s.placements.len() as u64, inst.total_attempts());
    }

    #[test]
    fn q_zero_never_reattempts_whatever_the_seed() {
        // `gen_bool(0.0)` must be a hard false, not "false with high
        // probability": across many seeds no task may ever retry.
        let g = chain(5);
        for seed in 0..50 {
            let mut inst = FaultyInstance::new(&g, 0.0, seed);
            let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
            let _ = simulate_instance(&mut inst, &mut sched, &SimOptions::new(4)).unwrap();
            assert_eq!(inst.total_attempts(), 5, "seed {seed} retried at q = 0");
            assert!(g.task_ids().all(|t| inst.attempts_of(t) == 1));
        }
    }

    #[test]
    fn q_near_one_still_terminates() {
        // At q = 0.99 each task needs ~100 attempts in expectation;
        // the run must still finish (geometric tail, never infinite).
        let g = chain(2);
        let mut inst = FaultyInstance::new(&g, 0.99, 17);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(4)).unwrap();
        assert!(inst.is_done());
        assert!(
            inst.total_attempts() >= 2,
            "both tasks eventually succeeded"
        );
        s.check_capacity(1e-9).unwrap();
        // The realized lower bound scales with the attempts actually
        // made, so competitiveness holds even in this extreme regime.
        assert!(s.makespan <= 4.74 * inst.realized_lower_bound(4) * (1.0 + 1e-9));
    }

    #[test]
    fn mean_attempts_approaches_geometric_expectation() {
        // E[attempts] = 1/(1−q).
        let q = 0.3;
        let g = {
            let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(1.0, 0.0).unwrap();
            gen::independent(2000, &mut assign)
        };
        let mut inst = FaultyInstance::new(&g, q, 99);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let _ = simulate_instance(&mut inst, &mut sched, &SimOptions::new(64)).unwrap();
        #[allow(clippy::cast_precision_loss)]
        let mean = inst.total_attempts() as f64 / 2000.0;
        let expect = 1.0 / (1.0 - q);
        assert!(
            (mean - expect).abs() < 0.1,
            "mean attempts {mean} vs geometric expectation {expect}"
        );
    }

    #[test]
    fn competitive_against_realized_lower_bound() {
        // The paper's carry-over claim: with re-execution, the
        // algorithm stays within its ratio of the REALIZED instance's
        // lower bound (each attempt being mandatory in hindsight).
        let mut assign =
            |ctx: gen::TaskCtx<'_>| SpeedupModel::amdahl(20.0 * ctx.weight, 0.5).unwrap();
        let g = gen::cholesky(4, &mut assign);
        let p_total = 16;
        for seed in 0..5 {
            let mut inst = FaultyInstance::new(&g, 0.25, seed);
            let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
            let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(p_total)).unwrap();
            let lb = inst.realized_lower_bound(p_total);
            assert!(
                s.makespan <= 4.74 * lb * (1.0 + 1e-9),
                "seed {seed}: {} > 4.74 x {lb}",
                s.makespan
            );
        }
    }

    #[test]
    fn max_attempts_caps_retries() {
        let g = chain(4);
        let mut inst = FaultyInstance::new(&g, 0.9, 3).with_max_attempts(2);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let _ = simulate_instance(&mut inst, &mut sched, &SimOptions::new(4)).unwrap();
        assert!(g.task_ids().all(|t| inst.attempts_of(t) <= 2));
        assert!(inst.is_done());
    }

    #[test]
    fn per_core_time_failures_hit_big_tasks_harder() {
        use super::FailureModel;
        // Two independent task sets: tiny tasks vs huge tasks, same
        // lambda. The huge tasks must retry much more often.
        let lambda = 0.02;
        let mk = |w: f64, n: usize| {
            let mut g = GraphBuilder::new();
            for _ in 0..n {
                g.add_task(SpeedupModel::amdahl(w, 0.0).unwrap());
            }
            g.freeze()
        };
        let small = mk(1.0, 400);
        let big = mk(100.0, 400);
        let attempts = |g: &TaskGraph, seed| {
            let mut inst = FaultyInstance::with_model(g, FailureModel::PerCoreTime(lambda), seed);
            let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
            let _ = simulate_instance(&mut inst, &mut sched, &SimOptions::new(64)).unwrap();
            #[allow(clippy::cast_precision_loss)]
            let mean = inst.total_attempts() as f64 / 400.0;
            mean
        };
        let a_small = attempts(&small, 3);
        let a_big = attempts(&big, 3);
        // expectations: 1/exp(-lambda*a_min): small ~1.02, big ~ e^2 ~ 7.4
        assert!(a_small < 1.1, "small tasks mean attempts {a_small}");
        assert!(a_big > 4.0, "big tasks mean attempts {a_big}");
        // geometric expectation check for the big tasks
        let q = FailureModel::PerCoreTime(lambda).failure_probability(100.0);
        let expect = 1.0 / (1.0 - q);
        assert!(
            (a_big - expect).abs() / expect < 0.15,
            "mean {a_big} vs geometric {expect}"
        );
    }

    #[test]
    fn failure_probability_formulas() {
        use super::FailureModel;
        assert_eq!(
            FailureModel::PerAttempt(0.25).failure_probability(123.0),
            0.25
        );
        let q = FailureModel::PerCoreTime(0.1).failure_probability(10.0);
        assert!((q - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(
            FailureModel::PerCoreTime(0.0).failure_probability(10.0),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "failure rate")]
    fn rejects_negative_rate() {
        let g = chain(1);
        let _ = FaultyInstance::with_model(&g, super::FailureModel::PerCoreTime(-1.0), 0);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn rejects_certain_failure() {
        let g = chain(1);
        let _ = FaultyInstance::new(&g, 1.0, 0);
    }

    #[test]
    fn origin_mapping_is_consistent() {
        let g = chain(3);
        let mut inst = FaultyInstance::new(&g, 0.4, 11);
        let mut sched = OnlineScheduler::for_class(ModelClass::Amdahl);
        let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(4)).unwrap();
        // Every placement's attempt maps to a task of the graph, and
        // per-task attempt counts sum to the total.
        let total: u32 = g.task_ids().map(|t| inst.attempts_of(t)).sum();
        assert_eq!(u64::from(total), inst.total_attempts());
        for pl in &s.placements {
            let orig = inst.origin_of(pl.task);
            assert!(orig.index() < g.n_tasks());
        }
    }
}

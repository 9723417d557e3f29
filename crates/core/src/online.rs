//! Algorithm 1: the online list-scheduling algorithm.
//!
//! Released tasks wait in an allocation-bucketed
//! [`IndexedQueue`](crate::ready_queue::IndexedQueue); each decision
//! point starts every waiting task that fits, in policy-key order.

use std::collections::HashMap;

use moldable_graph::TaskId;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::Scheduler;

use crate::memo::AllocCache;
use crate::ready_queue::{IndexedQueue, ReadyItem};
use crate::registry::AlgoName;
use crate::{Allocation, QueuePolicy};

/// The paper's online scheduler (Algorithm 1).
///
/// Maintains a waiting queue of available tasks. When a task becomes
/// available it is allocated processors by Algorithm 2 (see
/// [`crate::allocator`], memoized per distinct model through
/// [`AllocCache`]) and enqueued; at every decision point (time 0 and
/// each task completion) every waiting task whose allocation fits in
/// the free processors is started immediately, in policy-key order —
/// classic list scheduling, which never idles `⌈μP⌉` processors while
/// a task is waiting (the fact Lemma 4 rests on).
///
/// The queue is an [`IndexedQueue`], which keeps one key-ordered
/// bucket per distinct capped allocation and a sorted list of the
/// non-empty ones: a FIFO release appends to its bucket, and a
/// decision point reads one head per distinct allocation that fits
/// instead of every waiting task. FNV schedule pins in
/// `tests/queue_equivalence.rs`, recorded while the original sorted
/// `Vec` still ran beside it, hold it to the original's schedules.
///
/// The simulation engine calls [`Scheduler::release`] once per task,
/// so the scheduler, not the event loop, owns the fast path. Releasing
/// a task goes through [`AllocCache::decide`], whose run grouping and
/// cache bypass (see [`crate::memo`]) skip the map or Algorithm 2
/// without changing a decision.
///
/// `μ` is chosen per model class (Theorems 1–4) by
/// [`OnlineScheduler::for_class`], or set explicitly with
/// [`OnlineScheduler::with_mu`] for sweeps.
#[derive(Debug)]
pub struct OnlineScheduler {
    /// Which registered local allocation drives Algorithm 1
    /// ([`AlgoName::Icpp22`] unless built through
    /// [`OnlineScheduler::with_algo`] / [`OnlineScheduler::for_algo_class`]).
    algo: AlgoName,
    mu: f64,
    policy: QueuePolicy,
    p_total: u32,
    queue: IndexedQueue,
    seq: u64,
    /// Memoized Algorithm 2, built at `init` once `P` is known.
    cache: Option<AllocCache>,
    /// Per-task record of every allocation decision — opt-in via
    /// [`OnlineScheduler::record_decisions`] so the default hot path
    /// does no per-task bookkeeping.
    decisions: Option<HashMap<TaskId, Allocation>>,
    /// Reused drain buffer for `select_into`.
    scratch: Vec<ReadyItem>,
}

impl OnlineScheduler {
    /// ICPP'22 scheduler with the μ that is optimal for `class`
    /// (Theorems 1–4).
    #[must_use]
    pub fn for_class(class: ModelClass) -> Self {
        Self::with_mu(class.optimal_mu())
    }

    /// Scheduler for any registered algorithm with that algorithm's
    /// envelope-optimal μ for `class` (see [`AlgoName::optimal_mu`]).
    #[must_use]
    pub fn for_algo_class(algo: AlgoName, class: ModelClass) -> Self {
        Self::with_algo(algo, algo.optimal_mu(class))
    }

    /// ICPP'22 scheduler with an explicit `μ ∈ (0, (3−√5)/2]`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is outside the admissible range.
    #[must_use]
    pub fn with_mu(mu: f64) -> Self {
        Self::with_algo(AlgoName::Icpp22, mu)
    }

    /// Scheduler for any registered algorithm with an explicit
    /// `μ ∈ (0, (3−√5)/2]`. For [`AlgoName::Improved23`] the per-class
    /// area budget λ is taken from each task's own model class
    /// ([`AlgoName::lambda`]).
    ///
    /// # Panics
    ///
    /// Panics if `mu` is outside the admissible range.
    #[must_use]
    pub fn with_algo(algo: AlgoName, mu: f64) -> Self {
        crate::allocator::assert_mu(mu);
        Self {
            algo,
            mu,
            policy: QueuePolicy::Fifo,
            p_total: 0,
            queue: IndexedQueue::new(),
            seq: 0,
            cache: None,
            decisions: None,
            scratch: Vec::new(),
        }
    }

    /// Replace the FIFO queue order by another [`QueuePolicy`]
    /// (extension; the guarantee is unaffected).
    #[must_use]
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Record every Algorithm 2 decision for later inspection through
    /// [`OnlineScheduler::decision`]. Off by default: recording costs a
    /// hash-map insert per released task.
    #[must_use]
    pub fn record_decisions(mut self, record: bool) -> Self {
        self.decisions = record.then(HashMap::new);
        self
    }

    /// The μ in use.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The registered algorithm in use.
    #[must_use]
    pub fn algo(&self) -> AlgoName {
        self.algo
    }

    /// The Algorithm 2 decision made for `task`.
    ///
    /// Returns `None` unless recording was enabled with
    /// [`OnlineScheduler::record_decisions`] *and* the task was
    /// released.
    #[must_use]
    pub fn decision(&self, task: TaskId) -> Option<Allocation> {
        self.decisions.as_ref()?.get(&task).copied()
    }

    /// Number of tasks currently waiting.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bucket heads the ready queue has read in first-fit searches over
    /// this scheduler's lifetime ([`IndexedQueue::scan_steps`]).
    /// Deterministic, so tests pin it.
    #[must_use]
    pub fn queue_scan_steps(&self) -> u64 {
        self.queue.scan_steps()
    }

    /// Seed the scheduler with a previously-populated [`AllocCache`].
    ///
    /// Long-running services (`moldable-serve`) handle many requests
    /// with the same `(P, μ)` pair; carrying the cache across
    /// schedulers makes repeat models a hash lookup from the first
    /// release of the next request. The cache is kept only if it
    /// [`AllocCache::matches_algo`] this scheduler's algorithm and the
    /// `(P, μ)` seen at `init` — a cache built for another algorithm
    /// or platform is silently replaced by a fresh one, so a stale
    /// hand-off can never corrupt allocations.
    #[must_use]
    pub fn with_alloc_cache(mut self, cache: AllocCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Take back the memoized Algorithm 2 cache (for reuse by the next
    /// scheduler with the same `(P, μ)`). Leaves this scheduler
    /// cache-less; it would rebuild one at the next `init`.
    pub fn take_alloc_cache(&mut self) -> Option<AllocCache> {
        self.cache.take()
    }
}

impl Scheduler for OnlineScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
        let keep = self
            .cache
            .as_ref()
            .is_some_and(|c| c.matches_algo(self.algo, p_total, self.mu));
        if !keep {
            self.cache = Some(AllocCache::for_algo(self.algo, p_total, self.mu));
        }
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        debug_assert!(self.p_total >= 1, "init must run before release");
        let allocation = self
            .cache
            .as_mut()
            .expect("init builds the allocation cache")
            .decide(model);
        if let Some(d) = self.decisions.as_mut() {
            d.insert(task, allocation);
        }
        let key = self.policy.key_for(model, allocation.capped, self.seq);
        self.seq += 1;
        self.queue.push(ReadyItem {
            task,
            alloc: allocation.capped,
            key,
        });
    }

    fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        // List scheduling: start *every* waiting task that fits, in
        // queue order (Algorithm 1, lines 7–11). Free only shrinks, so
        // a skipped task stays infeasible for this decision point and
        // the queue drains the whole point in one call.
        self.scratch.clear();
        self.queue.pop_fits_into(&mut free, &mut self.scratch);
        out.extend(self.scratch.iter().map(|item| (item.task, item.alloc)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::{gen, GraphBuilder};
    use moldable_sim::{simulate, SimOptions};

    #[test]
    fn roofline_single_task_gets_capped() {
        // Theorem 5's instance: one task, w = P, pbar = P.
        let p = 100u32;
        let mut g = GraphBuilder::new();
        let t = g.add_task(SpeedupModel::roofline(f64::from(p), p).unwrap());
        let g = g.freeze();
        let mut s = OnlineScheduler::for_class(ModelClass::Roofline).record_decisions(true);
        let sched = simulate(&g, &mut s, &SimOptions::new(p)).unwrap();
        let cap = crate::mu_cap(p, ModelClass::Roofline.optimal_mu());
        assert_eq!(s.decision(t).unwrap().capped, cap);
        assert_eq!(sched.placement(t).unwrap().procs, cap);
        // Makespan = P / ceil(mu P) ≈ 1/mu ≈ 2.618 × T_opt (= 1).
        assert!((sched.makespan - f64::from(p) / f64::from(cap)).abs() < 1e-12);
    }

    #[test]
    fn list_scheduling_fills_the_platform() {
        // 8 independent 1-proc-wide tasks on P=8 all start at once.
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::roofline(1.0, 1).unwrap();
        let g = gen::independent(8, &mut assign);
        let mut s = OnlineScheduler::with_mu(0.3);
        let sched = simulate(&g, &mut s, &SimOptions::new(8)).unwrap();
        assert_eq!(sched.makespan, 1.0);
        assert!(sched.placements.iter().all(|p| p.start == 0.0));
    }

    #[test]
    fn queue_is_drained_in_fifo_order() {
        // Two wide tasks + one narrow on P = 3; each wide takes 2
        // processors, so FIFO starts wide1 + narrow and wide2 waits —
        // list scheduling skips past the blocked wide2 to reach narrow.
        let mut g = GraphBuilder::new();
        let wide1 = g.add_task(SpeedupModel::roofline(10.0, 2).unwrap());
        let wide2 = g.add_task(SpeedupModel::roofline(10.0, 2).unwrap());
        let narrow = g.add_task(SpeedupModel::roofline(1.0, 1).unwrap());
        let g = g.freeze();
        let mut s = OnlineScheduler::with_mu(moldable_model::MU_MAX);
        let sched = simulate(&g, &mut s, &SimOptions::new(3)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(sched.placement(wide1).unwrap().start, 0.0);
        assert_eq!(sched.placement(narrow).unwrap().start, 0.0);
        assert!(sched.placement(wide2).unwrap().start > 0.0);
    }

    #[test]
    fn decisions_are_recorded_per_task_when_enabled() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(64.0, 1.0).unwrap();
        let g = gen::chain(3, &mut assign);
        let mut s = OnlineScheduler::for_class(ModelClass::Amdahl).record_decisions(true);
        let _ = simulate(&g, &mut s, &SimOptions::new(16)).unwrap();
        for t in g.task_ids() {
            let d = s.decision(t).expect("every task was released");
            assert!(d.capped <= d.initial);
            assert!(d.capped >= 1);
        }
    }

    #[test]
    fn decisions_are_not_recorded_by_default() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(64.0, 1.0).unwrap();
        let g = gen::chain(3, &mut assign);
        let mut s = OnlineScheduler::for_class(ModelClass::Amdahl);
        let _ = simulate(&g, &mut s, &SimOptions::new(16)).unwrap();
        for t in g.task_ids() {
            assert_eq!(s.decision(t), None);
        }
    }

    #[test]
    fn layered_schedule_is_pinned() {
        // Pinned while the sorted-`Vec` reference queue still existed
        // and produced this schedule byte for byte.
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(7);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut assign = gen::weighted_sampler(ModelClass::General, dist, 24, &mut rng);
        let mut srng = moldable_model::rng::StdRng::seed_from_u64(8);
        let g = gen::layered_random(5, 8, 0.4, &mut srng, &mut assign);
        let mut fast = OnlineScheduler::with_mu(0.3);
        let a = simulate(&g, &mut fast, &SimOptions::new(24)).unwrap();
        a.validate(&g).unwrap();
        assert_eq!(a.fingerprint(), 0xe6b2_c41d_9a75_f753);
    }

    #[test]
    fn policy_changes_start_order() {
        // One long and one short independent task, P = 1 proc: the
        // policy decides which runs first.
        let mut g = GraphBuilder::new();
        let long = g.add_task(SpeedupModel::roofline(9.0, 1).unwrap());
        let short = g.add_task(SpeedupModel::roofline(1.0, 1).unwrap());
        let g = g.freeze();
        let run = |policy| {
            let mut s = OnlineScheduler::with_mu(0.3).with_policy(policy);
            simulate(&g, &mut s, &SimOptions::new(1)).unwrap()
        };
        let lpt = run(QueuePolicy::LongestFirst);
        assert_eq!(lpt.placement(long).unwrap().start, 0.0);
        assert_eq!(lpt.placement(short).unwrap().start, 9.0);
        let spt = run(QueuePolicy::ShortestFirst);
        assert_eq!(spt.placement(short).unwrap().start, 0.0);
        assert_eq!(spt.placement(long).unwrap().start, 1.0);
    }

    #[test]
    fn roofline_allocation_is_non_clairvoyant_in_w() {
        // Feldmann et al.'s setting (paper §4.3.1): for roofline tasks
        // the algorithm works even when w is unknown, because the
        // Algorithm 2 decision depends only on pbar (and P, mu) — two
        // tasks differing solely in w get identical allocations.
        let p_total = 50;
        let mu = ModelClass::Roofline.optimal_mu();
        let small = crate::allocate(&SpeedupModel::roofline(1.0, 12).unwrap(), p_total, mu);
        let large = crate::allocate(&SpeedupModel::roofline(1e9, 12).unwrap(), p_total, mu);
        assert_eq!(small, large, "roofline allocation must not depend on w");
    }

    #[test]
    #[should_panic(expected = "mu must lie in")]
    fn rejects_bad_mu() {
        let _ = OnlineScheduler::with_mu(0.45);
    }

    #[test]
    fn alloc_cache_survives_across_schedulers() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(64.0, 1.0).unwrap();
        let g = gen::chain(5, &mut assign);
        let mut first = OnlineScheduler::with_mu(0.3);
        let a = simulate(&g, &mut first, &SimOptions::new(16)).unwrap();
        let cache = first.take_alloc_cache().expect("init built a cache");
        assert_eq!(cache.len(), 1, "one distinct model interned");
        assert!(cache.matches(16, 0.3));

        // Second scheduler, seeded with the warm cache: identical
        // schedule, no new interning.
        let mut second = OnlineScheduler::with_mu(0.3).with_alloc_cache(cache);
        let b = simulate(&g, &mut second, &SimOptions::new(16)).unwrap();
        assert_eq!(a.placements, b.placements);
        assert_eq!(second.take_alloc_cache().unwrap().len(), 1);
    }

    #[test]
    fn cache_is_bypassed_once_models_never_repeat() {
        // Every task of a sampled General-class graph has its own
        // model, so the cache answers no probe from its map; after
        // `BYPASS_MIN_PROBES` releases Algorithm 2 runs directly and the
        // probe count stops growing.
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(11);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut assign = gen::weighted_sampler(ModelClass::General, dist, 64, &mut rng);
        let mut srng = moldable_model::rng::StdRng::seed_from_u64(12);
        let g = gen::layered_random_sparse(10, 600, 0.01, &mut srng, &mut assign);
        assert!(g.n_tasks() > 4096);
        let mut s = OnlineScheduler::for_class(ModelClass::General);
        let _ = simulate(&g, &mut s, &SimOptions::new(64)).unwrap();
        let cache = s.take_alloc_cache().expect("init built a cache");
        assert_eq!(cache.hits(), 0, "every model is distinct");
        assert_eq!(cache.probes(), crate::memo::BYPASS_MIN_PROBES);
    }

    #[test]
    fn decision_points_read_a_pinned_number_of_queue_entries() {
        // A 20 000-task layered General-class graph on P = 256, built
        // like the repository benchmark's first sim_layered graph but
        // 20 layers deep. The previous inline tier, one compacting pass
        // over every waiting item per decision point, read 4 355 988
        // queue entries on it; the allocation buckets read one head
        // per distinct fitting allocation per started task.
        const PREVIOUS: u64 = 4_355_988;
        let p = 256;
        let mut mrng = moldable_model::rng::StdRng::seed_from_u64(8 ^ 0x5EED_0000_0000);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut assign = gen::weighted_sampler(ModelClass::General, dist, p, &mut mrng);
        let mut srng = moldable_model::rng::StdRng::seed_from_u64(8);
        let g = gen::layered_random_sparse(20, 1000, 0.002, &mut srng, &mut assign);
        assert_eq!(g.n_tasks(), 20_000);
        let mut s = OnlineScheduler::for_class(ModelClass::General);
        let _ = simulate(&g, &mut s, &SimOptions::new(p)).unwrap();
        let steps = s.queue_scan_steps();
        assert_eq!(steps, 89_967);
        assert!(steps * 4 <= PREVIOUS);
    }

    #[test]
    fn mismatched_cache_is_replaced_at_init() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(64.0, 1.0).unwrap();
        let g = gen::chain(3, &mut assign);
        // Cache built for P = 8 handed to a P = 16 run: results must
        // match a cold scheduler exactly.
        let stale = crate::AllocCache::new(8, 0.3);
        let mut seeded = OnlineScheduler::with_mu(0.3).with_alloc_cache(stale);
        let a = simulate(&g, &mut seeded, &SimOptions::new(16)).unwrap();
        let mut cold = OnlineScheduler::with_mu(0.3);
        let b = simulate(&g, &mut cold, &SimOptions::new(16)).unwrap();
        assert_eq!(a.placements, b.placements);
        assert!(seeded.take_alloc_cache().unwrap().matches(16, 0.3));
    }
}

//! Theorem 9: the `Ω(ln D)` lower bound for the arbitrary speedup
//! model (Section 5, Figures 3 and 4).
//!
//! The instance: `n = 2^K − 1` independent linear chains on
//! `P = K·2^{K−1}` processors (`K = 2^ℓ`), where group `i ∈ [1, K]`
//! contains `2^{K−i}` chains of exactly `i` tasks. Every task has
//! `t(p) = 1/(lg p + 1)`.
//!
//! Because all tasks are identical, an online algorithm cannot tell
//! the chains apart — so the adversary ([`AdaptiveChains`]) decides
//! chain lengths *in response to the schedule*: the first `2^{K−i}`
//! chains to complete `i` tasks are declared to be exactly the group-`i`
//! chains (they end there). Any deterministic algorithm then needs
//! makespan at least `Σ_{i=1..K} 1/(ℓ+i) > ln K − ln ℓ − 1/ℓ`
//! (Lemma 10), while the offline schedule ([`offline_schedule`])
//! finishes at time 1 by giving each group-`i` chain `2^{i−1}`
//! processors.

use moldable_graph::{GraphBuilder, TaskGraph, TaskId};
use moldable_model::SpeedupModel;
use moldable_sim::{Instance, Schedule, ScheduleBuilder};

/// The Theorem 9 task model: `t(p) = 1/(lg p + 1)`.
///
/// Time is non-increasing and area `p/(lg p + 1)` is increasing, so
/// the model is monotonic (no superlinear speedup) as the proof needs.
#[must_use]
pub fn chain_task_model() -> SpeedupModel {
    SpeedupModel::formula(|p| 1.0 / (f64::from(p).log2() + 1.0), true)
}

/// Structural parameters of the instance for a given `ℓ ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainParams {
    /// `ℓ`.
    pub l: u32,
    /// `K = 2^ℓ` — number of groups, and the depth `D` of the graph.
    pub k: u32,
    /// `P = K · 2^{K−1}`.
    pub p_total: u32,
    /// `n = 2^K − 1` chains.
    pub n_chains: u64,
    /// Total number of tasks: `Σ i·2^{K−i} = 2^{K+1} − K − 2`.
    pub n_tasks: u64,
}

/// Compute the instance parameters.
///
/// # Panics
///
/// Panics if `l == 0` or the parameters overflow (`l ≤ 4` keeps
/// `P ≤ 524288`; `l = 5` would need `P = 2^36` processors).
#[must_use]
pub fn params(l: u32) -> ChainParams {
    assert!(l >= 1, "Theorem 9 requires l >= 1");
    let k = 1u32 << l;
    assert!(k <= 31, "K = 2^l too large to simulate");
    let p_total = k * (1u32 << (k - 1));
    let n_chains = (1u64 << k) - 1;
    let n_tasks = (1u64 << (k + 1)) - u64::from(k) - 2;
    ChainParams {
        l,
        k,
        p_total,
        n_chains,
        n_tasks,
    }
}

/// The static (fully revealed) chain graph of Figure 3, with each
/// chain's group. Returns the graph and, per chain, `(group, tasks)` in
/// the figure's order (group 1 chains first).
///
/// # Panics
///
/// Panics on the same bounds as [`params`].
#[must_use]
pub fn fig3_graph(l: u32) -> (TaskGraph, Vec<(u32, Vec<TaskId>)>) {
    let pr = params(l);
    let model = chain_task_model();
    #[allow(clippy::cast_possible_truncation)]
    let mut graph = GraphBuilder::with_capacity(pr.n_tasks as usize);
    let mut chains = Vec::new();
    for group in 1..=pr.k {
        for _ in 0..(1u64 << (pr.k - group)) {
            let mut tasks = Vec::with_capacity(group as usize);
            let mut prev: Option<TaskId> = None;
            for _ in 0..group {
                let t = graph.add_task(model.clone());
                if let Some(p) = prev {
                    graph.add_edge_topo(p, t);
                }
                prev = Some(t);
                tasks.push(t);
            }
            chains.push((group, tasks));
        }
    }
    (graph.freeze(), chains)
}

/// The offline schedule of Figure 4(a): group-`i` chains run on
/// `2^{i−1}` processors each, task `j` over `[(j−1)/i, j/i)` — total
/// processors `Σ 2^{i−1}·2^{K−i} = P`, makespan exactly 1.
///
/// # Panics
///
/// Panics on the same bounds as [`params`].
#[must_use]
pub fn offline_schedule(l: u32) -> (TaskGraph, Schedule) {
    let pr = params(l);
    let (graph, chains) = fig3_graph(l);
    let mut sb = ScheduleBuilder::new(pr.p_total);
    for (group, tasks) in &chains {
        let procs = 1u32 << (group - 1);
        let dur = 1.0 / f64::from(*group);
        for (j, &t) in tasks.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            sb.place(t, j as f64 * dur, dur, procs);
        }
    }
    (graph, sb.build())
}

/// The adaptive adversary of Theorem 9, as a simulator [`Instance`].
///
/// Chains are anonymous; when a chain completes its `i`-th task, the
/// adversary retires it into group `i` if group-`i` quota remains,
/// otherwise the chain continues with task `i + 1`. The first time a
/// *surviving* chain completes `i` tasks is recorded as `t_i`
/// (Figure 4(b)'s marks).
#[derive(Debug)]
pub struct AdaptiveChains {
    pr: ChainParams,
    model: SpeedupModel,
    /// Remaining quota per group (index `i`, 1-based; index 0 unused).
    remaining: Vec<u64>,
    /// Completed-task count per chain.
    completed: Vec<u32>,
    /// Realized group per chain (0 = still alive).
    realized: Vec<u32>,
    /// task id → chain index.
    owner: Vec<u32>,
    alive: u64,
    next_task: u32,
    /// `t_i` marks: `t_marks[i]` = first time a surviving chain
    /// completed `i` tasks (`None` if never observed).
    t_marks: Vec<Option<f64>>,
}

impl AdaptiveChains {
    /// New adversary for parameter `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics on the same bounds as [`params`].
    #[must_use]
    pub fn new(l: u32) -> Self {
        let pr = params(l);
        let mut remaining = vec![0u64; pr.k as usize + 1];
        for i in 1..=pr.k {
            remaining[i as usize] = 1u64 << (pr.k - i);
        }
        #[allow(clippy::cast_possible_truncation)]
        let n_chains = pr.n_chains as usize;
        Self {
            pr,
            model: chain_task_model(),
            remaining,
            completed: vec![0; n_chains],
            realized: vec![0; n_chains],
            owner: Vec::new(),
            alive: pr.n_chains,
            next_task: 0,
            t_marks: vec![None; pr.k as usize + 1],
        }
    }

    /// Structural parameters.
    #[must_use]
    pub fn params(&self) -> ChainParams {
        self.pr
    }

    /// `t_i` decision points observed so far (index `i`, 1-based).
    #[must_use]
    pub fn t_marks(&self) -> &[Option<f64>] {
        &self.t_marks
    }

    /// Realized chain lengths (after the run): how many chains ended up
    /// in each group. Must equal the instance quotas.
    #[must_use]
    pub fn realized_group_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.pr.k as usize + 1];
        for &g in &self.realized {
            if g > 0 {
                sizes[g as usize] += 1;
            }
        }
        sizes
    }

    fn fresh_task(&mut self, chain: u32) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        debug_assert_eq!(self.owner.len(), id.index());
        self.owner.push(chain);
        id
    }
}

impl Instance for AdaptiveChains {
    fn on_complete_into(&mut self, task: TaskId, time: f64, out: &mut Vec<TaskId>) {
        let chain = self.owner[task.index()];
        let done = self.completed[chain as usize] + 1;
        self.completed[chain as usize] = done;
        let quota = &mut self.remaining[done as usize];
        if *quota > 0 {
            // Adversary: this chain *was* a group-`done` chain all along.
            *quota -= 1;
            self.realized[chain as usize] = done;
            self.alive -= 1;
        } else {
            // Quota exhausted: the chain survives into L'_done.
            let mark = &mut self.t_marks[done as usize];
            if mark.is_none() {
                *mark = Some(time);
            }
            out.push(self.fresh_task(chain));
        }
    }

    fn is_done(&self) -> bool {
        self.alive == 0
    }

    fn model(&self, _task: TaskId) -> &SpeedupModel {
        // Every task of the Theorem 9 instance is identical.
        &self.model
    }

    fn size_hint(&self) -> usize {
        usize::try_from(self.pr.n_tasks).unwrap_or(usize::MAX)
    }

    fn next_arrival(&self) -> Option<f64> {
        // Every instance has chains, so no task id is issued before
        // their heads arrive.
        (self.next_task == 0).then_some(0.0)
    }

    /// The head of every chain, at time 0.
    fn arrivals_into(&mut self, _time: f64, out: &mut Vec<TaskId>) {
        #[allow(clippy::cast_possible_truncation)]
        for c in 0..self.pr.n_chains as u32 {
            out.push(self.fresh_task(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_analysis::{deterministic_lower_bound, lemma10_makespan};
    use moldable_core::baselines::EqualShareScheduler;
    use moldable_core::OnlineScheduler;
    use moldable_sim::{simulate_instance, SimOptions};

    #[test]
    fn params_match_figure3() {
        let pr = params(2);
        assert_eq!(pr.k, 4);
        assert_eq!(pr.p_total, 32);
        assert_eq!(pr.n_chains, 15);
        assert_eq!(pr.n_tasks, 26);
    }

    #[test]
    fn fig3_graph_structure() {
        let (g, chains) = fig3_graph(2);
        assert_eq!(g.n_tasks(), 26);
        assert_eq!(chains.len(), 15);
        assert_eq!(g.depth(), 4); // D = K
        let group_counts: Vec<usize> = (1..=4)
            .map(|i| chains.iter().filter(|(g, _)| *g == i).count())
            .collect();
        assert_eq!(group_counts, vec![8, 4, 2, 1]);
        // chains are disjoint paths
        assert_eq!(g.sources().len(), 15);
        assert_eq!(g.sinks().len(), 15);
    }

    #[test]
    fn offline_schedule_has_makespan_one() {
        for l in [1u32, 2, 3] {
            let (g, s) = offline_schedule(l);
            s.validate(&g).unwrap();
            assert!((s.makespan - 1.0).abs() < 1e-12, "l={l}: {}", s.makespan);
            // It uses every processor all the time: utilization 1.
            assert!((s.utilization() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn equal_share_reproduces_figure4b() {
        // l = 2: t1 = 1/2, t2 = 5/6, t3 ≈ 1.07, makespan t4 ≈ 1.23.
        let mut adv = AdaptiveChains::new(2);
        let mut sched = EqualShareScheduler::new();
        let s = simulate_instance(&mut adv, &mut sched, &SimOptions::new(32)).unwrap();
        let t = adv.t_marks();
        assert!((t[1].unwrap() - 0.5).abs() < 1e-9, "t1 = {:?}", t[1]);
        assert!((t[2].unwrap() - 5.0 / 6.0).abs() < 1e-9, "t2 = {:?}", t[2]);
        assert!((t[3].unwrap() - 1.0647).abs() < 1e-3, "t3 = {:?}", t[3]);
        assert!((s.makespan - 1.2314).abs() < 1e-3, "t4 = {}", s.makespan);
        // Realized groups match the instance quotas.
        assert_eq!(adv.realized_group_sizes()[1..], [8, 4, 2, 1]);
        s.check_capacity(1e-9).unwrap();
    }

    #[test]
    fn any_scheduler_respects_lemma10_bound() {
        for l in [1u32, 2, 3] {
            let pr = params(l);
            let bound = deterministic_lower_bound(pr.k, l);
            let exact = lemma10_makespan(pr.k, l);

            let mut adv = AdaptiveChains::new(l);
            let mut eq = EqualShareScheduler::new();
            let s1 = simulate_instance(&mut adv, &mut eq, &SimOptions::new(pr.p_total)).unwrap();
            assert!(
                s1.makespan >= exact - 1e-9,
                "equal-share l={l}: {}",
                s1.makespan
            );

            let mut adv = AdaptiveChains::new(l);
            let mut on = OnlineScheduler::for_class(moldable_model::ModelClass::Arbitrary);
            let s2 = simulate_instance(&mut adv, &mut on, &SimOptions::new(pr.p_total)).unwrap();
            assert!(s2.makespan >= exact - 1e-9, "online l={l}: {}", s2.makespan);

            // and both therefore beat the ln-form bound too
            assert!(s1.makespan > bound && s2.makespan > bound);
        }
    }

    #[test]
    fn ratio_grows_logarithmically_with_depth() {
        // T_opt = 1, so the makespan IS the ratio. It must grow with l
        // (l = 1 is excluded: with only 3 chains the equal-share
        // rounding artifacts dominate the asymptotic trend).
        let mut prev = 0.0;
        for l in [2u32, 3, 4] {
            let pr = params(l);
            let mut adv = AdaptiveChains::new(l);
            let mut eq = EqualShareScheduler::new();
            let s = simulate_instance(&mut adv, &mut eq, &SimOptions::new(pr.p_total)).unwrap();
            assert!(s.makespan > prev, "l={l}");
            prev = s.makespan;
        }
        // Lemma 10's exact floor at l=4 is H_20 − H_4 ≈ 1.514.
        assert!(prev > 1.6, "l=4 (D=16 deep) should exceed 1.6: {prev}");
    }

    #[test]
    fn adversary_task_count_matches_static_instance() {
        let mut adv = AdaptiveChains::new(2);
        let mut eq = EqualShareScheduler::new();
        let s = simulate_instance(&mut adv, &mut eq, &SimOptions::new(32)).unwrap();
        assert_eq!(s.placements.len(), 26);
    }
}

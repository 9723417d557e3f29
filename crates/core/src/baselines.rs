//! Baseline schedulers.
//!
//! These are the strategies the paper's analysis measures itself
//! against, plus the two single-step ablations of Algorithm 2:
//!
//! * [`ListScheduler`] with a per-release allocation rule:
//!   [`one_proc`], [`max_proc`], [`fixed`], [`lpa_only`], [`cap_only`];
//! * [`EctScheduler`] — greedy earliest-completion-time (the spirit of
//!   Wang & Cheng's heuristic, applied online);
//! * [`EqualShareScheduler`] — the "same number of processors per
//!   chain" strategy the paper sketches for Figure 4(b).

use std::collections::VecDeque;

use moldable_graph::TaskId;
use moldable_model::SpeedupModel;
use moldable_sim::Scheduler;

use crate::allocator::{allocate, mu_cap};

/// Allocation rule applied once when a task is released.
pub type AllocRule = Box<dyn FnMut(&SpeedupModel, u32) -> u32 + Send>;

/// FIFO list scheduling with a pluggable per-task allocation rule —
/// the common chassis of most baselines (Algorithm 1 minus Algorithm 2).
pub struct ListScheduler {
    rule: AllocRule,
    name: &'static str,
    p_total: u32,
    queue: VecDeque<(TaskId, u32)>,
}

impl std::fmt::Debug for ListScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ListScheduler({}, queue={})",
            self.name,
            self.queue.len()
        )
    }
}

impl ListScheduler {
    /// List scheduling with a custom allocation rule.
    #[must_use]
    pub fn new(name: &'static str, rule: AllocRule) -> Self {
        Self {
            rule,
            name,
            p_total: 0,
            queue: VecDeque::new(),
        }
    }

    /// Baseline name (for reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Scheduler for ListScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        let p = (self.rule)(model, self.p_total).clamp(1, self.p_total);
        self.queue.push_back((task, p));
    }

    fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        self.queue.retain(|&(t, p)| {
            if p <= free {
                free -= p;
                out.push((t, p));
                false
            } else {
                true
            }
        });
    }
}

/// Every task on a single processor: maximal efficiency, no parallelism.
/// Competitive on area, terrible on critical path.
#[must_use]
pub fn one_proc() -> ListScheduler {
    ListScheduler::new("one-proc", Box::new(|_, _| 1))
}

/// Every task on its `p_max`: minimal execution time per task, maximal
/// area waste. The greedy "run as fast as you can" strawman.
#[must_use]
pub fn max_proc() -> ListScheduler {
    ListScheduler::new("max-proc", Box::new(|m, p| m.p_max(p)))
}

/// Every task on exactly `p` processors (clamped to the platform).
#[must_use]
pub fn fixed(p: u32) -> ListScheduler {
    ListScheduler::new("fixed", Box::new(move |_, total| p.min(total)))
}

/// Ablation: Step 1 of Algorithm 2 only (local processor allocation,
/// no `⌈μP⌉` cap). Loses Lemma 4's progress argument.
#[must_use]
pub fn lpa_only(mu: f64) -> ListScheduler {
    ListScheduler::new("lpa-only", Box::new(move |m, p| allocate(m, p, mu).initial))
}

/// Ablation: Step 2 of Algorithm 2 only (allocate `min(p_max, ⌈μP⌉)`,
/// skipping the α-minimization). Loses Lemma 3's area argument.
#[must_use]
pub fn cap_only(mu: f64) -> ListScheduler {
    ListScheduler::new(
        "cap-only",
        Box::new(move |m, p| m.p_max(p).min(mu_cap(p, mu))),
    )
}

/// Greedy earliest-completion-time: when processors free up, start the
/// longest-waiting task on the allocation that minimizes its completion
/// time *given the processors available right now* (`p_max` clamped to
/// `free`). An online rendition of Wang & Cheng's heuristic.
#[derive(Debug, Default)]
pub struct EctScheduler {
    p_total: u32,
    queue: VecDeque<TaskId>,
    models: Vec<Option<SpeedupModel>>,
}

impl EctScheduler {
    /// New ECT scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EctScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        if self.models.len() <= task.index() {
            self.models.resize(task.index() + 1, None);
        }
        self.models[task.index()] = Some(model.clone());
        self.queue.push_back(task);
    }

    fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        while free > 0 {
            let Some(&task) = self.queue.front() else {
                break;
            };
            let model = self.models[task.index()].as_ref().expect("released");
            // best completion time with at most `free` processors
            let p = model.p_max(free);
            self.queue.pop_front();
            out.push((task, p));
            free -= p;
        }
    }
}

/// The equal-share strategy of Figure 4(b): at each decision point,
/// split the free processors evenly among all waiting tasks (one extra
/// processor each for the first `free mod k` of them) and start them
/// all. With chain workloads this allocates "(approximately) the same
/// number of processors to all linear chains".
#[derive(Debug, Default)]
pub struct EqualShareScheduler {
    queue: VecDeque<TaskId>,
}

impl EqualShareScheduler {
    /// New equal-share scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EqualShareScheduler {
    fn release(&mut self, task: TaskId, _model: &SpeedupModel) {
        self.queue.push_back(task);
    }

    fn select_into(&mut self, _now: f64, free: u32, out: &mut Vec<(TaskId, u32)>) {
        let k = u32::try_from(self.queue.len()).expect("queue fits u32");
        if k == 0 || free == 0 {
            return;
        }
        if free < k {
            // Not enough processors for everyone: give 1 each to the
            // first `free` tasks; the rest wait for the next event.
            out.extend(self.queue.drain(..free as usize).map(|t| (t, 1)));
            return;
        }
        let base = free / k;
        let extra = free % k;
        out.extend(self.queue.drain(..).enumerate().map(|(i, t)| {
            let p = base + u32::from((i as u32) < extra);
            (t, p)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::{gen, GraphBuilder, TaskGraph};
    use moldable_sim::{simulate, SimOptions};

    fn amdahl_chain(n: usize, w: f64, d: f64) -> TaskGraph {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(w, d).unwrap();
        gen::chain(n, &mut assign)
    }

    #[test]
    fn one_proc_serializes_everything() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(2.0, 0.0).unwrap();
        let g = gen::independent(4, &mut assign);
        let s = simulate(&g, &mut one_proc(), &SimOptions::new(2)).unwrap();
        // 4 tasks × 2 work on 2 procs, 1 proc each: 2 rounds of 2 tasks.
        assert_eq!(s.makespan, 4.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn max_proc_minimizes_chain_makespan() {
        let g = amdahl_chain(3, 12.0, 0.0);
        let s = simulate(&g, &mut max_proc(), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 9.0); // 3 × 12/4
        s.validate(&g).unwrap();
    }

    #[test]
    fn fixed_is_clamped_to_platform() {
        let g = amdahl_chain(1, 8.0, 0.0);
        let s = simulate(&g, &mut fixed(100), &SimOptions::new(4)).unwrap();
        assert_eq!(s.placements[0].procs, 4);
    }

    #[test]
    fn lpa_only_allocates_initial_not_capped() {
        // Amdahl task where Step 1 exceeds the cap.
        let mut g = GraphBuilder::new();
        g.add_task(SpeedupModel::amdahl(1000.0, 0.1).unwrap());
        let g = g.freeze();
        let p_total = 64;
        let mu = 0.271;
        let s = simulate(&g, &mut lpa_only(mu), &SimOptions::new(p_total)).unwrap();
        let a = allocate(g.model(moldable_graph::TaskId(0)), p_total, mu);
        assert_eq!(s.placements[0].procs, a.initial);
        assert!(a.initial > a.capped, "instance chosen so the cap binds");
    }

    #[test]
    fn cap_only_never_exceeds_cap() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(100.0, 0.0).unwrap();
        let g = gen::independent(5, &mut assign);
        let s = simulate(&g, &mut cap_only(0.3), &SimOptions::new(10)).unwrap();
        let cap = mu_cap(10, 0.3);
        assert!(s.placements.iter().all(|p| p.procs <= cap));
        s.validate(&g).unwrap();
    }

    #[test]
    fn ect_uses_whatever_is_free() {
        // Two Amdahl tasks, P = 8: the first grabs everything, the
        // second is not started until processors free up.
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(8.0, 1.0).unwrap();
        let g = gen::independent(2, &mut assign);
        let s = simulate(&g, &mut EctScheduler::new(), &SimOptions::new(8)).unwrap();
        assert_eq!(s.placements[0].procs, 8);
        assert_eq!(s.placements[1].start, s.placements[0].end);
        s.validate(&g).unwrap();
    }

    #[test]
    fn ect_respects_p_max() {
        // Roofline task with small pbar leaves room for the next task.
        let mut g = GraphBuilder::new();
        g.add_task(SpeedupModel::roofline(4.0, 2).unwrap());
        g.add_task(SpeedupModel::roofline(4.0, 2).unwrap());
        let g = g.freeze();
        let s = simulate(&g, &mut EctScheduler::new(), &SimOptions::new(8)).unwrap();
        assert!(s.placements.iter().all(|p| p.procs == 2));
        assert_eq!(s.makespan, 2.0); // both run in parallel
    }

    #[test]
    fn equal_share_splits_evenly_with_remainder() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(6.0, 0.0).unwrap();
        let g = gen::independent(3, &mut assign);
        let s = simulate(&g, &mut EqualShareScheduler::new(), &SimOptions::new(8)).unwrap();
        let mut procs: Vec<u32> = s.placements.iter().map(|p| p.procs).collect();
        procs.sort_unstable();
        assert_eq!(procs, vec![2, 3, 3]);
        s.validate(&g).unwrap();
    }

    #[test]
    fn equal_share_with_more_tasks_than_procs() {
        let mut assign = |_: gen::TaskCtx<'_>| SpeedupModel::amdahl(1.0, 0.0).unwrap();
        let g = gen::independent(5, &mut assign);
        let s = simulate(&g, &mut EqualShareScheduler::new(), &SimOptions::new(2)).unwrap();
        // Rounds of 1-proc pairs, until the final task has the whole
        // platform to itself: 1 + 1 + 1/2.
        assert_eq!(s.makespan, 2.5);
        let mut procs: Vec<u32> = s.placements.iter().map(|p| p.procs).collect();
        procs.sort_unstable();
        assert_eq!(procs, vec![1, 1, 1, 1, 2]);
        s.validate(&g).unwrap();
    }

    #[test]
    fn all_baselines_produce_valid_schedules_on_a_kernel_graph() {
        let mut assign =
            |ctx: gen::TaskCtx<'_>| SpeedupModel::amdahl(10.0 * ctx.weight, 0.5).unwrap();
        let g = gen::cholesky(4, &mut assign);
        let opts = SimOptions::new(16);
        let mut bl: Vec<Box<dyn Scheduler>> = vec![
            Box::new(one_proc()),
            Box::new(max_proc()),
            Box::new(fixed(4)),
            Box::new(lpa_only(0.3)),
            Box::new(cap_only(0.3)),
            Box::new(EctScheduler::new()),
            Box::new(EqualShareScheduler::new()),
        ];
        for b in &mut bl {
            let s = simulate(&g, b.as_mut(), &opts).unwrap();
            s.validate(&g).unwrap();
            assert!(s.makespan > 0.0);
        }
    }
}

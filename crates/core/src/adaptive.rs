//! Online μ adaptation when the model class is not known up front.
//!
//! The paper's algorithm picks μ from the speedup-model *family* of
//! the whole graph — information an online scheduler arguably does not
//! have before the first task is revealed. [`AdaptiveScheduler`]
//! closes that gap: it starts from the roofline μ (the largest) and
//! re-joins the observed class on every release, allocating each task
//! with the μ of the classes seen *so far*.
//!
//! Guarantee discussion: once every class of the graph has been
//! observed, new allocations use the correct μ, but earlier tasks may
//! have been allocated with a larger μ (larger cap, tighter β). Lemma 3
//! still holds per-task with the per-task α; Lemma 4's progress
//! argument needs the *smallest* μ used anywhere, so the formal ratio
//! degrades toward the first tasks' class mix. On single-class graphs
//! it is *identical* to [`crate::OnlineScheduler::for_class`] (the
//! first release already reveals the class — allocation happens after
//! the join), which the tests pin down.

use std::collections::VecDeque;

use moldable_graph::TaskId;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::Scheduler;

use crate::allocate;

/// Scheduler that discovers the model class online and adapts μ.
#[derive(Debug)]
pub struct AdaptiveScheduler {
    p_total: u32,
    observed: Option<ModelClass>,
    queue: VecDeque<(TaskId, u32)>,
    /// (task, class at allocation time, mu used) — for inspection.
    log: Vec<(TaskId, ModelClass, f64)>,
}

impl AdaptiveScheduler {
    /// New adaptive scheduler (class unknown).
    #[must_use]
    pub fn new() -> Self {
        Self {
            p_total: 0,
            observed: None,
            queue: VecDeque::new(),
            log: Vec::new(),
        }
    }

    /// The class joined over all tasks seen so far.
    #[must_use]
    pub fn observed_class(&self) -> Option<ModelClass> {
        self.observed
    }

    /// Allocation log: `(task, class at that moment, μ used)`.
    #[must_use]
    pub fn log(&self) -> &[(TaskId, ModelClass, f64)] {
        &self.log
    }
}

impl Default for AdaptiveScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for AdaptiveScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        // Join the newly observed class *before* allocating this task.
        let class = match self.observed {
            Some(c) => c.join(model.class()),
            None => model.class(),
        };
        self.observed = Some(class);
        let mu = class.optimal_mu();
        let allocation = allocate(model, self.p_total, mu);
        self.log.push((task, class, mu));
        self.queue.push_back((task, allocation.capped));
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

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::{gen, GraphBuilder};
    use moldable_model::rng::StdRng;
    use moldable_model::sample::ParamDistribution;
    use moldable_sim::{simulate, SimOptions};

    #[test]
    fn single_class_graph_matches_for_class_exactly() {
        for class in ModelClass::bounded_classes() {
            let p_total = 32;
            let mut rng = StdRng::seed_from_u64(5);
            let dist = ParamDistribution::default();
            let mut assign = gen::weighted_sampler(class, dist, p_total, &mut rng);
            let g = gen::cholesky(5, &mut assign);
            let mut adaptive = AdaptiveScheduler::new();
            let sa = simulate(&g, &mut adaptive, &SimOptions::new(p_total)).unwrap();
            let mut known = crate::OnlineScheduler::for_class(class);
            let sk = simulate(&g, &mut known, &SimOptions::new(p_total)).unwrap();
            assert_eq!(sa.makespan, sk.makespan, "{class}");
            assert_eq!(adaptive.observed_class(), Some(class));
            assert!(adaptive.log().iter().all(|&(_, c, _)| c == class));
        }
    }

    #[test]
    fn mu_adapts_when_a_new_class_appears() {
        // Chain: roofline task first, Amdahl second — after the second
        // release the class joins to General and μ drops.
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::roofline(8.0, 4).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(8.0, 1.0).unwrap());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let mut s = AdaptiveScheduler::new();
        let sched = simulate(&g, &mut s, &SimOptions::new(16)).unwrap();
        sched.validate(&g).unwrap();
        let log = s.log();
        assert_eq!(log[0].1, ModelClass::Roofline);
        assert_eq!(log[1].1, ModelClass::General);
        assert!(log[0].2 > log[1].2, "mu must shrink: {log:?}");
        assert_eq!(s.observed_class(), Some(ModelClass::General));
    }

    #[test]
    fn schedules_remain_valid_on_mixed_graphs() {
        let p_total = 24;
        let mut rng = StdRng::seed_from_u64(11);
        let dist = ParamDistribution::default();
        let mut g = GraphBuilder::new();
        let mut prev = None;
        for i in 0..20 {
            let class = ModelClass::bounded_classes()[i % 4];
            let t = g.add_task(dist.sample(class, p_total, &mut rng));
            if i % 2 == 0 {
                if let Some(p) = prev {
                    g.add_edge(p, t).unwrap();
                }
            }
            prev = Some(t);
        }
        let g = g.freeze();
        let mut s = AdaptiveScheduler::new();
        let sched = simulate(&g, &mut s, &SimOptions::new(p_total)).unwrap();
        sched.validate(&g).unwrap();
        assert_eq!(s.observed_class(), Some(ModelClass::General));
    }
}

//! Simulation over two processor pools: [`HeteroPlatform`] is a
//! [`Platform`] whose lanes are the pools, so a hybrid run is one
//! [`Stepper`] run over a [`GraphInstance`] of the frozen graph, with
//! the same online revelation model (tasks appear when their
//! predecessors finish) and event semantics as the homogeneous engine.
//! The run reads each task's models in place; nothing is copied per
//! run. A start decision is `(task, pool, allocation)` and capacity is
//! tracked per pool.

use moldable_graph::TaskId;
use moldable_sim::{
    GraphInstance, Placement, Platform, Schedule, Scheduler, SimError, Stepper, ValidationError,
};

use crate::{HeteroGraph, HeteroPlatform, HeteroTask, Pool};

impl Platform for HeteroPlatform {
    type Lane = Pool;
    type Task = HeteroTask;
    type Pick = (TaskId, Pool, u32);

    fn free_mut(&mut self, lane: Pool) -> &mut u32 {
        match lane {
            Pool::Cpu => &mut self.cpus,
            Pool::Gpu => &mut self.gpus,
        }
    }

    fn split(pick: (TaskId, Pool, u32)) -> (TaskId, Pool, u32) {
        pick
    }

    fn time(task: &HeteroTask, lane: Pool, p: u32) -> f64 {
        task.model(lane).time(p)
    }
}

/// The result of a hybrid run: one [`Schedule`] per pool plus the
/// pool assignment, sharing a common clock.
#[derive(Debug, Clone)]
pub struct HeteroSchedule {
    /// Placements on the CPU pool.
    pub cpu: Schedule,
    /// Placements on the GPU pool.
    pub gpu: Schedule,
    /// Pool chosen per task.
    pub assignment: Vec<Pool>,
    /// Overall completion time.
    pub makespan: f64,
}

impl HeteroSchedule {
    /// Validate: per-pool capacity, graph-wide precedence, completeness,
    /// model-consistent durations, and an assignment that names the
    /// pool each task was placed on.
    ///
    /// # Errors
    ///
    /// Returns the first violation found. An assignment of the wrong
    /// length, or one that disagrees with the pool schedule holding a
    /// task, reports that task as [`ValidationError::MissingTask`].
    pub fn validate(
        &self,
        graph: &HeteroGraph,
        platform: HeteroPlatform,
    ) -> Result<(), ValidationError> {
        let tol = 1e-9 * self.makespan.max(1.0);
        self.cpu.check_capacity(tol)?;
        self.gpu.check_capacity(tol)?;
        // completeness + durations + precedence across pools
        let n = graph.n_tasks();
        if self.assignment.len() != n {
            let t = n.min(self.assignment.len());
            return Err(ValidationError::MissingTask(TaskId(t as u32)));
        }
        let mut place: Vec<Option<&Placement>> = vec![None; n];
        for (pool, sched) in [(Pool::Cpu, &self.cpu), (Pool::Gpu, &self.gpu)] {
            for pl in &sched.placements {
                if pl.task.index() >= n {
                    return Err(ValidationError::ForeignTask(pl.task));
                }
                if place[pl.task.index()].is_some() {
                    return Err(ValidationError::DuplicateTask(pl.task));
                }
                if self.assignment[pl.task.index()] != pool {
                    return Err(ValidationError::MissingTask(pl.task));
                }
                if pl.procs == 0 || pl.procs > platform.size(pool) {
                    return Err(ValidationError::BadAllocation {
                        task: pl.task,
                        procs: pl.procs,
                    });
                }
                let want = graph.model(pl.task).model(pool).time(pl.procs);
                if (pl.duration() - want).abs() > 1e-9 * want.max(1.0) {
                    return Err(ValidationError::WrongDuration {
                        task: pl.task,
                        got: pl.duration(),
                        want,
                    });
                }
                place[pl.task.index()] = Some(pl);
            }
        }
        for t in graph.task_ids() {
            let Some(pl) = place[t.index()] else {
                return Err(ValidationError::MissingTask(t));
            };
            for &p in graph.preds(t) {
                let pred = place[p.index()].expect("checked above");
                if pl.start < pred.end - tol {
                    return Err(ValidationError::PrecedenceViolated { task: t, pred: p });
                }
            }
        }
        Ok(())
    }
}

/// Run `graph` on the hybrid `platform` under `scheduler`.
///
/// # Errors
///
/// Returns a [`SimError`] on scheduler misbehaviour.
///
/// # Panics
///
/// Panics if either pool is empty.
pub fn simulate_hetero(
    graph: &HeteroGraph,
    platform: HeteroPlatform,
    scheduler: &mut dyn Scheduler<HeteroPlatform>,
) -> Result<HeteroSchedule, SimError> {
    assert!(
        platform.cpus >= 1 && platform.gpus >= 1,
        "both pools must be non-empty"
    );
    let run =
        Stepper::with_platform(GraphInstance::new(graph), scheduler, platform).finish_lanes()?;

    let mut assignment = vec![Pool::Cpu; graph.n_tasks()];
    let (mut cpu, mut gpu) = (Vec::new(), Vec::new());
    for (pl, pool) in run.placements.into_iter().zip(run.lanes) {
        assignment[pl.task.index()] = pool;
        match pool {
            Pool::Cpu => cpu.push(pl),
            Pool::Gpu => gpu.push(pl),
        }
    }
    let mk = |placements: Vec<Placement>, p_total: u32| {
        let makespan = placements.iter().map(|p| p.end).fold(0.0, f64::max);
        Schedule::new(p_total, placements, makespan)
    };
    Ok(HeteroSchedule {
        cpu: mk(cpu, platform.cpus),
        gpu: mk(gpu, platform.gpus),
        assignment,
        makespan: run.makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuOnly, HeteroTask, MuHetero};
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn platform() -> HeteroPlatform {
        HeteroPlatform { cpus: 4, gpus: 2 }
    }

    fn cpu_friendly() -> HeteroTask {
        HeteroTask {
            cpu: SpeedupModel::amdahl(4.0, 0.1).unwrap(),
            gpu: SpeedupModel::amdahl(40.0, 1.0).unwrap(),
        }
    }

    fn gpu_friendly() -> HeteroTask {
        HeteroTask {
            cpu: SpeedupModel::amdahl(40.0, 1.0).unwrap(),
            gpu: SpeedupModel::amdahl(4.0, 0.1).unwrap(),
        }
    }

    #[test]
    fn affinity_drives_pool_choice() {
        let mut g = GraphBuilder::new();
        let c = g.add_task(cpu_friendly());
        let u = g.add_task(gpu_friendly());
        let g = g.freeze();
        let mut s = MuHetero::default_mu();
        let hs = simulate_hetero(&g, platform(), &mut s).unwrap();
        hs.validate(&g, platform()).unwrap();
        assert_eq!(hs.assignment[c.index()], Pool::Cpu);
        assert_eq!(hs.assignment[u.index()], Pool::Gpu);
        // they run concurrently on disjoint pools
        assert_eq!(hs.cpu.placements.len(), 1);
        assert_eq!(hs.gpu.placements.len(), 1);
        assert_eq!(hs.cpu.placements[0].start, 0.0);
        assert_eq!(hs.gpu.placements[0].start, 0.0);
    }

    #[test]
    fn precedence_crosses_pools() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(cpu_friendly());
        let b = g.add_task(gpu_friendly());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let mut s = MuHetero::default_mu();
        let hs = simulate_hetero(&g, platform(), &mut s).unwrap();
        hs.validate(&g, platform()).unwrap();
        let a_end = hs.cpu.placements[0].end;
        let b_start = hs.gpu.placements[0].start;
        assert!((a_end - b_start).abs() < 1e-12, "b starts when a finishes");
    }

    #[test]
    fn oversubscription_is_caught() {
        struct Bad;
        impl Scheduler<HeteroPlatform> for Bad {
            fn release(&mut self, _t: TaskId, _task: &HeteroTask) {}
            fn select_into(
                &mut self,
                _now: f64,
                _f: HeteroPlatform,
                out: &mut Vec<(TaskId, Pool, u32)>,
            ) {
                out.push((TaskId(0), Pool::Gpu, 99));
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(cpu_friendly());
        let g = g.freeze();
        let err = simulate_hetero(&g, platform(), &mut Bad).unwrap_err();
        // The GPU pool's own count (2) is reported, not the CPUs' 4.
        assert_eq!(
            err,
            SimError::Oversubscribed {
                task: TaskId(0),
                want: 99,
                free: 2,
            }
        );
    }

    #[test]
    fn lazy_scheduler_is_stuck() {
        struct Lazy;
        impl Scheduler<HeteroPlatform> for Lazy {
            fn release(&mut self, _t: TaskId, _task: &HeteroTask) {}
            fn select_into(
                &mut self,
                _now: f64,
                _f: HeteroPlatform,
                _out: &mut Vec<(TaskId, Pool, u32)>,
            ) {
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(cpu_friendly());
        g.add_task(cpu_friendly());
        let g = g.freeze();
        // A lazy scheduler starts nothing: the engine reports Stuck
        // (the heap is empty and the frontier is not done).
        let err = simulate_hetero(&g, platform(), &mut Lazy).unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }));
    }

    #[test]
    fn a_task_kept_waiting_by_a_busy_pool_reports_its_release() {
        // One CPU: `b` is revealed when `a` ends, but `c`, queued
        // first, takes the CPU and `b` waits for it.
        let pf = HeteroPlatform { cpus: 1, gpus: 1 };
        let mut g = GraphBuilder::new();
        let a = g.add_task(cpu_friendly());
        let c = g.add_task(cpu_friendly());
        let b = g.add_task(cpu_friendly());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let hs = simulate_hetero(&g, pf, &mut CpuOnly::new()).unwrap();
        hs.validate(&g, pf).unwrap();
        let at = |t: TaskId| hs.cpu.placements.iter().find(|pl| pl.task == t).unwrap();
        assert_eq!(at(b).released.to_bits(), at(a).end.to_bits());
        assert_eq!(at(b).start.to_bits(), at(c).end.to_bits());
        assert!(at(b).waiting() > 0.0, "{:?}", at(b));
    }

    #[test]
    fn validate_catches_cross_pool_duplicates() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(cpu_friendly());
        let g = g.freeze();
        let mut s = MuHetero::default_mu();
        let mut hs = simulate_hetero(&g, platform(), &mut s).unwrap();
        // forge a duplicate of task a on the other pool
        let mut dup = hs.cpu.placements[0];
        dup.end = dup.start + g.model(a).gpu.time(dup.procs);
        hs.gpu.placements.push(dup);
        let err = hs.validate(&g, platform()).unwrap_err();
        assert_eq!(err, ValidationError::DuplicateTask(a));
    }

    #[test]
    fn validate_catches_an_assignment_that_names_the_wrong_pool() {
        let mut g = GraphBuilder::new();
        g.add_task(cpu_friendly());
        let b = g.add_task(gpu_friendly());
        let g = g.freeze();
        let hs = simulate_hetero(&g, platform(), &mut MuHetero::default_mu()).unwrap();
        hs.validate(&g, platform()).unwrap();
        assert_eq!(hs.assignment, [Pool::Cpu, Pool::Gpu]);
        // `b` runs on the GPU schedule, but the assignment says CPU.
        let mut forged = hs.clone();
        forged.assignment[b.index()] = Pool::Cpu;
        assert_eq!(
            forged.validate(&g, platform()),
            Err(ValidationError::MissingTask(b))
        );
        // An assignment with no entry for `b` is missing `b` too.
        let mut short = hs;
        short.assignment.truncate(1);
        assert_eq!(
            short.validate(&g, platform()),
            Err(ValidationError::MissingTask(b))
        );
    }
}

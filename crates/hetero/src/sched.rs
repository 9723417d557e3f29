//! Online schedulers for the hybrid platform.

use std::collections::VecDeque;

use moldable_core::allocate;
use moldable_graph::TaskId;
use moldable_model::check_mu;
use moldable_sim::Scheduler;

use crate::{HeteroPlatform, HeteroTask, Pool};

/// Queue entry with per-pool precomputed allocations.
#[derive(Debug, Clone, Copy)]
struct Item {
    task: TaskId,
    cpu_procs: u32,
    cpu_time: f64,
    gpu_procs: u32,
    gpu_time: f64,
}

/// Algorithm 2 applied per pool, with the pool chosen at launch by
/// shorter capped execution time (ties prefer the pool with more free
/// processors). List scheduling over the combined queue.
#[derive(Debug)]
pub struct MuHetero {
    mu: f64,
    /// If only one pool currently fits, start there only when its time
    /// is within `max_stretch` of the other pool's — otherwise wait for
    /// the better pool to free up. `INFINITY` disables deferral (used
    /// by the single-pool baselines, where the other pool never frees).
    max_stretch: f64,
    platform: HeteroPlatform,
    queue: VecDeque<Item>,
}

impl MuHetero {
    /// With an explicit μ.
    ///
    /// # Panics
    ///
    /// Panics if `mu ∉ (0, (3−√5)/2]`.
    #[must_use]
    pub fn new(mu: f64) -> Self {
        Self {
            mu: check_mu(mu).unwrap_or_else(|e| panic!("{e}")),
            max_stretch: 2.0,
            platform: HeteroPlatform { cpus: 1, gpus: 1 },
            queue: VecDeque::new(),
        }
    }

    /// Disable the wait-for-the-better-pool deferral (start on any pool
    /// that fits).
    #[must_use]
    pub fn without_deferral(mut self) -> Self {
        self.max_stretch = f64::INFINITY;
        self
    }

    /// With the general-model μ (no class is assumed across two pools).
    #[must_use]
    pub fn default_mu() -> Self {
        Self::new(moldable_model::ModelClass::General.optimal_mu())
    }
}

impl Scheduler<HeteroPlatform> for MuHetero {
    fn init(&mut self, platform: HeteroPlatform) {
        self.platform = platform;
    }

    fn release(&mut self, task: TaskId, models: &HeteroTask) {
        let ac = allocate(&models.cpu, self.platform.cpus, self.mu);
        let ag = allocate(&models.gpu, self.platform.gpus, self.mu);
        self.queue.push_back(Item {
            task,
            cpu_procs: ac.capped,
            cpu_time: models.cpu.time(ac.capped),
            gpu_procs: ag.capped,
            gpu_time: models.gpu.time(ag.capped),
        });
    }

    fn select_into(&mut self, _now: f64, free: HeteroPlatform, out: &mut Vec<(TaskId, Pool, u32)>) {
        let mut fc = free.cpus;
        let mut fg = free.gpus;
        self.queue.retain(|it| {
            let cpu_ok = it.cpu_procs <= fc;
            let gpu_ok = it.gpu_procs <= fg;
            let pick = match (cpu_ok, gpu_ok) {
                (true, true) => Some(if it.cpu_time <= it.gpu_time {
                    Pool::Cpu
                } else {
                    Pool::Gpu
                }),
                (true, false) => {
                    (it.cpu_time <= self.max_stretch * it.gpu_time).then_some(Pool::Cpu)
                }
                (false, true) => {
                    (it.gpu_time <= self.max_stretch * it.cpu_time).then_some(Pool::Gpu)
                }
                (false, false) => None,
            };
            match pick {
                Some(Pool::Cpu) => {
                    fc -= it.cpu_procs;
                    out.push((it.task, Pool::Cpu, it.cpu_procs));
                    false
                }
                Some(Pool::Gpu) => {
                    fg -= it.gpu_procs;
                    out.push((it.task, Pool::Gpu, it.gpu_procs));
                    false
                }
                None => true,
            }
        });
    }
}

/// Greedy earliest completion: start the longest-waiting task on the
/// `(pool, p_max ≤ free)` combination with the shortest execution time.
#[derive(Debug, Default)]
pub struct HeteroEct {
    platform: HeteroPlatform,
    queue: VecDeque<(TaskId, HeteroTask)>,
}

impl HeteroEct {
    /// New greedy scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for HeteroPlatform {
    fn default() -> Self {
        Self { cpus: 1, gpus: 1 }
    }
}

impl Scheduler<HeteroPlatform> for HeteroEct {
    fn init(&mut self, platform: HeteroPlatform) {
        self.platform = platform;
    }

    fn release(&mut self, task: TaskId, models: &HeteroTask) {
        self.queue.push_back((task, models.clone()));
    }

    fn select_into(&mut self, _now: f64, free: HeteroPlatform, out: &mut Vec<(TaskId, Pool, u32)>) {
        let mut fc = free.cpus;
        let mut fg = free.gpus;
        while let Some((task, models)) = self.queue.front() {
            let mut best: Option<(f64, Pool, u32)> = None;
            if fc > 0 {
                let p = models.cpu.p_max(fc);
                let t = models.cpu.time(p);
                best = Some((t, Pool::Cpu, p));
            }
            if fg > 0 {
                let p = models.gpu.p_max(fg);
                let t = models.gpu.time(p);
                if best.is_none_or(|(bt, _, _)| t < bt) {
                    best = Some((t, Pool::Gpu, p));
                }
            }
            let Some((_, pool, p)) = best else { break };
            out.push((*task, pool, p));
            match pool {
                Pool::Cpu => fc -= p,
                Pool::Gpu => fg -= p,
            }
            self.queue.pop_front();
        }
    }
}

/// Baseline: everything on one pool (list scheduling with per-pool
/// Algorithm 2 allocations) — what you lose by ignoring the other pool.
#[derive(Debug)]
pub struct CpuOnly(MuHetero);

impl CpuOnly {
    /// New CPU-only baseline.
    #[must_use]
    pub fn new() -> Self {
        Self(MuHetero::default_mu().without_deferral())
    }
}

impl Default for CpuOnly {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler<HeteroPlatform> for CpuOnly {
    fn init(&mut self, platform: HeteroPlatform) {
        self.0.init(platform);
    }
    fn release(&mut self, task: TaskId, models: &HeteroTask) {
        self.0.release(task, models);
    }
    fn select_into(&mut self, now: f64, free: HeteroPlatform, out: &mut Vec<(TaskId, Pool, u32)>) {
        self.0
            .select_into(now, HeteroPlatform { gpus: 0, ..free }, out);
    }
}

/// Baseline: everything on the GPU pool.
#[derive(Debug)]
pub struct GpuOnly(MuHetero);

impl GpuOnly {
    /// New GPU-only baseline.
    #[must_use]
    pub fn new() -> Self {
        Self(MuHetero::default_mu().without_deferral())
    }
}

impl Default for GpuOnly {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler<HeteroPlatform> for GpuOnly {
    fn init(&mut self, platform: HeteroPlatform) {
        self.0.init(platform);
    }
    fn release(&mut self, task: TaskId, models: &HeteroTask) {
        self.0.release(task, models);
    }
    fn select_into(&mut self, now: f64, free: HeteroPlatform, out: &mut Vec<(TaskId, Pool, u32)>) {
        self.0
            .select_into(now, HeteroPlatform { cpus: 0, ..free }, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_hetero, HeteroGraph};
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn mixed_graph(n: usize) -> HeteroGraph {
        let mut g = GraphBuilder::new();
        for i in 0..n {
            let (wc, wg) = if i % 2 == 0 { (4.0, 40.0) } else { (40.0, 4.0) };
            g.add_task(HeteroTask {
                cpu: SpeedupModel::amdahl(wc, 0.2).unwrap(),
                gpu: SpeedupModel::amdahl(wg, 0.2).unwrap(),
            });
        }
        g.freeze()
    }

    #[test]
    fn hybrid_beats_single_pool_on_mixed_workloads() {
        let g = mixed_graph(12);
        let pf = HeteroPlatform { cpus: 6, gpus: 3 };
        let run = |s: &mut dyn Scheduler<HeteroPlatform>| {
            let hs = simulate_hetero(&g, pf, s).unwrap();
            hs.validate(&g, pf).unwrap();
            hs.makespan
        };
        let hybrid = run(&mut MuHetero::default_mu());
        let cpu = run(&mut CpuOnly::new());
        let gpu = run(&mut GpuOnly::new());
        assert!(hybrid < cpu, "hybrid {hybrid} vs cpu-only {cpu}");
        assert!(hybrid < gpu, "hybrid {hybrid} vs gpu-only {gpu}");
    }

    #[test]
    fn ect_runs_and_validates() {
        let g = mixed_graph(10);
        let pf = HeteroPlatform { cpus: 4, gpus: 2 };
        let hs = simulate_hetero(&g, pf, &mut HeteroEct::new()).unwrap();
        hs.validate(&g, pf).unwrap();
        // greedy uses both pools on a mixed workload
        assert!(!hs.cpu.placements.is_empty());
        assert!(!hs.gpu.placements.is_empty());
    }

    #[test]
    fn single_pool_baselines_place_everything_on_their_pool() {
        let g = mixed_graph(6);
        let pf = HeteroPlatform { cpus: 4, gpus: 2 };
        let hs = simulate_hetero(&g, pf, &mut CpuOnly::new()).unwrap();
        assert_eq!(hs.cpu.placements.len(), 6);
        assert!(hs.gpu.placements.is_empty());
        let hs = simulate_hetero(&g, pf, &mut GpuOnly::new()).unwrap();
        assert_eq!(hs.gpu.placements.len(), 6);
    }
}

//! Hybrid platform and task-graph types.
//!
//! A hybrid graph is a [`TaskGraph`] whose payload is a [`HeteroTask`]
//! (one speedup model per pool): it is built with
//! [`moldable_graph::GraphBuilder`] and frozen like any other graph,
//! and its structure code is the homogeneous graph's.

use moldable_graph::TaskGraph;
use moldable_model::SpeedupModel;

/// A platform with two pools of identical processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeteroPlatform {
    /// Number of CPU cores.
    pub cpus: u32,
    /// Number of GPU devices (each counted as one "processor" of the
    /// GPU pool; a task's GPU speedup model is over devices).
    pub gpus: u32,
}

impl HeteroPlatform {
    /// Pool size for `pool`.
    #[must_use]
    pub fn size(self, pool: Pool) -> u32 {
        match pool {
            Pool::Cpu => self.cpus,
            Pool::Gpu => self.gpus,
        }
    }
}

/// Which pool a task executes on (chosen at launch, fixed thereafter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// The CPU pool.
    Cpu,
    /// The GPU pool.
    Gpu,
}

impl Pool {
    /// Both pools.
    #[must_use]
    pub fn both() -> [Pool; 2] {
        [Pool::Cpu, Pool::Gpu]
    }
}

impl std::fmt::Display for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Pool::Cpu => "cpu",
            Pool::Gpu => "gpu",
        })
    }
}

/// A moldable task with one speedup model per pool.
#[derive(Debug, Clone)]
pub struct HeteroTask {
    /// Execution-time function on `p` CPU cores.
    pub cpu: SpeedupModel,
    /// Execution-time function on `p` GPU devices.
    pub gpu: SpeedupModel,
}

impl HeteroTask {
    /// The model for `pool`.
    #[must_use]
    pub fn model(&self, pool: Pool) -> &SpeedupModel {
        match pool {
            Pool::Cpu => &self.cpu,
            Pool::Gpu => &self.gpu,
        }
    }
}

/// A DAG of hybrid moldable tasks: each node carries both pool models.
pub type HeteroGraph = TaskGraph<HeteroTask>;

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> HeteroTask {
        HeteroTask {
            cpu: SpeedupModel::amdahl(8.0, 1.0).unwrap(),
            gpu: SpeedupModel::amdahl(2.0, 0.1).unwrap(),
        }
    }

    #[test]
    fn models_are_pool_specific() {
        let mut g = moldable_graph::GraphBuilder::new();
        let a = g.add_task(task());
        let g: HeteroGraph = g.freeze();
        assert_eq!(g.model(a).model(Pool::Cpu).time(1), 9.0);
        assert!((g.model(a).model(Pool::Gpu).time(1) - 2.1).abs() < 1e-12);
    }

    #[test]
    fn platform_and_pool_helpers() {
        let p = HeteroPlatform { cpus: 16, gpus: 4 };
        assert_eq!(p.size(Pool::Cpu), 16);
        assert_eq!(p.size(Pool::Gpu), 4);
        assert_eq!(Pool::Cpu.to_string(), "cpu");
        assert_eq!(Pool::both().len(), 2);
    }
}

//! Hybrid platform and task-graph types.
//!
//! Structure (edges, topological order) is delegated to
//! [`moldable_graph::TaskGraph`]; this module adds the second speedup
//! model per task.

use moldable_graph::{GraphBuilder, GraphError, TaskId};
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

/// A DAG of hybrid moldable tasks.
///
/// Internally the CPU models live in a [`GraphBuilder`] (which also
/// owns the structure) and the GPU models in a parallel vector. The
/// hybrid simulation freezes a CSR snapshot per run; this type stays
/// mutable so platforms can be assembled incrementally.
#[derive(Debug, Clone, Default)]
pub struct HeteroGraph {
    structure: GraphBuilder,
    gpu_models: Vec<SpeedupModel>,
}

impl HeteroGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task; returns its id.
    pub fn add_task(&mut self, task: HeteroTask) -> TaskId {
        let id = self.structure.add_task(task.cpu);
        self.gpu_models.push(task.gpu);
        id
    }

    /// Add the precedence edge `from → to`.
    ///
    /// # Errors
    ///
    /// Same contract as [`GraphBuilder::add_edge`].
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        self.structure.add_edge(from, to)
    }

    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.structure.n_tasks()
    }

    /// Model of `t` on `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn model(&self, t: TaskId, pool: Pool) -> &SpeedupModel {
        match pool {
            Pool::Cpu => self.structure.model(t),
            Pool::Gpu => &self.gpu_models[t.index()],
        }
    }

    /// The underlying structure (edges, topological order, sources).
    #[must_use]
    pub fn structure(&self) -> &GraphBuilder {
        &self.structure
    }
}

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
        let mut g = HeteroGraph::new();
        let a = g.add_task(task());
        assert_eq!(g.model(a, Pool::Cpu).time(1), 9.0);
        assert!((g.model(a, Pool::Gpu).time(1) - 2.1).abs() < 1e-12);
    }

    #[test]
    fn structure_is_shared() {
        let mut g = HeteroGraph::new();
        let a = g.add_task(task());
        let b = g.add_task(task());
        g.add_edge(a, b).unwrap();
        assert_eq!(g.structure().succs(a), &[b]);
        assert!(g.add_edge(b, a).is_err());
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

//! The frozen task-graph data structure.
//!
//! A [`TaskGraph`] is immutable: it is produced by
//! [`crate::GraphBuilder::freeze`] and stores its adjacency in CSR
//! (compressed sparse row) form — one flat `succ` array and one flat
//! `pred` array, each indexed by a per-task offset table. Neighbour
//! lookups are two loads into contiguous memory instead of a
//! pointer-chase through `Vec<Vec<TaskId>>`, and the whole structure
//! is three allocations per direction regardless of task count.

use std::fmt;

use moldable_model::{ModelClass, SpeedupModel};

/// Index of a task in a [`TaskGraph`]. Compact `u32` so large graphs
/// (millions of tasks) stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Errors when constructing a graph through [`crate::GraphBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Referenced a task id that does not exist.
    UnknownTask(TaskId),
    /// Tried to add a self-loop.
    SelfLoop(TaskId),
    /// Adding the edge would create a cycle.
    WouldCycle(TaskId, TaskId),
    /// The same edge already exists.
    DuplicateEdge(TaskId, TaskId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTask(t) => write!(f, "unknown task {t}"),
            Self::SelfLoop(t) => write!(f, "self-loop on {t}"),
            Self::WouldCycle(a, b) => write!(f, "edge {a} -> {b} would create a cycle"),
            Self::DuplicateEdge(a, b) => write!(f, "edge {a} -> {b} already present"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable directed acyclic graph of moldable tasks, in CSR form.
///
/// Every task carries one payload `T`: by default the paper's
/// [`SpeedupModel`], while the hybrid CPU+GPU platform stores one
/// model per pool. The structure API is the same for every `T`; the
/// analyses that read speedup models (bounds, stats, `.mtg` output,
/// [`TaskGraph::model_class`]) live on `TaskGraph<SpeedupModel>`.
///
/// Built with [`crate::GraphBuilder`] and frozen once construction is
/// complete; there is no mutation API. Layout (per direction):
///
/// ```text
/// succ_off: [0 .. n]  per-task offsets, n+1 entries (u32)
/// succ:     [ successors of t0 | successors of t1 | ... ]  flat (u32)
/// ```
///
/// `succs(t)` is the slice `succ[succ_off[t] .. succ_off[t+1]]`; the
/// `pred` arrays mirror this for predecessors. Neighbour slices
/// preserve the builder's edge-insertion order; the simulator reveals
/// newly available tasks in that order, which matters for adversarial
/// instances (the paper's worst cases assume a specific queue order).
/// Sources are precomputed at freeze time and served in O(1).
#[derive(Debug, Clone)]
pub struct TaskGraph<T = SpeedupModel> {
    models: Vec<T>,
    succ_off: Vec<u32>,
    succ: Vec<TaskId>,
    pred_off: Vec<u32>,
    pred: Vec<TaskId>,
    /// Tasks with no predecessor, in id order, computed at freeze time.
    sources: Vec<TaskId>,
}

impl<T> TaskGraph<T> {
    /// Assemble from already-validated CSR arrays; only
    /// [`crate::GraphBuilder::freeze`] calls this.
    pub(crate) fn from_csr(
        models: Vec<T>,
        succ_off: Vec<u32>,
        succ: Vec<TaskId>,
        pred_off: Vec<u32>,
        pred: Vec<TaskId>,
        sources: Vec<TaskId>,
    ) -> Self {
        debug_assert_eq!(succ_off.len(), models.len() + 1);
        debug_assert_eq!(pred_off.len(), models.len() + 1);
        debug_assert_eq!(succ.len(), pred.len());
        Self {
            models,
            succ_off,
            succ,
            pred_off,
            pred,
            sources,
        }
    }

    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.models.len()
    }

    /// Number of precedence edges.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.succ.len()
    }

    /// The payload (speedup model) of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn model(&self, t: TaskId) -> &T {
        &self.models[t.index()]
    }

    /// All task ids, in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.models.len() as u32).map(TaskId)
    }

    /// Predecessors of `t`, in edge-insertion order.
    #[must_use]
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        let lo = self.pred_off[t.index()] as usize;
        let hi = self.pred_off[t.index() + 1] as usize;
        &self.pred[lo..hi]
    }

    /// Successors of `t`, in edge-insertion order.
    #[must_use]
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        let lo = self.succ_off[t.index()] as usize;
        let hi = self.succ_off[t.index() + 1] as usize;
        &self.succ[lo..hi]
    }

    /// Tasks with no predecessor (available at time 0), in id order.
    /// Precomputed at freeze time — no scan.
    #[must_use]
    pub fn sources(&self) -> &[TaskId] {
        &self.sources
    }

    /// Tasks with no successor.
    #[must_use]
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.succs(*t).is_empty())
            .collect()
    }

    /// A topological order (Kahn's algorithm). The graph is acyclic by
    /// construction, so this always succeeds and has length `n_tasks`.
    /// Ids are *not* guaranteed to be in topological order themselves:
    /// the checked builder accepts edges against creation order.
    #[must_use]
    pub fn topo_order(&self) -> Vec<TaskId> {
        let n = self.n_tasks();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| self.pred_off[i + 1] - self.pred_off[i])
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut queue: std::collections::VecDeque<TaskId> = self.sources.iter().copied().collect();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in self.succs(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "graph is acyclic by construction");
        order
    }

    /// Number of tasks on the longest path (`D` in Theorem 9); 0 for an
    /// empty graph.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut best = 0usize;
        let mut len = vec![0usize; self.n_tasks()];
        for t in self.topo_order() {
            let l = 1 + self
                .preds(t)
                .iter()
                .map(|p| len[p.index()])
                .max()
                .unwrap_or(0);
            len[t.index()] = l;
            best = best.max(l);
        }
        best
    }
}

impl TaskGraph {
    /// An empty graph (no tasks, no edges). Equivalent to freezing an
    /// empty [`crate::GraphBuilder`].
    #[must_use]
    pub fn empty() -> Self {
        crate::GraphBuilder::new().freeze()
    }

    /// The most general [`ModelClass`] containing every task's model.
    /// Schedulers use this to pick μ. Returns `None` for an empty
    /// graph. One O(n) scan per call.
    #[must_use]
    pub fn model_class(&self) -> Option<ModelClass> {
        self.models
            .iter()
            .map(SpeedupModel::class)
            .reduce(ModelClass::join)
    }
}

impl Default for TaskGraph {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn unit() -> SpeedupModel {
        SpeedupModel::amdahl(1.0, 0.0).unwrap()
    }

    #[test]
    fn build_diamond() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        let c = g.add_task(unit());
        let d = g.add_task(unit());
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        let g = g.freeze();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.sources(), &[a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.depth(), 3);
    }

    #[test]
    fn topo_order_respects_edges() {
        // Deliberately against creation order: the checked builder
        // accepts any acyclic edge, so the frozen graph cannot assume
        // ids are topologically sorted.
        let mut g = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..6).map(|_| g.add_task(unit())).collect();
        g.add_edge(ids[5], ids[0]).unwrap();
        g.add_edge(ids[0], ids[3]).unwrap();
        g.add_edge(ids[3], ids[1]).unwrap();
        g.add_edge(ids[5], ids[2]).unwrap();
        let g = g.freeze();
        let order = g.topo_order();
        assert_eq!(order.len(), 6);
        let pos: std::collections::HashMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for t in g.task_ids() {
            for &s in g.succs(t) {
                assert!(pos[&t] < pos[&s], "{t} must precede {s}");
            }
        }
    }

    #[test]
    fn depth_of_chain_and_independents() {
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..5).map(|_| b.add_task(unit())).collect();
        assert_eq!(b.clone().freeze().depth(), 1); // all independent
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let g = b.freeze();
        assert_eq!(g.depth(), 5);
        assert_eq!(g.sources(), &[ids[0]]);
    }

    #[test]
    fn model_class_joins() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.clone().freeze().model_class(), None);
        b.add_task(SpeedupModel::roofline(1.0, 2).unwrap());
        assert_eq!(b.clone().freeze().model_class(), Some(ModelClass::Roofline));
        b.add_task(SpeedupModel::amdahl(1.0, 1.0).unwrap());
        assert_eq!(b.clone().freeze().model_class(), Some(ModelClass::General));
        b.add_task(SpeedupModel::table(vec![1.0]).unwrap());
        assert_eq!(b.freeze().model_class(), Some(ModelClass::Arbitrary));
    }

    #[test]
    fn empty_graph_is_sane() {
        let g = TaskGraph::empty();
        assert_eq!(g.n_tasks(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.depth(), 0);
        assert!(g.sources().is_empty());
        assert!(g.topo_order().is_empty());
        let d = TaskGraph::default();
        assert_eq!(d.n_tasks(), 0);
    }

    #[test]
    fn csr_slices_match_nested_adjacency_on_a_random_graph() {
        use moldable_model::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC5A);
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..60).map(|_| b.add_task(unit())).collect();
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); 60];
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); 60];
        for i in 0..60usize {
            for j in (i + 1)..60 {
                if rng.gen_range(0.0f64..1.0) < 0.1 {
                    b.add_edge(ids[i], ids[j]).unwrap();
                    succs[i].push(ids[j]);
                    preds[j].push(ids[i]);
                }
            }
        }
        let n_edges = b.n_edges();
        let f = b.freeze();
        assert_eq!(f.n_edges(), n_edges);
        let sources: Vec<TaskId> = f
            .task_ids()
            .filter(|t| preds[t.index()].is_empty())
            .collect();
        assert_eq!(f.sources(), sources);
        for t in f.task_ids() {
            assert_eq!(f.preds(t), preds[t.index()], "{t} preds");
            assert_eq!(f.succs(t), succs[t.index()], "{t} succs");
        }
    }
}

//! The mutable graph under construction.
//!
//! [`GraphBuilder`] is the only way to create a [`TaskGraph`]: tasks
//! and edges are added here (checked or trusted), then
//! [`GraphBuilder::freeze`] compacts everything into the immutable CSR
//! form the simulator consumes. The builder only constructs: every
//! read beyond adjacency and counts (sources, topological order,
//! depth, model class) is served by the frozen graph. It keeps classic
//! `Vec<Vec<TaskId>>` adjacency — cheap to grow, and the executable
//! specification the frozen layout is differential-tested against.
//! Like [`TaskGraph`], it is generic over the per-task payload, with
//! [`SpeedupModel`] as the default.

use moldable_model::SpeedupModel;

use crate::task_graph::{GraphError, TaskGraph, TaskId};

/// A directed acyclic graph of moldable tasks, under construction.
///
/// Two edge APIs with one invariant (acyclicity, no duplicates):
///
/// * [`GraphBuilder::add_edge`] — *checked*: rejects unknown endpoints,
///   self-loops, duplicates, and cycles. For hand-built graphs and
///   untrusted input (`.mtg` files, wire requests).
/// * [`GraphBuilder::add_edge_topo`] — *trusted*: the caller promises
///   `from` was created before `to` (so the edge points forward in id
///   order and can never close a cycle) and that it is not a
///   duplicate. Debug builds assert both; release builds skip the
///   cycle DFS and the duplicate-detection hash set entirely, making
///   construction O(1) per edge with zero hash traffic. Every
///   generator in [`crate::gen`] uses this path.
///
/// Successor lists preserve insertion order; the simulator reveals
/// newly available tasks in that order, which matters for adversarial
/// instances (the paper's worst cases assume a specific queue order).
#[derive(Debug, Clone)]
pub struct GraphBuilder<T = SpeedupModel> {
    models: Vec<T>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    edge_set: std::collections::HashSet<(u32, u32)>,
    n_edges: usize,
    /// Scratch for cycle checks: `stamp[v] == generation` marks v
    /// visited in the current DFS, so no per-edge allocation is needed
    /// (large adversarial instances add millions of edges).
    stamp: Vec<u32>,
    generation: u32,
}

impl<T> Default for GraphBuilder<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> GraphBuilder<T> {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `n` tasks.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            models: Vec::with_capacity(n),
            preds: Vec::with_capacity(n),
            succs: Vec::with_capacity(n),
            edge_set: std::collections::HashSet::new(),
            n_edges: 0,
            stamp: Vec::with_capacity(n),
            generation: 0,
        }
    }

    /// Add a task with the given payload (speedup model); returns its id.
    pub fn add_task(&mut self, model: T) -> TaskId {
        let id = TaskId(u32::try_from(self.models.len()).expect("more than u32::MAX tasks"));
        self.models.push(model);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.stamp.push(0);
        id
    }

    /// Add the precedence edge `from → to` (i.e. `to` depends on `from`).
    ///
    /// # Errors
    ///
    /// Rejects unknown endpoints, self-loops, duplicate edges, and
    /// edges that would create a cycle (checked with a reachability
    /// walk from `to`; builders that add edges in topological order
    /// never pay more than O(out-degree)).
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        self.check_id(from)?;
        self.check_id(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if self.edge_set.contains(&(from.0, to.0)) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        // Cycle iff `from` is reachable from `to`.
        if self.reaches(to, from) {
            return Err(GraphError::WouldCycle(from, to));
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_set.insert((from.0, to.0));
        self.n_edges += 1;
        Ok(())
    }

    /// Add the edge `from → to`, trusting the caller that edges arrive
    /// in topological (creation) order: `from.0 < to.0` and the edge is
    /// not a duplicate. Such an edge can never close a cycle, so the
    /// reachability DFS and the duplicate hash set are skipped — this
    /// is the O(1)-per-edge fast path every generator uses.
    ///
    /// Debug builds verify both promises (ordering by assertion, the
    /// duplicate by maintaining the hash set), so mixing this with the
    /// checked [`GraphBuilder::add_edge`] stays sound under
    /// `debug_assertions`. Release builds do no bookkeeping beyond the
    /// adjacency pushes.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range (slice indexing); debug
    /// builds additionally panic on order violations and duplicates.
    pub fn add_edge_topo(&mut self, from: TaskId, to: TaskId) {
        debug_assert!(
            from.0 < to.0,
            "add_edge_topo needs creation order: {from} -> {to}"
        );
        #[cfg(debug_assertions)]
        {
            assert!(
                self.edge_set.insert((from.0, to.0)),
                "add_edge_topo got duplicate edge {from} -> {to}"
            );
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.n_edges += 1;
    }

    fn check_id(&self, t: TaskId) -> Result<(), GraphError> {
        if t.index() < self.models.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownTask(t))
        }
    }

    /// DFS reachability: is `target` reachable from `start`?
    /// Allocation-free: visited marks use a generation-stamped scratch
    /// vector, and builders that only link *to* freshly created sink
    /// nodes exit in O(1).
    fn reaches(&mut self, start: TaskId, target: TaskId) -> bool {
        if start == target {
            return true;
        }
        if self.succs[start.index()].is_empty() {
            return false;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: reset all marks once every 2^32 calls.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
        let generation = self.generation;
        let mut stack = vec![start];
        self.stamp[start.index()] = generation;
        while let Some(u) = stack.pop() {
            for &v in &self.succs[u.index()] {
                if v == target {
                    return true;
                }
                if self.stamp[v.index()] != generation {
                    self.stamp[v.index()] = generation;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.models.len()
    }

    /// Number of precedence edges.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.n_edges
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
        &self.preds[t.index()]
    }

    /// Successors of `t`, in edge-insertion order.
    #[must_use]
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succs[t.index()]
    }

    /// Compact into the immutable CSR [`TaskGraph`].
    ///
    /// O(V + E), no hashing: per-task offsets are prefix sums of the
    /// adjacency lengths and the flat index arrays are filled by
    /// draining each per-task `Vec` in order, so edge-insertion order
    /// per task — the order the simulator reveals successors in — is
    /// preserved exactly. Sources are computed once here so the frozen
    /// graph serves them in O(1).
    ///
    /// # Panics
    ///
    /// Panics if the edge count exceeds `u32::MAX` (the CSR offsets are
    /// `u32`; such a graph could not be simulated anyway).
    #[must_use]
    pub fn freeze(self) -> TaskGraph<T> {
        let n = self.models.len();
        assert!(
            u32::try_from(self.n_edges).is_ok(),
            "more than u32::MAX edges"
        );
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut succ: Vec<TaskId> = Vec::with_capacity(self.n_edges);
        let mut pred: Vec<TaskId> = Vec::with_capacity(self.n_edges);
        succ_off.push(0u32);
        pred_off.push(0u32);
        let mut sources = Vec::new();
        for (i, (s, p)) in self.succs.iter().zip(&self.preds).enumerate() {
            succ.extend_from_slice(s);
            pred.extend_from_slice(p);
            succ_off.push(succ.len() as u32);
            pred_off.push(pred.len() as u32);
            if p.is_empty() {
                sources.push(TaskId(i as u32));
            }
        }
        TaskGraph::from_csr(self.models, succ_off, succ, pred_off, pred, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> SpeedupModel {
        SpeedupModel::amdahl(1.0, 0.0).unwrap()
    }

    #[test]
    fn rejects_cycles_and_bad_edges() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        let c = g.add_task(unit());
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.add_edge(c, a), Err(GraphError::WouldCycle(c, a)));
        assert_eq!(g.add_edge(b, a), Err(GraphError::WouldCycle(b, a)));
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge(a, b)));
        assert_eq!(
            g.add_edge(a, TaskId(99)),
            Err(GraphError::UnknownTask(TaskId(99)))
        );
        // Forward edge along an existing path is allowed (transitive edge).
        assert!(g.add_edge(a, c).is_ok());
    }

    #[test]
    fn checked_backward_edges_are_allowed_when_acyclic() {
        // The checked API accepts edges against creation order as long
        // as they close no cycle — the trusted path would reject these.
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        g.add_edge(b, a).unwrap();
        let f = g.freeze();
        assert_eq!(f.sources(), &[b]);
        assert_eq!(f.preds(a), &[b]);
        assert_eq!(f.topo_order(), vec![b, a]);
    }

    #[test]
    fn topo_fast_path_matches_checked_path() {
        let build = |topo: bool| {
            let mut g = GraphBuilder::new();
            let ids: Vec<TaskId> = (0..6).map(|_| g.add_task(unit())).collect();
            for (f, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (2, 4)] {
                if topo {
                    g.add_edge_topo(ids[f], ids[t]);
                } else {
                    g.add_edge(ids[f], ids[t]).unwrap();
                }
            }
            g
        };
        let (a, b) = (build(true), build(false));
        assert_eq!(a.n_edges(), b.n_edges());
        for t in a.task_ids() {
            assert_eq!(a.preds(t), b.preds(t));
            assert_eq!(a.succs(t), b.succs(t));
        }
        let (fa, fb) = (a.freeze(), b.freeze());
        assert_eq!(fa.sources(), fb.sources());
        assert_eq!(fa.n_edges(), fb.n_edges());
        assert_eq!(fa.depth(), fb.depth());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "creation order")]
    fn topo_fast_path_asserts_ordering_in_debug() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        g.add_edge_topo(b, a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn topo_fast_path_asserts_no_duplicates_in_debug() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        g.add_edge_topo(a, b);
        g.add_edge_topo(a, b);
    }
}

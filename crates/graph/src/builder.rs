//! The mutable graph under construction.
//!
//! [`GraphBuilder`] is the only way to create a [`TaskGraph`]: tasks
//! and edges are added here (checked or trusted), then
//! [`GraphBuilder::freeze`] compacts everything into the immutable CSR
//! form the simulator consumes. The builder only constructs: every
//! adjacency read (successors, predecessors, sources, topological
//! order, depth, model class) is served by the frozen graph.
//!
//! Layout: one payload per task and one flat `(from, to)` edge array
//! in insertion order — no per-task allocation, so a trusted edge is
//! one push. The checked path's cycle walk needs successors, so it
//! threads forward-star links (`succ_head` per task, `succ_next` per
//! edge) over the edge array, catching up lazily on the edges added
//! since its last call; builders that only use the trusted path never
//! allocate them. [`GraphBuilder::freeze`] turns the edge array into
//! both CSR directions with a stable counting sort. Like
//! [`TaskGraph`], the builder is generic over the per-task payload,
//! with [`SpeedupModel`] as the default.

use std::collections::HashSet;

use moldable_model::SpeedupModel;

use crate::task_graph::{GraphError, TaskGraph, TaskId};

/// End of a forward-star list.
const NONE: u32 = u32::MAX;

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
///   construction one push per edge with zero hash traffic. Every
///   generator in [`crate::gen`] uses this path.
///
/// Successor lists preserve insertion order; the simulator reveals
/// newly available tasks in that order, which matters for adversarial
/// instances (the paper's worst cases assume a specific queue order).
#[derive(Debug, Clone)]
pub struct GraphBuilder<T = SpeedupModel> {
    models: Vec<T>,
    /// Every edge `(from, to)`, in insertion order.
    edges: Vec<(TaskId, TaskId)>,
    /// Checked-path state, in step with `edges[..succ_next.len()]`:
    /// `succ_head[u]` is the latest linked edge out of `u` and
    /// `succ_next[e]` the one linked before it out of the same task
    /// ([`NONE`] ends a list).
    succ_head: Vec<u32>,
    succ_next: Vec<u32>,
    /// Every linked edge, for duplicate detection.
    edge_set: HashSet<(u32, u32)>,
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
            edges: Vec::with_capacity(n),
            succ_head: Vec::new(),
            succ_next: Vec::new(),
            edge_set: HashSet::new(),
            stamp: Vec::new(),
            generation: 0,
        }
    }

    /// Add a task with the given payload (speedup model); returns its id.
    pub fn add_task(&mut self, model: T) -> TaskId {
        let id = TaskId(u32::try_from(self.models.len()).expect("more than u32::MAX tasks"));
        self.models.push(model);
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
        self.link();
        if self.edge_set.contains(&(from.0, to.0)) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        // Cycle iff `from` is reachable from `to`.
        if self.reaches(to, from) {
            return Err(GraphError::WouldCycle(from, to));
        }
        self.edges.push((from, to));
        self.link();
        Ok(())
    }

    /// Add the edge `from → to`, trusting the caller that edges arrive
    /// in topological (creation) order: `from.0 < to.0` and the edge is
    /// not a duplicate. Such an edge can never close a cycle, so the
    /// reachability DFS and the duplicate hash set are skipped — this
    /// is the one-push fast path every generator uses.
    ///
    /// Debug builds verify both promises (ordering by assertion, the
    /// duplicate by maintaining the hash set). A later checked
    /// [`GraphBuilder::add_edge`] links every trusted edge before it
    /// checks, so mixing the two paths stays sound in every build.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range; debug builds additionally
    /// panic on order violations and duplicates.
    pub fn add_edge_topo(&mut self, from: TaskId, to: TaskId) {
        let n = self.models.len();
        assert!(
            from.index() < n && to.index() < n,
            "add_edge_topo: unknown endpoint in {from} -> {to}"
        );
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
        self.edges.push((from, to));
    }

    fn check_id(&self, t: TaskId) -> Result<(), GraphError> {
        if t.index() < self.models.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownTask(t))
        }
    }

    /// Bring the checked-path state up to date: size the per-task
    /// arrays to the task count, then thread every edge added since the
    /// last call onto its source's successor list and into the
    /// duplicate set.
    fn link(&mut self) {
        let n = self.models.len();
        self.succ_head.resize(n, NONE);
        self.stamp.resize(n, 0);
        for e in self.succ_next.len()..self.edges.len() {
            let (from, to) = self.edges[e];
            self.succ_next.push(self.succ_head[from.index()]);
            self.succ_head[from.index()] = u32::try_from(e).expect("more than u32::MAX edges");
            self.edge_set.insert((from.0, to.0));
        }
    }

    /// DFS reachability over the linked edges: is `target` reachable
    /// from `start`? Visited marks use a generation-stamped scratch
    /// vector, and builders that only link *to* freshly created sink
    /// nodes exit in O(1).
    fn reaches(&mut self, start: TaskId, target: TaskId) -> bool {
        if start == target {
            return true;
        }
        if self.succ_head[start.index()] == NONE {
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
            let mut e = self.succ_head[u.index()];
            while e != NONE {
                let v = self.edges[e as usize].1;
                if v == target {
                    return true;
                }
                if self.stamp[v.index()] != generation {
                    self.stamp[v.index()] = generation;
                    stack.push(v);
                }
                e = self.succ_next[e as usize];
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
        self.edges.len()
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

    /// Compact into the immutable CSR [`TaskGraph`].
    ///
    /// O(V + E), no hashing: each direction is a stable counting sort
    /// of the edge array by endpoint (count, prefix sum, scatter in
    /// insertion order), so every task's neighbours keep their
    /// edge-insertion order — the order the simulator reveals
    /// successors in. Sources are computed once here so the frozen
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
            u32::try_from(self.edges.len()).is_ok(),
            "more than u32::MAX edges"
        );
        let (succ_off, succ) = counting_sort(n, &self.edges, |(from, to)| (from, to));
        let (pred_off, pred) = counting_sort(n, &self.edges, |(from, to)| (to, from));
        let sources = (0..n)
            .filter(|&i| pred_off[i] == pred_off[i + 1])
            .map(|i| TaskId(i as u32))
            .collect();
        TaskGraph::from_csr(self.models, succ_off, succ, pred_off, pred, sources)
    }
}

/// Group `edges` by `key_val(edge).0` into CSR form, `n` keys: returns
/// `n + 1` offsets and the `key_val(edge).1` values, each key's values
/// in edge order (the sort is stable).
fn counting_sort(
    n: usize,
    edges: &[(TaskId, TaskId)],
    key_val: impl Fn((TaskId, TaskId)) -> (TaskId, TaskId),
) -> (Vec<u32>, Vec<TaskId>) {
    let mut off = vec![0u32; n + 1];
    for &e in edges {
        off[key_val(e).0.index() + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    // Scatter with `off[k]` as key k's cursor: afterwards `off[k]` is
    // where key k + 1 starts, so shifting by one restores the offsets.
    let mut out = vec![TaskId(0); edges.len()];
    for &e in edges {
        let (k, v) = key_val(e);
        let cursor = &mut off[k.index()];
        out[*cursor as usize] = v;
        *cursor += 1;
    }
    off.copy_within(0..n, 1);
    off[0] = 0;
    (off, out)
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
        let (fa, fb) = (a.freeze(), b.freeze());
        for t in fa.task_ids() {
            assert_eq!(fa.preds(t), fb.preds(t));
            assert_eq!(fa.succs(t), fb.succs(t));
        }
        assert_eq!(fa.sources(), fb.sources());
        assert_eq!(fa.n_edges(), fb.n_edges());
        assert_eq!(fa.depth(), fb.depth());
    }

    #[test]
    fn checked_path_sees_trusted_edges() {
        // The cycle walk and the duplicate check run over trusted edges
        // too, although the trusted path itself only pushes.
        let mut g = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..3).map(|_| g.add_task(unit())).collect();
        g.add_edge_topo(ids[0], ids[1]);
        g.add_edge_topo(ids[1], ids[2]);
        assert_eq!(
            g.add_edge(ids[2], ids[0]),
            Err(GraphError::WouldCycle(ids[2], ids[0]))
        );
        assert_eq!(
            g.add_edge(ids[0], ids[1]),
            Err(GraphError::DuplicateEdge(ids[0], ids[1]))
        );
        g.add_edge(ids[0], ids[2]).unwrap();
        assert_eq!(g.freeze().succs(ids[0]), &[ids[1], ids[2]]);
    }

    #[test]
    fn freeze_matches_nested_adjacency_on_shuffled_mixed_insertion() {
        // A random DAG over ids in creation order, its edges inserted
        // in a shuffled order, half checked and half trusted (each
        // trusted edge points forward in id order, as it must). The
        // frozen CSR must equal nested per-task lists filled in the
        // same insertion order.
        use moldable_model::rng::{Rng, StdRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xF1A7 + seed);
            let n = 80usize;
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_range(0.0f64..1.0) < 0.08 {
                        edges.push((i, j));
                    }
                }
            }
            for k in (1..edges.len()).rev() {
                edges.swap(k, rng.gen_range(0..=k));
            }
            let mut b = GraphBuilder::new();
            let ids: Vec<TaskId> = (0..n).map(|_| b.add_task(unit())).collect();
            let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
            let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
            for (k, &(i, j)) in edges.iter().enumerate() {
                if k % 2 == 0 {
                    b.add_edge(ids[i], ids[j]).unwrap();
                } else {
                    b.add_edge_topo(ids[i], ids[j]);
                }
                succs[i].push(ids[j]);
                preds[j].push(ids[i]);
            }
            assert_eq!(b.n_edges(), edges.len());
            let f = b.freeze();
            assert_eq!(f.n_edges(), edges.len());
            for t in f.task_ids() {
                assert_eq!(f.succs(t), succs[t.index()], "seed {seed}: {t} succs");
                assert_eq!(f.preds(t), preds[t.index()], "seed {seed}: {t} preds");
            }
            let sources: Vec<TaskId> = ids
                .iter()
                .copied()
                .filter(|t| preds[t.index()].is_empty())
                .collect();
            assert_eq!(f.sources(), sources, "seed {seed}");
        }
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

//! The generic lower-bound task graph of Figure 1.
//!
//! `(X + 1)·Y + 1` tasks in three groups: `Y` chain tasks `A_1 … A_Y`,
//! `X·Y` layer tasks `B_{i,j}`, and one final task `C`. Edges:
//! `A_i → B_{i+1,j}` and `A_i → A_{i+1}` for `i < Y`, plus `A_Y → C`.
//! Layer 1 (`A_1` and all `B_{1,j}`) has no predecessors.
//!
//! The `B` tasks of a layer are *released before* the layer's `A` task
//! (both in source id order for layer 1 and in successor-edge order for
//! later layers), realizing the proofs' worst case in which the online
//! list scheduler "always prioritizes tasks from T_B first".

use moldable_graph::{TaskGraph, TaskId};
use moldable_model::SpeedupModel;

/// The Figure 1 graph with its group handles.
#[derive(Debug, Clone)]
pub struct GenericInstance {
    /// The graph.
    pub graph: TaskGraph,
    /// `A_1 … A_Y` in chain order.
    pub a_tasks: Vec<TaskId>,
    /// `B_{i,j}`: `b_tasks[i][j]` is layer `i + 1`'s `j`-th B task.
    pub b_tasks: Vec<Vec<TaskId>>,
    /// The final task `C`.
    pub c_task: TaskId,
}

impl GenericInstance {
    /// Build the Figure 1 graph with `y` layers of `x` B-tasks each.
    ///
    /// `model_a` / `model_b` are cloned per task; `model_c` is used for
    /// the single final task.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0` or `y == 0`.
    #[must_use]
    pub fn build(
        x: usize,
        y: usize,
        model_a: &SpeedupModel,
        model_b: &SpeedupModel,
        model_c: SpeedupModel,
    ) -> Self {
        assert!(x >= 1 && y >= 1, "need at least one layer and one B task");
        let mut graph = moldable_graph::GraphBuilder::with_capacity((x + 1) * y + 1);
        let mut a_tasks = Vec::with_capacity(y);
        let mut b_tasks = Vec::with_capacity(y);

        // Layer 1: B tasks first so sources() (id order) releases them
        // ahead of A_1. Every edge leaves an A task for tasks created
        // after it, so the trusted path is sound.
        let mut prev_a: Option<TaskId> = None;
        for _ in 0..y {
            let bs: Vec<TaskId> = (0..x).map(|_| graph.add_task(model_b.clone())).collect();
            let a = graph.add_task(model_a.clone());
            if let Some(pa) = prev_a {
                // B edges before the A edge: revelation order B, ..., B, A.
                for &b in &bs {
                    graph.add_edge_topo(pa, b);
                }
                graph.add_edge_topo(pa, a);
            }
            b_tasks.push(bs);
            a_tasks.push(a);
            prev_a = Some(a);
        }
        let c_task = graph.add_task(model_c);
        graph.add_edge_topo(*a_tasks.last().expect("y >= 1"), c_task);

        Self {
            graph: graph.freeze(),
            a_tasks,
            b_tasks,
            c_task,
        }
    }

    /// Number of tasks: `(X+1)·Y + 1`.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.graph.n_tasks()
    }

    /// `X` (B tasks per layer).
    #[must_use]
    pub fn x(&self) -> usize {
        self.b_tasks[0].len()
    }

    /// `Y` (number of layers).
    #[must_use]
    pub fn y(&self) -> usize {
        self.a_tasks.len()
    }

    /// DOT rendering with the paper's labels (`A_i`, `B_{i,j}`, `C`).
    #[must_use]
    pub fn to_dot(&self) -> String {
        let x = self.x();
        let y = self.y();
        self.graph.to_dot("figure1", |idx| {
            // ids are laid out layer by layer: x B's then 1 A, C last.
            if idx == (x + 1) * y {
                "C".to_string()
            } else {
                let layer = idx / (x + 1) + 1;
                let off = idx % (x + 1);
                if off == x {
                    format!("A{layer}")
                } else {
                    format!("B{layer},{}", off + 1)
                }
            }
        })
    }
}

/// Task ids of the Figure 1 graph with `x` B tasks per layer and `y`
/// layers, without the graph: [`GenericInstance::build`] adds each
/// layer's B tasks, then its A task, layer by layer, and C last.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// B tasks per layer.
    pub x: usize,
    /// Number of layers.
    pub y: usize,
}

impl Layout {
    /// `A_{i+1}`, the chain task of layer `i` (0-based).
    pub fn a(&self, i: usize) -> TaskId {
        Self::id(i * (self.x + 1) + self.x)
    }

    /// The `n`-th B task in id order (layer `n / x`, position `n % x`).
    pub fn b(&self, n: usize) -> TaskId {
        Self::id(n / self.x * (self.x + 1) + n % self.x)
    }

    /// The final task `C`.
    pub fn c(&self) -> TaskId {
        Self::id((self.x + 1) * self.y)
    }

    fn id(index: usize) -> TaskId {
        TaskId(u32::try_from(index).expect("task ids fit in u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::Frontier;

    fn unit() -> SpeedupModel {
        SpeedupModel::amdahl(1.0, 0.0).unwrap()
    }

    #[test]
    fn figure1_shape() {
        let inst = GenericInstance::build(3, 4, &unit(), &unit(), unit());
        assert_eq!(inst.n_tasks(), (3 + 1) * 4 + 1);
        assert_eq!(inst.x(), 3);
        assert_eq!(inst.y(), 4);
        // Sources: layer-1 B's and A_1.
        let sources = inst.graph.sources();
        assert_eq!(sources.len(), 4);
        for b in &inst.b_tasks[0] {
            assert!(sources.contains(b));
        }
        assert!(sources.contains(&inst.a_tasks[0]));
        // Depth: A chain (Y) plus C.
        assert_eq!(inst.graph.depth(), 5);
        // C's only predecessor is A_Y.
        assert_eq!(inst.graph.preds(inst.c_task), &[inst.a_tasks[3]]);
    }

    #[test]
    fn b_tasks_revealed_before_a() {
        let inst = GenericInstance::build(2, 3, &unit(), &unit(), unit());
        // Sources come in id order: B1,1 B1,2 A1.
        let sources = inst.graph.sources();
        assert_eq!(
            sources,
            vec![inst.b_tasks[0][0], inst.b_tasks[0][1], inst.a_tasks[0]]
        );
        // Completing A_1 releases B2,* then A_2.
        let mut f = Frontier::new(&inst.graph);
        let mut newly = Vec::new();
        f.complete_into(&inst.graph, inst.a_tasks[0], &mut newly);
        assert_eq!(
            newly,
            vec![inst.b_tasks[1][0], inst.b_tasks[1][1], inst.a_tasks[1]]
        );
    }

    #[test]
    fn b_tasks_of_layer_depend_only_on_previous_a() {
        let inst = GenericInstance::build(2, 3, &unit(), &unit(), unit());
        for (i, layer) in inst.b_tasks.iter().enumerate() {
            for &b in layer {
                if i == 0 {
                    assert!(inst.graph.preds(b).is_empty());
                } else {
                    assert_eq!(inst.graph.preds(b), &[inst.a_tasks[i - 1]]);
                }
            }
        }
    }

    #[test]
    fn layout_names_the_built_handles() {
        for (x, y) in [(1, 1), (1, 4), (3, 2), (5, 7)] {
            let inst = GenericInstance::build(x, y, &unit(), &unit(), unit());
            let ids = Layout { x, y };
            for (i, &a) in inst.a_tasks.iter().enumerate() {
                assert_eq!(ids.a(i), a);
            }
            for (n, &b) in inst.b_tasks.iter().flatten().enumerate() {
                assert_eq!(ids.b(n), b);
            }
            assert_eq!(ids.c(), inst.c_task);
        }
    }

    #[test]
    fn dot_labels_match_paper() {
        let inst = GenericInstance::build(2, 2, &unit(), &unit(), unit());
        let dot = inst.to_dot();
        for lbl in ["A1", "A2", "B1,1", "B1,2", "B2,1", "B2,2", "\"C\""] {
            assert!(dot.contains(lbl), "missing {lbl} in\n{dot}");
        }
    }
}

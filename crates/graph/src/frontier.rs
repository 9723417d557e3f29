//! Online revelation of a task graph.
//!
//! In the paper's online model (Section 3.1) a task becomes *available*
//! — and its execution-time parameters become known — only when all of
//! its predecessors have completed. [`Frontier`] tracks that state: the
//! simulator owns the full graph but only forwards tasks to the
//! scheduler as the frontier releases them.

use crate::{TaskGraph, TaskId};

/// Tracks which tasks are available/completed during online execution.
#[derive(Debug, Clone)]
pub struct Frontier {
    remaining_preds: Vec<u32>,
    completed: Vec<bool>,
    n_completed: usize,
}

impl Frontier {
    /// Initialize from a graph. Tasks with no predecessors (the
    /// graph's [`TaskGraph::sources`]) are available from the start.
    #[must_use]
    pub fn new<T>(graph: &TaskGraph<T>) -> Self {
        let remaining_preds = graph
            .task_ids()
            .map(|t| u32::try_from(graph.preds(t).len()).expect("pred count fits u32"))
            .collect();
        Self {
            remaining_preds,
            completed: vec![false; graph.n_tasks()],
            n_completed: 0,
        }
    }

    /// Record the completion of `task` and append the tasks that become
    /// available *because of it* to `newly`, in the graph's successor
    /// order. The buffer is *not* cleared — the engine batches several
    /// same-instant completions into one buffer and clears it between
    /// decision points, which keeps the hot loop allocation-free at
    /// steady state.
    ///
    /// # Panics
    ///
    /// Panics if `task` was already completed or still has unfinished
    /// predecessors (a scheduler bug the simulator must not mask).
    pub fn complete_into<T>(
        &mut self,
        graph: &TaskGraph<T>,
        task: TaskId,
        newly: &mut Vec<TaskId>,
    ) {
        self.complete_succs(task, graph.succs(task), newly);
    }

    /// The payload-independent body of [`Frontier::complete_into`].
    /// Not generic, so it is compiled once, in this crate, and the
    /// engine's completion loop calls it out of line: inlined there per
    /// payload type, the `sim_layered` benchmark ran 2–6% slower.
    fn complete_succs(&mut self, task: TaskId, succs: &[TaskId], newly: &mut Vec<TaskId>) {
        assert!(!self.completed[task.index()], "{task} completed twice");
        assert_eq!(
            self.remaining_preds[task.index()],
            0,
            "{task} completed before its predecessors"
        );
        self.completed[task.index()] = true;
        self.n_completed += 1;
        for &s in succs {
            let r = &mut self.remaining_preds[s.index()];
            debug_assert!(*r > 0);
            *r -= 1;
            if *r == 0 {
                newly.push(s);
            }
        }
    }

    /// Has every task completed?
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.n_completed == self.completed.len()
    }

    /// Number of completed tasks.
    #[must_use]
    pub fn n_completed(&self) -> usize {
        self.n_completed
    }

    /// Is the given task available (all predecessors done, itself not done)?
    #[must_use]
    pub fn is_available(&self, task: TaskId) -> bool {
        !self.completed[task.index()] && self.remaining_preds[task.index()] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn unit() -> SpeedupModel {
        SpeedupModel::amdahl(1.0, 0.0).unwrap()
    }

    /// The tasks completing `task` releases, on their own.
    fn complete(f: &mut Frontier, g: &TaskGraph, task: TaskId) -> Vec<TaskId> {
        let mut newly = Vec::new();
        f.complete_into(g, task, &mut newly);
        newly
    }

    #[test]
    fn diamond_revelation_order() {
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

        let mut f = Frontier::new(&g);
        assert_eq!(g.sources(), [a]);
        assert!(f.is_available(a));
        assert!(!f.is_available(b));

        assert_eq!(complete(&mut f, &g, a), vec![b, c]);
        assert_eq!(complete(&mut f, &g, b), vec![]); // d still waits on c
        assert_eq!(complete(&mut f, &g, c), vec![d]);
        assert!(!f.all_done());
        assert_eq!(complete(&mut f, &g, d), vec![]);
        assert!(f.all_done());
        assert_eq!(f.n_completed(), 4);
    }

    #[test]
    fn successor_order_is_preserved() {
        // The adversarial instances rely on B-tasks being revealed
        // before the next A-task: revelation must follow edge order.
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b1 = g.add_task(unit());
        let b2 = g.add_task(unit());
        let a2 = g.add_task(unit());
        g.add_edge(a, b1).unwrap();
        g.add_edge(a, b2).unwrap();
        g.add_edge(a, a2).unwrap();
        let g = g.freeze();
        let mut f = Frontier::new(&g);
        assert_eq!(complete(&mut f, &g, a), vec![b1, b2, a2]);
    }

    #[test]
    fn complete_into_appends_without_clearing() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        let c = g.add_task(unit());
        g.add_edge(a, c).unwrap();
        let g = g.freeze();
        let mut f = Frontier::new(&g);
        let mut buf = Vec::new();
        f.complete_into(&g, b, &mut buf);
        f.complete_into(&g, a, &mut buf);
        // Batched same-instant completions accumulate; nothing cleared.
        assert_eq!(buf, vec![c]);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let g = g.freeze();
        let mut f = Frontier::new(&g);
        f.complete_into(&g, a, &mut Vec::new());
        f.complete_into(&g, a, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "before its predecessors")]
    fn premature_completion_panics() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit());
        let b = g.add_task(unit());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let mut f = Frontier::new(&g);
        f.complete_into(&g, b, &mut Vec::new());
    }
}

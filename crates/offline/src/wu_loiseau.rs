//! Wu–Loiseau-style two-shelf dual approximation for *independent*
//! moldable tasks (arXiv 1609.08588, building on the
//! Mounié–Rapine–Trystram shelf scheme the paper's Table 2 cites).
//!
//! The scheme binary-searches the smallest target `τ` admitting a
//! *two-shelf* schedule — a tall shelf of height `τ` starting at 0 and
//! a short shelf of height `τ/2` starting at `τ`:
//!
//! 1. at a candidate `τ`, every task gets its canonical allocations
//!    `γ₁ = min{p : t(p) ≤ τ}` (tall) and `γ₂ = min{p : t(p) ≤ τ/2}`
//!    (short, when it exists — tasks with `t(p_max) > τ/2` are
//!    *mandatory* on the tall shelf);
//! 2. a knapsack DP assigns the remaining tasks: minimize the short
//!    shelf's width `Σγ₂` subject to the tall shelf's width `Σγ₁ ≤ P`
//!    (`O(nP)` time). `τ` is feasible iff the minimized short width
//!    also fits `P`;
//! 3. the smallest feasible `τ*` yields the schedule: tall tasks start
//!    at 0, short tasks at `τ*`, so the makespan is at most
//!    `3τ*/2` by construction.
//!
//! Unlike [`crate::turek`]'s `τ`, the two-shelf `τ*` is *not* a lower
//! bound on the optimal makespan (shelf feasibility is a restriction,
//! not a relaxation) — the tests cross-check against Turek's dual
//! bound and the Lemma 2 bound instead.

use moldable_graph::TaskGraph;
use moldable_model::SpeedupModel;
use moldable_sim::{Schedule, ScheduleBuilder};

/// Outcome of the two-shelf dual approximation.
#[derive(Debug)]
pub struct WuLoiseauResult {
    /// The two-shelf schedule (tall shelf at 0, short shelf at `tau`).
    pub schedule: Schedule,
    /// The smallest two-shelf-feasible target found; the makespan is
    /// at most `1.5 * tau`.
    pub tau: f64,
    /// Per-task processor counts (task-id order).
    pub allocations: Vec<u32>,
    /// Per-task shelf: `true` = tall shelf (height `tau`, starts at 0),
    /// `false` = short shelf (height `tau/2`, starts at `tau`).
    pub tall: Vec<bool>,
}

/// Smallest `p ∈ [1, p_max]` with `t(p) ≤ τ`, or `None`.
fn min_alloc_for(model: &SpeedupModel, p_total: u32, tau: f64) -> Option<u32> {
    let p_max = model.p_max(p_total);
    if model.time(p_max) > tau {
        return None;
    }
    // t is non-increasing on [1, p_max] (Lemma 1): binary search.
    let (mut lo, mut hi) = (1u32, p_max);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if model.time(mid) <= tau {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

const INF: u64 = u64::MAX / 2;

/// The two-shelf feasibility test at `τ`: canonical allocations plus
/// the width-knapsack DP. Returns `(allocations, tall)` per task.
fn feasible(models: &[&SpeedupModel], p_total: u32, tau: f64) -> Option<(Vec<u32>, Vec<bool>)> {
    let n = models.len();
    let mut g1 = Vec::with_capacity(n);
    let mut g2 = Vec::with_capacity(n);
    let mut cap = p_total; // tall-shelf width left after mandatory tasks
    for m in models {
        let a = min_alloc_for(m, p_total, tau)?;
        let b = min_alloc_for(m, p_total, tau / 2.0);
        if b.is_none() {
            cap = cap.checked_sub(a)?;
        }
        g1.push(a);
        g2.push(b);
    }

    // dp[w] = minimal short-shelf width over the optional tasks seen so
    // far, using at most `w` of the remaining tall-shelf width.
    // choice[j][w] = whether optional task j goes tall at budget w.
    let cap_us = cap as usize;
    let mut dp = vec![0u64; cap_us + 1];
    let mut choice: Vec<Vec<bool>> = Vec::new();
    let optional: Vec<usize> = (0..n).filter(|&j| g2[j].is_some()).collect();
    for &j in &optional {
        let (a, b) = (g1[j] as usize, u64::from(g2[j].unwrap()));
        let mut next = vec![INF; cap_us + 1];
        let mut row = vec![false; cap_us + 1];
        for w in 0..=cap_us {
            let short = dp[w].saturating_add(b);
            let tall = if w >= a { dp[w - a] } else { INF };
            // Prefer the short shelf on ties: it frees tall width for
            // later (wider) tasks without widening the short shelf more
            // than the alternative.
            if tall < short {
                next[w] = tall;
                row[w] = true;
            } else {
                next[w] = short;
            }
        }
        dp = next;
        choice.push(row);
    }
    if dp[cap_us] > u64::from(p_total) {
        return None;
    }

    // Recover the assignment by walking the choice rows backwards.
    let mut tall = vec![true; n]; // mandatory tasks stay `true`
    let mut w = cap_us;
    for (k, &j) in optional.iter().enumerate().rev() {
        if choice[k][w] {
            w -= g1[j] as usize;
        } else {
            tall[j] = false;
        }
    }
    let allocations = (0..n)
        .map(|j| if tall[j] { g1[j] } else { g2[j].unwrap() })
        .collect();
    Some((allocations, tall))
}

/// Run the two-shelf dual approximation on an *independent* task set
/// (`graph` must have no edges) and return the schedule, the target
/// `τ*`, and the shelf assignment. The makespan is at most `1.5·τ*`.
///
/// # Panics
///
/// Panics if the graph has precedence edges, `p_total == 0`, or the
/// instance has more than `2·p_total` tasks (two shelves hold at most
/// `2P` unit-width tasks, so no target is ever feasible).
#[must_use]
pub fn wu_loiseau_schedule(graph: &TaskGraph, p_total: u32) -> WuLoiseauResult {
    assert!(p_total >= 1);
    assert_eq!(
        graph.n_edges(),
        0,
        "the two-shelf scheme handles independent tasks only"
    );
    assert!(
        graph.n_tasks() <= 2 * p_total as usize,
        "two shelves hold at most 2P tasks ({} > {})",
        graph.n_tasks(),
        2 * p_total as usize
    );
    let models: Vec<&SpeedupModel> = graph.task_ids().map(|t| graph.model(t)).collect();
    if models.is_empty() {
        return WuLoiseauResult {
            schedule: Schedule::new(p_total, Vec::new(), 0.0),
            tau: 0.0,
            allocations: Vec::new(),
            tall: Vec::new(),
        };
    }
    // Bracket tau. max t_min is necessary for the tall shelf; the
    // serial sum is usually sufficient, but mandatory tasks can push
    // the feasible region higher, so grow until feasible (termination:
    // for tau large enough every allocation is a single processor and
    // n <= 2P tasks always fit two shelves).
    let lo0 = models
        .iter()
        .map(|m| m.t_min(p_total))
        .fold(0.0f64, f64::max);
    let mut hi = models.iter().map(|m| m.time(1)).sum::<f64>().max(lo0);
    while feasible(&models, p_total, hi).is_none() {
        hi *= 2.0;
        assert!(hi.is_finite(), "no two-shelf-feasible target exists");
    }
    let mut lo = lo0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if feasible(&models, p_total, mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let tau = hi;
    let (allocations, tall) = feasible(&models, p_total, tau).expect("hi stays feasible");

    let mut b = ScheduleBuilder::new(p_total);
    for (j, t) in graph.task_ids().enumerate() {
        let p = allocations[j];
        let start = if tall[j] { 0.0 } else { tau };
        b.place(t, start, graph.model(t).time(p), p);
    }
    WuLoiseauResult {
        schedule: b.build(),
        tau,
        allocations,
        tall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{optimal_makespan, BruteForceLimits};
    use crate::turek::turek_schedule;
    use moldable_graph::GraphBuilder;
    use moldable_model::rng::StdRng;
    use moldable_model::sample::ParamDistribution;
    use moldable_model::ModelClass;

    fn independent(n: usize, class: ModelClass, p_total: u32, seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = ParamDistribution::default();
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(dist.sample(class, p_total, &mut rng));
        }
        g.freeze()
    }

    #[test]
    fn valid_and_within_three_halves_tau() {
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
        ] {
            for seed in 0..5 {
                let g = independent(20, class, 12, seed * 5 + 2);
                let r = wu_loiseau_schedule(&g, 12);
                r.schedule.validate(&g).unwrap();
                assert!(
                    r.schedule.makespan <= 1.5 * r.tau * (1.0 + 1e-9),
                    "{class} seed {seed}: {} > 1.5 x {}",
                    r.schedule.makespan,
                    r.tau
                );
                assert!(r.schedule.makespan >= g.bounds(12).lower_bound() - 1e-9);
            }
        }
    }

    #[test]
    fn shelves_have_the_promised_shape() {
        let g = independent(18, ModelClass::Amdahl, 10, 3);
        let r = wu_loiseau_schedule(&g, 10);
        let (mut w_tall, mut w_short) = (0u32, 0u32);
        for (j, p) in r.schedule.placements.iter().enumerate() {
            let _ = j;
            let idx = p.task.index();
            if r.tall[idx] {
                assert_eq!(p.start, 0.0);
                assert!(p.end <= r.tau * (1.0 + 1e-9));
                w_tall += p.procs;
            } else {
                assert!((p.start - r.tau).abs() < 1e-12);
                assert!(p.duration() <= 0.5 * r.tau * (1.0 + 1e-9));
                w_short += p.procs;
            }
        }
        // Both shelves run their tasks concurrently, so widths fit P.
        assert!(w_tall <= 10 && w_short <= 10, "{w_tall}/{w_short}");
    }

    #[test]
    fn allocations_are_canonical_for_tau() {
        let g = independent(12, ModelClass::Communication, 8, 11);
        let r = wu_loiseau_schedule(&g, 8);
        for (t, (&p, &tall)) in g.task_ids().zip(r.allocations.iter().zip(&r.tall)) {
            let m = g.model(t);
            let height = if tall { r.tau } else { 0.5 * r.tau };
            assert!(m.time(p) <= height * (1.0 + 1e-9));
            if p > 1 {
                assert!(m.time(p - 1) > height * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn never_beats_the_brute_force_optimum() {
        for seed in 0..6 {
            let g = independent(5, ModelClass::Amdahl, 4, seed);
            let r = wu_loiseau_schedule(&g, 4);
            let opt = optimal_makespan(&g, 4, BruteForceLimits::default()).unwrap();
            assert!(
                r.schedule.makespan >= opt - 1e-9,
                "seed {seed}: {} < optimum {}",
                r.schedule.makespan,
                opt
            );
        }
    }

    #[test]
    fn never_beats_tureks_dual_bound() {
        // Turek's tau lower-bounds the optimum, hence any valid
        // schedule's makespan — including the two-shelf one.
        for seed in 0..5 {
            let g = independent(16, ModelClass::Amdahl, 8, seed + 40);
            let wu = wu_loiseau_schedule(&g, 8);
            let tk = turek_schedule(&g, 8);
            assert!(wu.schedule.makespan >= tk.tau - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn single_task_gets_a_tight_tall_shelf() {
        let mut g = GraphBuilder::new();
        g.add_task(SpeedupModel::amdahl(10.0, 1.0).unwrap());
        let g = g.freeze();
        let r = wu_loiseau_schedule(&g, 4);
        // tau converges to t_min = 10/4 + 1 and the task runs alone.
        assert!((r.tau - 3.5).abs() < 1e-6);
        assert!((r.schedule.makespan - 3.5).abs() < 1e-6);
        assert_eq!(r.allocations, vec![4]);
    }

    #[test]
    #[should_panic(expected = "independent tasks only")]
    fn rejects_graphs_with_edges() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(1.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(1.0, 0.0).unwrap());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let _ = wu_loiseau_schedule(&g, 4);
    }

    #[test]
    #[should_panic(expected = "two shelves hold at most 2P tasks")]
    fn rejects_more_than_two_shelves_worth() {
        let mut g = GraphBuilder::new();
        for _ in 0..5 {
            g.add_task(SpeedupModel::amdahl(1.0, 0.0).unwrap());
        }
        let g = g.freeze();
        let _ = wu_loiseau_schedule(&g, 2);
    }

    #[test]
    fn empty_set() {
        let g = TaskGraph::empty();
        let r = wu_loiseau_schedule(&g, 4);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.schedule.makespan, 0.0);
    }
}

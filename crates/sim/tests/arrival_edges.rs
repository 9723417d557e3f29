//! Arrival-order tie-breaks pinned bit-identically across instances.
//!
//! A batch of tasks sharing one release instant can be expressed two
//! ways: as a [`TimedArrivals`] stream and as an independent-tasks
//! graph. Both must place every task with bit-equal `(start, end,
//! procs, released)` — the revelation order for simultaneous arrivals
//! (submission order) and the completion tie-break (start sequence)
//! are part of the engine contract, not an accident of
//! implementation. The incremental [`Stepper`] joins as a third
//! expression of the same run, and the run's fingerprint is pinned to
//! the value a since-deleted batched engine also produced.

use moldable_graph::{GraphBuilder, TaskId};
use moldable_model::SpeedupModel;
use moldable_sim::{
    simulate, simulate_instance, Placement, Scheduler, SimOptions, Stepper, TimedArrivals,
};

fn unit(w: f64) -> SpeedupModel {
    SpeedupModel::amdahl(w, 0.0).unwrap()
}

/// Greedy FIFO on one processor per task.
#[derive(Default)]
struct Fifo {
    queue: std::collections::VecDeque<TaskId>,
}

impl Scheduler for Fifo {
    fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
        self.queue.push_back(task);
    }
    fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
        let take = (free as usize).min(self.queue.len());
        self.queue.drain(..take).map(|t| (t, 1)).collect()
    }
}

fn fingerprint(placements: &[Placement]) -> Vec<(u32, u64, u64, u32, u64)> {
    placements
        .iter()
        .map(|pl| {
            (
                pl.task.0,
                pl.start.to_bits(),
                pl.end.to_bits(),
                pl.procs,
                pl.released.to_bits(),
            )
        })
        .collect()
}

/// FNV-1a-64 over [`fingerprint`]'s fields, little-endian in
/// placement order.
fn fnv1a(placements: &[Placement]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (task, start, end, procs, released) in fingerprint(placements) {
        let bytes = task
            .to_le_bytes()
            .into_iter()
            .chain(start.to_le_bytes())
            .chain(end.to_le_bytes())
            .chain(procs.to_le_bytes())
            .chain(released.to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Work mix engineered so that many tasks finish at the same instant
/// (durations repeat with period 4) — every simultaneous-completion
/// tie-break and every simultaneous-arrival revelation is exercised.
fn tie_heavy_works(n: u32) -> Vec<f64> {
    (0..n).map(|i| 1.0 + f64::from(i % 4)).collect()
}

/// [`fnv1a`] of the tie-heavy run and its makespan bits, recorded
/// when the batched engine still existed and agreed with it.
const TIE_HEAVY_PIN: (u64, u64) = (0x479f_347b_62d0_f355, 0x403d_0000_0000_0000);

#[test]
fn arrival_tie_breaks_agree_across_arrivals_graph_and_stepper() {
    let n = 64;
    let p = 6;
    let works = tie_heavy_works(n);
    let opts = SimOptions::new(p);

    // 1) TimedArrivals: all release dates equal (t = 0).
    let releases: Vec<(f64, SpeedupModel)> = works.iter().map(|&w| (0.0, unit(w))).collect();
    let via_arrivals = simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::default(),
        &opts,
    )
    .unwrap();

    // 2) The equivalent independent-tasks graph.
    let mut b = GraphBuilder::new();
    for &w in &works {
        b.add_task(unit(w));
    }
    let graph = b.freeze();
    let via_graph = simulate(&graph, &mut Fifo::default(), &opts).unwrap();

    // 3) TimedArrivals again, incremental stepper.
    let via_stepper = Stepper::new(TimedArrivals::new(releases), Fifo::default(), &opts)
        .finish()
        .unwrap();

    let reference = fingerprint(&via_arrivals.placements);
    assert_eq!(fingerprint(&via_graph.placements), reference, "graph");
    assert_eq!(fingerprint(&via_stepper.placements), reference, "stepper");
    assert_eq!(
        (
            fnv1a(&via_arrivals.placements),
            via_arrivals.makespan.to_bits()
        ),
        TIE_HEAVY_PIN,
        "pinned run: {reference:?}"
    );
    assert_eq!(
        via_arrivals.makespan.to_bits(),
        via_stepper.makespan.to_bits()
    );
}

#[test]
fn staggered_zero_gap_bursts_agree_between_engine_and_stepper() {
    // Bursts of simultaneous arrivals at t = 0, 0.5, 0.5, 2 — the
    // 0.5 burst is split across two submission groups to exercise the
    // stable tie-break between groups as well as within one.
    let mut releases = Vec::new();
    for (at, k) in [(0.0, 5u32), (0.5, 3), (0.5, 4), (2.0, 6)] {
        for i in 0..k {
            releases.push((at, unit(1.0 + f64::from(i % 2))));
        }
    }
    let opts = SimOptions::new(3);
    let reference = simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::default(),
        &opts,
    )
    .unwrap();
    let mut stepper = Stepper::new(TimedArrivals::new(releases), Fifo::default(), &opts);
    let mut done = Vec::new();
    // Advance in awkward slices that straddle the burst instants.
    for horizon in [0.4, 0.5, 0.6, 1.9, 2.0, f64::INFINITY] {
        stepper.advance_until(horizon, &mut done).unwrap();
    }
    assert_eq!(done.len(), reference.placements.len());
    assert_eq!(
        fingerprint(stepper.placements()),
        fingerprint(&reference.placements)
    );
}

//! Property tests for the simulation substrate: every schedule the
//! engine emits is feasible, regardless of scheduler, and the
//! post-processing utilities (processor-id assignment, utilization
//! profile, trace export) are consistent with it.
//!
//! Gated behind the non-default `slow-tests` feature: each test sweeps
//! many random DAGs, which is too slow for the tier-1 suite.

#![cfg(feature = "slow-tests")]

use moldable_graph::{gen, TaskGraph, TaskId};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::SpeedupModel;
use moldable_sim::{interval_profile, simulate, Scheduler, SimOptions};

/// A deliberately erratic (but legal) scheduler: starts random subsets
/// of the queue with random feasible allocations.
struct ChaoticScheduler {
    rng: StdRng,
    p_total: u32,
    queue: Vec<(TaskId, u32)>, // (task, p_max)
}

impl ChaoticScheduler {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            p_total: 0,
            queue: Vec::new(),
        }
    }
}

impl Scheduler for ChaoticScheduler {
    fn init(&mut self, p_total: u32) {
        self.p_total = p_total;
    }
    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        self.queue.push((task, model.p_max(self.p_total)));
    }
    fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        let first = out.len();
        let mut i = 0;
        while i < self.queue.len() {
            if free == 0 {
                break;
            }
            // Randomly skip half the queue; never skip everything when
            // nothing runs (the engine treats a refusal with an empty
            // platform as Stuck — make progress eventually).
            let must_take = out.len() == first && free == self.p_total;
            if must_take || self.rng.gen_bool(0.5) {
                let (t, p_max) = self.queue.swap_remove(i);
                let p = self.rng.gen_range(1..=p_max.min(free).max(1)).min(free);
                free -= p;
                out.push((t, p));
            } else {
                i += 1;
            }
        }
    }
}

fn random_graph(seed: u64, n: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = moldable_model::sample::ParamDistribution::default();
    let mut assign = gen::weighted_sampler(moldable_model::ModelClass::General, dist, 16, &mut rng);
    let mut srng = StdRng::seed_from_u64(seed ^ 99);
    gen::random_dag(n, 0.2, &mut srng, &mut assign)
}

/// Whatever legal decisions a scheduler makes, the engine's output
/// validates, processor ids can be assigned, and the profile partitions
/// the makespan.
#[test]
fn engine_output_is_always_feasible() {
    for case in 0u64..96 {
        let mut crng = StdRng::seed_from_u64(0xFEA5 ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..25);
        let g = random_graph(seed, n);
        let p_total = 16;
        let mut sched = ChaoticScheduler::new(seed ^ 0xC0FFEE);
        let opts = SimOptions::new(p_total);
        let mut s = simulate(&g, &mut sched, &opts).unwrap();
        s.validate(&g).unwrap();
        s.assign_proc_ids().unwrap();
        // every placement got exactly `procs` processor ids
        for (i, pl) in s.placements.iter().enumerate() {
            let total: u32 = s.proc_ranges(i).iter().map(|(lo, hi)| hi - lo + 1).sum();
            assert_eq!(total, pl.procs);
        }
        let prof = interval_profile(&s, 0.3);
        assert!((prof.total() - s.makespan).abs() <= 1e-9 * s.makespan.max(1.0));
        // trace export emits one event per processor-lane
        let json = s.to_chrome_trace(|i| format!("t{i}"));
        let lanes: usize = s.placements.iter().map(|p| p.procs as usize).sum();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), lanes);
    }
}

/// Engine + proc-id recording agree with post-hoc assignment on
/// capacity feasibility.
#[test]
fn recorded_proc_ids_match_capacity() {
    for case in 0u64..96 {
        let mut crng = StdRng::seed_from_u64(0x9D5 ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..20);
        let g = random_graph(seed, n);
        let mut sched = ChaoticScheduler::new(seed);
        let opts = SimOptions::new(8).with_proc_ids();
        let s = simulate(&g, &mut sched, &opts).unwrap();
        s.validate(&g).unwrap();
        for (i, pl) in s.placements.iter().enumerate() {
            let total: u32 = s.proc_ranges(i).iter().map(|(lo, hi)| hi - lo + 1).sum();
            assert_eq!(total, pl.procs);
            for &(lo, hi) in s.proc_ranges(i) {
                assert!(lo <= hi && hi < 8);
            }
        }
    }
}

/// Release-date streams: every task starts at or after its release.
#[test]
fn timed_arrivals_respect_release_dates() {
    use moldable_sim::{simulate_instance, DagIdx, WorldInstance};
    for case in 0u64..96 {
        let mut crng = StdRng::seed_from_u64(0xA221 ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..30);
        let mut rng = StdRng::seed_from_u64(seed);
        let releases: Vec<(f64, SpeedupModel)> = (0..n)
            .map(|_| {
                let r = rng.gen_range(0.0..20.0);
                let w = rng.gen_range(0.5..10.0);
                (r, SpeedupModel::amdahl(w, 0.1).unwrap())
            })
            .collect();
        let mut inst = WorldInstance::from_releases(releases);
        // One-task DAGs: DAG `i` holds task `i`.
        let dates: Vec<f64> = (0..n as u32)
            .map(|i| inst.dag_release_date(DagIdx(i)))
            .collect();
        let mut sched = ChaoticScheduler::new(seed ^ 3);
        let s = simulate_instance(&mut inst, &mut sched, &SimOptions::new(4)).unwrap();
        assert_eq!(s.placements.len(), n);
        for pl in &s.placements {
            assert!(
                pl.start >= dates[pl.task.index()] - 1e-9,
                "task {} started {} before its release {}",
                pl.task,
                pl.start,
                dates[pl.task.index()]
            );
        }
        s.check_capacity(1e-9).unwrap();
    }
}

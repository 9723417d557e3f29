//! The discrete-event engine, in incremental and resumable form.
//!
//! [`Stepper`] is the crate's only per-event loop: the one-shot entry
//! points [`crate::simulate`] and [`crate::simulate_instance`] are a
//! `Stepper` run to quiescence by [`Stepper::finish`], and long-lived
//! services (the multi-tenant session layer) instead *step* a shared
//! platform forward in bounded virtual-time slices with
//! [`Stepper::advance_until`], observe each completion as an index
//! into the growing placement log, and feed new arrivals into the
//! instance between steps.
//!
//! Event semantics: completions are ordered by `(time,
//! start-sequence)`, and all completions at one instant retire as a
//! batch: processors freed first, consequences revealed in completion
//! order, timed arrivals drained, then a new decision point. The heap
//! holds one event per *run* of placements started at one decision
//! point with bitwise-equal end times, so a layer of identical tasks
//! started together costs one push and one pop, not one per task;
//! expanding the runs in `(time, first start)` order retires their
//! placements in the same order. The loop itself is
//! cheap; what a release or a decision point costs is the scheduler's
//! business, so the online scheduler's fast path lives in its
//! `release` and `select_into`, not here.
//! `tests/online_schedule_pins.rs` pins the online scheduler's
//! schedules on this engine to constants recorded while a second,
//! batched engine agreed with it byte for byte; `tests` below pin
//! FIFO placements and check that many small slices give the same
//! run as one jump.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_graph::TaskId;

use crate::{Instance, Placement, Platform, ProcPool, Schedule, Scheduler, SimError, SimOptions};

/// Completion run: placements `first .. first + len`, started at one
/// decision point with bitwise-equal end times `time`. Placement
/// indices are start sequences (placements are pushed in start order),
/// and the runs at one instant cover disjoint, contiguous index ranges,
/// so ordering runs by `(time, first)` and expanding each retires
/// same-instant completions in start order, exactly as one event per
/// placement ordered by `(time, idx)` would.
#[derive(Debug, Clone, Copy)]
struct Run {
    time: f64,
    first: u32,
    len: u32,
}

impl Run {
    fn indices(self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Run {}
impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Run {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.first.cmp(&other.first))
    }
}

/// A finished run on any [`Platform`]: the placement log in start
/// order, the lane of each placement, and the makespan.
#[derive(Debug, Clone)]
pub struct LaneSchedule<L> {
    /// Every placement, in start order.
    pub placements: Vec<Placement>,
    /// `lanes[i]` is the lane `placements[i]` ran on.
    pub lanes: Vec<L>,
    /// Completion time of the last task (0 when nothing ran).
    pub makespan: f64,
}

/// An in-flight simulation that can be advanced in time slices.
///
/// The stepper owns both the instance and the scheduler (borrow them
/// with `&mut` to keep ownership outside), so a service can hold one
/// `Stepper` for the lifetime of a shared platform and mutate the
/// instance between advances (submitting new work) through
/// [`Stepper::instance_mut`].
///
/// Mutation contract: between advances the caller may only *add*
/// future work — arrivals at or after [`Stepper::now`] — and register
/// state for tasks the engine has not yet seen. Rewriting the past
/// (arrivals before `now`, models of released tasks) breaks the
/// engine invariants.
///
/// The platform `P` defaults to `u32`, the paper's `P` identical
/// processors; any other [`Platform`] is run through
/// [`Stepper::with_platform`] and [`Stepper::finish_lanes`].
pub struct Stepper<I, S, P: Platform = u32> {
    instance: I,
    scheduler: S,
    platform: P,
    free: P,
    pool: Option<ProcPool>,
    placements: Vec<Placement>,
    /// Per placement: its processor ids, kept only when `pool` exists.
    proc_ranges: Vec<Vec<(u32, u32)>>,
    /// Per placement: the lane it runs on.
    lanes: Vec<P::Lane>,
    /// One entry per completion run, not per placement.
    heap: BinaryHeap<Reverse<Run>>,
    time: f64,
    completed: usize,
    /// Per task id: released and not yet started.
    available: Vec<bool>,
    released_at: Vec<f64>,
    picks: Vec<P::Pick>,
    newly: Vec<TaskId>,
    batch: Vec<Run>,
    primed: bool,
    error: Option<SimError>,
    /// Runs pushed onto `heap` so far, for the tests' count pins.
    #[cfg(test)]
    heap_pushes: usize,
}

impl<I: Instance, S: Scheduler> Stepper<I, S> {
    /// Wrap `instance` and `scheduler` for incremental simulation on
    /// `opts.p_total` processors: [`Stepper::with_platform`] on the
    /// homogeneous platform, plus processor ids when
    /// `opts.record_proc_ids` asks for them.
    pub fn new(instance: I, scheduler: S, opts: &SimOptions) -> Self {
        let p_total = opts.p_total;
        let mut st = Self::with_platform(instance, scheduler, p_total);
        st.pool = opts.record_proc_ids.then(|| ProcPool::new(p_total));
        st.heap.reserve(p_total as usize);
        st
    }

    /// Run the remaining events to quiescence and return the final
    /// [`Schedule`].
    ///
    /// # Errors
    ///
    /// As [`Stepper::finish_lanes`].
    pub fn finish(mut self) -> Result<Schedule, SimError> {
        self.run_out()?;
        Ok(Schedule {
            p_total: self.platform,
            placements: self.placements,
            makespan: self.time,
            proc_ranges: self.proc_ranges,
        })
    }
}

impl<P: Platform, I: Instance<P>, S: Scheduler<P>> Stepper<I, S, P> {
    /// Wrap `instance` and `scheduler` for incremental simulation on
    /// `platform`, every lane idle. Calls `scheduler.init`; the tasks
    /// arriving at time 0 are released lazily on the first advance, so
    /// arrivals registered before the first [`Stepper::advance_until`]
    /// are seen exactly as if they had been there from the start.
    pub fn with_platform(instance: I, mut scheduler: S, platform: P) -> Self {
        scheduler.init(platform);
        let hint = instance.size_hint();
        Self {
            instance,
            scheduler,
            platform,
            free: platform,
            pool: None,
            placements: Vec::with_capacity(hint),
            proc_ranges: Vec::new(),
            lanes: Vec::with_capacity(hint),
            heap: BinaryHeap::new(),
            time: 0.0,
            completed: 0,
            available: Vec::with_capacity(hint),
            released_at: Vec::with_capacity(hint),
            picks: Vec::new(),
            newly: Vec::new(),
            batch: Vec::new(),
            primed: false,
            error: None,
            #[cfg(test)]
            heap_pushes: 0,
        }
    }

    /// Time of the last processed event (0 before any event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Currently idle processors, per lane.
    #[must_use]
    pub fn free(&self) -> P {
        self.free
    }

    /// Platform size, per lane.
    #[must_use]
    pub fn p_total(&self) -> P {
        self.platform
    }

    /// Tasks completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The growing placement log, in start order. Completion indices
    /// reported by [`Stepper::advance_until`] index into this slice.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Shared view of the instance.
    pub fn instance(&self) -> &I {
        &self.instance
    }

    /// Mutable access to the instance, for feeding future work in
    /// between advances (see the mutation contract on [`Stepper`]).
    pub fn instance_mut(&mut self) -> &mut I {
        &mut self.instance
    }

    /// Shared view of the scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler, for registering state about
    /// tasks the engine has not yet released (see [`Stepper`]).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Nothing running and no timed arrival pending: the platform is
    /// fully idle until new work is fed in.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty() && self.instance.next_arrival().is_none()
    }

    /// Process every event with time `<= until`, appending the
    /// placement index of each completion to `completions` in
    /// retirement order. `f64::INFINITY` runs to quiescence.
    ///
    /// # Errors
    ///
    /// A [`SimError`] when the scheduler or the instance breaks the
    /// engine contract. An error poisons the stepper: every later call
    /// returns the same error.
    pub fn advance_until(
        &mut self,
        until: f64,
        completions: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        self.advance(until, Some(completions))
    }

    /// Run the remaining events to quiescence and return the placement
    /// log with each placement's lane.
    ///
    /// # Errors
    ///
    /// Any pending or provoked [`SimError`];
    /// [`SimError::InconsistentInstance`] if the instance is still
    /// unfinished at quiescence.
    pub fn finish_lanes(mut self) -> Result<LaneSchedule<P::Lane>, SimError> {
        self.run_out()?;
        Ok(LaneSchedule {
            placements: self.placements,
            lanes: self.lanes,
            makespan: self.time,
        })
    }

    /// Run to quiescence and check that the instance finished.
    fn run_out(&mut self) -> Result<(), SimError> {
        self.advance(f64::INFINITY, None)?;
        if self.instance.is_done() {
            Ok(())
        } else {
            Err(SimError::InconsistentInstance)
        }
    }

    /// [`Stepper::advance_until`] with the poisoning, and with the
    /// completion report optional so [`Stepper::finish`] keeps no log.
    fn advance(
        &mut self,
        until: f64,
        completions: Option<&mut Vec<usize>>,
    ) -> Result<(), SimError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let result = self.run(until, completions);
        if let Err(e) = &result {
            self.error = Some(e.clone());
        }
        result
    }

    /// The event loop. The clock, free count and completion count live
    /// in locals for the whole call (written back on every
    /// exit), so the scheduler and instance calls in between do not
    /// force them through memory.
    fn run(
        &mut self,
        until: f64,
        mut completions: Option<&mut Vec<usize>>,
    ) -> Result<(), SimError> {
        let Self {
            instance,
            scheduler,
            pool,
            placements,
            proc_ranges,
            lanes,
            heap,
            available,
            released_at,
            picks,
            newly,
            batch,
            primed,
            #[cfg(test)]
            heap_pushes,
            ..
        } = self;
        let mut time = self.time;
        let mut free = self.free;
        let mut completed = self.completed;
        // The run the current decision point is extending: placements
        // started so far whose end times are bitwise equal.
        let mut open: Option<Run> = None;

        macro_rules! flush {
            () => {
                if let Some(r) = open.take() {
                    heap.push(Reverse(r));
                    #[cfg(test)]
                    {
                        *heap_pushes += 1;
                    }
                }
            };
        }

        let result = (|| {
            macro_rules! release {
                ($t:expr, $at:expr) => {{
                    let t: TaskId = $t;
                    let need = t.index() + 1;
                    if available.len() < need {
                        available.resize(need, false);
                        released_at.resize(need, 0.0);
                    }
                    scheduler.release(t, instance.model(t));
                    available[t.index()] = true;
                    released_at[t.index()] = $at;
                }};
            }

            macro_rules! drain_arrivals {
                () => {
                    while let Some(a) = instance.next_arrival() {
                        if a > time {
                            break;
                        }
                        newly.clear();
                        instance.arrivals_into(a, newly);
                        for &t in newly.iter() {
                            release!(t, a);
                        }
                    }
                };
            }

            // Ask the scheduler until it passes, then check that the
            // run can still make progress.
            macro_rules! decide {
                () => {
                    loop {
                        picks.clear();
                        scheduler.select_into(time, free, picks);
                        if picks.is_empty() {
                            break;
                        }
                        for &pick in picks.iter() {
                            let (t, lane, p) = P::split(pick);
                            if available.get(t.index()) != Some(&true) {
                                return Err(SimError::NotAvailable(t));
                            }
                            if p == 0 {
                                return Err(SimError::ZeroProcs(t));
                            }
                            let lane_free = free.free_mut(lane);
                            if p > *lane_free {
                                return Err(SimError::Oversubscribed {
                                    task: t,
                                    want: p,
                                    free: *lane_free,
                                });
                            }
                            *lane_free -= p;
                            let end = time + P::time(instance.model(t), lane, p);
                            if let Some(pool) = pool {
                                proc_ranges.push(pool.alloc(p).expect("pool tracks free count"));
                            }
                            available[t.index()] = false;
                            match &mut open {
                                Some(r) if r.time.to_bits() == end.to_bits() => r.len += 1,
                                _ => {
                                    flush!();
                                    open = Some(Run {
                                        time: end,
                                        first: u32::try_from(placements.len())
                                            .expect("placements fit u32"),
                                        len: 1,
                                    });
                                }
                            }
                            lanes.push(lane);
                            placements.push(Placement {
                                task: t,
                                start: time,
                                end,
                                procs: p,
                                released: released_at[t.index()],
                            });
                        }
                    }
                    flush!();
                    // Nothing running, nothing arriving, instance
                    // incomplete: the scheduler refused available work,
                    // or the instance owes tasks it never released.
                    if heap.is_empty() && instance.next_arrival().is_none() && !instance.is_done() {
                        return Err(if available.contains(&true) {
                            SimError::Stuck { time, completed }
                        } else {
                            SimError::InconsistentInstance
                        });
                    }
                };
            }

            // The decision point at time 0 runs even when nothing
            // arrives then, so an instance that never releases is caught.
            if !*primed {
                *primed = true;
                drain_arrivals!();
                decide!();
            }
            loop {
                // Next event: a completion or a timed arrival, whichever
                // first (completions processed before arrivals at equal
                // times).
                let t_next = match (heap.peek(), instance.next_arrival()) {
                    (None, None) => break,
                    (Some(Reverse(r)), None) => r.time,
                    (None, Some(a)) => a,
                    (Some(Reverse(r)), Some(a)) => r.time.min(a),
                };
                if t_next > until {
                    break;
                }
                time = t_next;
                // Gather every run ending at exactly this time; their
                // placements, run by run, are in start order.
                batch.clear();
                while let Some(&Reverse(r)) = heap.peek() {
                    if r.time != time {
                        break;
                    }
                    batch.push(r);
                    heap.pop();
                }
                // 1) free the processors of every completion in the batch
                for r in batch.iter() {
                    for (pl, &lane) in placements[r.indices()].iter().zip(&lanes[r.indices()]) {
                        *free.free_mut(lane) += pl.procs;
                    }
                    if let Some(pool) = pool.as_mut() {
                        for ranges in &proc_ranges[r.indices()] {
                            pool.release(ranges);
                        }
                    }
                    completed += r.len as usize;
                }
                // 2) reveal the consequences, in completion order
                for r in batch.iter() {
                    for idx in r.indices() {
                        newly.clear();
                        instance.on_complete_into(placements[idx].task, time, newly);
                        for &t in newly.iter() {
                            release!(t, time);
                        }
                    }
                }
                if let Some(out) = completions.as_deref_mut() {
                    out.extend(batch.iter().flat_map(|r| r.indices()));
                }
                // 3) timed arrivals due now
                drain_arrivals!();
                // 4) new decision point
                decide!();
            }
            Ok(())
        })();
        // An error return can leave the open run unpushed. Push it, so
        // the heap still holds every started placement and a poisoned
        // stepper's `is_idle` stays truthful.
        flush!();

        self.time = time;
        self.free = free;
        self.completed = completed;
        result
    }
}

impl<I, S, P: Platform> std::fmt::Debug for Stepper<I, S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stepper")
            .field("p_total", &self.platform)
            .field("free", &self.free)
            .field("now", &self.time)
            .field("completed", &self.completed)
            .field("running", &(self.placements.len() - self.completed))
            .field("poisoned", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_instance, GraphInstance, WorldInstance};
    use moldable_graph::{gen, TaskGraph};
    use moldable_model::{ModelClass, SpeedupModel};

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Greedy FIFO on a fixed allocation (mirror of the engine tests).
    struct Fifo {
        alloc: u32,
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Fifo {
        fn new(alloc: u32) -> Self {
            Self {
                alloc,
                queue: std::collections::VecDeque::new(),
            }
        }
    }

    impl Scheduler for Fifo {
        fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
            self.queue.push_back(task);
        }
        fn select_into(&mut self, _now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
            while free >= self.alloc {
                match self.queue.pop_front() {
                    Some(t) => {
                        out.push((t, self.alloc));
                        free -= self.alloc;
                    }
                    None => break,
                }
            }
        }
    }

    /// FNV-1a over each placement's `(task, start bits, end bits,
    /// procs, released bits)`, little-endian, in placement order.
    fn fingerprint(placements: &[Placement]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for pl in placements {
            let bytes = pl
                .task
                .0
                .to_le_bytes()
                .into_iter()
                .chain(pl.start.to_bits().to_le_bytes())
                .chain(pl.end.to_bits().to_le_bytes())
                .chain(pl.procs.to_le_bytes())
                .chain(pl.released.to_bits().to_le_bytes());
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `(shape, size, P, placements, fingerprint, makespan bits)` of a
    /// FIFO run, recorded before `simulate_instance` and the stepper
    /// shared one event loop, when each had its own.
    #[rustfmt::skip]
    const GRAPH_PINS: [(&str, u32, u32, usize, u64, u64); 4] = [
        ("cholesky", 8, 16, 120, 0x40f7_4834_9c97_4ae8, 0x40aa_ea00_63b7_4baa),
        ("layered", 10, 24, 100, 0x518f_fa56_325d_bbf5, 0x409f_3917_8ad0_2e9c),
        ("fft", 5, 8, 192, 0x9f7a_24c9_a9e0_9aa8, 0x40ac_e004_8e02_ea62),
        ("fork-join", 40, 12, 126, 0x2d07_cf5e_88cc_a3ca, 0x40a0_a58b_e0a5_dda6),
    ];

    #[test]
    fn generated_graphs_keep_their_pinned_schedules() {
        for (shape, size, p, n, fp, makespan) in GRAPH_PINS {
            let g = gen::by_name(shape, size, ModelClass::Amdahl, p, 7).unwrap();
            let got = Stepper::new(GraphInstance::new(&g), Fifo::new(2), &SimOptions::new(p))
                .finish()
                .unwrap();
            let seen = (
                got.placements.len(),
                fingerprint(&got.placements),
                got.makespan.to_bits(),
            );
            assert_eq!(seen, (n, fp, makespan), "{shape}");
        }
    }

    #[test]
    fn sliced_advances_are_bit_identical_to_one_jump() {
        let g = gen::by_name("layered", 12, ModelClass::General, 16, 3).unwrap();
        let opts = SimOptions::new(16);
        let one = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &opts)
            .finish()
            .unwrap();
        let mut sliced = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &opts);
        let mut seen = Vec::new();
        let mut t = 0.0;
        while !(sliced.is_idle() && sliced.now() > 0.0) {
            sliced.advance_until(t, &mut seen).unwrap();
            if sliced.is_idle() && Instance::<u32>::is_done(sliced.instance()) {
                break;
            }
            t += 0.37; // deliberately lands between event times
            assert!(t < 1e6, "runaway");
        }
        assert_eq!(
            seen.len(),
            one.placements.len(),
            "every completion reported"
        );
        assert_eq!(
            fingerprint(sliced.placements()),
            fingerprint(&one.placements)
        );
        // Completion indices arrive in retirement order: end times are
        // non-decreasing along the reported sequence.
        let ends: Vec<f64> = seen.iter().map(|&i| sliced.placements()[i].end).collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn equal_time_completions_share_one_heap_event() {
        // Figure 1's shape: `Y` layers of `X` identical B tasks, each
        // layer released by the previous one's A task on the chain. A
        // layer's B tasks start together and end together, so they
        // form one completion run; each A is a run of its own.
        const X: usize = 8;
        const Y: usize = 5;
        let mut g = moldable_graph::GraphBuilder::new();
        let mut prev_a: Option<TaskId> = None;
        for _ in 0..Y {
            let bs: Vec<TaskId> = (0..X).map(|_| g.add_task(unit(0.5))).collect();
            let a = g.add_task(unit(1.0));
            if let Some(pa) = prev_a {
                for &b in &bs {
                    g.add_edge(pa, b).unwrap();
                }
                g.add_edge(pa, a).unwrap();
            }
            prev_a = Some(a);
        }
        let g = g.freeze();
        let p = u32::try_from(X + 1).unwrap();
        let mut st = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &SimOptions::new(p));
        let mut done = Vec::new();
        st.advance_until(f64::INFINITY, &mut done).unwrap();
        assert_eq!(st.completed(), Y * (X + 1));
        assert_eq!(st.heap_pushes, 2 * Y, "one heap push per run, not per task");
        // Retirement stays in (end time, start sequence) order.
        let order: Vec<(f64, usize)> = done.iter().map(|&i| (st.placements()[i].end, i)).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(st.now(), 5.0);
    }

    #[test]
    fn timed_arrivals_keep_their_pinned_schedule() {
        let releases: Vec<(f64, SpeedupModel)> = (0..40)
            .map(|i| (f64::from(i % 7) * 0.5, unit(1.0 + f64::from(i % 3))))
            .collect();
        let got = Stepper::new(
            WorldInstance::from_releases(releases),
            Fifo::new(1),
            &SimOptions::new(4),
        )
        .finish()
        .unwrap();
        assert_eq!(got.placements.len(), 40);
        assert_eq!(fingerprint(&got.placements), 0xc751_3ff4_df1b_20e4);
        assert_eq!(got.makespan, 21.0);
    }

    #[test]
    fn instance_that_releases_nothing_and_never_finishes_is_inconsistent() {
        /// Claims outstanding work but never releases any.
        struct Hollow;
        impl Instance for Hollow {
            fn on_complete_into(&mut self, _task: TaskId, _time: f64, _out: &mut Vec<TaskId>) {}
            fn is_done(&self) -> bool {
                false
            }
            fn next_arrival(&self) -> Option<f64> {
                None
            }
            fn arrivals_into(&mut self, _time: f64, _out: &mut Vec<TaskId>) {}
            fn model(&self, _task: TaskId) -> &SpeedupModel {
                unreachable!("no task is ever released")
            }
        }
        let opts = SimOptions::new(2);
        let err = simulate_instance(&mut Hollow, &mut Fifo::new(1), &opts).unwrap_err();
        assert_eq!(err, SimError::InconsistentInstance);
        let mut st = Stepper::new(Hollow, Fifo::new(1), &opts);
        let err = st.advance_until(1.0, &mut Vec::new()).unwrap_err();
        assert_eq!(err, SimError::InconsistentInstance);
    }

    #[test]
    fn advance_until_is_inclusive_of_the_horizon() {
        let mut g = moldable_graph::GraphBuilder::new();
        g.add_task(unit(2.0));
        g.add_task(unit(2.0));
        let g = g.freeze();
        let mut st = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &SimOptions::new(2));
        let mut done = Vec::new();
        st.advance_until(1.9, &mut done).unwrap();
        assert!(done.is_empty(), "completions at t=2 are beyond 1.9");
        st.advance_until(2.0, &mut done).unwrap();
        assert_eq!(done.len(), 2, "t=2 completions retire at horizon 2.0");
        assert_eq!(st.now(), 2.0);
        assert_eq!(st.free(), 2);
    }

    #[test]
    fn work_fed_between_advances_is_scheduled() {
        // An initially empty world is quiescent, not an error; work
        // submitted later (at or after `now`) runs.
        let opts = SimOptions::new(2);
        let mut st = Stepper::new(WorldInstance::new(), Fifo::new(1), &opts);
        let mut done = Vec::new();
        st.advance_until(10.0, &mut done).unwrap();
        assert!(done.is_empty());
        assert!(st.is_idle());
        for w in [2.0, 1.0] {
            let mut task = moldable_graph::GraphBuilder::new();
            task.add_task(unit(w));
            let task = std::sync::Arc::new(task.freeze());
            st.instance_mut().submit(task, 3.0).unwrap();
        }
        st.advance_until(3.5, &mut done).unwrap();
        assert!(done.is_empty(), "both still running at 3.5");
        st.advance_until(10.0, &mut done).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(st.placements()[0].start, 3.0);
        assert_eq!(st.placements()[1].start, 3.0);
        assert_eq!(st.now(), 5.0);
    }

    #[test]
    fn errors_poison_the_stepper() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select_into(&mut self, _now: f64, _free: u32, _out: &mut Vec<(TaskId, u32)>) {}
        }
        let mut g = moldable_graph::GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let mut st = Stepper::new(GraphInstance::new(&g), Lazy, &SimOptions::new(2));
        let mut done = Vec::new();
        let e1 = st.advance_until(1.0, &mut done).unwrap_err();
        assert!(matches!(e1, SimError::Stuck { .. }));
        let e2 = st.advance_until(2.0, &mut done).unwrap_err();
        assert_eq!(e1, e2, "poisoned stepper repeats its error");
    }

    /// A toy platform with two lanes of processors, indexed 0 and 1.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct TwoLanes([u32; 2]);

    impl Platform for TwoLanes {
        type Lane = usize;
        type Task = SpeedupModel;
        type Pick = (TaskId, usize, u32);

        fn free_mut(&mut self, lane: usize) -> &mut u32 {
            &mut self.0[lane]
        }
        fn split(pick: (TaskId, usize, u32)) -> (TaskId, usize, u32) {
            pick
        }
        fn time(task: &SpeedupModel, _lane: usize, p: u32) -> f64 {
            task.time(p)
        }
    }

    /// FIFO over a fixed `(lane, procs)` plan per task, starting each
    /// queued task whose lane has room; `blind` starts the head
    /// without looking.
    struct LanePlan {
        plan: Vec<(usize, u32)>,
        queue: Vec<TaskId>,
        blind: bool,
    }

    impl Scheduler<TwoLanes> for LanePlan {
        fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
            self.queue.push(task);
        }
        fn select_into(
            &mut self,
            _now: f64,
            mut free: TwoLanes,
            out: &mut Vec<(TaskId, usize, u32)>,
        ) {
            let plan = &self.plan;
            let blind = self.blind;
            self.queue.retain(|&t| {
                let (lane, p) = plan[t.index()];
                let fits = blind || p <= free.0[lane];
                if fits {
                    free.0[lane] = free.0[lane].saturating_sub(p);
                    out.push((t, lane, p));
                }
                !fits
            });
        }
    }

    /// Three independent tasks of work 2, 6 and 2, all released at
    /// time 0.
    fn independent() -> TaskGraph {
        let mut g = moldable_graph::GraphBuilder::new();
        for w in [2.0, 6.0, 2.0] {
            g.add_task(unit(w));
        }
        g.freeze()
    }

    fn two_lane_run(
        graph: &TaskGraph,
        free: [u32; 2],
        plan: Vec<(usize, u32)>,
        blind: bool,
    ) -> Stepper<GraphInstance<'_>, LanePlan, TwoLanes> {
        let scheduler = LanePlan {
            plan,
            queue: Vec::new(),
            blind,
        };
        Stepper::with_platform(GraphInstance::new(graph), scheduler, TwoLanes(free))
    }

    #[test]
    fn an_oversubscribed_lane_is_caught_while_the_other_has_room() {
        let g = independent();
        let st = two_lane_run(&g, [1, 8], vec![(0, 2), (1, 1), (1, 1)], true);
        let err = st.finish_lanes().unwrap_err();
        assert_eq!(
            err,
            SimError::Oversubscribed {
                task: TaskId(0),
                want: 2,
                free: 1,
            }
        );
    }

    #[test]
    fn completions_return_processors_to_their_own_lane() {
        // Tasks 0 and 2 both need all of lane 0; task 1 holds lane 1
        // until t = 3. Task 2 starts when task 0 gives lane 0 back.
        let g = independent();
        let mut st = two_lane_run(&g, [2, 2], vec![(0, 2), (1, 2), (0, 2)], false);
        st.advance_until(0.5, &mut Vec::new()).unwrap();
        assert_eq!(st.free(), TwoLanes([0, 0]));
        st.advance_until(1.5, &mut Vec::new()).unwrap();
        assert_eq!(
            st.free(),
            TwoLanes([0, 0]),
            "task 2 took lane 0 back at t = 1"
        );
        let run = st.finish_lanes().unwrap();
        let tasks: Vec<u32> = run.placements.iter().map(|pl| pl.task.0).collect();
        assert_eq!(tasks, [0, 1, 2]);
        assert_eq!(
            run.lanes,
            [0, 1, 0],
            "one lane per placement, in start order"
        );
        let starts: Vec<f64> = run.placements.iter().map(|pl| pl.start).collect();
        assert_eq!(starts, [0.0, 0.0, 1.0]);
        assert_eq!(run.makespan, 3.0);
    }

    #[test]
    fn proc_ids_are_recorded_and_recycled() {
        let mut g = moldable_graph::GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let opts = SimOptions::new(2).with_proc_ids();
        let s = Stepper::new(GraphInstance::new(&g), Fifo::new(2), &opts)
            .finish()
            .unwrap();
        assert_eq!(s.proc_ranges(0), [(0, 1)]);
        assert_eq!(s.proc_ranges(1), [(0, 1)], "procs recycled");
    }
}

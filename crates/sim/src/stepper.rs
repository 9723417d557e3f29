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
//! Event semantics: events are ordered by `(time, start-sequence)`,
//! and all completions at one instant retire as a batch: processors
//! freed first, consequences revealed in completion order, timed
//! arrivals drained, then a new decision point. The loop itself is
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

use crate::{Instance, Placement, ProcPool, Schedule, Scheduler, SimError, SimOptions};

/// Completion event. `idx` is the placement index, which is also the
/// start sequence (placements are pushed in start order), so ordering
/// by `(time, idx)` retires same-instant completions in start order. Task and processor count
/// ride along so retiring the event touches no other array.
#[derive(Debug, Clone, Copy)]
struct Completion {
    time: f64,
    idx: u32,
    task: TaskId,
    procs: u32,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.idx == other.idx
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.idx.cmp(&other.idx))
    }
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
pub struct Stepper<I, S> {
    instance: I,
    scheduler: S,
    p_total: u32,
    free: u32,
    pool: Option<ProcPool>,
    placements: Vec<Placement>,
    heap: BinaryHeap<Reverse<Completion>>,
    time: f64,
    completed: usize,
    /// Per task id: released and not yet started.
    available: Vec<bool>,
    released_at: Vec<f64>,
    picks: Vec<(TaskId, u32)>,
    newly: Vec<TaskId>,
    batch: Vec<Completion>,
    primed: bool,
    error: Option<SimError>,
}

impl<I: Instance, S: Scheduler> Stepper<I, S> {
    /// Wrap `instance` and `scheduler` for incremental simulation on
    /// `opts.p_total` processors. Calls `scheduler.init`; the initial
    /// frontier is released lazily on the first advance, so arrivals
    /// registered before the first [`Stepper::advance_until`] are
    /// seen exactly as if they had been there from the start.
    pub fn new(instance: I, mut scheduler: S, opts: &SimOptions) -> Self {
        let p_total = opts.p_total;
        scheduler.init(p_total);
        let hint = instance.size_hint();
        Self {
            instance,
            scheduler,
            p_total,
            free: p_total,
            pool: opts.record_proc_ids.then(|| ProcPool::new(p_total)),
            placements: Vec::with_capacity(hint),
            heap: BinaryHeap::with_capacity(p_total as usize),
            time: 0.0,
            completed: 0,
            available: Vec::with_capacity(hint),
            released_at: Vec::with_capacity(hint),
            picks: Vec::new(),
            newly: Vec::new(),
            batch: Vec::new(),
            primed: false,
            error: None,
        }
    }

    /// Time of the last processed event (0 before any event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Currently idle processors.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Platform size.
    #[must_use]
    pub fn p_total(&self) -> u32 {
        self.p_total
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

    /// Run the remaining events to quiescence and return the final
    /// [`Schedule`].
    ///
    /// # Errors
    ///
    /// Any pending or provoked [`SimError`];
    /// [`SimError::InconsistentInstance`] if the instance is still
    /// unfinished at quiescence.
    pub fn finish(mut self) -> Result<Schedule, SimError> {
        self.advance(f64::INFINITY, None)?;
        if !self.instance.is_done() {
            return Err(SimError::InconsistentInstance);
        }
        Ok(Schedule {
            p_total: self.p_total,
            placements: self.placements,
            makespan: self.time,
        })
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
            heap,
            available,
            released_at,
            picks,
            newly,
            batch,
            primed,
            ..
        } = self;
        let mut time = self.time;
        let mut free = self.free;
        let mut completed = self.completed;

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
                        for t in instance.arrivals(a) {
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
                        for &(t, p) in picks.iter() {
                            if available.get(t.index()) != Some(&true) {
                                return Err(SimError::NotAvailable(t));
                            }
                            if p == 0 {
                                return Err(SimError::ZeroProcs(t));
                            }
                            if p > free {
                                return Err(SimError::Oversubscribed {
                                    task: t,
                                    want: p,
                                    free,
                                });
                            }
                            let dur = instance.model(t).time(p);
                            let proc_ranges = match pool {
                                Some(pool) => pool.alloc(p).expect("pool tracks free count"),
                                None => Vec::new(),
                            };
                            free -= p;
                            available[t.index()] = false;
                            heap.push(Reverse(Completion {
                                time: time + dur,
                                idx: u32::try_from(placements.len()).expect("placements fit u32"),
                                task: t,
                                procs: p,
                            }));
                            placements.push(Placement {
                                task: t,
                                start: time,
                                end: time + dur,
                                procs: p,
                                proc_ranges,
                                released: released_at[t.index()],
                            });
                        }
                    }
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

            if !*primed {
                *primed = true;
                for t in instance.initial() {
                    release!(t, 0.0);
                }
                drain_arrivals!();
                decide!();
            }
            loop {
                // Next event: a completion or a timed arrival, whichever
                // first (completions processed before arrivals at equal
                // times).
                let t_next = match (heap.peek(), instance.next_arrival()) {
                    (None, None) => break,
                    (Some(Reverse(e)), None) => e.time,
                    (None, Some(a)) => a,
                    (Some(Reverse(e)), Some(a)) => e.time.min(a),
                };
                if t_next > until {
                    break;
                }
                time = t_next;
                // Gather all completions at exactly this time, in
                // start order.
                batch.clear();
                while let Some(&Reverse(e)) = heap.peek() {
                    if e.time != time {
                        break;
                    }
                    batch.push(e);
                    heap.pop();
                }
                // 1) free the processors of every completion in the batch
                for e in batch.iter() {
                    free += e.procs;
                    if let Some(pool) = pool.as_mut() {
                        pool.release(&placements[e.idx as usize].proc_ranges);
                    }
                }
                completed += batch.len();
                // 2) reveal the consequences, in completion order
                for e in batch.iter() {
                    newly.clear();
                    instance.on_complete_into(e.task, time, newly);
                    for &t in newly.iter() {
                        release!(t, time);
                    }
                }
                if let Some(out) = completions.as_deref_mut() {
                    out.extend(batch.iter().map(|e| e.idx as usize));
                }
                // 3) timed arrivals due now
                drain_arrivals!();
                // 4) new decision point
                decide!();
            }
            Ok(())
        })();

        self.time = time;
        self.free = free;
        self.completed = completed;
        result
    }
}

impl<I, S> std::fmt::Debug for Stepper<I, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stepper")
            .field("p_total", &self.p_total)
            .field("free", &self.free)
            .field("now", &self.time)
            .field("completed", &self.completed)
            .field("running", &self.heap.len())
            .field("poisoned", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_instance, GraphInstance, TimedArrivals};
    use moldable_graph::gen;
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
        fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
            let mut out = Vec::new();
            let mut free = free;
            while free >= self.alloc {
                match self.queue.pop_front() {
                    Some(t) => {
                        out.push((t, self.alloc));
                        free -= self.alloc;
                    }
                    None => break,
                }
            }
            out
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
            if sliced.is_idle() && sliced.instance().is_done() {
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
    fn timed_arrivals_keep_their_pinned_schedule() {
        let releases: Vec<(f64, SpeedupModel)> = (0..40)
            .map(|i| (f64::from(i % 7) * 0.5, unit(1.0 + f64::from(i % 3))))
            .collect();
        let got = Stepper::new(
            TimedArrivals::new(releases),
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
            fn initial(&mut self) -> Vec<TaskId> {
                Vec::new()
            }
            fn on_complete(&mut self, _task: TaskId, _time: f64) -> Vec<TaskId> {
                Vec::new()
            }
            fn is_done(&self) -> bool {
                false
            }
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
        // An initially empty arrivals stream is quiescent, not an
        // error; work appended later (at or after `now`) runs.
        let opts = SimOptions::new(2);
        let mut st = Stepper::new(TimedArrivals::new(Vec::new()), Fifo::new(1), &opts);
        let mut done = Vec::new();
        st.advance_until(10.0, &mut done).unwrap();
        assert!(done.is_empty());
        assert!(st.is_idle());
        *st.instance_mut() = TimedArrivals::new(vec![(3.0, unit(2.0)), (3.0, unit(1.0))]);
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
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                Vec::new()
            }
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
        assert_eq!(s.placements[0].proc_ranges, vec![(0, 1)]);
        assert_eq!(s.placements[1].proc_ranges, vec![(0, 1)], "procs recycled");
    }
}

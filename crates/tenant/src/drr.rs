//! Deficit-round-robin fairness across session slots.
//!
//! The session layer multiplexes many tenants' DAGs onto one platform
//! of `P` processors; the scheduler must prevent a flood from one
//! session starving the others. [`DrrScheduler`] adapts deficit round
//! robin (Shreedhar & Varghese) to processor allocation:
//!
//! * Each session owns a FIFO queue of ready tasks and a *deficit*
//!   counter in processor units. Allocation per task is the owning
//!   DAG's registered algorithm — `AlgoName::allocate(model, P, μ)`
//!   capped at `⌈μP⌉`, through one shared [`AllocCache`] per
//!   registered algorithm under the same release-path policy as the
//!   online scheduler ([`AllocCache::decide`]: run grouping, bypass,
//!   bounded size) — the same per-task allocation the one-shot service
//!   computes; only the start-order policy (DRR instead of
//!   Algorithm 2's list order) differs. Sessions running different
//!   algorithms coexist on one platform.
//! * At each decision instant every non-empty queue is replenished by
//!   one quantum (capped at [`BURST_QUANTA`]× to bound burst credit),
//!   then a cyclic pass from a rotating cursor starts front tasks
//!   while they fit both the free processors and the session's
//!   deficit.
//! * A second, work-conserving pass ignores deficits: if processors
//!   are still free and *any* queued task fits, it starts — charged
//!   against the session's deficit (which may go negative, deferring
//!   it in later rounds). This pass makes the no-starvation invariant
//!   unconditional: after `select_into`, no queued task fits the
//!   remaining free processors, so a tenant can never hold ready work
//!   that fits while another tenant's processors idle.
//!
//! Determinism: slots are visited in slot-id order from a cursor that
//! only moves on phase-1 service; no hashing, no wall clock. Equal
//! world state ⇒ equal decisions, bit for bit.
//!
//! Layout: the per-slot state the decision loop reads lives in flat
//! columns — the head allocation of each queue (`EMPTY` when the queue
//! is empty) and the deficit — and a min-tree over the head column
//! finds the next slot in cyclic order whose head fits the free
//! processors. A decision point therefore touches only the slots that
//! can start something; when no head fits, it returns after one read
//! of the tree's root. Replenishing visits every non-empty queue (its
//! deficit takes a rounded add-and-cap with that instant's quantum;
//! folding those additions across instants would change the deficits'
//! bits, not only the decisions) and every queue emptied since the
//! last replenish. A queue already empty then holds `d.min(0.0)`, a
//! fixed point of the empty-queue step, so skipping it leaves every
//! deficit bit-identical while drained sessions cost nothing.

use std::collections::VecDeque;

use moldable_core::registry::ALGOS;
use moldable_core::{AlgoName, AllocCache};
use moldable_graph::TaskId;
use moldable_model::SpeedupModel;
use moldable_sim::Scheduler;

/// Burst cap: a queue can bank at most this many quanta of deficit.
const BURST_QUANTA: f64 = 4.0;

/// Head column value of a slot whose queue is empty.
const EMPTY: u32 = u32::MAX;

struct Ready {
    task: TaskId,
    procs: u32,
}

/// Implicit binary min-tree over the slots' head allocations: leaves
/// at `[cap, 2·cap)`, padding leaves `EMPTY`, node `i` the minimum of
/// `2i` and `2i + 1`.
struct MinTree {
    cap: usize,
    nodes: Vec<u32>,
}

impl MinTree {
    fn new() -> Self {
        Self {
            cap: 1,
            nodes: vec![EMPTY; 2],
        }
    }

    /// Make room for `n` leaves, keeping the current ones.
    fn grow(&mut self, n: usize) {
        if n <= self.cap {
            return;
        }
        let cap = n.next_power_of_two();
        let mut nodes = vec![EMPTY; 2 * cap];
        nodes[cap..cap + self.cap].copy_from_slice(&self.nodes[self.cap..]);
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        self.cap = cap;
        self.nodes = nodes;
    }

    /// The leaves: one head allocation per slot, then padding.
    fn leaves(&self) -> &[u32] {
        &self.nodes[self.cap..]
    }

    fn min(&self) -> u32 {
        self.nodes[1]
    }

    fn set(&mut self, slot: usize, value: u32) {
        let mut i = self.cap + slot;
        self.nodes[i] = value;
        while i > 1 {
            i /= 2;
            let m = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == m {
                break;
            }
            self.nodes[i] = m;
        }
    }

    /// The first slot at or after `from` whose head is at most
    /// `bound`.
    fn first_fit(&self, from: usize, bound: u32) -> Option<usize> {
        if from >= self.cap {
            return None;
        }
        let mut i = self.cap + from;
        // Climb: move right past every subtree holding no fit.
        while self.nodes[i] > bound {
            while i % 2 == 1 {
                if i == 1 {
                    return None;
                }
                i /= 2;
            }
            i += 1;
        }
        // Descend to the leftmost fitting leaf.
        while i < self.cap {
            i *= 2;
            if self.nodes[i] > bound {
                i += 1;
            }
        }
        Some(i - self.cap)
    }
}

/// Deficit-round-robin moldable scheduler over session slots.
pub struct DrrScheduler {
    /// One warm cache per registered algorithm, indexed by
    /// `AlgoName as usize` (`ALGOS` lists the variants in declaration
    /// order); a task allocates through its DAG's algorithm.
    caches: [AllocCache; ALGOS.len()],
    p_total: u32,
    /// Global task id → owning slot; appended by
    /// [`DrrScheduler::register_tasks`] before the tasks can release.
    task_slot: Vec<u32>,
    /// Global task id → the owning DAG's algorithm, parallel to
    /// `task_slot`.
    task_algo: Vec<AlgoName>,
    /// Per-slot FIFO of ready tasks.
    queues: Vec<VecDeque<Ready>>,
    /// Per-slot deficit, in processor units.
    deficits: Vec<f64>,
    /// Slots the next replenish visits: those non-empty at the last
    /// one and those filled since, each once (`pending_mark`).
    pending: Vec<usize>,
    pending_mark: Vec<bool>,
    /// Min-tree whose leaves are the per-slot head allocations.
    fronts: MinTree,
    /// Slots with a non-empty queue.
    active: usize,
    cursor: usize,
    /// Decision-instant gate: the engine calls `select_into` repeatedly
    /// within one decision point; replenish deficits only on the
    /// first call at each distinct time.
    last_replenish: Option<u64>,
    started: u64,
    /// See [`DrrScheduler::slot_visits`].
    slot_visits: u64,
}

impl DrrScheduler {
    /// A scheduler allocating with parameter `mu` on a platform of
    /// `p_total` processors (must match the engine's `SimOptions`).
    #[must_use]
    pub fn new(p_total: u32, mu: f64) -> Self {
        Self {
            caches: ALGOS.map(|a| AllocCache::for_algo(a, p_total, mu)),
            p_total,
            task_slot: Vec::new(),
            task_algo: Vec::new(),
            queues: Vec::new(),
            deficits: Vec::new(),
            pending: Vec::new(),
            pending_mark: Vec::new(),
            fronts: MinTree::new(),
            active: 0,
            cursor: 0,
            last_replenish: None,
            started: 0,
            slot_visits: 0,
        }
    }

    /// Declare that the next `n_tasks` global task ids belong to
    /// session `slot` and allocate with `algo`. Must be called in
    /// global-id order, before any of those tasks is released by the
    /// engine.
    pub fn register_tasks(&mut self, slot: usize, n_tasks: usize, algo: AlgoName) {
        if slot >= self.queues.len() {
            self.queues.resize_with(slot + 1, VecDeque::new);
            self.deficits.resize(slot + 1, 0.0);
            self.pending_mark.resize(slot + 1, false);
            self.fronts.grow(slot + 1);
        }
        let slot = u32::try_from(slot).expect("slot ids fit u32");
        self.task_slot.resize(self.task_slot.len() + n_tasks, slot);
        self.task_algo.resize(self.task_algo.len() + n_tasks, algo);
    }

    /// Number of session slots seen so far.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.queues.len()
    }

    /// Ready tasks currently queued for `slot`.
    #[must_use]
    pub fn queued(&self, slot: usize) -> usize {
        self.queues.get(slot).map_or(0, VecDeque::len)
    }

    /// Total tasks started over the scheduler's lifetime.
    #[must_use]
    pub fn n_started(&self) -> u64 {
        self.started
    }

    /// Slot states read by `select_into` so far: one per slot a
    /// replenish visits (non-empty, or emptied since the previous
    /// replenish), and one per slot a DRR or work-conserving pass
    /// stops at. Min-tree nodes are not counted. A pure function of the
    /// register, release and select sequence, so tests can pin it.
    #[must_use]
    pub fn slot_visits(&self) -> u64 {
        self.slot_visits
    }

    /// The per-algorithm allocation caches.
    #[cfg(test)]
    pub(crate) fn caches(&self) -> &[AllocCache] {
        &self.caches
    }

    /// Start tasks from the front of `slot`'s queue while they fit
    /// `free` and, in the DRR pass (`within_deficit`), the slot's
    /// deficit. Returns whether anything started.
    fn serve(
        &mut self,
        slot: usize,
        free: &mut u32,
        within_deficit: bool,
        out: &mut Vec<(TaskId, u32)>,
    ) -> bool {
        self.slot_visits += 1;
        let queue = &mut self.queues[slot];
        let deficit = &mut self.deficits[slot];
        let before = queue.len();
        while let Some(front) = queue.front() {
            let cost = f64::from(front.procs);
            if front.procs > *free || (within_deficit && cost > *deficit) {
                break;
            }
            let r = queue.pop_front().expect("front exists");
            *deficit -= cost;
            *free -= r.procs;
            out.push((r.task, r.procs));
        }
        let taken = before - queue.len();
        if taken == 0 {
            return false;
        }
        self.started += taken as u64;
        let head = queue.front().map_or(EMPTY, |r| r.procs);
        if head == EMPTY {
            self.active -= 1;
        }
        self.fronts.set(slot, head);
        true
    }

    /// One cyclic pass from the cursor, serving (see
    /// [`DrrScheduler::serve`]) every slot whose head fits `free` when
    /// the pass reaches it. Only those slots can start anything, and a
    /// slot's head only changes when it is served. The DRR pass moves
    /// the cursor past each slot it serves. Returns `false` once
    /// `free` reaches 0.
    fn pass(&mut self, free: &mut u32, within_deficit: bool, out: &mut Vec<(TaskId, u32)>) -> bool {
        let start = self.cursor;
        let mut from = start;
        let mut wrapped = false;
        loop {
            let slot = match self.fronts.first_fit(from, *free) {
                Some(i) if !wrapped || i < start => i,
                _ if !wrapped && start > 0 => {
                    wrapped = true;
                    from = 0;
                    continue;
                }
                _ => return true,
            };
            if self.serve(slot, free, within_deficit, out) {
                if within_deficit {
                    // Rotate past the last-served slot so the next
                    // pass starts with its successor.
                    self.cursor = (slot + 1) % self.queues.len();
                }
                if *free == 0 {
                    return false;
                }
            }
            from = slot + 1;
        }
    }
}

impl Scheduler for DrrScheduler {
    fn init(&mut self, p_total: u32) {
        assert_eq!(
            p_total, self.p_total,
            "DrrScheduler built for a different platform size"
        );
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        let slot = self.task_slot[task.index()] as usize;
        let algo = self.task_algo[task.index()];
        let cache = &mut self.caches[algo as usize];
        debug_assert_eq!(cache.algo(), algo);
        let procs = cache.decide(model).capped;
        let queue = &mut self.queues[slot];
        queue.push_back(Ready { task, procs });
        if queue.len() == 1 {
            self.active += 1;
            self.fronts.set(slot, procs);
            if !self.pending_mark[slot] {
                self.pending_mark[slot] = true;
                self.pending.push(slot);
            }
        }
    }

    fn select_into(&mut self, now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        let n = self.queues.len();
        if n == 0 || free == 0 {
            return;
        }
        if self.last_replenish != Some(now.to_bits()) {
            self.last_replenish = Some(now.to_bits());
            // One quantum: an equal share of the platform among
            // sessions that currently hold ready work.
            let quantum = f64::from(self.p_total) / self.active.max(1) as f64;
            let cap = BURST_QUANTA * quantum;
            let heads = self.fronts.leaves();
            for &slot in &self.pending {
                let deficit = &mut self.deficits[slot];
                *deficit = if heads[slot] == EMPTY {
                    // An idle session banks no credit (classic DRR);
                    // debts from work-conserving starts do persist.
                    self.pending_mark[slot] = false;
                    deficit.min(0.0)
                } else {
                    (*deficit + quantum).min(cap)
                };
            }
            self.slot_visits += self.pending.len() as u64;
            // Non-empty slots stay pending; emptied ones now hold a
            // fixed point of the empty-queue step.
            let mark = &self.pending_mark;
            self.pending.retain(|&slot| mark[slot]);
        }
        if self.fronts.min() > free {
            return;
        }

        // Phase 1: the DRR pass — serve within deficit.
        if !self.pass(&mut free, true, out) {
            return;
        }
        // Phase 2: work conservation — start anything that fits,
        // borrowing against the owner's future deficit. One pass
        // suffices: every slot it passes over or serves is left with a
        // head above the free count it saw, and free only shrinks.
        if self.fronts.min() <= free {
            self.pass(&mut free, false, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::memo::MEMO_LIMIT;

    /// Fully serial (`t(p) = w`): Algorithm 1 allocates exactly one
    /// processor.
    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(0.0, w).unwrap()
    }

    const MU: f64 = 0.38;

    /// One `select_into` call's batch.
    fn pick(s: &mut DrrScheduler, now: f64, free: u32) -> Vec<(TaskId, u32)> {
        let mut out = Vec::new();
        s.select_into(now, free, &mut out);
        out
    }

    #[test]
    fn single_slot_behaves_fifo() {
        let mut s = DrrScheduler::new(4, MU);
        s.init(4);
        s.register_tasks(0, 3, AlgoName::Icpp22);
        for i in 0..3 {
            s.release(TaskId(i), &unit(1.0));
        }
        let picks = pick(&mut s, 0.0, 4);
        let tasks: Vec<u32> = picks.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tasks, vec![0, 1, 2], "FIFO within a slot");
        assert!(pick(&mut s, 0.0, 4).is_empty(), "drained");
    }

    #[test]
    fn contended_slots_split_the_platform() {
        // Two slots, each with plenty of 1-proc work, P = 4: the DRR
        // pass gives each a quantum of 2, so the start batch holds two
        // tasks from each slot.
        let mut s = DrrScheduler::new(4, MU);
        s.init(4);
        s.register_tasks(0, 4, AlgoName::Icpp22);
        s.register_tasks(1, 4, AlgoName::Icpp22);
        for i in 0..4 {
            s.release(TaskId(i), &unit(1.0));
        }
        for i in 4..8 {
            s.release(TaskId(i), &unit(1.0));
        }
        let picks = pick(&mut s, 0.0, 4);
        let mine = picks.iter().filter(|(t, _)| t.0 < 4).count();
        let theirs = picks.len() - mine;
        assert_eq!((mine, theirs), (2, 2), "equal split under contention");
    }

    #[test]
    fn work_conservation_never_idles_fitting_work() {
        // Slot 0 has burned its deficit; its queued work still starts
        // when no one else wants the processors.
        let mut s = DrrScheduler::new(2, MU);
        s.init(2);
        s.register_tasks(0, 6, AlgoName::Icpp22);
        for i in 0..6 {
            s.release(TaskId(i), &unit(1.0));
        }
        let first = pick(&mut s, 0.0, 2);
        assert_eq!(first.len(), 2, "phase 2 fills past the quantum");
        let second = pick(&mut s, 1.0, 2);
        assert_eq!(second.len(), 2);
        let third = pick(&mut s, 2.0, 2);
        assert_eq!(third.len(), 2);
        assert_eq!(s.n_started(), 6);
    }

    #[test]
    fn replenish_happens_once_per_decision_instant() {
        let mut s = DrrScheduler::new(2, MU);
        s.init(2);
        s.register_tasks(0, 2, AlgoName::Icpp22);
        s.release(TaskId(0), &unit(1.0));
        let _ = pick(&mut s, 0.0, 1);
        let d_after = s.deficits[0];
        // Re-entry at the same instant (the engine's decide loop)
        // must not grant more credit.
        let _ = pick(&mut s, 0.0, 0);
        assert_eq!(s.deficits[0].to_bits(), d_after.to_bits());
    }

    #[test]
    fn starvation_is_impossible_while_processors_fit() {
        // Slot 0 floods; slot 1 has one task. After any select, no
        // queued task may fit the remaining free processors.
        let mut s = DrrScheduler::new(3, MU);
        s.init(3);
        s.register_tasks(0, 50, AlgoName::Icpp22);
        s.register_tasks(1, 1, AlgoName::Icpp22);
        for i in 0..50 {
            s.release(TaskId(i), &unit(1.0));
        }
        s.release(TaskId(50), &unit(1.0));
        let picks = pick(&mut s, 0.0, 3);
        assert!(
            picks.iter().any(|(t, _)| t.0 == 50),
            "the lone task of the quiet slot is in the first batch: {picks:?}"
        );
    }

    #[test]
    fn allocation_follows_each_dags_algorithm() {
        // amdahl(30, 10) on P=16, mu=0.3: Algorithm 2 (min area under
        // the time stretch) picks p=3; the dual allocation (min time
        // under the area budget) spends its λ budget and picks p=4.
        // Two slots registered under different algorithms must see
        // exactly those allocations for the same model.
        let model = SpeedupModel::amdahl(30.0, 10.0).unwrap();
        let mut s = DrrScheduler::new(16, 0.3);
        s.init(16);
        s.register_tasks(0, 1, AlgoName::Icpp22);
        s.register_tasks(1, 1, AlgoName::Improved23);
        s.release(TaskId(0), &model);
        s.release(TaskId(1), &model);
        let picks = pick(&mut s, 0.0, 16);
        let procs_of = |id: u32| picks.iter().find(|(t, _)| t.0 == id).unwrap().1;
        assert_eq!(
            procs_of(0),
            AlgoName::Icpp22.allocate(&model, 16, 0.3).capped
        );
        assert_eq!(
            procs_of(1),
            AlgoName::Improved23.allocate(&model, 16, 0.3).capped
        );
        assert_ne!(
            procs_of(0),
            procs_of(1),
            "the two algorithms must differ on this model for the test to bite"
        );
    }

    #[test]
    fn oversized_allocations_are_capped_to_fit_eventually() {
        // A task whose cap exceeds current free waits, but fits a full
        // platform: mu-capped allocations never exceed ceil(mu * P).
        let mut s = DrrScheduler::new(16, MU);
        s.init(16);
        s.register_tasks(0, 1, AlgoName::Icpp22);
        s.release(TaskId(0), &SpeedupModel::amdahl(100.0, 0.0).unwrap());
        let picks = pick(&mut s, 0.0, 1);
        assert!(picks.is_empty(), "does not fit one free proc");
        let picks = pick(&mut s, 1.0, 16);
        assert_eq!(picks.len(), 1);
        assert!(picks[0].1 <= 7, "capped at ceil(mu * 16)");
    }

    /// The linear implementation the indexed one replaced, kept as the
    /// reference it must match call for call: per-slot structs, a
    /// quantum that counts the non-empty queues, and cyclic passes over
    /// every slot (the work-conserving phase repeated until a pass
    /// starts nothing).
    #[derive(Default)]
    struct RefSlot {
        queue: VecDeque<Ready>,
        deficit: f64,
    }

    struct Reference {
        p_total: u32,
        slots: Vec<RefSlot>,
        cursor: usize,
        last_replenish: Option<u64>,
        started: u64,
    }

    impl Reference {
        fn new(p_total: u32) -> Self {
            Self {
                p_total,
                slots: Vec::new(),
                cursor: 0,
                last_replenish: None,
                started: 0,
            }
        }

        fn register(&mut self, slot: usize) {
            if slot >= self.slots.len() {
                self.slots.resize_with(slot + 1, RefSlot::default);
            }
        }

        fn quantum(&self) -> f64 {
            let active = self.slots.iter().filter(|s| !s.queue.is_empty()).count();
            f64::from(self.p_total) / active.max(1) as f64
        }

        fn select_into(&mut self, now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
            let n = self.slots.len();
            if n == 0 || free == 0 {
                return;
            }
            if self.last_replenish != Some(now.to_bits()) {
                self.last_replenish = Some(now.to_bits());
                let quantum = self.quantum();
                let cap = BURST_QUANTA * quantum;
                for slot in &mut self.slots {
                    if slot.queue.is_empty() {
                        slot.deficit = slot.deficit.min(0.0);
                    } else {
                        slot.deficit = (slot.deficit + quantum).min(cap);
                    }
                }
            }
            let start_cursor = self.cursor;
            for step in 0..n {
                let i = (start_cursor + step) % n;
                let slot = &mut self.slots[i];
                let mut served = false;
                while let Some(front) = slot.queue.front() {
                    let cost = f64::from(front.procs);
                    if front.procs > free || cost > slot.deficit {
                        break;
                    }
                    let r = slot.queue.pop_front().expect("front exists");
                    slot.deficit -= cost;
                    free -= r.procs;
                    out.push((r.task, r.procs));
                    self.started += 1;
                    served = true;
                }
                if served {
                    self.cursor = (i + 1) % n;
                }
                if free == 0 {
                    return;
                }
            }
            loop {
                let mut any = false;
                for step in 0..n {
                    let i = (self.cursor + step) % n;
                    let slot = &mut self.slots[i];
                    while let Some(front) = slot.queue.front() {
                        if front.procs > free {
                            break;
                        }
                        let r = slot.queue.pop_front().expect("front exists");
                        slot.deficit -= f64::from(r.procs);
                        free -= r.procs;
                        out.push((r.task, r.procs));
                        self.started += 1;
                        any = true;
                    }
                    if free == 0 {
                        return;
                    }
                }
                if !any {
                    return;
                }
            }
        }
    }

    #[test]
    fn indexed_passes_match_the_linear_reference_call_for_call() {
        use moldable_model::rng::{Rng, StdRng};
        const P: u32 = 48;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_slots = [3, 40, 300][seed as usize % 3];
            let mut s = DrrScheduler::new(P, MU);
            s.init(P);
            let mut r = Reference::new(P);
            let mut task_of: Vec<(usize, AlgoName)> = Vec::new();
            let mut unreleased: Vec<u32> = Vec::new();
            let mut models: Vec<SpeedupModel> = Vec::new();
            let mut now = 0.0;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut selects_with_picks = 0;
            for _ in 0..3000 {
                match rng.gen_range(0u32..10) {
                    0 | 1 => {
                        let slot = rng.gen_range(0..max_slots);
                        let n_tasks = rng.gen_range(1usize..8);
                        let algo = ALGOS[rng.gen_range(0..ALGOS.len())];
                        s.register_tasks(slot, n_tasks, algo);
                        r.register(slot);
                        for _ in 0..n_tasks {
                            unreleased.push(u32::try_from(task_of.len()).unwrap());
                            task_of.push((slot, algo));
                        }
                    }
                    2..=5 if !unreleased.is_empty() => {
                        let task = unreleased.swap_remove(rng.gen_range(0..unreleased.len()));
                        // Some models repeat, so the caches also hit.
                        let model = if !models.is_empty() && rng.gen_bool(0.3) {
                            models[rng.gen_range(0..models.len())].clone()
                        } else {
                            let w = rng.gen_range(1.0..400.0);
                            let d = rng.gen_range(0.0..3.0);
                            SpeedupModel::amdahl(w, d).unwrap()
                        };
                        let (slot, algo) = task_of[task as usize];
                        s.release(TaskId(task), &model);
                        r.slots[slot].queue.push_back(Ready {
                            task: TaskId(task),
                            procs: algo.allocate(&model, P, MU).capped,
                        });
                        models.push(model);
                    }
                    _ => {
                        // Repeated instants (the engine's re-calls) and
                        // advancing ones, with any free count.
                        if rng.gen_bool(0.6) {
                            now += rng.gen_range(0.1..2.0);
                        }
                        let free = rng.gen_range(0..=P);
                        got.clear();
                        want.clear();
                        s.select_into(now, free, &mut got);
                        r.select_into(now, free, &mut want);
                        assert_eq!(got, want, "seed {seed}: picks at t={now}, free={free}");
                        assert_eq!(s.cursor, r.cursor, "seed {seed}: cursor");
                        assert_eq!(s.n_started(), r.started);
                        assert_eq!(s.n_slots(), r.slots.len());
                        for (i, slot) in r.slots.iter().enumerate() {
                            assert_eq!(
                                s.deficits[i].to_bits(),
                                slot.deficit.to_bits(),
                                "seed {seed}: deficit of slot {i}"
                            );
                            assert_eq!(s.queued(i), slot.queue.len());
                        }
                        selects_with_picks += usize::from(!got.is_empty());
                    }
                }
            }
            assert!(
                selects_with_picks > 100,
                "seed {seed}: the test must start work"
            );
        }
    }

    #[test]
    fn allocation_caches_stay_bounded_without_changing_decisions() {
        // Every release carries a model never seen before, as in the
        // session benchmark. The memo policy's bypass stops interning
        // long before its bound (which `moldable_core::memo`'s tests
        // reach); either way no decision may change.
        const P: u32 = 64;
        let n = MEMO_LIMIT + 4_000;
        let mut s = DrrScheduler::new(P, MU);
        s.init(P);
        s.register_tasks(0, n, AlgoName::Icpp22);
        for i in 0..n {
            let task = TaskId(u32::try_from(i).unwrap());
            let model = SpeedupModel::amdahl(1.0 + i as f64 * 1e-3, 0.5).unwrap();
            s.release(task, &model);
            let held: usize = s.caches.iter().map(AllocCache::len).sum();
            assert!(held <= MEMO_LIMIT, "{held} models held after {i} releases");
            let want = AlgoName::Icpp22.allocate(&model, P, MU).capped;
            assert_eq!(pick(&mut s, i as f64, P), vec![(task, want)]);
        }
    }
}

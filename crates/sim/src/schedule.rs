//! Recorded schedules: what ran when, on how many processors.

use moldable_graph::TaskId;

/// One task's execution record: a 32-byte `Copy` value, written once
/// per task per run. Concrete processor ids, when recorded, live in
/// the owning [`Schedule`]'s column ([`Schedule::proc_ranges`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The task.
    pub task: TaskId,
    /// Start time.
    pub start: f64,
    /// Completion time (`start + t(procs)`).
    pub end: f64,
    /// Number of processors held for the whole `[start, end)` interval.
    pub procs: u32,
    /// Time the task became available to the scheduler (its release).
    /// Hand-built schedules default this to `start`.
    pub released: f64,
}

impl Placement {
    /// Duration of the placement.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Time spent waiting in the queue: `start − released`.
    #[must_use]
    pub fn waiting(&self) -> f64 {
        self.start - self.released
    }

    /// Flow time (response time): `end − released`.
    #[must_use]
    pub fn flow(&self) -> f64 {
        self.end - self.released
    }

    /// Area consumed: `procs × duration`.
    #[must_use]
    pub fn area(&self) -> f64 {
        f64::from(self.procs) * self.duration()
    }
}

/// A complete schedule of a task graph on `p_total` processors.
///
/// Produced by the simulator, or hand-built with [`ScheduleBuilder`]
/// (the paper's proofs describe explicit near-optimal schedules which
/// we reconstruct and validate).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Platform size.
    pub p_total: u32,
    /// Placements in start-time order (ties broken by insertion).
    pub placements: Vec<Placement>,
    /// Overall completion time; 0 for an empty schedule.
    pub makespan: f64,
    /// Per placement, its concrete processor ids as disjoint `[lo, hi]`
    /// ranges; empty unless the run recorded them
    /// ([`crate::SimOptions::with_proc_ids`]) or
    /// [`Schedule::assign_proc_ids`] assigned them.
    pub(crate) proc_ranges: Vec<Vec<(u32, u32)>>,
}

impl Schedule {
    /// A schedule of `placements` on `p_total` processors, finishing at
    /// `makespan`, without processor ids.
    #[must_use]
    pub fn new(p_total: u32, placements: Vec<Placement>, makespan: f64) -> Self {
        Self {
            p_total,
            placements,
            makespan,
            proc_ranges: Vec::new(),
        }
    }

    /// Concrete processor ids of `placements[i]` as disjoint `[lo, hi]`
    /// ranges (used for Gantt, SVG and trace rendering); empty when the
    /// schedule carries no processor ids.
    #[must_use]
    pub fn proc_ranges(&self, i: usize) -> &[(u32, u32)] {
        self.proc_ranges.get(i).map_or(&[], Vec::as_slice)
    }

    /// Placement of a given task, if present.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task)
    }

    /// Total processor-time consumed by all placements.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        self.placements.iter().map(Placement::area).sum()
    }

    /// Mean waiting time over all placements (0 for an empty schedule).
    #[must_use]
    pub fn mean_waiting(&self) -> f64 {
        if self.placements.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.placements.len() as f64;
        self.placements.iter().map(Placement::waiting).sum::<f64>() / n
    }

    /// Mean flow time (completion − release) over all placements.
    #[must_use]
    pub fn mean_flow(&self) -> f64 {
        if self.placements.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.placements.len() as f64;
        self.placements.iter().map(Placement::flow).sum::<f64>() / n
    }

    /// Average platform utilization over `[0, makespan]` — the quantity
    /// the Feldmann-style analyses keep above a threshold.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        self.total_area() / (f64::from(self.p_total) * self.makespan)
    }

    /// Assign concrete processor ids to every placement by replaying
    /// the schedule through a [`crate::ProcPool`] (lowest free ids
    /// first, ends processed before starts at equal times). Used to
    /// render hand-built proof schedules as Gantt charts.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ValidationError::CapacityExceeded`] if the
    /// schedule oversubscribes the platform.
    pub fn assign_proc_ids(&mut self) -> Result<(), crate::ValidationError> {
        let mut pool = crate::ProcPool::new(self.p_total);
        let mut proc_ranges = vec![Vec::new(); self.placements.len()];
        // (time, is_start, placement index); ends sort before starts.
        let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(self.placements.len() * 2);
        for (i, pl) in self.placements.iter().enumerate() {
            events.push((pl.start, true, i));
            events.push((pl.end, false, i));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Events within tol of each other form one batch with ends
        // processed before starts — otherwise a start that is one ulp
        // below the preceding end would double-book processors
        // (back-to-back placements computed as `i/P + 1/P` vs
        // `(i+1)/P` differ by rounding).
        let tol = 1e-9 * self.makespan.max(1.0);
        let mut i = 0;
        while i < events.len() {
            let t0 = events[i].0;
            let mut j = i;
            while j < events.len() && events[j].0 - t0 <= tol {
                j += 1;
            }
            let mut batch: Vec<(f64, bool, usize)> = events[i..j].to_vec();
            batch.sort_by_key(|a| a.1); // false (ends) first
            for (time, is_start, idx) in batch {
                if is_start {
                    let procs = self.placements[idx].procs;
                    match pool.alloc(procs) {
                        Some(ranges) => proc_ranges[idx] = ranges,
                        None => {
                            return Err(crate::ValidationError::CapacityExceeded {
                                time,
                                used: u64::from(self.p_total - pool.n_free()) + u64::from(procs),
                            })
                        }
                    }
                } else {
                    pool.release(&proc_ranges[idx]);
                }
            }
            i = j;
        }
        self.proc_ranges = proc_ranges;
        Ok(())
    }

    /// CSV export: `task,start,end,procs` (header included).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("task,start,end,procs\n");
        for p in &self.placements {
            out.push_str(&format!("{},{},{},{}\n", p.task.0, p.start, p.end, p.procs));
        }
        out
    }

    /// FNV-1a-64 ([`fnv1a`]) over each placement's task, start, end and
    /// released bits, processor count and processor ranges (none unless
    /// ids were recorded), little-endian in placement order, then the
    /// makespan bits: the value schedule pins record.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv1a_from(h, bytes);
        for (i, pl) in self.placements.iter().enumerate() {
            eat(&pl.task.0.to_le_bytes());
            eat(&pl.start.to_bits().to_le_bytes());
            eat(&pl.end.to_bits().to_le_bytes());
            eat(&pl.released.to_bits().to_le_bytes());
            eat(&pl.procs.to_le_bytes());
            for &(lo, hi) in self.proc_ranges(i) {
                eat(&lo.to_le_bytes());
                eat(&hi.to_le_bytes());
            }
        }
        eat(&self.makespan.to_bits().to_le_bytes());
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a-64 of a byte stream: the hash of [`Schedule::fingerprint`],
/// event-log fingerprints and reply pins.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Incremental construction of hand-written schedules.
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    p_total: u32,
    placements: Vec<Placement>,
}

impl ScheduleBuilder {
    /// Start building a schedule on `p_total` processors.
    #[must_use]
    pub fn new(p_total: u32) -> Self {
        assert!(p_total >= 1);
        Self {
            p_total,
            placements: Vec::new(),
        }
    }

    /// Place `task` on `procs` processors over `[start, start + duration)`.
    pub fn place(&mut self, task: TaskId, start: f64, duration: f64, procs: u32) -> &mut Self {
        assert!(
            start >= 0.0 && duration >= 0.0,
            "negative time in placement"
        );
        self.placements.push(Placement {
            task,
            start,
            end: start + duration,
            procs,
            released: start,
        });
        self
    }

    /// Finish: sorts placements by start time and computes the makespan.
    #[must_use]
    pub fn build(mut self) -> Schedule {
        self.placements
            .sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        let makespan = self.placements.iter().map(|p| p.end).fold(0.0, f64::max);
        Schedule::new(self.p_total, self.placements, makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_a_32_byte_record() {
        assert_eq!(std::mem::size_of::<Placement>(), 32);
    }

    #[test]
    fn builder_sorts_and_computes_makespan() {
        let mut b = ScheduleBuilder::new(4);
        b.place(TaskId(1), 2.0, 3.0, 2);
        b.place(TaskId(0), 0.0, 2.0, 4);
        let s = b.build();
        assert_eq!(s.makespan, 5.0);
        assert_eq!(s.placements[0].task, TaskId(0));
        assert_eq!(s.placements[1].task, TaskId(1));
        assert_eq!(s.placement(TaskId(1)).unwrap().procs, 2);
        assert!(s.placement(TaskId(9)).is_none());
    }

    #[test]
    fn area_and_utilization() {
        let mut b = ScheduleBuilder::new(4);
        b.place(TaskId(0), 0.0, 2.0, 4); // area 8
        b.place(TaskId(1), 2.0, 2.0, 2); // area 4
        let s = b.build();
        assert_eq!(s.total_area(), 12.0);
        assert!((s.utilization() - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let s = ScheduleBuilder::new(2).build();
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.to_csv(), "task,start,end,procs\n");
    }

    #[test]
    fn assign_proc_ids_replays_pool() {
        let mut b = ScheduleBuilder::new(4);
        b.place(TaskId(0), 0.0, 2.0, 2);
        b.place(TaskId(1), 0.0, 1.0, 2);
        b.place(TaskId(2), 1.0, 1.0, 2); // reuses task 1's processors
        let mut s = b.build();
        s.assign_proc_ids().unwrap();
        assert_eq!(s.proc_ranges(0), [(0, 1)]);
        assert_eq!(s.proc_ranges(1), [(2, 3)]);
        assert_eq!(s.proc_ranges(2), [(2, 3)]);
    }

    #[test]
    fn assign_proc_ids_detects_oversubscription() {
        let mut b = ScheduleBuilder::new(2);
        b.place(TaskId(0), 0.0, 1.0, 2);
        b.place(TaskId(1), 0.5, 1.0, 1);
        let mut s = b.build();
        assert!(s.assign_proc_ids().is_err());
    }

    #[test]
    fn waiting_and_flow_metrics() {
        let mut b = ScheduleBuilder::new(2);
        b.place(TaskId(0), 0.0, 2.0, 1);
        b.place(TaskId(1), 3.0, 1.0, 1);
        let mut s = b.build();
        // Pretend task 1 was released at t = 1 (waited 2).
        s.placements[1].released = 1.0;
        assert_eq!(s.placements[0].waiting(), 0.0);
        assert_eq!(s.placements[1].waiting(), 2.0);
        assert_eq!(s.placements[1].flow(), 3.0);
        assert_eq!(s.mean_waiting(), 1.0);
        assert_eq!(s.mean_flow(), (2.0 + 3.0) / 2.0);
        let empty = ScheduleBuilder::new(1).build();
        assert_eq!(empty.mean_waiting(), 0.0);
        assert_eq!(empty.mean_flow(), 0.0);
    }

    #[test]
    fn csv_roundtrip_fields() {
        let mut b = ScheduleBuilder::new(2);
        b.place(TaskId(3), 0.5, 1.0, 2);
        let csv = b.build().to_csv();
        assert!(csv.contains("3,0.5,1.5,2"));
    }
}

//! ASCII Gantt rendering — used to regenerate the schedule-shape
//! figures (the paper's Figures 2 and 4).
//!
//! Each processor is one row; time flows left to right. Tasks are drawn
//! with single-character labels supplied by the caller, so related task
//! groups (the paper's `T_A`, `T_B`, `T_C`) are visually distinct.

use crate::Schedule;

/// Render `schedule` as an ASCII Gantt chart with `width` time columns.
///
/// Requires the schedule to carry concrete processor ids (simulate with
/// [`crate::SimOptions::with_proc_ids`], or call
/// [`Schedule::assign_proc_ids`]). Placements without processor ids
/// are skipped.
///
/// `label(task_index)` returns the single character drawn in that
/// task's cells.
///
/// # Panics
///
/// Panics if `width == 0`.
#[must_use]
pub fn gantt_ascii(
    schedule: &Schedule,
    width: usize,
    mut label: impl FnMut(usize) -> char,
) -> String {
    assert!(width > 0);
    let p = schedule.p_total as usize;
    if schedule.makespan <= 0.0 {
        return String::from("(empty schedule)\n");
    }
    let scale = width as f64 / schedule.makespan;
    let mut grid = vec![vec!['.'; width]; p];
    for (i, pl) in schedule.placements.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c0 = ((pl.start * scale).floor() as usize).min(width - 1);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mut c1 = ((pl.end * scale).ceil() as usize).min(width);
        if c1 <= c0 {
            c1 = c0 + 1;
        }
        let ch = label(pl.task.index());
        for &(lo, hi) in schedule.proc_ranges(i) {
            for row in lo..=hi {
                for cell in &mut grid[row as usize][c0..c1] {
                    // First writer wins: keeps sub-pixel tasks visible
                    // instead of being painted over by a later neighbour.
                    if *cell == '.' {
                        *cell = ch;
                    }
                }
            }
        }
    }
    let mut out = String::with_capacity(p * (width + 8));
    // Top row = highest processor id, like the paper's figures.
    for (row, cells) in grid.iter().enumerate().rev() {
        out.push_str(&format!("p{row:<4} |"));
        out.extend(cells.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "      +{} t=0 .. t={:.4}\n",
        "-".repeat(width),
        schedule.makespan
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleBuilder;
    use moldable_graph::TaskId;

    fn schedule_with_ids() -> Schedule {
        let mut sb = ScheduleBuilder::new(4);
        sb.place(TaskId(0), 0.0, 1.0, 2);
        sb.place(TaskId(1), 1.0, 1.0, 4);
        let mut s = sb.build();
        s.assign_proc_ids().unwrap();
        assert_eq!(s.proc_ranges(0), [(0, 1)]);
        assert_eq!(s.proc_ranges(1), [(0, 3)]);
        s
    }

    #[test]
    fn gantt_draws_rows_and_labels() {
        let s = schedule_with_ids();
        let out = gantt_ascii(&s, 20, |i| if i == 0 { 'A' } else { 'B' });
        assert_eq!(out.lines().count(), 5); // 4 proc rows + axis
        assert!(out.contains('A'));
        assert!(out.contains('B'));
        // processor 3 idle during first half: contains dots then B
        let p3 = out.lines().next().unwrap();
        assert!(p3.starts_with("p3"));
        assert!(p3.contains('.'));
        assert!(p3.contains('B'));
        assert!(!p3.contains('A'));
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let s = ScheduleBuilder::new(2).build();
        assert_eq!(gantt_ascii(&s, 10, |_| 'x'), "(empty schedule)\n");
    }

    #[test]
    fn tiny_tasks_still_visible() {
        let mut sb = ScheduleBuilder::new(1);
        sb.place(TaskId(0), 0.0, 0.001, 1);
        sb.place(TaskId(1), 0.001, 10.0, 1);
        let mut s = sb.build();
        s.assign_proc_ids().unwrap();
        let out = gantt_ascii(&s, 40, |i| if i == 0 { 'a' } else { 'b' });
        assert!(out.contains('a'), "sub-pixel task must still get one cell");
    }
}

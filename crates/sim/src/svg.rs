//! SVG Gantt-chart export — publication-quality rendering of a
//! schedule (the vector sibling of [`crate::gantt_ascii`]).
//!
//! Hand-written SVG: one `<rect>` per contiguous processor range of
//! each placement, colored by a task-index hash, with a `<title>`
//! tooltip carrying the exact numbers. No dependencies; the output
//! opens in any browser.

use std::fmt::Write as _;

use crate::Schedule;

/// Layout constants (pixels).
const ROW_H: f64 = 14.0;
const LEFT: f64 = 46.0;
const TOP: f64 = 8.0;
const BOTTOM: f64 = 26.0;

/// Minimal XML text escaping for labels embedded in `<title>`.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Golden-angle hue rotation: adjacent task indices get well-separated
/// hues.
fn hue(task_index: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let i = task_index as f64;
    (i * 137.507_764).rem_euclid(360.0)
}

impl Schedule {
    /// Render the schedule as an SVG document of the given pixel
    /// `width` (height follows from `P`). Requires concrete processor
    /// ids (simulate with [`crate::SimOptions::with_proc_ids`] or call
    /// [`Schedule::assign_proc_ids`]); placements without ids are
    /// skipped.
    ///
    /// `label(task_index)` provides the tooltip name.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    #[must_use]
    pub fn to_svg(&self, width: f64, mut label: impl FnMut(usize) -> String) -> String {
        assert!(width.is_finite() && width > 0.0);
        let p = f64::from(self.p_total);
        let h = TOP + p * ROW_H + BOTTOM;
        let span = self.makespan.max(1e-300);
        let scale = (width - LEFT - 8.0) / span;
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{h:.0}" font-family="sans-serif" font-size="9">"#
        );
        let _ = writeln!(
            out,
            r##"<rect x="0" y="0" width="{width:.0}" height="{h:.0}" fill="#ffffff"/>"##
        );
        // processor lane separators + labels
        for row in 0..self.p_total {
            let y = TOP + f64::from(self.p_total - 1 - row) * ROW_H;
            let _ = writeln!(
                out,
                r##"<text x="2" y="{:.1}" fill="#555">p{row}</text>"##,
                y + ROW_H - 4.0
            );
            let _ = writeln!(
                out,
                r##"<line x1="{LEFT}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eee"/>"##,
                width - 8.0
            );
        }
        // placements
        for (i, pl) in self.placements.iter().enumerate() {
            let ranges = self.proc_ranges(i);
            if ranges.is_empty() {
                continue;
            }
            let x = LEFT + pl.start * scale;
            let w = (pl.duration() * scale).max(0.75);
            let fill = format!("hsl({:.1}, 65%, 62%)", hue(pl.task.index()));
            let name = xml_escape(&label(pl.task.index()));
            for &(lo, hi) in ranges {
                // row `lo` draws at the bottom, like the paper's figures
                let y_top = TOP + f64::from(self.p_total - 1 - hi) * ROW_H;
                let rect_h = f64::from(hi - lo + 1) * ROW_H;
                let _ = writeln!(
                    out,
                    r##"<rect x="{x:.2}" y="{y_top:.2}" width="{w:.2}" height="{rect_h:.2}" fill="{fill}" stroke="#333" stroke-width="0.4"><title>{name}: [{:.4}, {:.4}) on {} procs</title></rect>"##,
                    pl.start, pl.end, pl.procs
                );
            }
        }
        // time axis
        let y_axis = TOP + p * ROW_H + 4.0;
        let _ = writeln!(
            out,
            r##"<line x1="{LEFT}" y1="{y_axis:.1}" x2="{:.1}" y2="{y_axis:.1}" stroke="#333"/>"##,
            width - 8.0
        );
        for k in 0..=4 {
            let t = span * f64::from(k) / 4.0;
            let x = LEFT + t * scale;
            let _ = writeln!(
                out,
                r##"<text x="{x:.1}" y="{:.1}" fill="#333">{t:.2}</text>"##,
                y_axis + 12.0
            );
        }
        out.push_str("</svg>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::ScheduleBuilder;
    use moldable_graph::TaskId;

    fn schedule() -> crate::Schedule {
        let mut sb = ScheduleBuilder::new(4);
        sb.place(TaskId(0), 0.0, 2.0, 2);
        sb.place(TaskId(1), 2.0, 1.0, 4);
        let mut s = sb.build();
        s.assign_proc_ids().unwrap();
        s
    }

    #[test]
    fn svg_contains_rects_per_range_and_tooltips() {
        let s = schedule();
        let svg = s.to_svg(400.0, |i| format!("task-{i}"));
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // 2 placements, each contiguous: 2 rects + background
        assert_eq!(svg.matches("<rect").count(), 3);
        assert!(svg.contains("<title>task-0: [0.0000, 2.0000) on 2 procs</title>"));
        assert!(svg.contains("<title>task-1"));
        // 4 processor lane labels
        for row in 0..4 {
            assert!(svg.contains(&format!(">p{row}<")));
        }
    }

    #[test]
    fn placements_without_proc_ids_are_skipped() {
        let mut sb = ScheduleBuilder::new(2);
        sb.place(TaskId(0), 0.0, 1.0, 1);
        let svg = sb.build().to_svg(300.0, |_| String::from("x"));
        assert_eq!(svg.matches("<rect").count(), 1); // background only
    }

    #[test]
    fn labels_are_xml_escaped() {
        let s = schedule();
        let svg = s.to_svg(300.0, |_| String::from("a<b&c"));
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("<b&c"));
    }

    #[test]
    fn distinct_tasks_get_distinct_hues() {
        let a = super::hue(0);
        let b = super::hue(1);
        let c = super::hue(2);
        assert!((a - b).abs() > 30.0 && (b - c).abs() > 30.0);
        assert!((0.0..360.0).contains(&a));
    }
}

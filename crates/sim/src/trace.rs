//! Chrome trace-event export.
//!
//! Renders a [`Schedule`] as the Trace Event Format consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: one complete
//! (`"ph": "X"`) event per placement, with the processor id as the
//! thread lane when concrete processor ids were recorded. The format
//! is a flat array of small objects, written directly; labels are
//! quoted with [`moldable_graph::json::write_str`].

use std::fmt::Write as _;

use moldable_graph::json;

use crate::Schedule;

impl Schedule {
    /// Render as Chrome Trace Event JSON. `label` maps a task index to
    /// the event name. Times are interpreted as seconds and exported in
    /// microseconds, as the format expects.
    ///
    /// Each placement becomes one event per contiguous processor range
    /// (so wide tasks show as stacked lanes); without recorded
    /// processor ids, each placement gets its own lane.
    #[must_use]
    pub fn to_chrome_trace(&self, mut label: impl FnMut(usize) -> String) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (i, pl) in self.placements.iter().enumerate() {
            let mut name = String::new();
            json::write_str(&label(pl.task.index()), &mut name);
            let ts = pl.start * 1e6;
            let dur = pl.duration() * 1e6;
            let mut lanes: Vec<u32> = Vec::new();
            let ranges = self.proc_ranges(i);
            if ranges.is_empty() {
                lanes.push(u32::try_from(i % 1_000_000).expect("bounded"));
            } else {
                for &(lo, hi) in ranges {
                    lanes.extend(lo..=hi);
                }
            }
            for lane in lanes {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "  {{\"name\": {name}, \"ph\": \"X\", \"pid\": 0, \"tid\": {lane}, \
                     \"ts\": {ts:.3}, \"dur\": {dur:.3}, \
                     \"args\": {{\"task\": {}, \"procs\": {}}}}}",
                    pl.task.0, pl.procs
                );
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::ScheduleBuilder;
    use moldable_graph::TaskId;

    #[test]
    fn trace_has_one_event_per_processor_lane() {
        let mut sb = ScheduleBuilder::new(4);
        sb.place(TaskId(0), 0.0, 1.0, 2);
        let mut s = sb.build();
        s.assign_proc_ids().unwrap();
        let json = s.to_chrome_trace(|i| format!("task{i}"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2); // 2 lanes
        assert!(json.contains("\"tid\": 0"));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"dur\": 1000000.000"));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn trace_without_proc_ids_uses_index_lanes() {
        let mut sb = ScheduleBuilder::new(4);
        sb.place(TaskId(0), 0.0, 1.0, 2);
        sb.place(TaskId(1), 0.0, 2.0, 2);
        let json = sb.build().to_chrome_trace(|i| i.to_string());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    }

    #[test]
    fn labels_are_escaped() {
        let mut sb = ScheduleBuilder::new(1);
        sb.place(TaskId(0), 0.0, 1.0, 1);
        let json = sb.build().to_chrome_trace(|_| "a\"b\\c\n".to_string());
        assert!(json.contains(r#""name": "a\"b\\c\n""#));
    }

    #[test]
    fn empty_schedule_is_empty_array() {
        let json = ScheduleBuilder::new(1)
            .build()
            .to_chrome_trace(|_| String::new());
        assert_eq!(json.trim(), "[\n\n]".trim());
    }
}

//! What every workload shares: the run context and the end-to-end
//! measurements it turns into the declared metrics.

use std::path::PathBuf;

use crate::cpu;
use crate::metrics::{median, quartiles, rank_quantile, Metric, WorkloadResult};

/// Inputs of one workload run. The program under test only ever sees
/// what the workload generates from `seed`.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Measured time budget; setup is not counted against it.
    pub seconds: f64,
    /// Tiny sizes for the smoke test.
    pub smoke: bool,
    /// Where port files and artifacts go.
    pub out_dir: PathBuf,
}

/// One rep of a workload, or one fixed time window of a continuous
/// phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Tasks scheduled in the window.
    pub tasks: u64,
    pub secs: f64,
    /// Latency samples of the workload's unit operation.
    pub latencies_ms: Vec<f64>,
}

/// End-to-end measurements of one run.
///
/// Throughput and latency percentiles are computed per window and
/// reported as the better quartile over windows: the third quartile of
/// the throughputs, the first quartile of each latency percentile. On a
/// shared machine contention from the host only ever slows a window, so
/// it can slow up to three windows in four without moving the numbers.
///
/// Every timing is then scaled to the machine's nominal pace: multiplied
/// by [`cpu::NOMINAL_S`] over the median pace taken during the run (rates
/// divided by it), so a host that slows every CPU for the whole run slows
/// the pace loops as well and cancels out. The unscaled values go to the
/// record's extra values as `raw.*`.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    /// Paces taken during the run (`cpu`), in seconds.
    pub pace_s: Vec<f64>,
    /// Peak RSS of the process doing the work.
    pub peak_rss_mb: f64,
    pub result: WorkloadResult,
}

impl E2e {
    pub fn new(workload: &str) -> Self {
        Self {
            result: WorkloadResult {
                workload: workload.to_string(),
                ..WorkloadResult::default()
            },
            ..Self::default()
        }
    }

    /// What a wall-clock time of this run is multiplied by (1 when no
    /// pace was taken).
    fn time_scale(&self) -> f64 {
        if self.pace_s.is_empty() {
            1.0
        } else {
            cpu::NOMINAL_S / median(&self.pace_s)
        }
    }

    /// First and third quartiles over windows of `f`.
    fn per_window(&self, f: impl Fn(&Window) -> f64) -> (f64, f64) {
        quartiles(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    fn raw_tasks_per_s(&self) -> f64 {
        self.per_window(|w| w.tasks as f64 / w.secs).1
    }

    /// Tasks per second at the nominal pace.
    pub fn tasks_per_s(&self) -> f64 {
        self.raw_tasks_per_s() / self.time_scale()
    }

    /// The latency percentile `q` within each window, first quartile
    /// over windows.
    fn raw_latency_ms(&self, q: f64) -> f64 {
        self.per_window(|w| {
            let mut lat = w.latencies_ms.clone();
            lat.sort_by(f64::total_cmp);
            rank_quantile(&lat, q)
        })
        .0
    }

    /// The record of a plain run: the declared end-to-end metrics, in
    /// declaration order, and their unscaled values among the extras.
    pub fn into_result(self) -> WorkloadResult {
        let windows = self.windows.len();
        let samples = self.windows.iter().map(|w| w.latencies_ms.len()).sum();
        let scale = self.time_scale();
        let setup_s = median(&self.setup_s);
        let tasks_per_s = self.raw_tasks_per_s();
        let (p50, p99) = (self.raw_latency_ms(0.50), self.raw_latency_ms(0.99));
        let pace_ms = median(&self.pace_s) * 1e3;
        let mut result = self.result;
        result.metrics = vec![
            Metric::new("setup_s", setup_s * scale, "s").with_n(self.setup_s.len()),
            Metric::new("tasks_per_s", tasks_per_s / scale, "tasks/s").with_n(windows),
            Metric::new("p50_ms", p50 * scale, "ms").with_n(samples),
            Metric::new("p99_ms", p99 * scale, "ms").with_n(samples),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ];
        result.extra.extend([
            Metric::new("raw.setup_s", setup_s, "s"),
            Metric::new("raw.tasks_per_s", tasks_per_s, "tasks/s"),
            Metric::new("raw.p50_ms", p50, "ms"),
            Metric::new("raw.p99_ms", p99, "ms"),
            Metric::new("pace_ms", pace_ms, "ms").with_n(self.pace_s.len()),
        ]);
        result
    }
}

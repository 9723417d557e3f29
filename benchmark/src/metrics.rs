//! Result records: metrics with units, correctness checks, summary
//! statistics, the JSON result line, and the records `compare` reads.

use moldable_serve::json::{obj, Json};

/// The benchmark's declaration file, compiled in so every run can check
/// that it emits exactly the metrics it declares.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, when there is one.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            n: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub workload: String,
    /// The declared metrics: end-to-end in a plain run, per-layer in a
    /// traced run.
    pub metrics: Vec<Metric>,
    /// Informational values that are not declared metrics (request and
    /// DAG rates, load-generator lateness, daemon-side layers).
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (simulations, requests, DAG submissions).
    pub attempted: u64,
    /// Operations that failed: error, overloaded or quota replies and
    /// transport failures. Failed checks are added on top.
    pub failed_ops: u64,
    /// Why the run did not offer the load it describes, if it did not
    /// (its numbers are recorded but should not be compared).
    pub invalid: Option<String>,
}

impl WorkloadResult {
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// The record written to `<workload>.results.json`.
    pub fn to_json(&self, mode: &str, seed: u64, seconds: f64, smoke: bool) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", Json::Str(c.name.clone())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("mode", Json::Str(mode.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(smoke)),
            ("nproc", Json::Num(nproc() as f64)),
            ("correct", Json::Bool(self.correct())),
            ("valid", Json::Bool(self.invalid.is_none())),
            (
                "invalid_reason",
                self.invalid.clone().map_or(Json::Null, Json::Str),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", metrics_json(&self.metrics, true)),
            ("extra", metrics_json(&self.extra, true)),
            ("checks", Json::Arr(checks)),
        ])
    }

    /// The JSON summary printed as the last line of standard output.
    pub fn summary_line(&self) -> String {
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
        .encode()
    }

    /// Human-readable report.
    pub fn print(&self) {
        println!("== {}", self.workload);
        for m in self.metrics.iter().chain(&self.extra) {
            let n = m.n.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("  {:<32} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            println!("  check {mark} {}: {}", c.name, c.detail);
        }
        if let Some(why) = &self.invalid {
            println!("  INVALID RUN: {why}");
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed(),
            self.correct()
        );
    }
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut members = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if let (true, Some(n)) = (with_n, m.n) {
                    members.push(("n", Json::Num(n as f64)));
                }
                (m.name.clone(), obj(members))
            })
            .collect(),
    )
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Median (mean of the two middle values for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn rank_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so spreads here match those computed with Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a, the fingerprint the session tooling uses for event logs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The declared end-to-end and per-layer metrics.
pub fn declared() -> (Vec<Declared>, Vec<Declared>) {
    let doc = moldable_serve::json::parse(DECLARATION).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<Declared> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

/// Workload names in declaration order.
pub fn declared_workloads() -> Vec<String> {
    let doc = moldable_serve::json::parse(DECLARATION).expect("BENCHMARK.json parses");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_rank_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank_quantile(&v, 0.5), 50.0);
        assert_eq!(rank_quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn declaration_parses_with_bounds() {
        let (e2e, layers) = declared();
        assert!(e2e.iter().any(|m| m.name == "setup_s"));
        assert!(e2e.iter().all(|m| m.bound.is_some()));
        assert!(!layers.is_empty());
        assert_eq!(declared_workloads().len(), 4);
    }
}

//! `compare`: judge two sets of plain-run results, metric by metric.
//!
//! `compare A B` treats A as the parent and B as the change, pairing the
//! i-th run of each side (runs should alternate sides). A metric is
//! `improved` only when the change wins at least nine in ten pairs (with
//! at least ten pairs) and the medians differ by more than the parent's
//! interquartile range. Otherwise, against the metric's bound from
//! `BENCHMARK.json`, it is `regressed` (median worse by more than the
//! bound), `unchanged`, or `unresolved` (a side's spread is wider than
//! the bound, unless every change run beats every parent run). A higher
//! failed share on the change side is always a rejection.
//!
//! `compare --repeat A B` checks two sets of the same code: every metric
//! must come out `unchanged` against its bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use moldable_serve::json::{self, Json};

use crate::metrics::{declared, declared_workloads, median, quartiles, Declared};

/// One plain run of one workload.
struct Run {
    values: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    valid: bool,
}

fn result_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            result_files(&p, out);
        } else if p.to_string_lossy().ends_with(".results.json") {
            out.push(p);
        }
    }
}

/// Every plain-run record under `dir`, by workload, in path order.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut files = Vec::new();
    result_files(dir, &mut files);
    files.sort();
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        if doc.get("mode").and_then(Json::as_str) != Some("run") {
            continue;
        }
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let mut values = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("metrics") {
            for (name, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.insert(name.clone(), v);
                }
            }
        }
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        by_workload
            .entry(workload.to_string())
            .or_default()
            .push(Run {
                values,
                attempted: num("attempted"),
                failed: num("failed"),
                valid: doc.get("valid") != Some(&Json::Bool(false)),
            });
    }
    if by_workload.is_empty() {
        return Err(format!(
            "no plain-run *.results.json under {}",
            dir.display()
        ));
    }
    Ok(by_workload)
}

/// The verdict on one (workload, metric) and the numbers behind it.
struct Judgement {
    verdict: &'static str,
    /// Change of the B median relative to the A median; positive is
    /// worse.
    worse: f64,
    spread: f64,
    wins: usize,
    pairs: usize,
}

fn judge(a: &[f64], b: &[f64], metric: &Declared, repeat: bool) -> Judgement {
    let bound = metric.bound.unwrap_or(0.0);
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let (ma, mb) = (median(a), median(b));
    let ((q1a, q3a), (q1b, q3b)) = (quartiles(a), quartiles(b));
    let rel = |iqr: f64, m: f64| if m == 0.0 { 0.0 } else { iqr / m.abs() };
    let spread = rel(q3a - q1a, ma).max(rel(q3b - q1b, mb));
    let worse = if ma == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let verdict = if !repeat && pairs >= 10 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3a - q1a
    {
        "improved"
    } else if spread > bound {
        let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        if !repeat && b_beats_all {
            "unchanged"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "regressed"
    } else if repeat && -worse > bound {
        "differs"
    } else {
        "unchanged"
    };
    Judgement {
        verdict,
        worse,
        spread,
        wins,
        pairs,
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let repeat = args.iter().any(|a| a == "--repeat");
    let dirs: Vec<&String> = args.iter().filter(|a| *a != "--repeat").collect();
    let [a_dir, b_dir] = dirs.as_slice() else {
        eprintln!("usage: moldable-benchmark compare [--repeat] DIR_A DIR_B");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(Path::new(a_dir)), load(Path::new(b_dir))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (e2e, _) = declared();
    let mut ok = true;
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>8} {:>7} {:>6} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound", "wins"
    );
    for workload in declared_workloads() {
        let (ra, rb) = match (a.get(&workload), b.get(&workload)) {
            (Some(ra), Some(rb)) => (ra, rb),
            (None, None) => continue,
            _ => {
                println!("{workload:<15} missing on one side");
                ok = false;
                continue;
            }
        };
        for metric in &e2e {
            let pick = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(&metric.name).copied())
                    .collect()
            };
            let (va, vb) = (pick(ra), pick(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let j = judge(&va, &vb, metric, repeat);
            ok &= if repeat {
                j.verdict == "unchanged"
            } else {
                j.verdict != "regressed"
            };
            let (q1a, q3a) = quartiles(&va);
            let (q1b, q3b) = quartiles(&vb);
            println!(
                "{workload:<15} {:<12} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>5.1}% {:>3}/{:<2}  {}   A [{q1a:.6}, {q3a:.6}] n={} B [{q1b:.6}, {q3b:.6}] n={}",
                metric.name,
                median(&va),
                median(&vb),
                j.worse * 100.0,
                j.spread * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                j.wins,
                j.pairs,
                j.verdict,
                va.len(),
                vb.len(),
            );
        }
        let share = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (fa, fb) = (share(ra), share(rb));
        if fb > fa {
            println!("{workload:<15} failed share rose from {fa} to {fb}: rejected");
            ok = false;
        }
        let invalid = ra.iter().chain(rb).filter(|r| !r.valid).count();
        if invalid > 0 {
            println!(
                "{workload:<15} {invalid} run(s) marked invalid (open-loop sender fell behind)"
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn pair_rule_verdicts() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let m = metric(true, 0.1);
        assert_eq!(judge(&parent, &faster, &m, false).verdict, "improved");
        assert_eq!(judge(&parent, &slower, &m, false).verdict, "regressed");
        assert_eq!(judge(&parent, &parent, &m, false).verdict, "unchanged");
        assert_eq!(judge(&parent, &parent, &m, true).verdict, "unchanged");
        assert_eq!(judge(&parent, &faster, &m, true).verdict, "differs");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(judge(&parent, &noisy, &m, false).verdict, "unresolved");
        // Lower is better: a 20% drop in latency wins.
        let lower = metric(false, 0.1);
        assert_eq!(judge(&parent, &slower, &lower, false).verdict, "improved");
    }
}

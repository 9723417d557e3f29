//! Every workload at `--smoke` size, plain and traced: the command
//! succeeds, emits exactly the metrics `BENCHMARK.json` declares under
//! well-formed names, reconciles the serve stages, and exits non-zero
//! when a check fails.

use std::path::PathBuf;
use std::process::{Command, Output};

use moldable_serve::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_moldable-benchmark");

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    let mut v: Vec<String> = doc
        .get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    v.sort();
    v
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"))
}

fn bench(extra: &[&str], tag: &str) -> (Output, Json) {
    let out = Command::new(EXE)
        .args(["--seed", "3", "--smoke", "--seconds", "0.2", "--out"])
        .arg(out_dir(tag))
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let summary =
        json::parse(&last).unwrap_or_else(|e| panic!("last line is JSON ({e}): {stdout}"));
    (out, summary)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn check_run(workload: &str, traced: bool) -> String {
    let doc = declaration();
    let flag = if traced { "1" } else { "0" };
    let tag = format!("{workload}-{flag}");
    let (out, summary) = bench(&["--workload", workload, "--trace", flag], &tag);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={flag} failed:\n{stdout}"
    );
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(summary.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = summary.get("metrics") else {
        panic!("metrics object missing: {stdout}");
    };
    let mut emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    emitted.sort();
    let key = if traced { "per_layer" } else { "end_to_end" };
    assert_eq!(
        emitted,
        names(&doc, key),
        "{workload}: emitted vs declared {key}"
    );
    for (name, m) in metrics {
        assert!(well_formed(name), "metric name {name}");
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    stdout
}

#[test]
fn plain_runs_emit_the_declared_end_to_end_metrics() {
    for w in [
        "sim_layered",
        "sim_adversary",
        "serve_oneshot",
        "serve_sessions",
    ] {
        check_run(w, false);
    }
}

#[test]
fn traced_runs_emit_the_declared_layer_metrics() {
    for w in ["sim_layered", "sim_adversary", "serve_sessions"] {
        check_run(w, true);
        let trace = out_dir(&format!("{w}-1")).join(format!("{w}.trace.json"));
        let text = std::fs::read_to_string(trace).expect("trace written");
        let doc = json::parse(&text).expect("Chrome trace is valid JSON");
        assert!(!doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events")
            .is_empty());
    }
}

#[test]
fn serve_stages_reconcile_with_a_nonnegative_wire_share() {
    let stdout = check_run("serve_oneshot", true);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("reconciliation:"))
        .expect("reconciliation line");
    let wire: f64 = line
        .rsplit("wire ")
        .next()
        .and_then(|s| s.trim_end_matches(" us").parse().ok())
        .expect("wire share");
    assert!(wire >= 0.0, "{line}");
}

#[test]
fn a_failing_check_makes_the_command_fail() {
    let (out, summary) = bench(&["--workload", "sim_layered", "--inject-failure"], "fail");
    assert!(!out.status.success());
    assert_eq!(summary.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(1));
}

#[test]
fn compare_repeat_accepts_identical_sets() {
    let (out, _) = bench(&["--workload", "sim_adversary"], "compare");
    assert!(out.status.success());
    let dir = out_dir("compare");
    let cmp = Command::new(EXE)
        .args(["compare", "--repeat"])
        .args([&dir, &dir])
        .output()
        .expect("compare runs");
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{text}");
    assert_eq!(
        text.matches("unchanged").count(),
        names(&declaration(), "end_to_end").len(),
        "{text}"
    );
}

//! Self-check and fixture-corpus tests for `moldable-lint`.
//!
//! Three layers:
//! 1. the workspace itself must lint clean (the pass is a CI gate, so
//!    this test is the local mirror of that gate), and the report must
//!    be byte-identical across runs;
//! 2. every rule has a `bad.rs` / `clean.rs` / `waived.rs` fixture
//!    triple that must trip / pass / be waived respectively;
//! 3. the binary's exit codes and `--json` output behave as CI relies
//!    on them to.

use std::path::{Path, PathBuf};
use std::process::Command;

use moldable_lint::{run_files, run_workspace};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    manifest_dir().join("../..").canonicalize().unwrap()
}

fn fixture(rule_dir: &str, name: &str) -> PathBuf {
    manifest_dir()
        .join("tests/fixtures")
        .join(rule_dir)
        .join(name)
}

/// Run a single fixture file attributed to `as_crate`.
fn lint_one(rule_dir: &str, name: &str, as_crate: &str) -> moldable_lint::report::Report {
    run_files(&[fixture(rule_dir, name)], as_crate).unwrap()
}

fn rules_hit(report: &moldable_lint::report::Report) -> Vec<String> {
    let mut v: Vec<String> = report.diagnostics.iter().map(|d| d.rule.clone()).collect();
    v.sort();
    v.dedup();
    v
}

// ---------------------------------------------------------------------------
// Layer 1: the workspace itself.
// ---------------------------------------------------------------------------

#[test]
fn workspace_lints_clean() {
    let rep = run_workspace(&workspace_root()).unwrap();
    assert!(
        rep.diagnostics.is_empty(),
        "workspace must lint clean, got:\n{}",
        rep.to_text()
    );
    assert!(rep.files_scanned > 50, "expected a full workspace walk");
    // The serve/tenant lock graph is part of the report contract: the
    // service mutexes — including the per-worker request shards and
    // the epoll event-loop state (completion queue, wake pipe) — must
    // be visible as nodes and the graph acyclic.
    for node in ["svc", "queue", "completions", "wake"] {
        assert!(
            rep.lock_graph.nodes.iter().any(|n| n == node),
            "lock graph missing node `{node}`:\n{}",
            rep.to_text()
        );
    }
    assert!(
        rep.lock_graph.cycles.is_empty(),
        "lock graph must be acyclic:\n{}",
        rep.to_text()
    );
}

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    let a = run_workspace(&workspace_root()).unwrap();
    let b = run_workspace(&workspace_root()).unwrap();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "JSON report must be deterministic"
    );
    assert_eq!(
        a.to_text(),
        b.to_text(),
        "text report must be deterministic"
    );
}

// ---------------------------------------------------------------------------
// Layer 2: the fixture corpus, one triple per rule.
// ---------------------------------------------------------------------------

#[test]
fn no_wall_clock_fixtures() {
    let bad = lint_one("no_wall_clock", "bad.rs", "core");
    assert!(
        rules_hit(&bad).contains(&"no-wall-clock".to_string()),
        "{}",
        bad.to_text()
    );
    let clean = lint_one("no_wall_clock", "clean.rs", "core");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    let waived = lint_one("no_wall_clock", "waived.rs", "core");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
}

#[test]
fn no_hash_iter_fixtures() {
    let bad = lint_one("no_hash_iter", "bad.rs", "core");
    assert!(
        rules_hit(&bad).contains(&"no-hash-iter".to_string()),
        "{}",
        bad.to_text()
    );
    assert!(
        bad.diagnostics.len() >= 2,
        "both the method-call and for-loop forms should trip:\n{}",
        bad.to_text()
    );
    let clean = lint_one("no_hash_iter", "clean.rs", "core");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    let waived = lint_one("no_hash_iter", "waived.rs", "core");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
    // The same file attributed to a non-deterministic crate is fine:
    // hash iteration is only a violation where replay depends on it.
    let elsewhere = lint_one("no_hash_iter", "bad.rs", "cli");
    assert!(
        !rules_hit(&elsewhere).contains(&"no-hash-iter".to_string()),
        "{}",
        elsewhere.to_text()
    );
}

#[test]
fn float_total_order_fixtures() {
    let bad = lint_one("float_total_order", "bad.rs", "core");
    assert!(
        rules_hit(&bad).contains(&"float-total-order".to_string()),
        "{}",
        bad.to_text()
    );
    let clean = lint_one("float_total_order", "clean.rs", "core");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    let waived = lint_one("float_total_order", "waived.rs", "core");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
}

#[test]
fn no_ambient_entropy_fixtures() {
    let bad = lint_one("no_ambient_entropy", "bad.rs", "core");
    assert!(
        rules_hit(&bad).contains(&"no-ambient-entropy".to_string()),
        "{}",
        bad.to_text()
    );
    let clean = lint_one("no_ambient_entropy", "clean.rs", "core");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    let waived = lint_one("no_ambient_entropy", "waived.rs", "core");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
    // cli/serve may read the environment.
    let elsewhere = lint_one("no_ambient_entropy", "bad.rs", "cli");
    assert!(
        !rules_hit(&elsewhere).contains(&"no-ambient-entropy".to_string()),
        "{}",
        elsewhere.to_text()
    );
}

#[test]
fn lock_order_fixtures() {
    // Lock analysis only runs over the concurrent crates, so the
    // fixtures are attributed to `serve`.
    let bad = lint_one("lock_order", "bad.rs", "serve");
    assert!(
        rules_hit(&bad).contains(&"lock-order".to_string()),
        "{}",
        bad.to_text()
    );
    assert!(
        bad.lock_graph.cycles.iter().any(|c| c == "a -> b -> a"),
        "expected the canonical a -> b -> a cycle:\n{}",
        bad.to_text()
    );
    // The sharded variant: two instances of one named lock held at
    // once collapse to a self cycle with a dedicated message.
    assert!(
        bad.lock_graph.cycles.iter().any(|c| c == "queue -> queue"),
        "expected the sharded queue -> queue self cycle:\n{}",
        bad.to_text()
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.message.contains("self cycle")),
        "{}",
        bad.to_text()
    );
    let clean = lint_one("lock_order", "clean.rs", "serve");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    assert!(clean.lock_graph.cycles.is_empty());
    assert!(
        clean
            .lock_graph
            .edges
            .iter()
            .any(|e| e.from == "a" && e.to == "b"),
        "consistent a -> b ordering should still appear as an edge:\n{}",
        clean.to_text()
    );
    let waived = lint_one("lock_order", "waived.rs", "serve");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
    // Outside the lock crates the analysis does not run at all.
    let elsewhere = lint_one("lock_order", "bad.rs", "core");
    assert!(
        elsewhere.lock_graph.nodes.is_empty(),
        "{}",
        elsewhere.to_text()
    );
}

#[test]
fn unsafe_safety_fixtures() {
    let bad = lint_one("unsafe_safety", "bad.rs", "serve");
    assert!(
        rules_hit(&bad).contains(&"unsafe-safety".to_string()),
        "{}",
        bad.to_text()
    );
    let clean = lint_one("unsafe_safety", "clean.rs", "serve");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    let waived = lint_one("unsafe_safety", "waived.rs", "serve");
    assert!(waived.diagnostics.is_empty(), "{}", waived.to_text());
    assert!(!waived.waived.is_empty(), "waiver should have fired");
}

#[test]
fn bad_waiver_fixtures() {
    let bad = lint_one("bad_waiver", "bad.rs", "core");
    let hits = rules_hit(&bad);
    assert!(
        hits.contains(&"bad-waiver".to_string()),
        "{}",
        bad.to_text()
    );
    // A reason-less waiver does not suppress: the underlying
    // float-total-order violation must surface too.
    assert!(
        hits.contains(&"float-total-order".to_string()),
        "{}",
        bad.to_text()
    );
    let no_reason = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "bad-waiver")
        .count();
    assert_eq!(
        no_reason,
        2,
        "one reason-less + one unknown-rule waiver:\n{}",
        bad.to_text()
    );
    let clean = lint_one("bad_waiver", "clean.rs", "core");
    assert!(clean.diagnostics.is_empty(), "{}", clean.to_text());
    assert!(!clean.waived.is_empty());
}

#[test]
fn unsafe_attr_checked_on_crate_roots() {
    // A miniature workspace whose pure crate lacks
    // `#![forbid(unsafe_code)]` and whose FFI crate lacks
    // `#![deny(unsafe_op_in_unsafe_fn)]`.
    let root = manifest_dir().join("tests/fixtures/unsafe_attr_ws");
    let rep = run_workspace(&root).unwrap();
    let attr: Vec<_> = rep
        .diagnostics
        .iter()
        .filter(|d| d.rule == "unsafe-attr")
        .collect();
    assert_eq!(attr.len(), 2, "{}", rep.to_text());
    assert!(attr
        .iter()
        .any(|d| d.file.contains("core") && d.message.contains("forbid")));
    assert!(attr
        .iter()
        .any(|d| d.file.contains("serve") && d.message.contains("unsafe_op_in_unsafe_fn")));
}

// ---------------------------------------------------------------------------
// Layer 3: the binary.
// ---------------------------------------------------------------------------

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moldable-lint"))
}

#[test]
fn binary_denies_fixture_violations() {
    for (dir, as_crate) in [
        ("no_wall_clock", "core"),
        ("no_hash_iter", "core"),
        ("float_total_order", "core"),
        ("no_ambient_entropy", "core"),
        ("lock_order", "serve"),
        ("unsafe_safety", "serve"),
        ("bad_waiver", "core"),
    ] {
        let out = lint_bin()
            .arg("--file")
            .arg(fixture(dir, "bad.rs"))
            .args(["--as-crate", as_crate, "--deny-all", "--quiet"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{dir}/bad.rs should fail --deny-all: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let out = lint_bin()
            .arg("--file")
            .arg(fixture(dir, "clean.rs"))
            .args(["--as-crate", as_crate, "--deny-all", "--quiet"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{dir}/clean.rs should pass --deny-all: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_workspace_gate_passes_and_json_is_stable() {
    let root = workspace_root();
    let tmp = std::env::temp_dir().join(format!("moldable-lint-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let j1 = tmp.join("r1.json");
    let j2 = tmp.join("r2.json");
    for j in [&j1, &j2] {
        let out = lint_bin()
            .args(["--workspace", "--root"])
            .arg(&root)
            .args(["--deny-all", "--quiet", "--json"])
            .arg(j)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "workspace gate failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let b1 = std::fs::read(&j1).unwrap();
    let b2 = std::fs::read(&j2).unwrap();
    assert!(!b1.is_empty());
    assert_eq!(b1, b2, "JSON report must be byte-identical across runs");
    let txt = String::from_utf8(b1).unwrap();
    assert!(txt.contains("\"version\": 1"), "{txt}");
    assert!(txt.contains("\"lock_graph\""), "{txt}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn binary_usage_errors_exit_2() {
    let out = lint_bin().output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "no mode selected is a usage error"
    );
    let out = lint_bin().args(["--bogus-flag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

#[test]
fn binary_reports_without_deny_all_but_exits_zero() {
    let out = lint_bin()
        .args([
            "--file",
            &path_str(&fixture("float_total_order", "bad.rs")),
            "--as-crate",
            "core",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "advisory mode always exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("float-total-order"), "{stdout}");
}

//! Process-level contract of the `moldable` binary: exit code 0 on
//! success, 2 on any usage error, with the message on stderr.

use std::process::Command;

fn moldable(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_moldable"))
        .args(args)
        .output()
        .expect("spawn moldable binary")
}

#[test]
fn success_exits_zero_with_output_on_stdout() {
    let out = moldable(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("moldable serve"));
    assert!(stdout.contains("moldable loadgen"));
    assert!(out.stderr.is_empty());
}

#[test]
fn unknown_subcommand_exits_two_with_stderr() {
    let out = moldable(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn bad_option_exits_two() {
    let out = moldable(&["generate", "--shape"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn generate_pipeline_exits_zero() {
    let out = moldable(&["generate", "--shape", "chain", "--size", "3", "-P", "4"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("p 4\n"), "{stdout}");
}

#[test]
fn inadmissible_mu_exits_two_before_any_work() {
    let graph = std::env::temp_dir().join(format!("moldable-exit-code-{}.mtg", std::process::id()));
    std::fs::write(&graph, "p 4\ntask 0 amdahl(w=4, d=1)\n").unwrap();
    let graph = graph.to_string_lossy().into_owned();
    // Both used to pass the CLI and panic (exit 101): in the scheduler
    // constructor, and in the daemon's start-up before it bound.
    for args in [
        &["schedule", "--graph", &graph, "--mu", "0.9"][..],
        &["serve", "--port", "0", "--session-mu", "0.6"][..],
    ] {
        let out = moldable(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("mu must lie"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&graph);
}

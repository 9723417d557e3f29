//! The repository benchmark: four workloads, end-to-end metrics from a
//! plain run, per-layer metrics from a traced run. See `README.md`.

mod compare;
mod cpu;
mod daemon;
mod layers;
mod metrics;
mod oneshot;
mod sessions;
mod sim;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use moldable_serve::json::{obj, Json};

use metrics::{Metric, WorkloadResult};
use trace::Tracer;
use workload::{Ctx, E2e};

const USAGE: &str = "\
usage:
  moldable-benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S]
                     [--trace 0|1] [--smoke] [--out DIR] [--inject-failure]
  moldable-benchmark compare [--repeat] DIR_A DIR_B

`run` (or --trace 0) measures the end-to-end metrics, `trace` (or
--trace 1) the per-layer metrics. Without --workload every workload runs,
each in its own process. Results go to benchmark/out/<run|trace>/ unless
--out is given; the last line of output is the JSON summary. The exit
code is non-zero when any correctness check fails.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => ExitCode::from(u8::try_from(daemon::main(&args[1..])).unwrap_or(2)),
        Some("compare") => compare::main(&args[1..]),
        Some("run") => bench(&args[1..], Some(false)),
        Some("trace") => bench(&args[1..], Some(true)),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => bench(&args, None),
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    inject_failure: bool,
}

fn parse(args: &[String], traced: Option<bool>) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: declared_run_seconds(),
        traced: traced.unwrap_or(false),
        smoke: false,
        out: None,
        inject_failure: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                let on = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
                if traced.is_some_and(|t| t != on) {
                    return Err("--trace contradicts the subcommand".into());
                }
                o.traced = on;
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--inject-failure" => o.inject_failure = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &o.workload {
        if !metrics::declared_workloads().contains(w) {
            return Err(format!(
                "unknown workload {w}; expected one of {}",
                metrics::declared_workloads().join(", ")
            ));
        }
    }
    Ok(o)
}

fn declared_run_seconds() -> f64 {
    moldable_serve::json::parse(metrics::DECLARATION)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

fn bench(args: &[String], traced: Option<bool>) -> ExitCode {
    let o = match parse(args, traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if o.traced { "trace" } else { "run" };
    let dir = o
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(mode));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    match &o.workload {
        Some(name) => run_one(name, &o, mode, &dir),
        None => run_all(args, &o),
    }
}

/// Every workload, each in a child process of its own so peak RSS and
/// process state belong to that workload alone.
fn run_all(args: &[String], o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut merged = Vec::new();
    for name in metrics::declared_workloads() {
        let mut cmd = Command::new(&exe);
        if o.traced {
            cmd.arg("trace");
        }
        cmd.args(args)
            .args(["--workload", &name])
            .stdout(Stdio::piped());
        let Ok(mut child) = cmd.spawn() else {
            all_correct = false;
            continue;
        };
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("piped"))
            .lines()
            .map_while(Result::ok)
        {
            println!("{line}");
            last = line;
        }
        let status = child.wait();
        let summary = moldable_serve::json::parse(&last).ok();
        all_correct &= status.is_ok_and(|s| s.success())
            && summary.as_ref().and_then(|s| s.get("correct")) == Some(&Json::Bool(true));
        if let Some(s) = summary {
            attempted += s.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += s.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(Json::Obj(members)) = s.get("metrics") {
                merged.extend(
                    members
                        .iter()
                        .map(|(k, v)| (format!("{name}.{k}"), v.clone())),
                );
            }
        }
    }
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(all_correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(merged)),
        ])
        .encode()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(name: &str, ctx: &Ctx, tr: &mut Tracer) -> E2e {
    match name {
        "sim_layered" => sim::layered(ctx, tr),
        "sim_adversary" => sim::adversary(ctx, tr),
        "serve_oneshot" => oneshot::run(ctx, tr),
        "serve_sessions" => sessions::run(ctx, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

fn run_one(name: &str, o: &Options, mode: &str, dir: &Path) -> ExitCode {
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        out_dir: dir.to_path_buf(),
    };
    let mut result = if o.traced {
        traced_run(name, &ctx, dir)
    } else {
        dispatch(name, &ctx, &mut Tracer::new(false)).into_result()
    };
    if o.inject_failure {
        result.check(
            "injected_failure",
            false,
            "failure requested by --inject-failure",
        );
    }
    check_declared(&mut result, o.traced);

    let record = result.to_json(mode, o.seed, o.seconds, o.smoke).encode();
    let path = dir.join(format!("{name}.results.json"));
    if let Err(e) = std::fs::write(&path, record + "\n") {
        result.check("write_results", false, format!("{}: {e}", path.display()));
    }
    result.print();
    println!("{}", result.summary_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The emitted metrics must be exactly the declared ones, one to one.
fn check_declared(result: &mut WorkloadResult, traced: bool) {
    let (e2e, layer) = metrics::declared();
    let declared: Vec<&str> = if traced { &layer } else { &e2e }
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut a = declared.clone();
    let mut b = emitted.clone();
    a.sort_unstable();
    b.sort_unstable();
    let same = a == b && !a.windows(2).any(|w| w[0] == w[1]);
    let missing: Vec<&&str> = declared.iter().filter(|d| !emitted.contains(d)).collect();
    let extra: Vec<&&str> = emitted.iter().filter(|e| !declared.contains(e)).collect();
    result.check(
        "declared_metrics",
        same,
        format!(
            "{} emitted; missing {missing:?}, undeclared {extra:?}",
            emitted.len()
        ),
    );
}

/// The traced run: the workload untraced and traced on half the time
/// each (their ratio is the tracing overhead), then the layer ledger.
fn traced_run(name: &str, ctx: &Ctx, dir: &Path) -> WorkloadResult {
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..ctx.clone()
    };
    let plain = dispatch(name, &half, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let traced = dispatch(name, &half, &mut tr);
    let overhead = plain.tasks_per_s() / traced.tasks_per_s().max(1e-9) - 1.0;

    let mut ledger = tr.fork(100);
    let mut result = traced.result;
    result.attempted += plain.result.attempted;
    result.failed_ops += plain.result.failed_ops;
    result.checks.extend(plain.result.checks);
    result.metrics = layers::measure(name, ctx, &mut ledger, &mut result.checks);
    result.metrics.extend([
        Metric::new("trace.overhead_frac", overhead, "ratio"),
        Metric::new(
            "trace.spans",
            (tr.span_count() + ledger.span_count()) as f64,
            "count",
        ),
    ]);

    let mut reconciliation = Json::Null;
    if name == "serve_oneshot" {
        let extra = |n: &str| {
            result
                .extra
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        let (wire, line) = layers::reconcile(
            &result.metrics,
            extra("serve.rtt_mean_us"),
            extra("serve.graph_cache_hit_rate"),
        );
        println!("{line}");
        result.check(
            "reconciliation_residual_nonnegative",
            wire >= 0.0,
            format!("wire share {wire:.2} us"),
        );
        result.extra.push(Metric::new("serve.wire_us", wire, "us"));
        reconciliation = Json::Str(line);
    }

    let layers_doc = obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(ctx.seed as f64)),
        ("layers", trace::layers_json(&[&tr, &ledger])),
        ("reconciliation", reconciliation),
        (
            "dropped_spans",
            Json::Num((tr.dropped + ledger.dropped) as f64),
        ),
    ]);
    for (file, body) in [
        (format!("{name}.layers.json"), layers_doc.encode() + "\n"),
        (
            format!("{name}.trace.json"),
            trace::chrome_json(&[&tr, &ledger]),
        ),
    ] {
        if let Err(e) = std::fs::write(dir.join(&file), body) {
            result.check("write_trace", false, format!("{file}: {e}"));
        }
    }
    result
}

//! The measured daemon: this executable re-run with the hidden `daemon`
//! argument, which hands the rest of its arguments to the CLI's `serve`
//! command. The serve workloads therefore measure the CLI's default
//! serve path in its own process, without a separate build of the
//! repository's binary.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use moldable_serve::json::Json;
use moldable_serve::{Client, Request};

/// Environment switches that select non-default serve engines or
/// transports; removed so the daemon runs the default path.
const ENGINE_SWITCHES: [&str; 2] = ["MOLDABLE_SERVE_ENGINE", "MOLDABLE_SERVE_TRANSPORT"];

/// Worker threads of the measured daemon.
const WORKERS: &str = "2";
/// Daemons spawned for the setup samples of one run.
const SETUP_SPAWNS: usize = 5;

/// Entry point of the `daemon` mode: run `moldable serve` with `args`.
/// A thread watches standard input and exits the process when the
/// parent closes it, so a daemon never outlives the benchmark.
pub fn main(args: &[String]) -> i32 {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let mut cli = vec!["serve".to_string()];
    cli.extend_from_slice(args);
    match moldable_cli::run(&cli) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("daemon: {e}");
            2
        }
    }
}

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later output never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until the first `ping` was answered, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawn a daemon with extra `serve` options and wait until it
    /// answers `ping`. `port_file` must be a fresh path in the output
    /// directory.
    pub fn spawn(extra: &[&str], port_file: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(port_file);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .args(["--port", "0", "--workers", WORKERS, "--port-file"])
            .arg(port_file)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in ENGINE_SWITCHES {
            cmd.env_remove(var);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        // The CLI prints its listening line after writing the port file.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Self {
            child,
            _stdout: stdout,
            addr: String::new(),
            ready_s: 0.0,
        };
        if !matches!(read, Ok(n) if n > 0) {
            daemon.kill();
            return Err("daemon exited before listening".to_string());
        }
        let port = std::fs::read_to_string(port_file)
            .map_err(|e| format!("read port file: {e}"))?
            .trim()
            .to_string();
        let _ = std::fs::remove_file(port_file);
        daemon.addr = format!("127.0.0.1:{port}");
        let pong = Client::connect(&daemon.addr)
            .and_then(|mut c| c.call(&Request::Ping))
            .map_err(|e| format!("ping: {e}"))?;
        if pong.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("ping answered {}", pong.encode()));
        }
        daemon.ready_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The daemon's `stats` reply.
    pub fn stats(&self) -> Result<Json, String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.call(&Request::Stats))
            .map_err(|e| format!("stats: {e}"))
    }

    /// Peak resident set size of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::metrics::peak_rss_mb(&self.pid()).unwrap_or(0.0)
    }

    /// Ask for a graceful drain and wait for the process to exit; kill
    /// it if it does not within a few seconds.
    pub fn shutdown(mut self) {
        let _ = Client::connect(&self.addr).and_then(|mut c| c.call(&Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// Spawn daemons one after another, recording each one's spawn-to-ping
/// time in `setup_s`, and keep the last one running.
pub fn spawn_for_setup(
    extra: &[&str],
    port_file: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<Daemon, String> {
    let mut last = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(d) = last.take() {
            Daemon::shutdown(d);
        }
        let d = Daemon::spawn(extra, port_file)?;
        setup_s.push(d.ready_s);
        last = Some(d);
    }
    Ok(last.expect("at least one spawn"))
}

/// A fresh port-file path under `dir`.
pub fn port_file(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("daemon-{tag}-{}.port", std::process::id()))
}

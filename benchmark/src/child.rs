//! The system under test as a child process.
//!
//! `hp-benchmark serve <flags>` is the production front-end: it parses the
//! `hp-edge` flags the workloads use, calls [`EdgeServer::start`] and waits
//! for termination — nothing else. The benchmark spawns it from its own
//! executable (a dependent package cannot ask cargo for `hp-edge`'s binary)
//! and owns it through [`Child`], which SIGKILLs and reaps on drop, so a
//! failed or panicking run cannot leave a server holding a port or a core.
//! The child additionally watches its stdin: when the pipe closes — the
//! parent asked for a graceful drain, or died — it drains and exits.

use hp_edge::{signals, EdgeConfig, EdgeServer};
use hp_load::HttpClient;
use hp_service::{
    Durability, FsyncPolicy, ServiceConfig, SnapshotPolicy, SurfaceParams, TieringPolicy,
};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any single wait on the child may take before the run fails.
pub const WAIT_LIMIT: Duration = Duration::from_secs(120);

/// The `ServiceConfig`/`EdgeConfig` pair a flag list describes — the same
/// mapping as `hp-edge`'s `main`, restricted to the flags the workloads
/// pass. Shared by the `serve` child and the in-process replay so both run
/// the identical configuration.
pub fn configs_from_flags(flags: &[String]) -> Result<(ServiceConfig, EdgeConfig), String> {
    let mut edge = EdgeConfig::default().with_addr("127.0.0.1:0");
    let mut service = ServiceConfig::default();
    let mut journal_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::default();
    let mut snapshots: Option<SnapshotPolicy> = None;
    let mut tiering: Option<TieringPolicy> = None;
    let mut surface: Option<SurfaceParams> = None;

    let mut argv = flags.iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
            raw.parse().map_err(|_| format!("bad number {raw:?}"))
        }
        match flag.as_str() {
            "--workers" => edge = edge.with_workers(num(value()?)?),
            "--shards" => service = service.with_shards(num(value()?)?),
            "--calibration-surface" => surface = Some(surface.unwrap_or_default()),
            "--calibration-cache" => service = service.with_calibration_cache(value()?.clone()),
            "--journal-dir" => journal_dir = Some(PathBuf::from(value()?)),
            "--fsync" => {
                fsync = match value()?.as_str() {
                    "never" => FsyncPolicy::Never,
                    other => return Err(format!("unsupported --fsync {other}")),
                }
            }
            "--snapshot-interval-records" => {
                snapshots = Some(SnapshotPolicy {
                    interval_records: num(value()?)?,
                    ..snapshots.unwrap_or_default()
                });
            }
            "--history-horizon" => {
                tiering = Some(TieringPolicy {
                    horizon: num(value()?)?,
                    ..tiering.unwrap_or_default()
                });
            }
            "--spill-budget-bytes" => {
                tiering = Some(TieringPolicy {
                    spill_budget_bytes: Some(num(value()?)?),
                    ..tiering.unwrap_or_default()
                });
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if surface.is_some() {
        service = service.with_calibration_surface(surface);
    }
    if let Some(dir) = journal_dir {
        service = service.with_durability(Durability::Durable { dir, fsync });
        if let Some(policy) = snapshots {
            service = service.with_snapshots(policy);
        }
    }
    if let Some(policy) = tiering {
        service = service.with_tiering(policy);
    }
    Ok((service, edge))
}

/// The `serve` subcommand: start the edge, print its address, serve until
/// SIGTERM or stdin closes, then drain. Never returns.
pub fn serve(flags: &[String]) -> ! {
    let (service, edge) = match configs_from_flags(flags) {
        Ok(configs) => configs,
        Err(reason) => {
            eprintln!("hp-benchmark serve: {reason}");
            std::process::exit(2);
        }
    };
    signals::install_term_handler();
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        signals::request_termination();
    });
    let edge = match EdgeServer::start(service, edge) {
        Ok(edge) => edge,
        Err(e) => {
            eprintln!("hp-benchmark serve: {e}");
            std::process::exit(1);
        }
    };
    println!("hp-edge listening on {}", edge.local_addr());
    while !signals::termination_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    edge.drain();
    std::process::exit(0);
}

/// User + system CPU seconds of process `pid` (`"self"` for the caller):
/// `/proc/<pid>/stat` fields 14 and 15, in clock ticks; Linux fixes
/// `USER_HZ` at 100.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name, which may itself
    // contain spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A running `serve` child.
pub struct Child {
    proc: std::process::Child,
    /// The bound loopback address (the child binds port 0).
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
    /// When `/healthz` first answered 200 (set by [`Child::wait_ready`]);
    /// the service's metrics registry is created a few milliseconds
    /// earlier, so this is the zero of `hp_shard_utilization`'s wall clock.
    pub ready_at: Option<Instant>,
}

impl Child {
    /// Spawns `serve` with `flags` from the benchmark's own executable and
    /// reads the bound address.
    pub fn spawn(flags: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut proc = Command::new(&exe)
            .arg("serve")
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = proc.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|raw| raw.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Child {
                proc,
                addr,
                spawned,
                ready_at: None,
            }),
            _ => {
                let _ = proc.kill();
                let _ = proc.wait();
                Err(format!("child did not announce its address (got {line:?})"))
            }
        }
    }

    /// A fresh keep-alive connection to the child.
    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.addr, WAIT_LIMIT)
    }

    /// Polls `/healthz` until it answers 200; returns spawn → ready.
    pub fn wait_ready(&mut self) -> Result<Duration, String> {
        let mut client = self.client();
        loop {
            if let Ok(response) = client.get("/healthz") {
                if response.status == 200 {
                    let now = Instant::now();
                    self.ready_at = Some(now);
                    return Ok(now - self.spawned);
                }
            }
            if let Ok(Some(status)) = self.proc.try_wait() {
                return Err(format!("child exited while warming: {status}"));
            }
            if self.spawned.elapsed() > WAIT_LIMIT {
                return Err("child never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Resident set size in bytes (`VmRSS`).
    pub fn rss_bytes(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .map_or(0, |kb| kb * 1024)
    }

    /// User + system CPU seconds the child has consumed so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&self.proc.id().to_string())
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.kill_in_place();
    }

    fn kill_in_place(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }

    /// Graceful drain: close the child's stdin (the same path as SIGTERM:
    /// stop accepting, finish, final snapshot, persist calibration) and
    /// wait for it to exit.
    pub fn drain(mut self) -> Result<(), String> {
        drop(self.proc.stdin.take());
        let deadline = Instant::now() + WAIT_LIMIT;
        loop {
            match self.proc.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("child drain exited with {status}")),
                Ok(None) if Instant::now() > deadline => return Err("child never drained".into()),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait on child: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.kill_in_place();
    }
}

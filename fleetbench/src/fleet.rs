//! A loopback fleet of child `dasd` processes.
//!
//! Daemons run as child processes so that a collapsed run can be
//! ended by killing them (never by waiting for them to drain), and so
//! that `/proc` reports the fleet's CPU time apart from the
//! generator's.

use std::fs::File;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use das_net::{DasCluster, RetryPolicy};

use crate::sys::kill_with_parent;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const TICKS_PER_S: u64 = 100;

/// How long a freshly spawned fleet may take to answer pings.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running fleet. Dropping it kills every daemon and reaps it.
pub struct Fleet {
    /// Listen address of every daemon, by server id.
    pub addrs: Vec<String>,
    children: Vec<Child>,
}

/// The retry policy of the control-plane connections this benchmark
/// opens: one attempt and a `timeout` per call, so a broken fleet fails
/// the run quickly.
pub fn control_policy(timeout: Duration) -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: timeout,
        write_timeout: timeout,
        max_attempts: 1,
        ..RetryPolicy::default()
    }
}

/// Per-call timeout of set-up and read-out connections.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

impl Fleet {
    /// Start `servers` daemons with a `pool`-thread worker pool each
    /// on free loopback ports, logging to `log_dir`, and wait until
    /// every one answers a ping.
    pub fn boot(dasd: &Path, log_dir: &Path, servers: usize, pool: usize) -> Result<Fleet, String> {
        // Ask the kernel for free ports, then hand them to the
        // daemons; `--bind-retries` covers the short window in which
        // another process could take one.
        let addrs: Vec<String> = (0..servers)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                l.local_addr()
                    .map(|a| a.to_string())
                    .map_err(|e| format!("local_addr: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut fleet = Fleet {
            addrs,
            children: Vec::new(),
        };
        for id in 0..servers {
            let log_path = log_dir.join(format!("dasd-{id}.log"));
            let log =
                File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
            let child = kill_with_parent(&mut Command::new(dasd))
                .args(["--id", &id.to_string(), "--cluster", &fleet.addrs.join(",")])
                .args(["--pool", &pool.to_string(), "--bind-retries", "3"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", dasd.display()))?;
            fleet.children.push(child);
        }
        let started = Instant::now();
        loop {
            match fleet
                .connect_within(CONTROL_TIMEOUT)
                .and_then(|mut c| c.ping_all().map_err(|e| e.to_string()))
            {
                Ok(()) => return Ok(fleet),
                Err(e) if started.elapsed() > BOOT_TIMEOUT => {
                    return Err(format!(
                        "fleet did not come up within {BOOT_TIMEOUT:?}: {e}"
                    ))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// A fresh control-plane client for the whole fleet.
    pub fn connect(&self) -> Result<DasCluster, String> {
        self.connect_within(CONTROL_TIMEOUT)
    }

    /// A fresh control-plane client whose calls give up after `timeout`.
    pub fn connect_within(&self, timeout: Duration) -> Result<DasCluster, String> {
        DasCluster::connect_with(&self.addrs, control_policy(timeout))
            .map_err(|e| format!("connect: {e}"))
    }

    /// CPU time (user + system) the daemons have used so far, µs.
    pub fn cpu_us(&self) -> Result<u64, String> {
        self.children
            .iter()
            .map(|c| proc_cpu_us(&format!("/proc/{}/stat", c.id())))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
    }
}

/// User + system CPU time from a `/proc/.../stat` file, µs.
pub fn proc_cpu_us(path: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((tick(11)? + tick(12)?) * (1_000_000 / TICKS_PER_S))
}

/// CPU time the calling thread has used so far, µs.
pub fn thread_cpu_us() -> u64 {
    proc_cpu_us("/proc/thread-self/stat").unwrap_or(0)
}

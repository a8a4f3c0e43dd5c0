//! Server processes: spawning, `/proc` accounting, and orderly stop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A spawned server (a `pager-serve` node or a `pager-cluster launch`
/// router with its node children). Dropping it kills the whole tree.
pub struct Server {
    child: Option<Child>,
    pid: u32,
    /// `host:port` from the server's listening banner.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `program args…` and waits for its `listening on` banner
    /// on stderr.
    pub fn spawn(program: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
        let pid = child.id();
        let stderr = child.stderr.take().ok_or("server has no stderr")?;
        let mut server = Server {
            child: Some(child),
            pid,
            addr: String::new(),
            drain: None,
        };
        let mut lines = BufReader::new(stderr).lines();
        server.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        break rest.trim().to_string();
                    }
                }
                Some(Err(e)) => return Err(format!("server stderr: {e}")),
                None => return Err(format!("{} exited before listening", program.display())),
            }
        };
        // Keep the pipe drained so the server never blocks on stderr.
        server.drain = Some(std::thread::spawn(move || for _ in lines {}));
        Ok(server)
    }

    /// This server's pid plus every live child's (the cluster's nodes).
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.pid];
        pids.extend(children_of(self.pid));
        pids
    }

    /// Asks the server to stop with a v1 `shutdown` line and waits for
    /// it (and its children) to exit; kills whatever is left after
    /// `grace`.
    pub fn stop(mut self, grace: Duration) {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.set_read_timeout(Some(grace));
            let _ = s.write_all(b"{\"cmd\": \"shutdown\"}\n");
            let mut byte = [0u8; 256];
            let _ = s.read(&mut byte);
        }
        self.reap(grace);
    }

    fn reap(&mut self, grace: Duration) {
        let kids = children_of(self.pid);
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        // Grandchildren cannot be waited for; kill any survivor and
        // poll until it is gone.
        for pid in kids {
            let deadline = Instant::now() + grace;
            while Path::new(&format!("/proc/{pid}")).exists() && !is_zombie(pid) {
                if Instant::now() >= deadline {
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                    std::thread::sleep(Duration::from_millis(20));
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        self.reap(Duration::from_millis(500));
    }
}

/// `/proc/<pid>/stat` fields after the parenthesised command name.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

fn is_zombie(pid: u32) -> bool {
    stat_fields(&pid.to_string()).is_none_or(|f| f.first().is_some_and(|s| s == "Z"))
}

/// Live children of `parent`, by scanning `/proc`.
pub fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut kids = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        // Field 4 of stat is the ppid; index 1 after the command name.
        if let Some(fields) = stat_fields(name) {
            if fields.get(1).and_then(|p| p.parse::<u32>().ok()) == Some(parent) {
                if let Ok(pid) = name.parse() {
                    kids.push(pid);
                }
            }
        }
    }
    kids
}

/// Clock ticks per second, from the `AT_CLKTCK` auxiliary vector entry.
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(bytes) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in bytes.chunks_exact(16) {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or([0; 8]));
        if word(&pair[..8]) == AT_CLKTCK {
            return word(&pair[8..]) as f64;
        }
    }
    100.0
}

/// User + system CPU seconds consumed so far by `pid` (all threads,
/// exited ones included); 0 for a vanished process.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Some(fields) = stat_fields(pid) else {
        return 0.0;
    };
    // utime and stime are stat fields 14 and 15 (indexes 11, 12 here).
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|v| v.parse::<u64>().ok()))
        .sum();
    ticks as f64 / clock_ticks()
}

/// CPU seconds summed over `pids`.
pub fn cpu_seconds_of(pids: &[u32]) -> f64 {
    pids.iter().map(|p| cpu_seconds(&p.to_string())).sum()
}

/// Machine-wide CPU time from the `cpu` line of `/proc/stat`, in
/// ticks: `(stolen by the hypervisor, total)`.
pub fn machine_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), or a plain
/// count field (`Threads`).
fn status_field(pid: u32, field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Summed `status_field` over `pids`.
pub fn status_sum(pids: &[u32], field: &str) -> u64 {
    pids.iter().map(|&p| status_field(p, field)).sum()
}

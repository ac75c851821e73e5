//! Host fingerprint and process memory: what every result is stamped with.

use std::fs;

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Commit id read from `.git` (the driver's checkouts have none).
    pub commit: String,
    /// Fewer than 2 cores: the pipelined sender thread shares a core with
    /// the absorber and `core.pipeline.overlap_saved_ms` is a scheduler
    /// figure.
    pub undersized: bool,
}

impl Host {
    /// Reads the fingerprint of the current host and working directory.
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        Host { nproc, cpu_model, kernel, commit: commit_id(), undersized: nproc < 2 }
    }
}

/// The checked-out commit, without spawning `git`: `.git/HEAD`, one level
/// of `ref:` indirection, else `unknown`.
fn commit_id() -> String {
    let Some(git) = ["./.git", "../../.git"].into_iter().find(|p| fs::metadata(p).is_ok()) else {
        return "unknown".to_owned();
    };
    let head = fs::read_to_string(format!("{git}/HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!("{git}/{r}")).unwrap_or_default().trim().to_owned(),
        None => head.to_owned(),
    };
    if id.is_empty() {
        "unknown".to_owned()
    } else {
        id
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

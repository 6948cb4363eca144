//! Host context stamped onto every run, so results can be compared across
//! hosts and commits: CPU count, a fixed calibration-loop time, the
//! compiler, the source revision, the seed and the worker count.

use crate::clock::timed;
use crate::stats::median_ns;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;

/// The stamp printed with every run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Median ns of the fixed calibration loop ([`calibration_ns`]).
    pub calibration_ns: f64,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` when run from a git checkout, else `unknown`.
    pub git_commit: String,
    /// The run's seed.
    pub seed: u64,
    /// Pool workers the run uses.
    pub workers: usize,
}

impl HostStamp {
    /// Collects the stamp for this process.
    pub fn collect(seed: u64, workers: usize) -> HostStamp {
        HostStamp {
            nproc: nproc(),
            calibration_ns: calibration_ns(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_commit: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".to_string()),
            seed,
            workers,
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"calibration_ns\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\",\"seed\":{},\"workers\":{}}}",
            self.nproc,
            self.calibration_ns,
            self.rustc.replace('"', "'"),
            self.git_commit.replace('"', "'"),
            self.seed,
            self.workers
        )
    }
}

/// Logical CPUs available to the process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall ns of five runs of a fixed 2^22-step integer loop: a
/// host-speed yardstick independent of the code under test.
pub fn calibration_ns() -> f64 {
    let samples: Vec<u64> = (0..5)
        .map(|_| {
            timed(|| {
                let mut acc = 0u64;
                for i in 0..(1u64 << 22) {
                    acc = black_box(acc.rotate_left(5) ^ i.wrapping_mul(31));
                }
                acc
            })
            .1
        })
        .collect();
    median_ns(&samples)
}

/// First line of a command's stdout, or `None` when it cannot run. The
/// child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

//! What the numbers were taken on: CPU count, memory high-water mark,
//! toolchain and source revision.

use std::path::PathBuf;
use std::process::Command;

/// Where trace files and the all-workloads record go: `out/` beside this
/// package's `Cargo.toml` (git-ignored), wherever the binary is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// CPUs this process may run on (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads the runtime workloads use: two, or one on a one-CPU host.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a benchmark checkout is not a git
/// repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse --short HEAD`.
pub fn git_revision() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"])
}

/// `rustc --version`.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The host and toolchain part of a run's metadata line.
pub fn describe() -> String {
    format!(
        "nproc={} workers={} git={} rustc={:?}",
        nproc(),
        workers(),
        git_revision(),
        rustc_version()
    )
}

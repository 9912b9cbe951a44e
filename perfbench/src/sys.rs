//! Machine context stamped on every result, and the process's peak memory.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Worker threads the ALS kernels' auto thread count resolves to.
pub fn nproc() -> usize {
    limeqo_linalg::par::auto_threads()
}

/// CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Type of the filesystem holding `path` (longest matching mount point in
/// `/proc/self/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds for a fixed single-threaded chain of dependent floating-point
/// multiply-adds that calls no repository code: a machine-speed reference,
/// so a reader can tell a slow machine from a slow program.
pub fn calibration_s() -> f64 {
    let t = Instant::now();
    let mut x = black_box(1.0f64);
    for _ in 0..10_000_000 {
        x = x * 1.000_000_1 + 1e-9;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

//! `limeqo-perfbench` — the LimeQO benchmark.
//!
//! ```text
//! limeqo-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                  [--explore-seed N]
//! ```
//!
//! Workloads: `offline-full-10k`, `offline-incremental-10k` and
//! `daemon-session` (see `README.md` next to this package for why each
//! was chosen and which layer metric should move which end-to-end metric).
//! `--seed` draws the requests the workload sends. The offline workloads
//! explore at the corpus seed of `large-matrix-10k` unless `--explore-seed`
//! names another; the daemon always `init`s with the same seed.
//! Run from the repository root. With `--trace 0` the result line carries
//! the end-to-end metrics, measured untraced; with `--trace 1` it carries
//! the per-layer metrics from a traced run. Every run checks its outputs;
//! the last line of standard output is the JSON result, and the exit code
//! is 0 only when every check passed.

mod daemon;
mod offline;
mod report;
mod stats;
mod sys;

use std::path::Path;

const USAGE: &str = "usage: limeqo-perfbench --workload offline-full-10k|\
offline-incremental-10k|daemon-session [--seed N] [--seconds S] [--trace 0|1] \
[--explore-seed N]";

/// Calibration loops timed before and after the workload.
const CALIBRATION_SAMPLES: usize = 5;

/// Corpus seed of `large-matrix-10k`, the default request seed.
const DEFAULT_SEED: u64 = 91;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    explore_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut explore_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--explore-seed" => {
                let v = value()?;
                explore_seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace flag {other:?} (0 or 1)")),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, explore_seed })
}

fn run(args: &Args) -> Result<report::Report, String> {
    let shape = match args.workload.as_str() {
        name if name == offline::FULL.name => &offline::FULL,
        name if name == offline::INCREMENTAL.name => &offline::INCREMENTAL,
        daemon::NAME => return daemon::run(args.seed, args.seconds, args.trace),
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let explore_seed = match args.explore_seed {
        Some(s) => s,
        None => offline::corpus_seed()?,
    };
    offline::run(shape, args.seed, explore_seed, args.seconds, args.trace)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("limeqo-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calibrate = || (0..CALIBRATION_SAMPLES).map(|_| sys::calibration_s()).collect::<Vec<_>>();
    let before = calibrate();
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("limeqo-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let after = calibrate();
    report.note(format!(
        "machine calibration_s before {} after {}",
        stats::describe(&before),
        stats::describe(&after)
    ));
    report.set("machine.calibration_s", stats::median(&[before, after].concat()));
    let overhead = if args.trace {
        "see trace.overhead_frac below".to_string()
    } else {
        "measured by the --trace 1 run".to_string()
    };
    report.lines.insert(
        0,
        format!(
            "context workload={} seed={} seconds={} trace={} nproc={} cpu={:?} \
             cwd_fs={} profile={} trace.overhead_frac={overhead}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sys::nproc(),
            sys::cpu_model(),
            sys::fs_type(Path::new(".")),
            sys::build_profile(),
        ),
    );
    if let Err(e) = report.print(args.trace) {
        eprintln!("limeqo-perfbench: {e}");
        std::process::exit(1);
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

//! The daemon workload: an in-process `limeqo_svc::Service` on a state
//! directory inside the working directory, fed an open-loop schedule of
//! `hint`, `tick`, `status` and `snapshot` requests, then shut down and
//! reopened with `Service::open`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use limeqo_core::TraceEntry;
use limeqo_linalg::rng::SeededRng;
use limeqo_svc::{handle_init, Reply, Service};

use crate::report::Report;
use crate::stats::{self, describe, median};

/// Workload name on the command line.
pub const NAME: &str = "daemon-session";

/// Simulated workload shape, probes per tick, and the `init` seed (the
/// oracle's and the policy's), fixed so every run explores the same way.
const N: usize = 2000;
const K: usize = 49;
const BATCH: usize = 64;
const INIT_SEED: u64 = 91;

/// Hint requests per second, for Zipf(`HINT_ZIPF`)-chosen rows.
const HINT_RATE: u64 = 1000;
const HINT_ZIPF: f64 = 1.1;

/// Cadence of the other requests, as (first due, period) in milliseconds.
/// A tick holds the loop for about a fifth of its period.
const TICK_MS: (u64, u64) = (250, 500);
const STATUS_MS: (u64, u64) = (100, 1000);
const SNAPSHOT_MS: (u64, u64) = (1300, 2500);

/// Hint p99 is taken per window of this many seconds of the schedule and
/// the median over windows is reported: one window's p99 tracks its slowest
/// ticks, so a stall of the host moves one window, not the run's number.
const P99_WINDOW_S: f64 = 5.0;

/// `init`s and reopens timed per run (medians are reported).
const INIT_SAMPLES: usize = 15;
const RECOVER_SAMPLES: usize = 3;

/// State directories live here, under the working directory.
const STATE_ROOT: &str = ".bench_state";

/// Request kinds, in the order ties at one due time are sent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Op {
    Tick,
    Snapshot,
    Status,
    Hint,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Tick => "tick",
            Op::Snapshot => "snapshot",
            Op::Status => "status",
            Op::Hint => "hint",
        }
    }
}

/// One scheduled request: when it falls due (from the session start), its
/// kind, and its pre-rendered protocol line.
struct Req {
    due: Duration,
    op: Op,
    line: String,
}

/// The open-loop schedule for `seconds` seconds: fixed-rate hints for
/// Zipf-chosen rows (the row permutation and draws come from `seed`), and
/// ticks, statuses and snapshots on fixed cadences.
fn schedule(seconds: f64, seed: u64) -> Vec<Req> {
    let end = Duration::from_secs_f64(seconds);
    let mut rng = SeededRng::new(seed ^ 0x4817_7D5E);
    let mut rows: Vec<usize> = (0..N).collect();
    rng.shuffle(&mut rows);
    let cdf = stats::zipf_cdf(N, HINT_ZIPF);
    let mut reqs = Vec::new();
    let periodic = |reqs: &mut Vec<Req>, (first, period): (u64, u64), op: Op, line: &str| {
        let mut due = Duration::from_millis(first);
        while due < end {
            reqs.push(Req { due, op, line: line.to_string() });
            due += Duration::from_millis(period);
        }
    };
    periodic(&mut reqs, TICK_MS, Op::Tick, r#"{"op":"tick"}"#);
    periodic(&mut reqs, STATUS_MS, Op::Status, r#"{"op":"status"}"#);
    periodic(&mut reqs, SNAPSHOT_MS, Op::Snapshot, r#"{"op":"snapshot"}"#);
    let mut i = 0u64;
    loop {
        let due = Duration::from_nanos(i * 1_000_000_000 / HINT_RATE);
        if due >= end {
            break;
        }
        let row = rows[stats::zipf_pick(&cdf, rng.uniform(0.0, 1.0))];
        reqs.push(Req { due, op: Op::Hint, line: format!(r#"{{"op":"hint","row":{row}}}"#) });
        i += 1;
    }
    reqs.sort_by_key(|r| (r.due, r.op));
    reqs
}

/// One served request, timed from its due time.
struct Served {
    op: Op,
    due: Duration,
    /// Due to reply complete.
    latency_s: f64,
    /// Due to service start: the wait behind earlier requests.
    wait_s: f64,
    /// Inside `Service::handle`.
    service_s: f64,
}

/// One session, `init` to reopen.
struct Session {
    init_s: f64,
    served: Vec<Served>,
    wall_s: f64,
    idle_s: f64,
    trace: Vec<TraceEntry>,
    trace_reply: String,
    events: u64,
    journal_bytes_per_event: f64,
    snapshot_bytes: u64,
    recover_s: Vec<f64>,
    final_ratio: f64,
    time_spent: f64,
    improving: usize,
    attempted: u64,
    failures: Vec<String>,
}

impl Session {
    fn busy_s(&self) -> f64 {
        self.served.iter().map(|s| s.service_s).sum()
    }

    fn of(&self, op: Op) -> impl Iterator<Item = &Served> {
        self.served.iter().filter(move |s| s.op == op)
    }
}

fn ok_reply(line: &str) -> bool {
    line.starts_with(r#"{"ok":true"#)
}

/// `"key":<unsigned integer>` from a reply line.
fn reply_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Time one `init` on a fresh directory (the set-up of a session).
fn init(dir: &Path) -> Result<(Service, f64), String> {
    let _ = fs::remove_dir_all(dir);
    let line = format!(r#"{{"op":"init","n":{N},"k":{K},"seed":{INIT_SEED},"batch":{BATCH}}}"#);
    let t = Instant::now();
    let (svc, reply) = handle_init(dir, &line, None)?;
    let secs = t.elapsed().as_secs_f64();
    if !ok_reply(&reply) {
        return Err(format!("init refused: {reply}"));
    }
    Ok((svc, secs))
}

fn file_size(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Journal bytes per journaled event over the retained segments, and the
/// newest snapshot's size. Segment `wal-<i>.log` holds the events from
/// snapshot `i` on, so the retained segments cover `events − oldest`.
fn persist_sizes(dir: &Path, events: u64) -> Result<(f64, u64), String> {
    let mut snaps = Vec::new();
    let mut wals = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let name = entry.map_err(|e| e.to_string())?.file_name().to_string_lossy().into_owned();
        let index = |prefix: &str, suffix: &str| {
            name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse::<u64>().ok()
        };
        if let Some(i) = index("snap-", ".snap") {
            snaps.push(i);
        } else if let Some(i) = index("wal-", ".log") {
            wals.push(i);
        }
    }
    let (Some(&oldest), Some(&newest)) = (snaps.iter().min(), snaps.iter().max()) else {
        return Err(format!("no snapshot in {}", dir.display()));
    };
    let journal: u64 = wals
        .iter()
        .filter(|&&i| i >= oldest)
        .map(|i| file_size(&dir.join(format!("wal-{i}.log"))))
        .sum();
    let covered = events.saturating_sub(oldest);
    let per_event = if covered == 0 { 0.0 } else { journal as f64 / covered as f64 };
    Ok((per_event, file_size(&dir.join(format!("snap-{newest}.snap")))))
}

fn session(dir: &Path, seed: u64, seconds: f64) -> Result<Session, String> {
    let mut failures = Vec::new();
    let (mut svc, init_s) = init(dir)?;
    let mut attempted = 1u64;
    let reqs = schedule(seconds, seed);
    let mut served = Vec::with_capacity(reqs.len());
    let mut idle = Duration::ZERO;
    let start = Instant::now();
    for req in &reqs {
        // Spin, not sleep, until the request falls due: timer slack must
        // not become the measured latency.
        let spin = Instant::now();
        while start.elapsed() < req.due {
            std::hint::spin_loop();
        }
        let begin = Instant::now();
        idle += begin - spin;
        let reply = svc.handle(&req.line);
        let end = Instant::now();
        attempted += 1;
        if !ok_reply(reply.line()) {
            failures.push(format!("{} refused: {}", req.op.name(), reply.line()));
        }
        served.push(Served {
            op: req.op,
            due: req.due,
            latency_s: stats::due_latency_s(req.due, end - start),
            wait_s: stats::due_latency_s(req.due, begin - start),
            service_s: (end - begin).as_secs_f64(),
        });
    }
    let wall_s = start.elapsed().as_secs_f64();

    let trace_reply = svc.handle(r#"{"op":"trace"}"#).line().to_string();
    let trace = svc.engine().trace().to_vec();
    let time_spent = svc.engine().time_spent();
    let truth = limeqo_svc::synthetic_truth(svc.config()).map_err(|e| e.to_string())?;
    let wm = svc.engine().wm();
    let best: f64 =
        (0..wm.n_rows()).filter_map(|i| wm.row_best(i).map(|(col, _)| truth[(i, col)])).sum();
    let defaults: Vec<f64> = (0..wm.n_rows()).map(|i| truth[(i, 0)]).collect();
    let improving = crate::offline::improving(&defaults, &trace);
    let shutdown = match svc.handle(r#"{"op":"shutdown"}"#) {
        Reply::Shutdown(line) => line,
        Reply::Line(line) => return Err(format!("shutdown did not stop the service: {line}")),
    };
    attempted += 2;
    for reply in [&trace_reply, &shutdown] {
        if !ok_reply(reply) {
            failures.push(format!("request refused: {reply}"));
        }
    }
    drop(svc);
    let events = reply_u64(&shutdown, "event_index").ok_or("shutdown reply has no event_index")?;
    let (journal_bytes_per_event, snapshot_bytes) = persist_sizes(dir, events)?;

    let mut recover_s = Vec::new();
    for _ in 0..RECOVER_SAMPLES {
        let t = Instant::now();
        let mut reopened = Service::open(dir, None).map_err(|e| format!("reopen: {e}"))?;
        recover_s.push(t.elapsed().as_secs_f64());
        attempted += 2;
        let again = reopened.handle(r#"{"op":"trace"}"#).line().to_string();
        if again != trace_reply {
            failures.push("reopened service's trace differs from the one before shutdown".into());
        }
    }
    Ok(Session {
        init_s,
        served,
        wall_s,
        idle_s: idle.as_secs_f64(),
        trace,
        trace_reply,
        events,
        journal_bytes_per_event,
        snapshot_bytes,
        recover_s,
        final_ratio: best / defaults.iter().sum::<f64>(),
        time_spent,
        improving,
        attempted,
        failures,
    })
}

/// The state root and a fresh directory name under it.
fn state_dir(tag: &str) -> PathBuf {
    Path::new(STATE_ROOT).join(format!("{NAME}-{}-{tag}", std::process::id()))
}

/// Run the daemon workload for about `seconds`: one session, or with
/// `trace` two half-length sessions (untraced, then traced) whose traces
/// must agree.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    fs::create_dir_all(STATE_ROOT).map_err(|e| format!("create {STATE_ROOT}: {e}"))?;
    let result = run_in_state_root(seed, seconds, trace);
    let _ = fs::remove_dir_all(STATE_ROOT);
    result
}

fn run_in_state_root(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "context state_dir={STATE_ROOT} state_fs={}",
        crate::sys::fs_type(Path::new(STATE_ROOT))
    ));
    let mut setup_s = Vec::new();
    // One untimed warm-up init first: it pays the process's first-use
    // costs and lets the filesystem settle what earlier runs left behind.
    for i in 0..INIT_SAMPLES {
        let dir = state_dir(&format!("init{i}"));
        let (svc, secs) = init(&dir)?;
        drop(svc);
        if i > 0 {
            setup_s.push(secs);
        }
        report.attempted += 1;
        let _ = fs::remove_dir_all(&dir);
    }
    let lengths: &[f64] = if trace { &[seconds / 2.0, seconds / 2.0] } else { &[seconds] };
    let mut sessions = Vec::new();
    for (i, &len) in lengths.iter().enumerate() {
        let dir = state_dir(&format!("session{i}"));
        let s = session(&dir, seed, len);
        let _ = fs::remove_dir_all(&dir);
        sessions.push(s?);
    }
    setup_s.extend(sessions.iter().map(|s| s.init_s));
    for s in &sessions {
        report.attempted += s.attempted;
        report.failed += s.failures.len() as u64;
        for f in &s.failures {
            report.check(false, || f.clone());
        }
    }
    if let [a, b] = &sessions[..] {
        report.check(a.trace_reply == b.trace_reply, || {
            "traced and untraced sessions explored differently".into()
        });
    }
    // The untraced session gives the end-to-end numbers.
    let main = &sessions[0];
    let hints: Vec<f64> = main.of(Op::Hint).map(|s| s.latency_s).collect();
    let ticks: Vec<f64> = main.of(Op::Tick).map(|s| s.service_s).collect();
    let p99 = stats::tail(&hints, 0.99).map_err(|e| format!("hint latency: {e}"))?;
    let windows = ((lengths[0] / P99_WINDOW_S) as usize).max(1);
    let mut by_window = vec![Vec::new(); windows];
    for s in main.of(Op::Hint) {
        let w = (s.due.as_secs_f64() / P99_WINDOW_S) as usize;
        by_window[w.min(windows - 1)].push(s.latency_s);
    }
    let p99s = by_window
        .iter()
        .map(|w| stats::tail(w, 0.99))
        .collect::<Result<Vec<f64>, String>>()
        .map_err(|e| format!("hint latency of one window: {e}"))?;
    report.set("setup_s", median(&setup_s));
    report.set("run_wall_s", main.busy_s());
    report.set("tick_p50_s", median(&ticks));
    report.set("hint_p99_s", median(&p99s));
    report.set("final_latency_ratio", main.final_ratio);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb()?);
    report.note(format!("timing setup_s (init answered): {}", describe(&setup_s)));
    report.note(format!(
        "timing run_wall_s = serving-loop busy time over a {} s session ({} requests)",
        lengths[0],
        main.served.len()
    ));
    report.note(format!("timing tick_p50_s (tick request service): {}", describe(&ticks)));
    report.note(format!(
        "timing hint latency from due time: {} ; pooled p99 {p99} ({} beyond)",
        describe(&hints),
        stats::beyond(hints.len(), 0.99)
    ));
    report.note(format!(
        "timing hint_p99_s (p99 of one {P99_WINDOW_S} s window each): {}",
        describe(&p99s)
    ));
    report.note(format!("timing recover_s (Service::open): {}", describe(&main.recover_s)));
    let censored = main.trace.iter().filter(|t| t.censored).count();
    report.note(format!(
        "counts ticks {} probes {} censored {censored} improving {} journaled_events {} \
         journal_bytes_per_event {} snapshot_bytes {} sim_explore_s {}",
        ticks.len(),
        main.trace.len(),
        main.improving,
        main.events,
        main.journal_bytes_per_event,
        main.snapshot_bytes,
        main.time_spent
    ));
    if trace {
        per_layer(&mut report, &sessions);
    }
    Ok(report)
}

fn per_layer(report: &mut Report, sessions: &[Session]) {
    let (plain, traced) = (&sessions[0], &sessions[1]);
    let p50 = |op: Op| {
        let xs: Vec<f64> = traced.of(op).map(|s| s.service_s).collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let waits: Vec<f64> = traced.of(Op::Hint).map(|s| s.wait_s).collect();
    report.set("svc.requests", traced.served.len() as f64);
    report.set("svc.tick.service_p50_s", p50(Op::Tick));
    report.set("svc.snapshot.service_p50_s", p50(Op::Snapshot));
    report.set("svc.hint.service_p50_s", p50(Op::Hint));
    report.set("svc.status.service_p50_s", p50(Op::Status));
    report.set("svc.hint.wait_p99_s", stats::tail(&waits, 0.99).unwrap_or(0.0));
    report.set("svc.busy_frac", traced.busy_s() / traced.wall_s);
    report.set("persist.events", traced.events as f64);
    report.set("persist.journal_bytes_per_event", traced.journal_bytes_per_event);
    report.set("persist.snapshot_bytes", traced.snapshot_bytes as f64);
    report.set("persist.recover_s", median(&traced.recover_s));
    let probes = traced.trace.len();
    let censored = traced.trace.iter().filter(|t| t.censored).count();
    report.set("policy.probes", probes as f64);
    report.set("policy.censored", censored as f64);
    report.set("policy.censored_frac", censored as f64 / probes.max(1) as f64);
    report.set("policy.improving_frac", traced.improving as f64 / probes.max(1) as f64);
    report.set("sim.explore_s", traced.time_spent);
    report.set("trace.unattributed_frac", 1.0 - (traced.busy_s() + traced.idle_s) / traced.wall_s);
    report.set("trace.overhead_frac", traced.busy_s() / plain.busy_s() - 1.0);
    report.set("error_frac", report.failed as f64 / report.attempted.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_and_sized_by_rate_and_cadence() {
        let reqs = schedule(3.0, 7);
        assert!(reqs.windows(2).all(|w| (w[0].due, w[0].op) <= (w[1].due, w[1].op)));
        let count = |op: Op| reqs.iter().filter(|r| r.op == op).count();
        assert_eq!(count(Op::Hint), 3000);
        assert_eq!(count(Op::Tick), 6); // 0.25, 0.75, …, 2.75 s
        assert_eq!(count(Op::Status), 3);
        assert_eq!(count(Op::Snapshot), 1);
        // A tick and a hint due together: the tick goes first.
        let at = reqs.iter().position(|r| r.due == Duration::from_millis(250)).unwrap();
        assert_eq!(reqs[at].op, Op::Tick);
        assert_eq!(reqs[at + 1].op, Op::Hint);
    }

    #[test]
    fn schedule_depends_only_on_seed() {
        let lines = |seed| schedule(1.0, seed).into_iter().map(|r| r.line).collect::<Vec<_>>();
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3), lines(4));
    }

    #[test]
    fn reply_fields_parse() {
        let line = r#"{"ok":true,"op":"shutdown","event_index":1234}"#;
        assert!(ok_reply(line));
        assert_eq!(reply_u64(line, "event_index"), Some(1234));
        assert_eq!(reply_u64(line, "missing"), None);
        assert!(!ok_reply(r#"{"ok":false,"error":"x"}"#));
    }
}

//! The offline workloads: the `large-matrix-10k` corpus scenario driven as
//! an offline `Engine` through `Tick`/`Observation` events against a
//! `MatOracle`, with an open-loop stream of `HintRequest`s served between
//! events.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use limeqo_core::complete::{AlsCompleter, Completer};
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::policy::{LimeQoPolicy, Policy};
use limeqo_core::{Action, Engine, Event, ExploreConfig, MatOracle, ObservationStore, Oracle};
use limeqo_core::{PolicySpec, TraceEntry};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;
use limeqo_sim::scenario::{ScenarioSpec, ScenarioWorkload};

use crate::report::Report;
use crate::stats::{self, describe, median};

/// One offline workload: the corpus scenario plus the knobs it changes.
pub struct Shape {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Probes per round.
    pub batch: usize,
    /// Incremental ALS (dirty-row solves) plus incremental Eq. 6 re-ranking.
    pub incremental: bool,
}

/// `large-matrix-10k` as registered: cold 50-iteration ALS fits.
pub const FULL: Shape = Shape { name: "offline-full-10k", batch: 512, incremental: false };

/// The same matrix and seed with incremental fitting and re-ranking.
pub const INCREMENTAL: Shape =
    Shape { name: "offline-incremental-10k", batch: 128, incremental: true };

/// Corpus scenario both offline workloads are built from.
const SCENARIO: &str = "large-matrix-10k";

/// Hint requests per second served while exploring.
const HINT_RATE: f64 = 1000.0;

/// Zipf exponent of the rows hint requests ask about.
const HINT_ZIPF: f64 = 1.1;

/// Set-ups timed per run (the median is reported).
const SETUP_SAMPLES: usize = 9;

/// Golden file the seed-91 final latency is checked against.
const GOLDEN: &str = "tests/golden/scenarios.golden";

/// The built environment: the oracle, the exploration budget and the
/// engine's configuration.
struct Env {
    oracle: MatOracle,
    defaults: Vec<f64>,
    default_total: f64,
    budget: f64,
    spec: ScenarioSpec,
    policy: PolicySpec,
}

impl Env {
    fn build(shape: &Shape) -> Result<Env, String> {
        let mut spec = limeqo_sim::scenario::by_name(SCENARIO)
            .ok_or_else(|| format!("scenario {SCENARIO} is not registered"))?;
        let ScenarioWorkload::Synthetic(synthetic) = &spec.workload else {
            return Err(format!("scenario {SCENARIO} is not synthetic"));
        };
        if !spec.drift.is_empty() || spec.arrivals.is_some() || spec.probe_fail_rate > 0.0 {
            return Err(format!("scenario {SCENARIO} is no longer a plain offline run"));
        }
        let full = synthetic.build_latency();
        let idx = spec.hint_shape.indices(synthetic.k);
        let latency = Mat::from_fn(full.rows(), idx.len(), |r, c| full[(r, idx[c])]);
        let oracle = MatOracle::new(latency, None);
        let defaults: Vec<f64> = (0..oracle.shape().0)
            .map(|i| oracle.true_latency(i, WorkloadMatrix::DEFAULT_HINT))
            .collect();
        let default_total = oracle.default_total();
        let budget = spec.budget_multiple * default_total;
        let mut policy = spec.policy.clone();
        if shape.incremental {
            let PolicySpec::LimeQoAls { incremental, incremental_als, .. } = &mut policy else {
                return Err(format!("scenario {SCENARIO} no longer runs LimeQO-ALS"));
            };
            *incremental = true;
            *incremental_als = true;
        }
        spec.batch = shape.batch;
        Ok(Env { oracle, defaults, default_total, budget, spec, policy })
    }

    fn engine(&self, policy: Box<dyn Policy>, seed: u64) -> Engine<'static> {
        let cfg = ExploreConfig {
            batch: self.spec.batch,
            seed,
            retention: self.policy.drift(),
            max_steps: self.spec.max_steps,
            shards: self.spec.shards,
            ..ExploreConfig::default()
        };
        let k = self.oracle.shape().1;
        let store = ObservationStore::with_defaults_sharded(&self.defaults, k, self.spec.shards);
        Engine::offline(store, policy, None, &cfg)
    }

    /// Sum of the true latencies of every row's best verified hint — the
    /// workload latency the scenario runner reports, summed in row order.
    fn workload_latency(&self, wm: &WorkloadMatrix) -> f64 {
        (0..wm.n_rows())
            .filter_map(|i| wm.row_best(i).map(|(col, _)| self.oracle.true_latency(i, col)))
            .sum()
    }
}

/// One completer call as the delegating completer saw it.
#[derive(Clone, Copy)]
struct CallRec {
    secs: f64,
    /// Query rows re-solved: the dirty rows on the dirty-row path, all
    /// rows for a full fit.
    dirty_rows: usize,
    /// Whether `AlsCompleter`'s documented routing sent the call down the
    /// dirty-row path rather than the full alternation.
    dirty_path: bool,
}

/// A delegating [`Completer`] that times every call into the ALS layer.
struct TimedCompleter {
    inner: AlsCompleter,
    calls: u64,
    log: Arc<Mutex<Vec<CallRec>>>,
}

impl TimedCompleter {
    fn record(&self, rec: CallRec) {
        self.log.lock().expect("completer log lock poisoned").push(rec);
    }

    /// Mirrors `AlsCompleter::complete_dirty_with_factors`: the dirty-row
    /// path runs when incremental mode is armed, warm factors exist (any
    /// earlier call), the dirty fraction is within the threshold, and this
    /// is not a periodic full call.
    fn takes_dirty_path(&self, n: usize, dirty: Option<&[usize]>) -> bool {
        let als = &self.inner;
        let Some(dirty) = dirty else { return false };
        let periodic_full =
            als.incremental_full_every > 0 && (self.calls + 1) % als.incremental_full_every == 0;
        als.incremental
            && als.warm_start
            && self.calls > 0
            && (dirty.len() as f64) <= als.incremental_threshold * n.max(1) as f64
            && !periodic_full
    }
}

impl Completer for TimedCompleter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
        let t = Instant::now();
        let out = self.inner.complete(wm);
        let secs = t.elapsed().as_secs_f64();
        self.calls += 1;
        self.record(CallRec { secs, dirty_rows: wm.n_rows(), dirty_path: false });
        out
    }

    fn complete_dirty(&mut self, wm: &WorkloadMatrix, dirty: Option<&[usize]>) -> Mat {
        let dirty_path = self.takes_dirty_path(wm.n_rows(), dirty);
        let t = Instant::now();
        let out = self.inner.complete_dirty(wm, dirty);
        let secs = t.elapsed().as_secs_f64();
        self.calls += 1;
        let dirty_rows = match dirty {
            Some(rows) if dirty_path => rows.len(),
            _ => wm.n_rows(),
        };
        self.record(CallRec { secs, dirty_rows, dirty_path });
        out
    }
}

/// The traced twin of `PolicySpec::build_policy` for a LimeQO-ALS spec: the
/// same policy with its ALS completer wrapped in a [`TimedCompleter`].
/// Traced and untraced explorations are checked bit-identical, which pins
/// this construction to the original.
fn traced_policy(spec: &PolicySpec, seed: u64, log: Arc<Mutex<Vec<CallRec>>>) -> Box<dyn Policy> {
    let PolicySpec::LimeQoAls { rank, drift, incremental, rescore_every, incremental_als } = *spec
    else {
        panic!("offline workloads run LimeQO-ALS (checked at set-up)");
    };
    let mut als = AlsCompleter::with_rank(rank, seed);
    als.warm_start = drift.warm_start || incremental_als;
    als.incremental = incremental_als;
    let timed = TimedCompleter { inner: als, calls: 0, log };
    let mut policy = LimeQoPolicy::new(Box::new(timed), "limeqo");
    policy.density_gate = drift.density_gate;
    policy.cold_row_bonus = drift.cold_row_bonus;
    policy.rescore_changed_only = incremental;
    policy.rescore_every = rescore_every;
    policy.incremental_als = incremental_als;
    Box::new(policy)
}

/// Open-loop hint requests: due every `1 / HINT_RATE` seconds from the
/// first tick, for Zipf-chosen rows, served by the driver between events.
struct Hints {
    interval_ns: u64,
    start: Instant,
    next: u64,
    cdf: Vec<f64>,
    rows: Vec<usize>,
    rng: SeededRng,
    latencies: Vec<f64>,
    service_s: f64,
    failed: u64,
}

impl Hints {
    fn new(n: usize, seed: u64, start: Instant) -> Hints {
        let mut rng = SeededRng::new(seed ^ 0x4817_7D5E);
        let mut rows: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rows);
        Hints {
            interval_ns: (1e9 / HINT_RATE) as u64,
            start,
            next: 0,
            cdf: stats::zipf_cdf(n, HINT_ZIPF),
            rows,
            rng,
            latencies: Vec::new(),
            service_s: 0.0,
            failed: 0,
        }
    }

    /// Serve every request that has fallen due, in due order.
    fn serve_due(&mut self, engine: &mut Engine<'_>) {
        loop {
            let due = Duration::from_nanos(self.interval_ns * self.next);
            let now = Instant::now();
            if now.duration_since(self.start) < due {
                return;
            }
            let row = self.rows[stats::zipf_pick(&self.cdf, self.rng.uniform(0.0, 1.0))];
            let actions = engine.step(Event::HintRequest { row });
            let done = Instant::now();
            if !matches!(actions.first(), Some(Action::Recommend { row: r, .. }) if *r == row) {
                self.failed += 1;
            }
            self.latencies.push(stats::due_latency_s(due, done.duration_since(self.start)));
            self.service_s += done.duration_since(now).as_secs_f64();
            self.next += 1;
        }
    }
}

/// One exploration, first tick to budget exhaustion.
struct Rep {
    traced: bool,
    wall_s: f64,
    /// Per round: the round span (tick plus its observations) and the tick
    /// span alone.
    round_s: Vec<f64>,
    tick_s: Vec<f64>,
    observe_s: f64,
    oracle_s: f64,
    /// Workload latency after each round, then the final value.
    latency_after_round: Vec<f64>,
    final_latency: f64,
    time_spent: f64,
    /// The exploration trace; kept for the first exploration of a run only,
    /// later ones are compared against it and dropped.
    trace: Vec<TraceEntry>,
    trace_matches: bool,
    hints: Hints,
    calls: Vec<CallRec>,
    events: u64,
}

/// What a run builds before its first tick: the oracle from the corpus
/// spec, then the store and policy built into an engine.
struct SetUp {
    env: Env,
    engine: Engine<'static>,
    /// The delegating completer's call log (empty unless traced).
    log: Arc<Mutex<Vec<CallRec>>>,
    secs: f64,
}

fn set_up(shape: &Shape, seed: u64, traced: bool) -> Result<SetUp, String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let t = Instant::now();
    let env = Env::build(shape)?;
    let policy = if traced {
        traced_policy(&env.policy, seed, Arc::clone(&log))
    } else {
        env.policy.build_policy(seed)
    };
    let engine = env.engine(policy, seed);
    Ok(SetUp { env, engine, log, secs: t.elapsed().as_secs_f64() })
}

fn explore(
    env: &Env,
    mut engine: Engine<'static>,
    log: &Mutex<Vec<CallRec>>,
    hint_seed: u64,
    traced: bool,
) -> Rep {
    let mut round_s = Vec::new();
    let mut tick_s = Vec::new();
    let (mut observe_s, mut oracle_s) = (0.0, 0.0);
    let mut latency_after_round = Vec::new();
    let mut checking = Duration::ZERO;
    let mut events = 0u64;
    engine.scheduler_mut().start_run();
    let start = Instant::now();
    let mut hints = Hints::new(env.defaults.len(), hint_seed, start);
    while engine.admit_round(env.budget) {
        let round = Instant::now();
        let actions = engine.step(Event::Tick);
        events += 1;
        if traced {
            tick_s.push(round.elapsed().as_secs_f64());
        }
        hints.serve_due(&mut engine);
        if actions.is_empty() {
            break;
        }
        for action in actions {
            let Action::Probe { row, col, timeout } = action else { continue };
            let truth = if traced {
                let t = Instant::now();
                let v = env.oracle.true_latency(row, col);
                oracle_s += t.elapsed().as_secs_f64();
                v
            } else {
                env.oracle.true_latency(row, col)
            };
            let censored = truth > timeout;
            let value = if censored { timeout } else { truth };
            let event = Event::Observation { row, col, value, censored };
            if traced {
                let t = Instant::now();
                engine.step(event);
                observe_s += t.elapsed().as_secs_f64();
            } else {
                engine.step(event);
            }
            events += 1;
            hints.serve_due(&mut engine);
        }
        round_s.push(round.elapsed().as_secs_f64());
        // The no-regressions check reads the engine's own bookkeeping; its
        // cost is the benchmark's, not the program's, and is left out of
        // the exploration wall time.
        let c = Instant::now();
        latency_after_round.push(env.workload_latency(engine.wm()));
        checking += c.elapsed();
    }
    let wall_s = start.elapsed().saturating_sub(checking).as_secs_f64();
    let final_latency = env.workload_latency(engine.wm());
    let calls = log.lock().expect("completer log lock poisoned").clone();
    Rep {
        traced,
        wall_s,
        round_s,
        tick_s,
        observe_s,
        oracle_s,
        latency_after_round,
        final_latency,
        time_spent: engine.time_spent(),
        trace: engine.trace().to_vec(),
        trace_matches: true,
        hints,
        calls,
        events,
    }
}

/// Random exploration with the same budget and batch (checked against,
/// never timed).
fn random_final_latency(env: &Env, seed: u64) -> f64 {
    let engine = env.engine(PolicySpec::Random.build_policy(seed), seed);
    explore(env, engine, &Mutex::new(Vec::new()), seed, false).final_latency
}

/// `key value` from the scenario golden file.
fn golden(key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("{GOLDEN} has no {key}"))
}

fn same_trace(a: &[TraceEntry], b: &[TraceEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.row == y.row
                && x.col == y.col
                && x.censored == y.censored
                && x.charged.to_bits() == y.charged.to_bits()
        })
}

/// The corpus scenario's first seed: the exploration seed the golden file
/// pins.
pub fn corpus_seed() -> Result<u64, String> {
    limeqo_sim::scenario::by_name(SCENARIO)
        .and_then(|spec| spec.seeds.first().copied())
        .ok_or_else(|| format!("scenario {SCENARIO} has no seed"))
}

/// Run one offline workload for about `seconds`: explorations at
/// `explore_seed` back to back (alternating untraced and traced ones when
/// `trace` is set) while hint requests drawn from `seed` arrive, a Random
/// reference, and the checks.
pub fn run(
    shape: &Shape,
    seed: u64,
    explore_seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    // At least one exploration (two when traced: one of each kind); then
    // another only while it is expected to finish before the deadline.
    let env = loop {
        let traced = trace && reps.len() % 2 == 1;
        let SetUp { env, engine, log, secs } = set_up(shape, explore_seed, traced)?;
        setup_s.push(secs);
        let mut rep = explore(&env, engine, &log, seed, traced);
        if let Some(first) = reps.first() {
            rep.trace_matches = same_trace(&first.trace, &rep.trace);
            rep.trace = Vec::new();
        }
        reps.push(rep);
        let min_reps = if trace { 2 } else { 1 };
        let typical = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if reps.len() >= min_reps && Instant::now() + Duration::from_secs_f64(typical) > deadline {
            break env;
        }
    };
    while setup_s.len() < SETUP_SAMPLES {
        setup_s.push(set_up(shape, explore_seed, false)?.secs);
    }

    check_outcome(&mut report, &env, shape, explore_seed, &reps)?;
    end_to_end(&mut report, &env, &reps, &setup_s)?;
    counts(&mut report, &env, &reps);
    if trace {
        per_layer(&mut report, &env, &reps);
    }
    Ok(report)
}

fn check_outcome(
    report: &mut Report,
    env: &Env,
    shape: &Shape,
    seed: u64,
    reps: &[Rep],
) -> Result<(), String> {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        let kind = if rep.traced { "traced" } else { "untraced" };
        report.check(rep.trace_matches, || {
            format!("exploration {i} ({kind}) trace differs from exploration 0")
        });
        let mut prev = env.default_total;
        for (round, &lat) in rep.latency_after_round.iter().enumerate() {
            report.check(lat <= prev, || {
                format!("exploration {i}: workload latency rose in round {round}: {prev} -> {lat}")
            });
            prev = lat;
        }
        report.check(rep.final_latency <= env.default_total, || {
            format!(
                "exploration {i}: final {} above default {}",
                rep.final_latency, env.default_total
            )
        });
        report.check(!rep.traced || rep.calls.len() == rep.tick_s.len(), || {
            format!(
                "exploration {i}: {} completer calls for {} ticks",
                rep.calls.len(),
                rep.tick_s.len()
            )
        });
        report.attempted += rep.events + rep.hints.latencies.len() as u64;
        report.failed += rep.hints.failed;
    }
    report.check(reps.iter().all(|r| r.hints.failed == 0), || "a hint request got no plan".into());
    let random = random_final_latency(env, seed);
    report.check(first.final_latency <= random, || {
        format!("LimeQO final {} above Random's {random} at equal budget", first.final_latency)
    });
    report.note(format!(
        "quality final_latency {} s, random_final_latency {random} s, default_total {} s",
        first.final_latency, env.default_total
    ));
    if shape.name == FULL.name && seed == env.spec.seeds[0] {
        let want = golden(&format!("{SCENARIO}.final_latency"))?;
        report.check(first.final_latency.to_bits() == want.to_bits(), || {
            format!("seed {seed}: final latency {} is not the golden {want}", first.final_latency)
        });
        let want_random = golden(&format!("{SCENARIO}.random_final_latency"))?;
        report.check(random.to_bits() == want_random.to_bits(), || {
            format!("seed {seed}: Random final latency {random} is not the golden {want_random}")
        });
        report.note(format!("golden final_latency {want} matched at corpus seed {seed}"));
    }
    Ok(())
}

fn end_to_end(report: &mut Report, env: &Env, reps: &[Rep], setup_s: &[f64]) -> Result<(), String> {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let rounds: Vec<f64> = untraced.iter().flat_map(|r| r.round_s.iter().copied()).collect();
    let hints: Vec<f64> = untraced.iter().flat_map(|r| r.hints.latencies.iter().copied()).collect();
    let pooled_p99 = stats::tail(&hints, 0.99).map_err(|e| format!("hint latency: {e}"))?;
    // The p99 of one exploration tracks its slowest rounds; the median over
    // the run's explorations keeps one stalled exploration from setting it.
    let p99s = untraced
        .iter()
        .map(|r| stats::tail(&r.hints.latencies, 0.99))
        .collect::<Result<Vec<f64>, String>>()
        .map_err(|e| format!("hint latency of one exploration: {e}"))?;
    report.set("setup_s", median(setup_s));
    report.set("run_wall_s", median(&walls));
    report.set("tick_p50_s", median(&rounds));
    report.set("hint_p99_s", median(&p99s));
    report.set("final_latency_ratio", reps[0].final_latency / env.default_total);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb()?);
    report.note(format!("timing setup_s: {}", describe(setup_s)));
    report.note(format!("timing run_wall_s (one exploration each): {}", describe(&walls)));
    report.note(format!("timing tick_p50_s (one round each): {}", describe(&rounds)));
    report.note(format!(
        "timing hint latency from due time: {} ; pooled p99 {pooled_p99} ({} beyond)",
        describe(&hints),
        stats::beyond(hints.len(), 0.99)
    ));
    report.note(format!("timing hint_p99_s (p99 of one exploration each): {}", describe(&p99s)));
    Ok(())
}

/// Exact counts that repeat run to run for a given seed.
fn counts(report: &mut Report, env: &Env, reps: &[Rep]) {
    let rep = &reps[0];
    let probes = rep.trace.len();
    let censored = rep.trace.iter().filter(|t| t.censored).count();
    report.note(format!(
        "counts explorations {} rounds {} probes {probes} censored {censored} \
         improving {} events {} sim_explore_s {} budget_s {}",
        reps.len(),
        rep.round_s.len(),
        improving(&env.defaults, &rep.trace),
        rep.events,
        rep.time_spent,
        env.budget
    ));
    if let Some(traced) = reps.iter().find(|r| r.traced) {
        let dirty = traced.calls.iter().filter(|c| c.dirty_path).count();
        report.note(format!(
            "counts completer_calls {} dirty_path_calls {dirty} dirty_frac {}",
            traced.calls.len(),
            dirty_frac(env, &traced.calls)
        ));
    }
}

/// Probes that lowered their row's best verified latency, starting from
/// each row's default-plan latency.
pub fn improving(defaults: &[f64], trace: &[TraceEntry]) -> usize {
    let mut best = defaults.to_vec();
    let mut count = 0;
    for t in trace.iter().filter(|t| !t.censored) {
        if t.charged < best[t.row] {
            best[t.row] = t.charged;
            count += 1;
        }
    }
    count
}

/// Rows handed to the completer for re-solving ÷ (calls × rows).
fn dirty_frac(env: &Env, calls: &[CallRec]) -> f64 {
    let rows: usize = calls.iter().map(|c| c.dirty_rows).sum();
    rows as f64 / (calls.len().max(1) * env.defaults.len()) as f64
}

fn per_layer(report: &mut Report, env: &Env, reps: &[Rep]) {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Rep) -> Vec<f64>| {
        let all: Vec<f64> = traced.iter().flat_map(|r| f(r)).collect();
        if all.is_empty() {
            0.0
        } else {
            median(&all)
        }
    };
    let (rep, calls) = (&reps[0], &traced[0].calls);
    let secs = |calls: &[CallRec], dirty: Option<bool>| -> Vec<f64> {
        calls.iter().filter(|c| dirty.map_or(true, |d| c.dirty_path == d)).map(|c| c.secs).collect()
    };
    let complete_busy = |r: &Rep| r.calls.iter().map(|c| c.secs).sum::<f64>();
    report.set("complete.calls", calls.len() as f64);
    report.set("complete.busy_s", per_rep(&complete_busy));
    report.set("complete.p50_s", pooled(&|r| secs(&r.calls, None)));
    report.set("complete.dirty_frac", dirty_frac(env, calls));
    report.set("complete.full_calls", secs(calls, Some(false)).len() as f64);
    report.set("complete.full_p50_s", pooled(&|r| secs(&r.calls, Some(false))));
    report.set("complete.dirty_calls", secs(calls, Some(true)).len() as f64);
    report.set("complete.dirty_busy_s", per_rep(&|r| secs(&r.calls, Some(true)).iter().sum()));
    report.set("complete.dirty_p50_s", pooled(&|r| secs(&r.calls, Some(true))));
    // Each tick makes exactly one completer call (no density gate fires
    // without a data shift), so round i's select self time is its tick
    // span minus call i.
    let self_times = |r: &Rep| -> Vec<f64> {
        r.tick_s.iter().zip(&r.calls).map(|(t, c)| (t - c.secs).max(0.0)).collect()
    };
    report.set("policy.select_self_s", per_rep(&|r| self_times(r).iter().sum()));
    report.set("policy.select_self_p50_s", pooled(&self_times));
    report.set("engine.tick.count", rep.round_s.len() as f64);
    report.set("engine.tick.busy_s", per_rep(&|r| r.tick_s.iter().sum()));
    report.set("engine.observe.count", rep.trace.len() as f64);
    report.set("engine.observe.busy_s", per_rep(&|r| r.observe_s));
    report.set("engine.hint.busy_s", per_rep(&|r| r.hints.service_s));
    report.set("oracle.busy_s", per_rep(&|r| r.oracle_s));
    let probes = rep.trace.len();
    let censored = rep.trace.iter().filter(|t| t.censored).count();
    report.set("policy.probes", probes as f64);
    report.set("policy.censored", censored as f64);
    report.set("policy.censored_frac", censored as f64 / probes.max(1) as f64);
    report.set(
        "policy.improving_frac",
        improving(&env.defaults, &rep.trace) as f64 / probes.max(1) as f64,
    );
    report.set("sim.explore_s", rep.time_spent);
    let attributed =
        |r: &Rep| r.tick_s.iter().sum::<f64>() + r.observe_s + r.oracle_s + r.hints.service_s;
    report.set("trace.unattributed_frac", per_rep(&|r| 1.0 - attributed(r) / r.wall_s));
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    report.set("trace.overhead_frac", per_rep(&|r| r.wall_s) / untraced_wall - 1.0);
    report.set("error_frac", report.failed as f64 / report.attempted.max(1) as f64);
}

//! The metric catalogue and the result a run prints.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`): name and unit. Must match
/// `BENCHMARK.json`'s `end_to_end` list (checked by a unit test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("tick_p50_s", "s"),
    ("hint_p99_s", "s"),
    ("final_latency_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit. Must match
/// `BENCHMARK.json`'s `per_layer` list. A layer a workload does not reach
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // complete::als + linalg, seen through a delegating Completer.
    ("complete.calls", "count"),
    ("complete.busy_s", "s"),
    ("complete.p50_s", "s"),
    ("complete.dirty_frac", "ratio"),
    ("complete.full_calls", "count"),
    ("complete.full_p50_s", "s"),
    ("complete.dirty_calls", "count"),
    ("complete.dirty_busy_s", "s"),
    ("complete.dirty_p50_s", "s"),
    // policy::limeqo + select: the Tick span minus the completer span.
    ("policy.select_self_s", "s"),
    ("policy.select_self_p50_s", "s"),
    // engine + store.
    ("engine.tick.count", "count"),
    ("engine.tick.busy_s", "s"),
    ("engine.observe.count", "count"),
    ("engine.observe.busy_s", "s"),
    ("engine.hint.busy_s", "s"),
    ("oracle.busy_s", "s"),
    // Exploration outcome counts.
    ("policy.probes", "count"),
    ("policy.censored", "count"),
    ("policy.censored_frac", "ratio"),
    ("policy.improving_frac", "ratio"),
    ("sim.explore_s", "s"),
    // svc: Service::handle timed per op.
    ("svc.requests", "count"),
    ("svc.tick.service_p50_s", "s"),
    ("svc.snapshot.service_p50_s", "s"),
    ("svc.hint.service_p50_s", "s"),
    ("svc.status.service_p50_s", "s"),
    ("svc.hint.wait_p99_s", "s"),
    ("svc.busy_frac", "ratio"),
    // persist: journal, snapshots, recovery.
    ("persist.events", "count"),
    ("persist.journal_bytes_per_event", "B"),
    ("persist.snapshot_bytes", "B"),
    ("persist.recover_s", "s"),
    // The machine: a fixed loop timed at the start and end of the run.
    ("machine.calibration_s", "s"),
    // The trace itself.
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("error_frac", "ratio"),
];

/// One run's result: the checks that failed, the operation counts, the
/// metric values and the human-readable report lines.
#[derive(Default)]
pub struct Report {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Report {
    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set a metric from either catalogue.
    ///
    /// # Panics
    /// Panics on a name in neither catalogue — a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name:?} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Add a human-readable report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The result line: every metric of the chosen catalogue, with its
    /// unit. A missing end-to-end metric or a non-finite value is an error;
    /// a missing per-layer metric is a layer this workload does not reach
    /// and reads 0.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            // An empty float sum is -0.0; print an unused layer as plain 0.
            let value = value + 0.0;
            metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }

    /// Print the report lines, the metric values and the result line.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        for line in &self.lines {
            println!("{line}");
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for &(name, unit) in catalogue {
            if let Some(v) = self.values.get(name) {
                println!("metric {name} = {v} {unit}");
            }
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!("{}", self.json(trace)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json` (at the repository root,
    /// one level above this package) are exactly the catalogues above.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect();
            let expected: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{section} differs from the catalogue");
        }
    }

    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    }

    #[test]
    fn json_lists_every_metric_and_zero_fills_unreached_layers() {
        let mut r = Report { attempted: 3, ..Report::default() };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        r.set("complete.dirty_busy_s", -0.0);
        let traced = r.json(true).unwrap();
        assert!(traced.contains("\"persist.events\":{\"value\":0,\"unit\":\"count\"}"));
        assert!(traced.contains("\"complete.dirty_busy_s\":{\"value\":0,"));
        r.check(false, || "boom".into());
        assert!(r.json(false).unwrap().starts_with("{\"correct\":false"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let r = Report::default();
        assert!(r.json(false).is_err());
    }
}

//! The metrics every run prints, and the result line.
//!
//! Every workload prints every end-to-end metric (with `--trace 0`) or
//! every per-layer metric (with `--trace 1`), so the lists below are
//! the whole vocabulary. An end-to-end metric is defined on every
//! workload and is never 0. Operation throughput and latency are
//! per-layer (`bench.*`): on the reference host they drift 1.5–1.9×
//! within minutes, more than any end-to-end bound allows. A per-layer
//! metric reads 0 on a workload that does not exercise its layer;
//! `README.md` maps each one to the workload and end-to-end metric it
//! explains.

use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds", "count"),
    ("messages", "count"),
    ("congestion", "count"),
    ("dilation", "count"),
    ("peak_rss_mb", "MB"),
];

/// Engine phases whose rounds and messages are reported, by their
/// `RunStats` label with the `@guess` suffix removed and characters
/// outside `[A-Za-z0-9_.-]` replaced by `_`. Phases of every guess of
/// the ladder add up under one name.
pub const PHASES: &[&str] = &[
    "A.bfs",
    "tree_aggregate_tree_aggregate",
    "B1.parts",
    "B1.largeness",
    "B2.ranks",
    "B3.parallel_bfs",
    "B4.verify",
    "F.detect_bfs",
    "F.detect_census",
    "other",
];

/// `(name, unit)` of every per-layer metric except the per-phase
/// `congest.<phase>.rounds` / `congest.<phase>.messages` pairs, which
/// [`per_layer`] adds from [`PHASES`].
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("bench.samples", "count"),
    ("bench.ops_per_s", "1/s"),
    ("bench.op_p50_ms", "ms"),
    ("host.caller_runq_wait_s", "s"),
    ("host.steal_s", "s"),
    ("graph.generate_s", "s"),
    ("congest.shards", "count"),
    ("congest.messages_per_s", "1/s"),
    ("congest.rounds_per_s", "1/s"),
    ("congest.dropped", "count"),
    ("congest.delayed", "count"),
    ("congest.corrupted", "count"),
    ("congest.useful_ratio", "ratio"),
    ("congest.cpu_s", "s"),
    ("congest.parallel_eff", "ratio"),
    ("congest.caller_runq_wait_s", "s"),
    ("congest.minor_faults", "count"),
    ("core.guesses", "count"),
    ("core.guess_accept_ratio", "ratio"),
    ("core.num_large", "count"),
    ("core.max_queue", "count"),
    ("core.overflowed", "count"),
    ("core.detect_rounds", "count"),
    ("core.excluded_nodes", "count"),
    ("core.detect_share", "ratio"),
    ("shortcut.verify_s", "s"),
    ("shortcut.index_bytes", "bytes"),
    ("shortcut.to_bytes_ms", "ms"),
    ("shortcut.from_bytes_ms", "ms"),
    ("shortcut.aggregation_setup_ms", "ms"),
    ("serve.build_index_s", "s"),
    ("serve.customize_ms", "ms"),
    ("serve.reweight_p50_ms", "ms"),
    ("serve.reweight_p90_ms", "ms"),
    ("apps.sssp_p50_ms", "ms"),
    ("apps.sssp_p90_ms", "ms"),
    ("apps.mst_p50_ms", "ms"),
    ("apps.mst_p90_ms", "ms"),
    ("apps.aggregate_p50_ms", "ms"),
    ("apps.aggregate_p90_ms", "ms"),
    ("apps.sssp_iterations", "count"),
    ("apps.mst_phases", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.graph", "s"),
    ("trace.self_s.shortcut", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.serve", "s"),
];

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for p in PHASES {
        out.push((format!("congest.{p}.rounds"), "count"));
        out.push((format!("congest.{p}.messages"), "count"));
    }
    out
}

/// The [`PHASES`] name of a `RunStats` label.
pub fn phase_name(label: &str) -> &'static str {
    let base = label.split('@').next().unwrap_or(label);
    let clean: String = base
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    PHASES
        .iter()
        .find(|&&p| p == clean)
        .copied()
        .unwrap_or("other")
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (constructions, queries and reweights).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    /// Host milliseconds of every timed operation, in order.
    pub samples_ms: Vec<f64>,
    /// Seconds of every set-up, in order; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric. Panics on a name outside the two lists, which is
    /// a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name)
                || per_layer().iter().any(|(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Runs one set-up and records how long it took.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup_s.push(t.elapsed().as_secs_f64());
        out
    }

    /// Adds to a metric (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, v + value);
    }

    /// Records `count` failed operations and why.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    /// Marks every operation failed: they all reproduced one output
    /// (or were already counted as failing), and that output is wrong.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.failures.push(why);
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: the end-to-end metrics (`trace == false`) or
    /// the per-layer ones. Panics if an end-to-end metric is missing,
    /// which is a bug in the workload; a missing per-layer metric
    /// reads 0.
    pub fn result_json(&self, trace: bool) -> String {
        let list: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics = list
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
        )
    }
}

/// A finite number as JSON, with every digit `f64` holds.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_sanitize() {
        assert_eq!(phase_name("B3.parallel_bfs@8"), "B3.parallel_bfs");
        assert_eq!(phase_name("A.bfs"), "A.bfs");
        assert_eq!(
            phase_name("tree_aggregate+tree_aggregate"),
            "tree_aggregate_tree_aggregate"
        );
        assert_eq!(phase_name("something_new"), "other");
    }

    #[test]
    fn names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_fills_per_layer_zeros() {
        let mut r = Report {
            attempted: 2,
            ..Report::default()
        };
        r.set("core.guesses", 3.0);
        let line = r.result_json(true);
        assert!(line.contains("\"core.guesses\":{\"value\":3.0,\"unit\":\"count\"}"));
        assert!(line.contains("\"apps.mst_phases\":{\"value\":0.0,\"unit\":\"count\"}"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":2,\"failed\":0,"));
    }
}

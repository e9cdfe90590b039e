//! Metric names, units and the one-line JSON result.
//!
//! The two tables below are the single list of what the benchmark prints;
//! `tests/contract.rs` checks them against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("makespan_us", "us"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The driver event kinds whose handler count and wall time are reported.
pub const EVENT_KINDS: &[&str] = &[
    "master_step",
    "descriptor_arrive",
    "notify_arrive",
    "pump",
    "ready",
    "worker_finish",
    "worker_free",
    "retired",
    "master_saw_retire",
    "relay",
    "steal_request",
    "reclaim_request",
];

/// Interconnect tiers whose link-words are reported: the full mesh's single
/// tier and the rack fabric's two.
pub const LINK_TIERS: &[&str] = &["link", "intra-rack", "inter-rack"];

const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("trace.gen_ms", "ms"),
    ("trace.tasks", "count"),
    ("routing.scan_ms", "ms"),
    ("routing.remote_edges", "count"),
    ("manager.submit_ms", "ms"),
    ("manager.finish_ms", "ms"),
    ("manager.drain_ms", "ms"),
    ("manager.can_accept_ms", "ms"),
    ("manager.calls", "count"),
    ("manager.wall_frac", "frac"),
    ("engine.pops", "count"),
    ("engine.pushes", "count"),
    ("engine.inline_coalesced", "count"),
    ("engine.outside_handlers_ms", "ms"),
    ("engine.profiled_wall_ms", "ms"),
];

const PER_LAYER_TAIL: &[(&str, &str)] = &[
    ("link.messages", "count"),
    ("link.wait_us", "us"),
    ("steal.requests", "count"),
    ("steal.grants", "count"),
    ("steal.failures", "count"),
    ("steal.useful_frac", "frac"),
    ("reclaim.reclaimed", "count"),
    ("reclaim.failures", "count"),
    ("load.digest.updates", "count"),
    ("obs.recorder_ratio", "ratio"),
    ("rt.submit_ns_p50", "ns"),
    ("rt.submit_ns_p99", "ns"),
    ("rt.submit_busy_frac", "frac"),
    ("rt.start_wait_us_p50", "us"),
    ("rt.start_wait_us_p99", "us"),
    ("rt.rss_bytes_per_task", "B/task"),
    ("rt.latency_samples", "count"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for kind in EVENT_KINDS {
        out.push((format!("engine.event.{kind}.count"), "count"));
        out.push((format!("engine.event.{kind}.wall_ms"), "ms"));
    }
    for tier in LINK_TIERS {
        out.push((format!("link.words.{tier}"), "words"));
    }
    out.extend(PER_LAYER_TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Sets every per-layer metric whose name starts with one of `prefixes`
/// to 0: layers the workload does not run.
pub fn not_exercised(values: &mut Values, prefixes: &[&str]) {
    for (name, _) in per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            values.entry(name).or_insert(0.0);
        }
    }
}

/// The names and units one mode prints, in order.
pub fn schema(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, with every metric of the mode's schema. A metric
/// the run did not produce, or a non-finite value, is a benchmark bug and
/// makes the result incorrect.
pub fn result_line(outcome: &crate::Outcome, traced: bool) -> (String, bool) {
    let mut correct = outcome.correct;
    let mut parts = Vec::new();
    for (name, unit) in schema(traced) {
        let value = match outcome.metrics.get(&name) {
            Some(v) if v.is_finite() => *v,
            other => {
                eprintln!("perfbench: metric {name} missing or not finite: {other:?}");
                correct = false;
                0.0
            }
        };
        // `{:?}` keeps every digit and always yields a valid JSON number
        // (`5.0`, `1e-7`) for a finite value.
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(", ")
    );
    (line, correct)
}

//! The benchmark's own tests: its printed metric names match
//! `BENCHMARK.json`, its instruments do not change what they measure, and a
//! failing task is counted instead of hanging the run.

use nexus_bench::baseline::{Baseline, Json};
use nexus_cluster::ClusterDriver;
use nexus_core::NexusSharp;
use perfbench::rt_stream::{self, StreamSize};
use perfbench::timing::{ManagerTimes, TimingManager};
use perfbench::{guard, metrics, sim, Outcome, Workload};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A small simulator scale (4,056 tasks) that keeps debug-build tests fast.
const TEST_SCALE: f64 = 0.005;

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name)
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The metric names and units of a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let json = Json::parse(line).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(json.get(key).is_some(), "result line lacks {key}: {line}");
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics is not an object: {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let as_strings = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        listed(&json, "end_to_end"),
        as_strings(metrics::schema(false))
    );
    assert_eq!(
        listed(&json, "per_layer"),
        as_strings(metrics::schema(true))
    );
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    let small_stream = StreamSize {
        tasks: 600,
        window: 8,
        deadline: Duration::from_secs(20),
    };
    for traced in [false, true] {
        let want = listed(&json, if traced { "per_layer" } else { "end_to_end" });
        for w in Workload::ALL {
            let outcome = match (w, traced) {
                (Workload::RtStreamN2, false) => rt_stream::measure(3, 0.05, small_stream),
                (Workload::RtStreamN2, true) => rt_stream::trace_layers(3, 0.05, small_stream),
                (_, false) => sim::measure(w, 3, 0.05, TEST_SCALE),
                (_, true) => sim::trace_layers(w, 3, 0.05, TEST_SCALE),
            }
            .finish();
            let (line, correct) = metrics::result_line(&outcome, traced);
            assert!(
                correct,
                "{} (traced {traced}): {:?}",
                w.name(),
                outcome.errors
            );
            assert_eq!(printed(&line), want, "{} (traced {traced})", w.name());
        }
    }
}

#[test]
fn workloads_separate_the_layers() {
    let local = sim::trace_layers(Workload::SimLocalN8, 5, 0.05, TEST_SCALE).finish();
    let halo = sim::trace_layers(Workload::SimHaloRackN8, 5, 0.05, TEST_SCALE).finish();
    assert!(local.correct && halo.correct);
    assert_eq!(local.metrics["engine.event.relay.count"], 0.0);
    assert!(halo.metrics["engine.event.relay.count"] > 0.0);
    assert_eq!(local.metrics["routing.remote_edges"], 0.0);
    assert!(halo.metrics["routing.remote_edges"] > 0.0);
    assert!(halo.metrics["reclaim.reclaimed"] + halo.metrics["steal.grants"] > 0.0);
}

#[test]
fn timing_wrapper_is_outcome_identical_to_bare_nexus_sharp() {
    for w in [Workload::SimLocalN8, Workload::SimHaloRackN8] {
        let cfg = sim::config(w);
        let trace = sim::trace(w, 9, TEST_SCALE);
        let bare = ClusterDriver::new(&cfg, |_| NexusSharp::paper(6)).run(&trace);
        let times = Rc::new(ManagerTimes::default());
        let wrapped = ClusterDriver::new(&cfg, |_| {
            TimingManager::new(NexusSharp::paper(6), Rc::clone(&times))
        })
        .run(&trace);
        assert_eq!(format!("{bare:?}"), format!("{wrapped:?}"), "{}", w.name());
        assert!(
            times.calls.get() >= 2 * bare.tasks,
            "every submit and finish is timed"
        );
        assert!(times.submit_ns.get() > 0 && times.finish_ns.get() > 0);
    }
}

#[test]
fn injected_failing_task_is_counted_within_the_deadline() {
    let size = StreamSize {
        tasks: 400,
        window: 8,
        deadline: Duration::from_millis(1500),
    };
    let pairs = rt_stream::stream(1, size.tasks);
    let scan = rt_stream::scan(&pairs);
    let t = Instant::now();
    let run = rt_stream::run_stream(
        &pairs,
        &scan.producers,
        size,
        false,
        Some(100),
        Duration::ZERO,
    );
    assert!(
        t.elapsed() < size.deadline + Duration::from_secs(5),
        "the hang guard bounds the stream ({:?})",
        t.elapsed()
    );
    assert!(run.error.is_some());
    assert!(
        run.failed >= 1 && run.failed <= size.tasks as u64,
        "{run:?}"
    );
    let mut o = Outcome {
        attempted: size.tasks as u64,
        failed: run.failed,
        ..Outcome::default()
    };
    o.metrics.insert("x".into(), 1.0);
    assert!(!o.finish().correct, "a failed task makes the run incorrect");
}

#[test]
fn clean_stream_retires_everything_in_dependence_order() {
    let size = StreamSize {
        tasks: 2_000,
        window: 16,
        deadline: Duration::from_secs(20),
    };
    let pairs = rt_stream::stream(2, size.tasks);
    let scan = rt_stream::scan(&pairs);
    assert!(
        scan.remote_edges > 0,
        "some producers live on the other node"
    );
    let with_producers = scan.producers.iter().filter(|p| !p.is_empty()).count();
    assert!(with_producers >= size.tasks - rt_stream::RING as usize);
    let run = rt_stream::run_stream(&pairs, &scan.producers, size, true, None, Duration::ZERO);
    assert_eq!(run.error, None);
    assert_eq!((run.retired, run.failed), (size.tasks as u64, 0));
    assert_eq!(run.latency_samples, size.tasks as u64);
    assert!(run.latency_ns[0] > 0 && run.latency_ns[0] <= run.latency_ns[1]);
    assert!(run.submit_ns[0] > 0 && run.submit_ns[0] <= run.submit_ns[1]);
    assert!(run.submit_busy_ns > 0 && run.start_wait_ns[0] <= run.start_wait_ns[1]);
}

#[test]
fn order_check_rejects_a_consumer_before_its_producer() {
    use nexus_trace::TaskId;
    let producers = vec![vec![], vec![0], vec![1]];
    let ok = [TaskId(0), TaskId(1), TaskId(2)];
    assert_eq!(rt_stream::check_order(&ok, &producers), Ok(()));
    let bad = [TaskId(1), TaskId(0), TaskId(2)];
    assert!(rt_stream::check_order(&bad, &producers).is_err());
    let twice = [TaskId(0), TaskId(0), TaskId(2)];
    assert!(rt_stream::check_order(&twice, &producers).is_err());
}

#[test]
fn bench_10_guard_matches_and_detects_drift() {
    let mismatches = guard::check(&repo_file("BENCH_10.json")).expect("guard runs");
    assert!(mismatches.is_empty(), "{mismatches:?}");
    let mut baseline = Baseline::load(&repo_file("BENCH_10.json")).unwrap();
    baseline.scenarios[0].sim_events += 1;
    let current = guard::run_scenarios();
    let drift = guard::compare(&baseline, &current);
    assert_eq!(drift.len(), 1, "{drift:?}");
}

//! `quick-report` — a fast end-to-end sanity run of the whole evaluation.
//!
//! Runs every Table II benchmark at a small scale under the four Fig. 8
//! managers on a few core counts and prints measured vs. paper maximum
//! speedups. Useful as a smoke test before launching the full `cargo bench`
//! reproduction, and as a quickstart demonstration of the library.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin quick-report
//! NEXUS_BENCH_SCALE=0.3 cargo run --release -p nexus-bench --bin quick-report
//! ```
//!
//! ## Baseline mode (the perf flywheel)
//!
//! * `--json <path>` — additionally run the tracked baseline scenarios and
//!   write a machine-readable `BENCH_<pr>.json` (see `nexus_bench::baseline`).
//! * `--compare <path>` — compare the tracked scenarios against a committed
//!   baseline; exits non-zero on regression.
//! * `--tolerance <frac>` — makespan drift tolerance for `--compare`
//!   (default 0.15 = ±15%).
//! * `--min-events-per-sec <n>` — hard wall-clock throughput floor for
//!   `--compare` (default 100000).
//! * `--baseline-only` — skip the human-readable report tables and only run
//!   the baseline scenarios (what CI uses).
//! * `--list-scenarios` — print the tracked scenario names and their trace
//!   seeds (so baseline diffs are explainable without reading source) and
//!   exit.
//!
//! ## Trace export (observability)
//!
//! * `--trace-out <path>` — additionally run one traced scenario (the skewed
//!   imbalanced trace under most-loaded stealing, so steals and flow arrows
//!   appear) and write its span log to `<path>`: Chrome-trace JSON by
//!   default (load it in Perfetto or `chrome://tracing`), or a text timeline
//!   with `NEXUS_TRACE=text`. The written JSON is parsed back and its
//!   complete-span count is checked against the retired-task count — a
//!   mismatch exits non-zero.
//! * `NEXUS_TRACE=off|chrome|text` — export format (default `chrome` when a
//!   path is given); `NEXUS_TRACE_OUT=<path>` — env equivalent of
//!   `--trace-out`.

use nexus_bench::baseline::{
    compare, Baseline, CompareConfig, Json, RuntimeRecord, ScenarioRecord,
};
use nexus_bench::managers::ManagerKind;
use nexus_bench::paper::table4_row;
use nexus_bench::report::{fmt_speedup, Table};
use nexus_bench::runner::{
    admit_depth, bench_scale, cluster_feedback, cluster_link, cluster_policy, cluster_steal,
    cluster_topology, curves_for, event_engine, rt_nodes, rt_workers, service_arrival, trace_mode,
    trace_out, TraceMode,
};
use nexus_cluster::{
    simulate_cluster, AdmissionConfig, ClusterConfig, ClusterDriver, ClusterOutcome, FeedbackKind,
    MemRecorder, PolicyKind, StealKind, TimeBase, Topology,
};
use nexus_core::NexusSharp;
use nexus_flow::{simulate_service, ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_obs::{chrome_trace, text_timeline};
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;
use nexus_trace::{Benchmark, Trace};
use std::time::Instant;

/// Command-line options of `quick-report` (all optional; see the module docs).
#[derive(Default)]
struct Options {
    json_out: Option<std::path::PathBuf>,
    compare_with: Option<std::path::PathBuf>,
    tolerance: Option<f64>,
    min_events_per_sec: Option<f64>,
    baseline_only: bool,
    list_scenarios: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| -> ! {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                opts.json_out = Some(args.next().unwrap_or_else(|| missing("--json")).into());
            }
            "--compare" => {
                opts.compare_with =
                    Some(args.next().unwrap_or_else(|| missing("--compare")).into());
            }
            "--tolerance" => {
                let raw = args.next().unwrap_or_else(|| missing("--tolerance"));
                opts.tolerance = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --tolerance: unparsable fraction {raw:?}");
                    std::process::exit(2);
                }));
            }
            "--min-events-per-sec" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| missing("--min-events-per-sec"));
                opts.min_events_per_sec = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --min-events-per-sec: unparsable number {raw:?}");
                    std::process::exit(2);
                }));
            }
            "--baseline-only" => opts.baseline_only = true,
            "--list-scenarios" => opts.list_scenarios = true,
            "--trace-out" => {
                opts.trace_out = Some(args.next().unwrap_or_else(|| missing("--trace-out")).into());
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?} (valid: --json <path>, --compare <path>, \
                     --tolerance <frac>, --min-events-per-sec <n>, --baseline-only, \
                     --list-scenarios, --trace-out <path>)"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    // Validate every environment knob up front: a typo aborts loudly (exit 2,
    // listing the valid values) before any simulation runs, whatever flags
    // were passed.
    let _ = cluster_link();
    let _ = cluster_policy();
    let _ = cluster_steal();
    let _ = cluster_feedback();
    let _ = cluster_topology();
    let _ = event_engine();
    let _ = service_arrival();
    let _ = admit_depth();
    let _ = bench_scale();
    let _ = rt_workers();
    let _ = rt_nodes();
    let trace_request = trace_request(&opts);
    if opts.list_scenarios {
        list_scenarios();
        return;
    }
    if !opts.baseline_only {
        report_tables();
    }
    if let Some((mode, path)) = &trace_request {
        export_trace(*mode, path);
    }
    if opts.json_out.is_none() && opts.compare_with.is_none() {
        return;
    }
    let current = run_baseline_scenarios();
    if let Some(path) = &opts.json_out {
        if let Err(e) = current.store(path) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        println!("baseline written to {}", path.display());
    }
    if let Some(path) = &opts.compare_with {
        let prior = Baseline::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let mut cfg = CompareConfig::default();
        if let Some(t) = opts.tolerance {
            cfg.makespan_tolerance = t;
        }
        if let Some(f) = opts.min_events_per_sec {
            cfg.min_events_per_sec = f;
        }
        let report = compare(&current, &prior, &cfg);
        println!(
            "baseline comparison vs {} (PR {}, ±{:.0}% makespan, ≥{:.0} ev/s):",
            path.display(),
            prior.pr,
            cfg.makespan_tolerance * 100.0,
            cfg.min_events_per_sec
        );
        print!("{}", report.render());
        if !report.is_ok() {
            eprintln!("error: baseline regression detected");
            std::process::exit(1);
        }
    }
}

/// Resolves the trace-export request from the knobs and flags, up front so
/// an inconsistent request aborts before any simulation runs: `None` when
/// tracing is off, the effective `(mode, path)` otherwise (`--trace-out`
/// beats `NEXUS_TRACE_OUT`; a path with no explicit mode means Chrome).
fn trace_request(opts: &Options) -> Option<(TraceMode, std::path::PathBuf)> {
    let mode = trace_mode();
    let path = opts
        .trace_out
        .clone()
        .or_else(|| trace_out().map(std::path::PathBuf::from));
    let Some(path) = path else {
        if mode != TraceMode::Off {
            eprintln!(
                "error: NEXUS_TRACE: trace mode set but no output path \
                 (pass --trace-out <path> or set NEXUS_TRACE_OUT)"
            );
            std::process::exit(2);
        }
        return None;
    };
    let mode = if mode == TraceMode::Off {
        TraceMode::Chrome
    } else {
        mode
    };
    Some((mode, path))
}

/// Runs the traced scenario and writes its span log to `path` (see
/// [`trace_request`] and the module docs).
///
/// The scenario is the skewed imbalanced trace under most-loaded stealing —
/// chosen because it exercises every span kind: forwards, steals, multi-hop
/// link traffic and cross-node retirements. Chrome output is parsed back and
/// validated (one complete span per retired task) before the function
/// returns, so CI can treat a zero exit as "the trace is loadable".
fn export_trace(mode: TraceMode, path: &std::path::Path) {
    let trace = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.0, 42);
    let cfg = ClusterConfig::new(4, 8)
        .with_link(cluster_link())
        .with_stealing(StealKind::MostLoaded)
        .with_engine(event_engine());
    let mut rec = MemRecorder::new(TimeBase::VirtualPs);
    let out = ClusterDriver::new(&cfg, |_| NexusSharp::paper(6)).run_recorded(&trace, &mut rec);

    let body = match mode {
        TraceMode::Chrome => chrome_trace(&rec),
        TraceMode::Text => text_timeline(&rec),
        TraceMode::Off => unreachable!("defaulted to chrome above"),
    };
    if let Err(e) = std::fs::write(path, &body) {
        eprintln!("error: --trace-out: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }

    if mode == TraceMode::Chrome {
        // Parse the file we just wrote and check the span census: exactly one
        // "X" (complete) event per retired task.
        let parsed = Json::parse(&body).unwrap_or_else(|e| {
            eprintln!("error: trace output is not valid JSON: {e}");
            std::process::exit(1);
        });
        let spans = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(|events| {
                events
                    .iter()
                    .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                    .count() as u64
            })
            .unwrap_or(0);
        if spans != out.tasks {
            eprintln!(
                "error: trace span census mismatch: {spans} complete spans for {} retired tasks",
                out.tasks
            );
            std::process::exit(1);
        }
        println!(
            "trace written to {} ({} span events, {} complete spans, {} steals)",
            path.display(),
            rec.len(),
            spans,
            out.steals
        );
    } else {
        println!(
            "trace timeline written to {} ({} span events, {} steals)",
            path.display(),
            rec.len(),
            out.steals
        );
    }
}

/// The PR number stamped into freshly written baselines.
const BASELINE_PR: u64 = 10;
/// The workload scale of the tracked scenarios — fixed (independent of
/// `NEXUS_BENCH_SCALE`) so baselines are comparable across runs.
const BASELINE_SCALE: f64 = 0.01;

/// The tracked baseline scenarios: name + the seed of the generated trace
/// (also the arrival seed of the service scenario). Kept in sync with
/// [`run_baseline_scenarios`] by an assertion there.
const TRACKED_SCENARIOS: &[(&str, u64)] = &[
    ("sparselu-8d-r0.0-n1-mesh", 42),
    ("sparselu-8d-r0.0-n8-mesh", 42),
    ("sparselu-8d-r0.5-n8-mesh", 42),
    ("sparselu-8d-r0.5-n8-racktiers-topo-hier", 42),
    ("imbalanced-4n-mostloaded", 42),
    ("feedback-imbalanced-n4", 42),
    ("service-poisson-n4-depth16", 42),
];

/// Prints the tracked scenario names and trace seeds (`--list-scenarios`).
fn list_scenarios() {
    println!("tracked baseline scenarios (workload scale {BASELINE_SCALE}):");
    for (name, seed) in TRACKED_SCENARIOS {
        println!("  {name}  seed={seed}");
    }
}

/// Runs the tracked baseline scenarios (fixed traces, fixed seeds, fixed
/// configs — the simulated outcomes are fully deterministic; only the
/// wall-clock fields vary between machines).
fn run_baseline_scenarios() -> Baseline {
    let engine = event_engine();
    let base_record =
        |name: &str, out: &ClusterOutcome, wall: std::time::Duration| -> ScenarioRecord {
            eprintln!("  [baseline {name}] {wall:?}, {} events", out.sim_events);
            ScenarioRecord {
                name: name.into(),
                benchmark: out.benchmark.clone(),
                topology: out.topology.clone(),
                placement: out.placement.clone(),
                stealing: out.stealing.clone(),
                engine: engine.name().into(),
                nodes: out.nodes as u64,
                workers_per_node: out.workers_per_node as u64,
                tasks: out.tasks,
                makespan_us: out.makespan.as_us_f64(),
                sim_events: out.sim_events,
                wall_ms: wall.as_secs_f64() * 1e3,
                events_per_sec: out.sim_events as f64 / wall.as_secs_f64().max(1e-9),
                steals: out.steals,
                steal_failures: out.steal_failures,
                link_words_per_tier: out
                    .link
                    .per_tier
                    .iter()
                    .map(|t| (t.name.clone(), t.words))
                    .collect(),
                p50_us: None,
                p99_us: None,
                p999_us: None,
                backpressure_events: None,
            }
        };
    let record = |name: &str, trace: &Trace, cfg: ClusterConfig| -> ScenarioRecord {
        let t0 = Instant::now();
        let out: ClusterOutcome = simulate_cluster(trace, &cfg, |_| NexusSharp::paper(6));
        base_record(name, &out, t0.elapsed())
    };
    let cfg = |nodes: usize| ClusterConfig::new(nodes, 8).with_engine(engine);
    let sparselu = |remote: f64| distributed::sparselu(8, remote, 42, BASELINE_SCALE);
    let local = sparselu(0.0);
    let halo = sparselu(0.5);
    let skewed = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.0, 42);
    let scenarios = vec![
        record("sparselu-8d-r0.0-n1-mesh", &local, cfg(1)),
        record("sparselu-8d-r0.0-n8-mesh", &local, cfg(8)),
        record("sparselu-8d-r0.5-n8-mesh", &halo, cfg(8)),
        record(
            "sparselu-8d-r0.5-n8-racktiers-topo-hier",
            &halo,
            cfg(8)
                .with_link(cluster_link().with_topology(Topology::RackTiers))
                .with_placement(PolicyKind::TopologyAware)
                .with_stealing(StealKind::Hierarchical),
        ),
        record(
            "imbalanced-4n-mostloaded",
            &skewed,
            cfg(4).with_stealing(StealKind::MostLoaded),
        ),
        {
            // The feedback scenario skews serial dependence chains onto node
            // 0 (36/6/1/1 chains of 16 links — stealing only ever sees the
            // eligible heads, so idle nodes must reclaim the blocked tails).
            // Tracks the full feedback stack: digests, live placement and
            // pool reclamation. Fixed size, like every tracked scenario.
            let chains = distributed::chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
            record(
                "feedback-imbalanced-n4",
                &chains,
                cfg(4)
                    .with_placement(PolicyKind::TopologyAware)
                    .with_stealing(StealKind::Hierarchical)
                    .with_feedback(FeedbackKind::Full),
            )
        },
        {
            // The service scenario is pinned to Poisson arrivals at depth 16 —
            // NOT the NEXUS_ARRIVAL / NEXUS_ADMIT_DEPTH knobs — so the
            // baseline stays comparable across runs.
            let name = "service-poisson-n4-depth16";
            let trace = distributed::sparselu(4, 0.3, 42, BASELINE_SCALE);
            let service = ServiceConfig::new(ArrivalConfig::new(
                ArrivalKind::Poisson,
                SimDuration::from_us(40),
                42,
            ))
            .with_admission(AdmissionConfig::new(16));
            let t0 = Instant::now();
            let out = simulate_service(&trace, &service, &cfg(4), |_| NexusSharp::paper(6));
            let mut rec = base_record(name, &out.stream.cluster, t0.elapsed());
            rec.p50_us = Some(out.p50().as_us_f64());
            rec.p99_us = Some(out.p99().as_us_f64());
            rec.p999_us = Some(out.p999().as_us_f64());
            rec.backpressure_events = Some(out.backpressure_events());
            rec
        },
    ];
    assert_eq!(
        scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>(),
        TRACKED_SCENARIOS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>(),
        "TRACKED_SCENARIOS is out of sync with run_baseline_scenarios"
    );
    Baseline {
        pr: BASELINE_PR,
        scale: BASELINE_SCALE,
        scenarios,
        runtime: Some(runtime_record()),
    }
}

/// Runs the live-runtime smoke workload: `nexus-rt` executing a skewed
/// imbalanced trace on real threads (`NEXUS_RT_NODES` manager threads ×
/// `NEXUS_RT_WORKERS` workers each) under most-loaded stealing. Every number
/// is wall clock, so the record is informational — recorded in the baseline
/// but never compared (unlike the simulated makespans).
fn runtime_record() -> RuntimeRecord {
    let nodes = rt_nodes();
    let workers = rt_workers();
    let stealing = StealKind::MostLoaded;
    let trace = distributed::imbalanced(nodes, 120, 4.0, SimDuration::from_us(30), 0.2, 42);
    let cfg = nexus_rt::RtConfig::new(nodes, workers).with_stealing(stealing);
    let mut rt = nexus_rt::ClusterRuntime::new(cfg);
    let handle = rt.start();
    let t0 = Instant::now();
    let run = handle
        .run_trace(&trace)
        .expect("live runtime shut down mid-replay");
    let wall = t0.elapsed();
    let stats = handle.node_stats();
    let report = rt.shutdown_timeout(std::time::Duration::from_secs(60));
    assert_eq!(report.pending, 0, "live runtime failed to drain");
    eprintln!(
        "  [runtime {}] {wall:?}, {} tasks on {nodes}x{workers} threads",
        trace.name, run.retired
    );
    RuntimeRecord {
        benchmark: trace.name.clone(),
        stealing: stealing.build().name().into(),
        nodes: nodes as u64,
        workers_per_node: workers as u64,
        tasks: run.retired,
        wall_ms: wall.as_secs_f64() * 1e3,
        tasks_per_sec: run.retired as f64 / wall.as_secs_f64().max(1e-9),
        steals: stats.iter().map(|s| s.stolen_in).sum(),
    }
}

fn report_tables() {
    let scale = bench_scale().min(0.05);
    println!(
        "quick-report: workload scale = {scale} (set NEXUS_BENCH_SCALE / NEXUS_FULL for more)\n"
    );
    let managers = ManagerKind::fig8_set();
    let mut table = Table::new(
        "Quick evaluation: max speedup (measured | paper Table IV)",
        &[
            "benchmark",
            "ideal",
            "Nanos",
            "Nanos(paper)",
            "Nexus++",
            "Nexus++(paper)",
            "Nexus# 6TG",
            "Nexus#(paper)",
        ],
    );

    for bench in Benchmark::table2_suite() {
        let t0 = Instant::now();
        let curves = curves_for(bench, &managers, scale, 42);
        let get = |label: &str| -> f64 {
            curves
                .iter()
                .find(|c| c.manager == label)
                .map(|c| c.max_speedup())
                .unwrap_or(f64::NAN)
        };
        let paper = table4_row(&bench.name());
        table.row(vec![
            bench.name(),
            fmt_speedup(get("ideal")),
            fmt_speedup(get("Nanos")),
            paper.map(|p| fmt_speedup(p.nanos_max)).unwrap_or_default(),
            fmt_speedup(get("Nexus++")),
            paper
                .map(|p| fmt_speedup(p.nexus_pp_max))
                .unwrap_or_default(),
            fmt_speedup(get("Nexus# 6TG")),
            paper
                .map(|p| fmt_speedup(p.nexus_sharp_max))
                .unwrap_or_default(),
        ]);
        eprintln!("  [{}] done in {:?}", bench.name(), t0.elapsed());
    }
    table.print();

    cluster_section();
    policy_section();
    topology_section();
    service_section();
    engine_profile_section();
    runtime_section();
}

/// Profiles the pluggable event engines on one 8-node run: per-event-kind
/// handler wall time plus queue pop/push/coalesce counters, calendar vs.
/// heap. This is the measurement behind the roadmap's claim that the
/// per-node manager model (the `master_step`/`pump` handlers), not the event
/// queue, dominates the 8-node hot path. Wall-clock numbers,
/// machine-dependent.
fn engine_profile_section() {
    let link = cluster_link();
    let trace = distributed::sparselu(8, 0.5, 42, 0.002);
    let mut table = Table::new(
        "Quick engine profile: dist-sparselu, 8 nodes, Nexus# 6TG per node",
        &[
            "engine",
            "events",
            "pops",
            "coalesced",
            "hottest event kinds (count, handler wall)",
        ],
    );
    for engine in [nexus_sim::EngineKind::Calendar, nexus_sim::EngineKind::Heap] {
        let cfg = ClusterConfig::new(8, 8).with_link(link).with_engine(engine);
        let driver = ClusterDriver::new(&cfg, |_| NexusSharp::paper(6));
        let (out, prof) = driver.run_profiled(&trace);
        // The three hottest handlers by accumulated wall time.
        let mut kinds: Vec<(String, u64, u64)> = prof
            .counters_with_prefix("engine.event.")
            .filter_map(|(key, wall)| {
                let kind = key.strip_suffix(".wall_ns")?.to_string();
                let count = prof.counter(&format!("{kind}.count"));
                Some((kind, count, wall))
            })
            .collect();
        kinds.sort_by_key(|&(_, _, wall)| std::cmp::Reverse(wall));
        let hottest = kinds
            .iter()
            .take(3)
            .map(|(kind, count, wall)| {
                let name = kind.strip_prefix("engine.event.").unwrap_or(kind);
                format!("{name} ({count}, {:.2} ms)", *wall as f64 / 1e6)
            })
            .collect::<Vec<_>>()
            .join("  ");
        table.row(vec![
            engine.name().into(),
            format!("{}", out.sim_events),
            format!("{}", prof.counter("engine.pops")),
            format!("{}", prof.counter("engine.inline_coalesced")),
            hottest,
        ]);
    }
    table.print();
}

/// The live-runtime smoke sample: the same placement/stealing policies, real
/// threads (see `nexus-rt`). Wall-clock numbers, machine-dependent.
fn runtime_section() {
    let r = runtime_record();
    let mut table = Table::new(
        "Quick runtime run: nexus-rt live threads (wall clock)",
        &[
            "trace",
            "stealing",
            "nodes",
            "workers",
            "tasks",
            "wall ms",
            "tasks/sec",
            "steals",
        ],
    );
    table.row(vec![
        r.benchmark.clone(),
        r.stealing.clone(),
        format!("{}", r.nodes),
        format!("{}", r.workers_per_node),
        format!("{}", r.tasks),
        format!("{:.1}", r.wall_ms),
        format!("{:.0}", r.tasks_per_sec),
        format!("{}", r.steals),
    ]);
    table.print();
}

/// A small cluster-scalability sample: a 4-domain partitioned sparselu under
/// Nexus# (6 TGs) per node, at low and full halo coupling.
fn cluster_section() {
    let link = cluster_link();
    let mut table = Table::new(
        "Quick cluster run: dist-sparselu, Nexus# 6TG per node, 8 workers/node",
        &["nodes", "coupling", "makespan", "speedup", "notifications"],
    );
    for &remote in &[0.05, 1.0] {
        let trace = distributed::sparselu(4, remote, 42, 0.002);
        for &nodes in &[1usize, 2, 4] {
            let cfg = ClusterConfig::new(nodes, 8).with_link(link);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                format!("{nodes}"),
                format!("{:.0}%", remote * 100.0),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.notifications),
            ]);
        }
    }
    table.print();
}

/// A small policy comparison: work stealing on a skewed partition, and the
/// three placement policies on an un-hinted partition (see the
/// `policy_comparison` bench for the full sweep). `NEXUS_FEEDBACK` applies to
/// every row, so the same table doubles as a live-feedback smoke run.
fn policy_section() {
    let link = cluster_link();
    let feedback = cluster_feedback();
    let mut table = Table::new(
        format!(
            "Quick policy run: 4 nodes, Nexus# 6TG per node, 8 workers/node, feedback {feedback}"
        ),
        &[
            "trace",
            "placement",
            "stealing",
            "makespan",
            "steals",
            "reclaims",
            "link words",
        ],
    );
    // Skewed independent tasks: node 0 owns 6x the last node's work.
    let skewed = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.0, 42);
    for stealing in StealKind::ALL {
        let cfg = ClusterConfig::new(4, 8)
            .with_link(link)
            .with_stealing(stealing)
            .with_feedback(feedback);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            skewed.name.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
    }
    // Un-hinted sparselu: placement policy decides everything.
    let unhinted = distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.002));
    for placement in PolicyKind::ALL {
        let cfg = ClusterConfig::new(4, 8)
            .with_link(link)
            .with_placement(placement)
            .with_feedback(feedback);
        let out = simulate_cluster(&unhinted, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            unhinted.name.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
    }
    table.print();
}

/// A small topology sample: one rack-clustered trace over every fabric, plus
/// the flat vs topology-aware scheduling stacks on the rack-tiered fabric
/// (see the `topology_comparison` bench for the full sweep).
fn topology_section() {
    let link = cluster_link();
    let us = SimDuration::from_us;
    let matched = distributed::rack_clustered(2, 2, 8, 8, 1.0, 0.5, 0.0, us(30), 42);
    let mut table = Table::new(
        "Quick topology run: 4 nodes, Nexus# 6TG per node, 4 workers/node",
        &[
            "trace",
            "topology",
            "placement",
            "stealing",
            "makespan",
            "link words",
        ],
    );
    for topology in Topology::ALL {
        let cfg = ClusterConfig::new(4, 4).with_link(link.with_topology(topology));
        let out = simulate_cluster(&matched, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            matched.name.clone(),
            out.topology.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.link.words),
        ]);
    }
    // Flat vs aware stacks on the tiered fabric (un-hinted, rack heads 3x).
    let skewed = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        8,
        8,
        3.0,
        0.6,
        0.0,
        us(30),
        11,
    ));
    for (placement, stealing) in [
        (PolicyKind::XorHash, StealKind::MostLoaded),
        (PolicyKind::TopologyAware, StealKind::Hierarchical),
    ] {
        let cfg = ClusterConfig::new(4, 4)
            .with_link(link.with_topology(Topology::RackTiers))
            .with_placement(placement)
            .with_stealing(stealing);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            skewed.name.clone(),
            out.topology.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.link.words),
        ]);
    }
    table.print();
}

/// A small open-loop service sample: a knee sweep of the arrival process
/// selected by `NEXUS_ARRIVAL` (depth from `NEXUS_ADMIT_DEPTH`) over a fixed
/// 4-node sparselu trace (see the `service_latency` bench for the full
/// sweep). Points above the knee show back-pressure and a climbing p99.
fn service_section() {
    let kind = service_arrival();
    if kind == ArrivalKind::ClosedLoop {
        println!("Quick service run: skipped (NEXUS_ARRIVAL=closed is not an open-loop process)\n");
        return;
    }
    let link = cluster_link();
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    let base = ServiceConfig::new(ArrivalConfig::new(kind, SimDuration::from_us(40), 42))
        .with_admission(AdmissionConfig::new(admit_depth()));
    let cfg = ClusterConfig::new(4, 8).with_link(link);
    let report = nexus_flow::knee_sweep(&trace, &base, &cfg, &[0.25, 0.5, 1.0, 2.0, 8.0], |_| {
        NexusSharp::paper(6)
    });
    let mut table = Table::new(
        format!(
            "Quick service run: dist-sparselu, {kind} arrivals, depth {}, 4 nodes",
            base.admission.depth
        ),
        &[
            "load",
            "offered/s",
            "done/s",
            "p50",
            "p99",
            "p99.9",
            "backpressure",
        ],
    );
    for p in &report.points {
        table.row(vec![
            format!("{:.2}x", p.load_factor),
            format!("{:.0}", p.offered_per_sec),
            format!("{:.0}", p.completed_per_sec),
            format!("{}", p.p50),
            format!("{}", p.p99),
            format!("{}", p.p999),
            format!("{}", p.backpressure_events),
        ]);
    }
    table.print();
    match report.knee() {
        Some(k) => println!(
            "knee: {:.0} offered/s sustained without back-pressure\n",
            k.offered_per_sec
        ),
        None => println!("knee: below the lowest point of the ramp\n"),
    }
}

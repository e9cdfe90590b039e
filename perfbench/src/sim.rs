//! The two simulator workloads: node-partitioned sparselu on 8 nodes × 8
//! workers with the paper's Nexus# manager (6 task graphs) on every node.
//!
//! * `sim-local-n8` — independent domains (`remote_fraction = 0`), full
//!   mesh, XOR-hash placement, no stealing, feedback off: no relays, and the
//!   manager model takes the largest share of the host time.
//! * `sim-halo-rack-n8` — half the tasks read a neighbour's halo, on a
//!   two-tier rack fabric with topology-aware placement, hierarchical
//!   stealing and the full feedback stack: multi-hop relays, notifications,
//!   steals, reclaims and digest folding.

use crate::metrics::{EVENT_KINDS, LINK_TIERS};
use crate::stats::{fast_decile, median, peak_rss_bytes, quantile_sorted};
use crate::timing::{ManagerTimes, TimingManager};
use crate::{references, Outcome, Workload};
use nexus_cluster::routing::DepScanner;
use nexus_cluster::{
    ClusterConfig, ClusterDriver, ClusterOutcome, FeedbackKind, LinkConfig, MemRecorder,
    PolicyKind, Registry, StealKind, StreamingSource, TimeBase, Topology,
};
use nexus_core::NexusSharp;
use nexus_obs::check_conservation;
use nexus_sim::EngineKind;
use nexus_trace::generators::distributed;
use nexus_trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Workload scale of the sparselu sub-traces (44,200 tasks over 8 nodes).
pub const SCALE: f64 = 0.1;
/// Nodes and workers per node of both simulator workloads.
const NODES: usize = 8;
const WORKERS: usize = 8;
/// Repetitions of the timed routing scan.
const SCAN_REPS: usize = 11;
/// Fewest measured repetitions, however long they take.
const MIN_REPS: usize = 3;

/// The paper's Nexus# node manager with 6 task graphs.
fn nexus(_node: usize) -> NexusSharp {
    NexusSharp::paper(6)
}

/// The workload's trace for `seed` at `scale`.
pub fn trace(w: Workload, seed: u64, scale: f64) -> Trace {
    let remote = match w {
        Workload::SimLocalN8 => 0.0,
        _ => 0.5,
    };
    distributed::sparselu(NODES, remote, seed, scale)
}

/// The workload's cluster configuration.
pub fn config(w: Workload) -> ClusterConfig {
    let cfg = ClusterConfig::new(NODES, WORKERS);
    match w {
        Workload::SimLocalN8 => cfg
            .with_link(LinkConfig::rdma().with_topology(Topology::FullMesh))
            .with_placement(PolicyKind::XorHash)
            .with_stealing(StealKind::Disabled)
            .with_feedback(FeedbackKind::Off),
        _ => cfg
            .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(FeedbackKind::Full),
    }
}

/// The deterministic part of an outcome the checks compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Simulated makespan, µs.
    pub makespan_us: f64,
    /// Events the cluster event loop processed.
    pub sim_events: u64,
    /// Tasks executed.
    pub tasks: u64,
}

impl Fingerprint {
    fn of(out: &ClusterOutcome) -> Fingerprint {
        Fingerprint {
            makespan_us: out.makespan.as_us_f64(),
            sim_events: out.sim_events,
            tasks: out.tasks,
        }
    }
}

/// The plain run's fingerprint for `seed` (how `references.rs` is made).
pub fn fingerprint(w: Workload, seed: u64, scale: f64) -> Fingerprint {
    Fingerprint::of(&ClusterDriver::new(&config(w), nexus).run(&trace(w, seed, scale)))
}

/// Runs `f`, turning a panic (deadlock, `max_events`) into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// One set-up: trace generation plus driver construction. Returns the
/// trace and the driver with the generation and whole set-up times (s).
fn set_up(
    w: Workload,
    seed: u64,
    scale: f64,
    cfg: &ClusterConfig,
) -> (Trace, ClusterDriver<NexusSharp>, f64, f64) {
    let t = Instant::now();
    let trace = self::trace(w, seed, scale);
    let gen = t.elapsed().as_secs_f64();
    let driver = ClusterDriver::new(cfg, nexus);
    (trace, driver, gen, t.elapsed().as_secs_f64())
}

/// Establishes the reference outcome for the seed: the reference heap
/// engine's run, which must match the default engine's and, when the seed
/// has a recorded reference, the recording.
fn reference(
    w: Workload,
    seed: u64,
    scale: f64,
    cfg: &ClusterConfig,
    trace: &Trace,
    o: &mut Outcome,
) -> Option<ClusterOutcome> {
    let tasks = trace.tasks().count() as u64;
    o.attempted += 2 * tasks;
    let heap = guarded(|| ClusterDriver::new(&cfg.with_engine(EngineKind::Heap), nexus).run(trace));
    let plain = guarded(|| ClusterDriver::new(cfg, nexus).run(trace));
    let (Some(heap), Some(plain)) = (heap, plain) else {
        o.failed += 2 * tasks;
        o.fail(format!("{}: the reference simulation panicked", w.name()));
        return None;
    };
    let fp = Fingerprint::of(&plain);
    if Fingerprint::of(&heap) != fp {
        o.failed += tasks;
        o.fail(format!(
            "{}: calendar engine {fp:?} differs from the reference heap engine {:?}",
            w.name(),
            Fingerprint::of(&heap)
        ));
    }
    if fp.tasks != tasks {
        o.failed += tasks - fp.tasks.min(tasks);
        o.fail(format!(
            "{}: executed {} of {tasks} tasks",
            w.name(),
            fp.tasks
        ));
    }
    if scale == SCALE {
        if let Some((makespan_us, sim_events)) = references::lookup(w, seed) {
            if (fp.makespan_us, fp.sim_events) != (makespan_us, sim_events) {
                o.fail(format!(
                    "{}: seed {seed} gave makespan {} us / {} events, recorded reference \
                     {makespan_us} us / {sim_events} events",
                    w.name(),
                    fp.makespan_us,
                    fp.sim_events
                ));
            }
        }
    }
    Some(plain)
}

/// One measured simulation: its wall time if it ran and matched `expect`.
fn timed_run<M: nexus_host::TaskManager>(
    driver: ClusterDriver<M>,
    trace: &Trace,
    expect: Fingerprint,
    what: &str,
    o: &mut Outcome,
) -> Option<(ClusterOutcome, Duration)> {
    o.attempted += expect.tasks;
    let t = Instant::now();
    let out = guarded(|| driver.run(trace));
    let wall = t.elapsed();
    check_run(out.map(|out| (out, wall)), expect, what, o)
}

/// Checks one run against the reference fingerprint, counting a panicked
/// or diverging run's tasks as failed. Passes a matching run through.
fn check_run<T>(
    run: Option<(ClusterOutcome, T)>,
    expect: Fingerprint,
    what: &str,
    o: &mut Outcome,
) -> Option<(ClusterOutcome, T)> {
    match run {
        None => {
            o.failed += expect.tasks;
            o.fail(format!("{what}: simulation panicked"));
            None
        }
        Some((out, x)) if Fingerprint::of(&out) == expect => Some((out, x)),
        Some((out, _)) => {
            o.failed += expect.tasks;
            o.fail(format!(
                "{what}: outcome {:?} differs from the reference {expect:?}",
                Fingerprint::of(&out)
            ));
            None
        }
    }
}

/// The untraced run: the end-to-end metrics.
pub fn measure(w: Workload, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut o = Outcome::default();
    let cfg = config(w);
    let (trace, ..) = set_up(w, seed, scale, &cfg);
    let Some(plain) = reference(w, seed, scale, &cfg, &trace, &mut o) else {
        return o;
    };
    let expect = Fingerprint::of(&plain);
    drop(plain);

    // Per-task submit→retire latency in simulated time, from the closed-loop
    // streaming run (bit-identical to `run` by contract — checked).
    o.attempted += expect.tasks;
    let stream = guarded(|| {
        ClusterDriver::new(&cfg, nexus).run_streaming(&trace, &StreamingSource::closed_loop())
    });
    let mut latencies: Vec<u64> = Vec::new();
    if let Some((_, lat)) = check_run(
        stream.map(|s| (s.cluster, s.latencies)),
        expect,
        "closed-loop streaming run",
        &mut o,
    ) {
        latencies = lat.iter().map(|d| d.as_ps()).collect();
        latencies.sort_unstable();
    }
    drop(trace);

    // Every repetition sets up afresh (timed) and then simulates (timed).
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() > 4.0 * seconds.max(1.0) {
            break; // a pathologically slow build must still end in time
        }
        let (trace, driver, _, setup) = set_up(w, seed, scale, &cfg);
        setup_s.push(setup);
        if let Some((_, wall)) = timed_run(driver, &trace, expect, w.name(), &mut o) {
            walls.push(wall.as_secs_f64().max(1e-9));
        }
    }
    let wall = fast_decile(&mut walls);
    let ps_to_us = |ps: u64| ps as f64 / 1e6;
    let m = &mut o.metrics;
    m.insert("tasks_per_s".into(), expect.tasks as f64 / wall);
    m.insert("events_per_s".into(), expect.sim_events as f64 / wall);
    m.insert("makespan_us".into(), expect.makespan_us);
    m.insert(
        "latency_p50_us".into(),
        ps_to_us(quantile_sorted(&latencies, 0.50)),
    );
    m.insert(
        "latency_p99_us".into(),
        ps_to_us(quantile_sorted(&latencies, 0.99)),
    );
    m.insert("peak_rss_mb".into(), peak_rss_bytes() as f64 / 1e6);
    m.insert("setup_s".into(), median(&mut setup_s));
    eprintln!(
        "perfbench: {} seed {seed}: {} timed runs of {} tasks, {} events \
         (wall s: fast decile {wall:.4}, median {:.4}); {} latency samples",
        w.name(),
        walls.len(),
        expect.tasks,
        expect.sim_events,
        median(&mut walls),
        latencies.len()
    );
    o
}

/// The routing pre-pass: `DepScanner::scan_full` over the trace under the
/// workload's placement policy and fabric distances. Returns the remote
/// producer edges.
fn scan(cfg: &ClusterConfig, trace: &Trace) -> u64 {
    let mut scanner = DepScanner::with_policy(cfg.nodes, cfg.placement.build())
        .with_distances(cfg.link.fabric(cfg.nodes).distances());
    trace
        .tasks()
        .map(|t| scanner.scan_full(t).remote_producers.len() as u64)
        .sum()
}

/// Per-round samples of the traced run.
#[derive(Default)]
struct LayerSamples {
    gen_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    recorded_ms: Vec<f64>,
    profiled_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    manager_frac: Vec<f64>,
    submit_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    can_accept_ms: Vec<f64>,
    kind_ms: Vec<Vec<f64>>,
}

/// The traced run: the per-layer metrics. Attaches the event-loop profiler,
/// the timing manager wrapper and a span recorder, each in its own run, and
/// checks that every one reproduces the plain run's outcome exactly.
pub fn trace_layers(w: Workload, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut o = Outcome::default();
    let cfg = config(w);
    let (trace, ..) = set_up(w, seed, scale, &cfg);
    let Some(plain) = reference(w, seed, scale, &cfg, &trace, &mut o) else {
        return o;
    };
    let expect = Fingerprint::of(&plain);
    let plain_debug = format!("{plain:?}");

    let mut scan_ms = Vec::new();
    let mut remote_edges = 0;
    for _ in 0..SCAN_REPS {
        let t = Instant::now();
        remote_edges = scan(&cfg, &trace);
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let mut s = LayerSamples {
        kind_ms: vec![Vec::new(); EVENT_KINDS.len()],
        ..LayerSamples::default()
    };
    let mut profile = Registry::new();
    let mut calls = 0;
    let identical = |what: &str, out: &ClusterOutcome, o: &mut Outcome| {
        if format!("{out:?}") != plain_debug {
            o.fail(format!(
                "{}: the {what} outcome differs from the plain run's",
                w.name()
            ));
        }
    };
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() > 4.0 * seconds.max(1.0) {
            break;
        }
        round += 1;
        let (_, driver, gen, _) = set_up(w, seed, scale, &cfg);
        s.gen_ms.push(gen * 1e3);
        if let Some((_, wall)) = timed_run(driver, &trace, expect, "plain run", &mut o) {
            s.plain_ms.push(wall.as_secs_f64() * 1e3);
        }

        // Profiler and manager wrapper together.
        let times = Rc::new(ManagerTimes::default());
        let driver = ClusterDriver::new(&cfg, |_| TimingManager::new(nexus(0), Rc::clone(&times)));
        o.attempted += expect.tasks;
        let t = Instant::now();
        let run = guarded(|| driver.run_profiled(&trace));
        let wall_ns = t.elapsed().as_nanos() as f64;
        if let Some((out, reg)) = check_run(run, expect, "profiled run", &mut o) {
            identical("profiled and wrapped", &out, &mut o);
            let handlers_ns: u64 = reg
                .counters_with_prefix("engine.event.")
                .filter(|(k, _)| k.ends_with(".wall_ns"))
                .map(|(_, v)| v)
                .sum();
            s.profiled_ms.push(wall_ns / 1e6);
            s.outside_ms.push((wall_ns - handlers_ns as f64) / 1e6);
            s.manager_frac.push(times.total_ns() as f64 / wall_ns);
            s.submit_ms.push(times.submit_ns.get() as f64 / 1e6);
            s.finish_ms.push(times.finish_ns.get() as f64 / 1e6);
            s.drain_ms.push(times.drain_ns.get() as f64 / 1e6);
            s.can_accept_ms.push(times.can_accept_ns.get() as f64 / 1e6);
            for (i, kind) in EVENT_KINDS.iter().enumerate() {
                let ns = reg.counter(&format!("engine.event.{kind}.wall_ns"));
                s.kind_ms[i].push(ns as f64 / 1e6);
            }
            calls = times.calls.get();
            profile = reg;
        }

        // Span recorder.
        let mut rec = MemRecorder::new(TimeBase::VirtualPs);
        let driver = ClusterDriver::new(&cfg, nexus);
        o.attempted += expect.tasks;
        let t = Instant::now();
        let run = guarded(|| driver.run_recorded(&trace, &mut rec));
        let wall = t.elapsed();
        if let Some((out, wall)) = check_run(run.map(|r| (r, wall)), expect, "recorded run", &mut o)
        {
            identical("recorded", &out, &mut o);
            s.recorded_ms.push(wall.as_secs_f64() * 1e3);
            if round == 1 {
                if let Err(e) = check_conservation(&rec.events) {
                    o.fail(format!("{}: span conservation: {e}", w.name()));
                }
            }
        }
    }

    let m = &mut o.metrics;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("trace.gen_ms", median(&mut s.gen_ms));
    put("trace.tasks", expect.tasks as f64);
    put("routing.scan_ms", median(&mut scan_ms));
    put("routing.remote_edges", remote_edges as f64);
    put("manager.submit_ms", median(&mut s.submit_ms));
    put("manager.finish_ms", median(&mut s.finish_ms));
    put("manager.drain_ms", median(&mut s.drain_ms));
    put("manager.can_accept_ms", median(&mut s.can_accept_ms));
    put("manager.calls", calls as f64);
    put("manager.wall_frac", median(&mut s.manager_frac));
    for key in ["engine.pops", "engine.pushes", "engine.inline_coalesced"] {
        put(key, profile.counter(key) as f64);
    }
    put("engine.outside_handlers_ms", median(&mut s.outside_ms));
    put("engine.profiled_wall_ms", median(&mut s.profiled_ms));
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        let count = profile.counter(&format!("engine.event.{kind}.count"));
        put(&format!("engine.event.{kind}.count"), count as f64);
        put(
            &format!("engine.event.{kind}.wall_ms"),
            median(&mut s.kind_ms[i]),
        );
    }
    put("link.messages", plain.link.messages as f64);
    for tier in LINK_TIERS {
        put(
            &format!("link.words.{tier}"),
            plain.link.tier_words(tier) as f64,
        );
    }
    put("link.wait_us", plain.link.wait_time.as_us_f64());
    let requests = profile.counter("engine.event.steal_request.count");
    let grants = plain.metrics.counter("steal.grants");
    put("steal.requests", requests as f64);
    put("steal.grants", grants as f64);
    put(
        "steal.failures",
        plain.metrics.counter("steal.failures") as f64,
    );
    put(
        "steal.useful_frac",
        if requests == 0 {
            0.0
        } else {
            grants as f64 / requests as f64
        },
    );
    for key in [
        "reclaim.reclaimed",
        "reclaim.failures",
        "load.digest.updates",
    ] {
        put(key, plain.metrics.counter(key) as f64);
    }
    let plain_ms = median(&mut s.plain_ms);
    put(
        "obs.recorder_ratio",
        median(&mut s.recorded_ms) / plain_ms.max(1e-9),
    );
    crate::metrics::not_exercised(m, &["rt."]);
    o
}

//! Pins the exact outcome of the cluster simulator's task-migration paths —
//! work stealing and task-pool reclamation — on three traces that exercise
//! them: the makespan in picoseconds, the event count, every `steal.*`,
//! `reclaim.*`, `notify.sent` and `link.*` registry counter, and a
//! fingerprint of the full span log. The literals were recorded from the
//! simulator while steal and reclaim were still two separate code paths;
//! any change to a victim choice, a batch, a grant order, an arrival rule or
//! an event's position in the queue moves them. Each scenario runs on both
//! event engines, which must agree bit for bit.

use nexus_cluster::{
    ClusterConfig, ClusterDriver, FeedbackKind, LinkConfig, MemRecorder, PolicyKind, StealKind,
    TimeBase, Topology,
};
use nexus_core::NexusSharp;
use nexus_sim::{EngineKind, SimDuration};
use nexus_trace::generators::distributed;
use nexus_trace::Trace;

/// What one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    makespan_ps: u64,
    sim_events: u64,
    /// Every `steal.*`, `reclaim.*`, `notify.sent` and `link.*` counter, in
    /// key order.
    counters: Vec<(String, u64)>,
    spans: usize,
    /// FNV-1a over the `Debug` rendering of every `(at, event)` span pair in
    /// emission order.
    span_fingerprint: u64,
}

fn run(trace: &Trace, cfg: &ClusterConfig) -> Pin {
    let [calendar, heap] = [EngineKind::Calendar, EngineKind::Heap].map(|engine| {
        let mut rec = MemRecorder::new(TimeBase::VirtualPs);
        let out = ClusterDriver::new(&cfg.with_engine(engine), |_| NexusSharp::paper(6))
            .run_recorded(trace, &mut rec);
        assert_eq!(out.tasks as usize, trace.task_count());
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for span in &rec.events {
            for byte in format!("{span:?}").bytes() {
                fingerprint = (fingerprint ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let pinned = ["steal.", "reclaim.", "notify.sent", "link."];
        Pin {
            makespan_ps: out.makespan.as_ps(),
            sim_events: out.sim_events,
            counters: out
                .metrics
                .counters()
                .filter(|(k, _)| pinned.iter().any(|p| k.starts_with(p)))
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            spans: rec.len(),
            span_fingerprint: fingerprint,
        }
    });
    assert_eq!(calendar, heap, "the event engines disagree");
    calendar
}

fn counters(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn hierarchical_steals_on_a_rack_fabric_with_full_feedback() {
    let trace = distributed::sparselu(8, 0.5, 42, 0.01);
    let cfg = ClusterConfig::new(8, 8)
        .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Full);
    let pin = run(&trace, &cfg);
    assert_eq!(
        pin,
        Pin {
            makespan_ps: 282_495_057_981,
            sim_events: 48_472,
            counters: counters(&[
                ("link.messages", 18_044),
                ("link.tier0.messages", 9654),
                ("link.tier0.words", 40_972),
                ("link.tier1.messages", 8390),
                ("link.tier1.words", 39_068),
                ("link.words", 80_040),
                ("notify.sent", 3256),
                ("reclaim.failures", 0),
                ("reclaim.grants", 14),
                ("reclaim.reclaimed", 173),
                ("steal.failures", 0),
                ("steal.grants", 1),
                ("steal.stolen", 1),
            ]),
            spans: 44_218,
            span_fingerprint: 8132478439030008988,
        }
    );
}

#[test]
fn most_loaded_steals_on_a_skewed_trace() {
    let trace = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.25, 42);
    let cfg = ClusterConfig::new(4, 8).with_stealing(StealKind::MostLoaded);
    let pin = run(&trace, &cfg);
    assert_eq!(
        pin,
        Pin {
            makespan_ps: 6_024_982_800,
            sim_events: 18_635,
            counters: counters(&[
                ("link.messages", 4244),
                ("link.tier0.messages", 4244),
                ("link.tier0.words", 16_170),
                ("link.words", 16_170),
                ("notify.sent", 589),
                ("reclaim.failures", 0),
                ("reclaim.grants", 0),
                ("reclaim.reclaimed", 0),
                ("steal.failures", 2),
                ("steal.grants", 222),
                ("steal.stolen", 444),
            ]),
            spans: 15_888,
            span_fingerprint: 10801909615431287193,
        }
    );
}

#[test]
fn reclamation_on_skewed_chains() {
    let trace = distributed::chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
    let cfg = ClusterConfig::new(4, 8)
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Reclaim);
    let pin = run(&trace, &cfg);
    assert_eq!(
        pin,
        Pin {
            makespan_ps: 907_736_400,
            sim_events: 6498,
            counters: counters(&[
                ("link.messages", 1473),
                ("link.tier0.messages", 1473),
                ("link.tier0.words", 4216),
                ("link.words", 4216),
                ("notify.sent", 476),
                ("reclaim.failures", 0),
                ("reclaim.grants", 4),
                ("reclaim.reclaimed", 475),
                ("steal.failures", 111),
                ("steal.grants", 4),
                ("steal.stolen", 32),
            ]),
            spans: 5500,
            span_fingerprint: 6301061925240584621,
        }
    );
}

//! The BENCH_10 behaviour guard: re-runs the seven tracked baseline
//! scenarios (fixed traces and seeds at workload scale 0.01, the paper's
//! Nexus# with 6 task graphs per node) and compares each simulated makespan
//! and event count with the committed `BENCH_10.json`, exactly.
//!
//! The scenario definitions mirror `quick_report --baseline-only`; they are
//! rebuilt here from the public API so the benchmark needs no private code.

use nexus_bench::baseline::Baseline;
use nexus_cluster::{
    simulate_cluster, AdmissionConfig, ClusterConfig, ClusterOutcome, FeedbackKind, LinkConfig,
    PolicyKind, StealKind, Topology,
};
use nexus_core::NexusSharp;
use nexus_flow::{simulate_service, ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;
use std::path::Path;

/// Workload scale of the tracked scenarios.
const SCALE: f64 = 0.01;
/// Trace (and arrival) seed of every tracked scenario.
const SEED: u64 = 42;

/// Runs the tracked scenarios: `(name, makespan_us, sim_events)` each.
pub fn run_scenarios() -> Vec<(&'static str, f64, u64)> {
    let nexus = |_| NexusSharp::paper(6);
    let cfg = |nodes: usize| ClusterConfig::new(nodes, 8);
    let run =
        |name: &'static str, out: ClusterOutcome| (name, out.makespan.as_us_f64(), out.sim_events);
    let local = distributed::sparselu(8, 0.0, SEED, SCALE);
    let halo = distributed::sparselu(8, 0.5, SEED, SCALE);
    let skewed = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.0, SEED);
    let chains = distributed::chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
    let service_trace = distributed::sparselu(4, 0.3, SEED, SCALE);
    let service = ServiceConfig::new(ArrivalConfig::new(
        ArrivalKind::Poisson,
        SimDuration::from_us(40),
        SEED,
    ))
    .with_admission(AdmissionConfig::new(16));
    vec![
        run(
            "sparselu-8d-r0.0-n1-mesh",
            simulate_cluster(&local, &cfg(1), nexus),
        ),
        run(
            "sparselu-8d-r0.0-n8-mesh",
            simulate_cluster(&local, &cfg(8), nexus),
        ),
        run(
            "sparselu-8d-r0.5-n8-mesh",
            simulate_cluster(&halo, &cfg(8), nexus),
        ),
        run(
            "sparselu-8d-r0.5-n8-racktiers-topo-hier",
            simulate_cluster(
                &halo,
                &cfg(8)
                    .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
                    .with_placement(PolicyKind::TopologyAware)
                    .with_stealing(StealKind::Hierarchical),
                nexus,
            ),
        ),
        run(
            "imbalanced-4n-mostloaded",
            simulate_cluster(&skewed, &cfg(4).with_stealing(StealKind::MostLoaded), nexus),
        ),
        run(
            "feedback-imbalanced-n4",
            simulate_cluster(
                &chains,
                &cfg(4)
                    .with_placement(PolicyKind::TopologyAware)
                    .with_stealing(StealKind::Hierarchical)
                    .with_feedback(FeedbackKind::Full),
                nexus,
            ),
        ),
        run(
            "service-poisson-n4-depth16",
            simulate_service(&service_trace, &service, &cfg(4), nexus)
                .stream
                .cluster,
        ),
    ]
}

/// Re-runs the tracked scenarios and compares them with the baseline at
/// `path`. Returns one message per mismatch (empty when every makespan and
/// event count matches exactly), or an error if the baseline is unreadable
/// or a scenario panics.
pub fn check(path: &Path) -> Result<Vec<String>, String> {
    let baseline = Baseline::load(path)?;
    let current = std::panic::catch_unwind(run_scenarios)
        .map_err(|_| "a tracked baseline scenario panicked".to_string())?;
    Ok(compare(&baseline, &current))
}

/// The mismatches between `baseline` and re-run scenario results.
pub fn compare(baseline: &Baseline, current: &[(&str, f64, u64)]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for rec in &baseline.scenarios {
        match current.iter().find(|(name, ..)| *name == rec.name) {
            None => mismatches.push(format!("{}: tracked scenario not re-run", rec.name)),
            Some(&(name, makespan_us, events)) => {
                if makespan_us != rec.makespan_us || events != rec.sim_events {
                    mismatches.push(format!(
                        "{name}: makespan {makespan_us} us / {events} events, \
                         baseline {} us / {} events",
                        rec.makespan_us, rec.sim_events
                    ));
                }
            }
        }
    }
    if baseline.scenarios.len() != current.len() {
        mismatches.push(format!(
            "baseline tracks {} scenarios, the guard re-runs {}",
            baseline.scenarios.len(),
            current.len()
        ));
    }
    mismatches
}

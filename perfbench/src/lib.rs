//! # perfbench — end-to-end and per-layer benchmark of the Nexus# reproduction
//!
//! One command measures three workloads through the public API only:
//!
//! * `sim-local-n8` and `sim-halo-rack-n8` drive the cluster simulator
//!   (`nexus_cluster::ClusterDriver`) with the paper's Nexus# manager on every
//!   node, on node-partitioned sparselu traces;
//! * `rt-stream-n2` drives the live threaded runtime (`nexus_rt`) with a
//!   fixed-window stream of trivial tasks.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) attaches the event-loop profiler, a timing wrapper around the
//! task manager, a span recorder and scanner timing, and reports per-layer
//! metrics. Both check that every output is correct. See `README.md` next to
//! this crate for the workload rationale and the layer → metric map.

pub mod guard;
pub mod metrics;
pub mod references;
pub mod rt_stream;
pub mod sim;
pub mod stats;
pub mod timing;

/// What one benchmark invocation found: the correctness verdict, the task
/// census behind it and the metric values, keyed by the names in
/// [`metrics::END_TO_END`] / [`metrics::PER_LAYER`].
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed and no task failed.
    pub correct: bool,
    /// Tasks the measured runs attempted.
    pub attempted: u64,
    /// Attempted tasks that were not correctly retired.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: metrics::Values,
    /// Human-readable check failures (empty when `correct`).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failed check; the outcome is no longer correct.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.errors.push(msg);
    }

    /// Folds the error list and failure count into the verdict.
    pub fn finish(mut self) -> Outcome {
        self.correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        self
    }
}

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Independent node domains on a full mesh: the manager model dominates.
    SimLocalN8,
    /// Half the tasks read a neighbour's halo on a rack fabric with
    /// stealing and feedback: interconnect and scheduling policies dominate.
    SimHaloRackN8,
    /// The live runtime under a fixed in-flight window of trivial tasks.
    RtStreamN2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimLocalN8,
        Workload::SimHaloRackN8,
        Workload::RtStreamN2,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLocalN8 => "sim-local-n8",
            Workload::SimHaloRackN8 => "sim-halo-rack-n8",
            Workload::RtStreamN2 => "rt-stream-n2",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

//! Pins the simulated timing of both hardware managers on dependence-heavy
//! traces: the exact sequence of [`ManagerEvent`]s, each `(task, at)`, folded
//! into a fingerprint, plus the run's makespan and the structure occupancy
//! that shows the trace really exercises a full Task Pool and long kick-off
//! lists. The literals were recorded from the model before its dependence
//! state moved into the address entries and the Task Pool; any change to a
//! blocker set, a `dependents` order, a release order or a kick-off walk
//! length moves them.

use nexus_core::NexusSharp;
use nexus_host::driver::{simulate, HostConfig};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_pp::NexusPP;
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::generators::{gaussian, micro, sparselu};
use nexus_trace::{TaskDescriptor, TaskId, Trace};

/// Passes every call through and keeps a copy of every drained event.
struct Recording<M> {
    inner: M,
    events: Vec<ManagerEvent>,
}

impl<M: TaskManager> TaskManager for Recording<M> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn can_accept(&self, now: SimTime) -> bool {
        self.inner.can_accept(now)
    }
    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        self.inner.submit(task, now)
    }
    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        self.inner.finish(task, now)
    }
    fn supports_taskwait_on(&self) -> bool {
        self.inner.supports_taskwait_on()
    }
    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        let events = self.inner.drain_events();
        self.events.extend_from_slice(&events);
        events
    }
    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        let start = out.len();
        self.inner.drain_events_into(out);
        self.events.extend_from_slice(&out[start..]);
    }
    fn stats_summary(&self) -> Vec<(String, f64)> {
        self.inner.stats_summary()
    }
}

/// What one replay is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    events: usize,
    /// FNV-1a over `(kind, task, at in ps)` of every event in drain order.
    fingerprint: u64,
    last: ManagerEvent,
    makespan_ps: u64,
    pool_peak: u64,
    max_kickoff: u64,
}

fn replay(trace: &Trace, manager: impl TaskManager, workers: usize) -> Pin {
    let mut rec = Recording {
        inner: manager,
        events: Vec::new(),
    };
    let out = simulate(trace, &mut rec, &HostConfig::with_workers(workers));
    assert_eq!(out.tasks as usize, trace.task_count());
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for e in &rec.events {
        let (kind, task, at) = match *e {
            ManagerEvent::Ready { task, at } => (1u64, task, at),
            ManagerEvent::Retired { task, at } => (2u64, task, at),
        };
        for word in [kind, task.0, at.as_ps()] {
            for byte in word.to_le_bytes() {
                fingerprint = (fingerprint ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let stat = |key: &str| {
        out.manager_stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v as u64)
            .unwrap_or_else(|| panic!("{key} missing from the manager summary"))
    };
    Pin {
        events: rec.events.len(),
        fingerprint,
        last: *rec.events.last().expect("a run drains events"),
        makespan_ps: out.makespan.as_ps(),
        pool_peak: stat("pool_peak_occupancy"),
        max_kickoff: stat("max_kickoff_list"),
    }
}

#[test]
fn nexus_sharp_sparselu_with_a_full_pool() {
    let trace = sparselu::generate(3, 0.05);
    let pin = replay(&trace, NexusSharp::paper(6), 8);
    assert_eq!(
        pin,
        Pin {
            events: 5740,
            fingerprint: 11584591146426887944,
            last: ManagerEvent::Retired {
                task: TaskId(2869),
                at: SimTime::from_ps(259278941891)
            },
            makespan_ps: 259278941891,
            pool_peak: 512,
            max_kickoff: 38,
        }
    );
}

#[test]
fn nexus_sharp_gaussian_long_kickoff_lists() {
    // One worker keeps the pivot-row readers queued behind their producer, so
    // the kick-off walks span several segments.
    let trace = gaussian::generate(60);
    let pin = replay(&trace, NexusSharp::paper(6), 1);
    assert_eq!(
        pin,
        Pin {
            events: 3658,
            fingerprint: 1107898601559966067,
            last: ManagerEvent::Retired {
                task: TaskId(1828),
                at: SimTime::from_ps(428966000)
            },
            makespan_ps: 428966000,
            pool_peak: 125,
            max_kickoff: 43,
        }
    );
}

#[test]
fn nexus_pp_wavefront() {
    let trace = micro::wavefront(10, 16, SimDuration::from_us(20));
    let pin = replay(&trace, NexusPP::paper(), 16);
    assert_eq!(
        pin,
        Pin {
            events: 320,
            fingerprint: 3089291311484776007,
            last: ManagerEvent::Retired {
                task: TaskId(159),
                at: SimTime::from_ps(691920000)
            },
            makespan_ps: 691920000,
            pool_peak: 160,
            max_kickoff: 2,
        }
    );
}

#[test]
fn nexus_pp_gaussian() {
    let trace = gaussian::generate(60);
    let pin = replay(&trace, NexusPP::paper(), 16);
    assert_eq!(
        pin,
        Pin {
            events: 3658,
            fingerprint: 2558385883438163853,
            last: ManagerEvent::Retired {
                task: TaskId(1828),
                at: SimTime::from_ps(589236000)
            },
            makespan_ps: 589236000,
            pool_peak: 256,
            max_kickoff: 57,
        }
    );
}

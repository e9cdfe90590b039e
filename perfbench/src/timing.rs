//! A [`TaskManager`] wrapper that times every call into the manager model.
//!
//! Passed as the cluster driver's `make_manager`, it charges the wall time
//! of `submit`, `finish`, the event drains and `can_accept` to one shared
//! [`ManagerTimes`] across all nodes. It forwards every call unchanged, so a
//! wrapped run's outcome is identical to a bare one (the traced run checks
//! it, and so does `tests/contract.rs`).

use nexus_host::{ManagerEvent, TaskManager};
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Accumulated wall time (ns) per manager entry point, plus the call count.
#[derive(Debug, Default)]
pub struct ManagerTimes {
    /// `TaskManager::submit`.
    pub submit_ns: Cell<u64>,
    /// `TaskManager::finish`.
    pub finish_ns: Cell<u64>,
    /// `TaskManager::drain_events` / `drain_events_into`.
    pub drain_ns: Cell<u64>,
    /// `TaskManager::can_accept`.
    pub can_accept_ns: Cell<u64>,
    /// Calls to the four entry points above.
    pub calls: Cell<u64>,
}

impl ManagerTimes {
    fn charge(&self, slot: &Cell<u64>, since: Instant) {
        slot.set(slot.get() + since.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    /// Total timed wall time, in ns.
    pub fn total_ns(&self) -> u64 {
        self.submit_ns.get() + self.finish_ns.get() + self.drain_ns.get() + self.can_accept_ns.get()
    }
}

/// Times every call into `inner` (see the module docs).
pub struct TimingManager<M> {
    inner: M,
    times: Rc<ManagerTimes>,
}

impl<M> TimingManager<M> {
    /// Wraps `inner`, charging its calls to `times`.
    pub fn new(inner: M, times: Rc<ManagerTimes>) -> Self {
        TimingManager { inner, times }
    }
}

impl<M: TaskManager> TaskManager for TimingManager<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn can_accept(&self, now: SimTime) -> bool {
        let t = Instant::now();
        let ok = self.inner.can_accept(now);
        self.times.charge(&self.times.can_accept_ns, t);
        ok
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        let t = Instant::now();
        let at = self.inner.submit(task, now);
        self.times.charge(&self.times.submit_ns, t);
        at
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        let t = Instant::now();
        let at = self.inner.finish(task, now);
        self.times.charge(&self.times.finish_ns, t);
        at
    }

    fn dispatch_cost(&mut self, task: TaskId, now: SimTime) -> SimDuration {
        self.inner.dispatch_cost(task, now)
    }

    fn supports_taskwait_on(&self) -> bool {
        self.inner.supports_taskwait_on()
    }

    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        let t = Instant::now();
        let events = self.inner.drain_events();
        self.times.charge(&self.times.drain_ns, t);
        events
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        let t = Instant::now();
        self.inner.drain_events_into(out);
        self.times.charge(&self.times.drain_ns, t);
    }

    fn stats_summary(&self) -> Vec<(String, f64)> {
        self.inner.stats_summary()
    }
}

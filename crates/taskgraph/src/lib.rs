//! # nexus-taskgraph — task-graph storage and dependency tracking
//!
//! This crate implements the data structures both hardware task managers are
//! built from (§III and §IV-C of the paper):
//!
//! * [`SetAssocTable`] — the "set-associative cache-like structure" that maps a
//!   parameter memory address to its tracking entry, with a bounded number of
//!   ways per set and an overflow (dummy-entry) area,
//! * [`KickOffList`] — the per-address list of tasks waiting for the address,
//!   segmented with dummy-entry chaining so its length is not statically
//!   limited (the property the Gaussian-elimination benchmark validates),
//! * [`DependencyTracker`] — the functional dependency-resolution core: full
//!   OmpSs `in`/`out`/`inout` semantics per address, reporting for every
//!   parameter insertion whether the task must wait and, on task retirement,
//!   which waiting tasks become released,
//! * [`ReferenceGraph`] — a deliberately simple software dependency graph used
//!   as a test oracle and by the software-runtime (Nanos) model,
//! * [`TaskPool`] — the bounded in-flight task storage of the managers,
//!   supporting both free-list and in-order (circular-buffer) retirement,
//! * [`DepCountsTable`] — the per-task outstanding-dependence counters
//!   gathered by the Dependence Counts Arbiter.
//!
//! ## Storage layout
//!
//! The managers' event hot path allocates nothing once the structures have
//! reached their peak occupancy, and each fact is stored once:
//!
//! * a [`SetAssocTable`] keeps its `sets × ways` entries in one contiguous
//!   array, set after set, as the ways of a hardware set sit side by side,
//!   with a fill count per set: the first `fill` slots of a set are live, a
//!   lookup compares that short run of address tags, and a removal moves the
//!   set's last live way into the freed slot. Only overflow (dummy) entries
//!   live in a separate hash map;
//! * an address entry of the [`DependencyTracker`] holds its outstanding
//!   accesses as a vector in insertion order. Each access records its task,
//!   whether it writes, its `dependents` (the tasks that wait for it to
//!   retire, in insertion order) and its own remaining-blocker count, which
//!   is non-zero while the task sits in the address's kick-off list. The most
//!   recent writer is the last writing access, and a retirement finds its
//!   dependents in one left-to-right pass from its own position;
//! * the `dependents` lists of a tracker are chains through one arena of
//!   cells, and a retired access returns its whole chain to the arena's free
//!   chain, so a list costs no allocation of its own;
//! * the [`TaskPool`] holds the one copy of each in-flight task's
//!   input/output list, which the finished-task cleanup reads back;
//! * emptied access lists and parameter lists are kept for reuse, and
//!   [`DependencyTracker::retire_param_into`] appends released tasks to a
//!   buffer the caller reuses.

#![warn(missing_docs)]

pub mod assoc;
pub mod depcounts;
pub mod kickoff;
pub mod refgraph;
pub mod taskpool;
pub mod tracker;

pub use assoc::{SetAssocConfig, SetAssocTable};
pub use depcounts::DepCountsTable;
pub use kickoff::KickOffList;
pub use refgraph::ReferenceGraph;
pub use taskpool::{PoolFull, RetirementOrder, TaskPool};
pub use tracker::{DependencyTracker, InsertOutcome, RetireOutcome, Retirement};

/// Convenience prelude.
pub mod prelude {
    pub use crate::assoc::{SetAssocConfig, SetAssocTable};
    pub use crate::depcounts::DepCountsTable;
    pub use crate::kickoff::KickOffList;
    pub use crate::refgraph::ReferenceGraph;
    pub use crate::taskpool::{PoolFull, RetirementOrder, TaskPool};
    pub use crate::tracker::{DependencyTracker, InsertOutcome, RetireOutcome, Retirement};
}

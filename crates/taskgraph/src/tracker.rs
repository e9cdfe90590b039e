//! The functional dependency-resolution core shared by the hardware models.
//!
//! A [`DependencyTracker`] owns the per-address state for a *subset* of the
//! address space: the single central task graph of Nexus++ owns all addresses,
//! while each Nexus# task graph owns the addresses its distribution function
//! maps to it. The tracker implements full OmpSs dependency semantics:
//!
//! * an `in` parameter waits for the most recent unretired *writer* of the
//!   address (read-after-write),
//! * an `out`/`inout` parameter waits for every unretired earlier access of the
//!   address (write-after-write and write-after-read),
//!
//! and reports, per parameter insertion, whether the task has to wait
//! ([`InsertOutcome`]) and, per parameter retirement, which waiting tasks lost
//! their last blocker on this address
//! ([`DependencyTracker::retire_param_into`]). The caller (the
//! task-graph unit or the Dependence Counts Arbiter) aggregates these
//! per-address events into per-task dependence counts.
//!
//! Storage is the paper's set-associative table ([`SetAssocTable`]); overflow
//! (dummy-entry) usage and kick-off-list segment chaining are reported so the
//! timing models can charge extra cycles for them.

use crate::assoc::{Placement, SetAssocConfig, SetAssocTable};
use crate::kickoff::DEFAULT_SEGMENT_CAPACITY;
use nexus_trace::{Direction, TaskId};
use serde::{Deserialize, Serialize};

/// One outstanding (unretired) access by one task parameter.
#[derive(Debug, Clone)]
struct Access {
    task: TaskId,
    writes: bool,
    /// Earlier accesses of this address this parameter still waits for;
    /// non-zero while the task sits in the address's kick-off list.
    blockers: u32,
    /// Tasks whose parameter on this address waits for this access to retire,
    /// in insertion order.
    dependents: DependentList,
}

/// End of a [`DependentList`] chain.
const NIL: u32 = u32::MAX;

/// A list of dependents, chained through the tracker's [`Links`] arena.
#[derive(Debug, Clone, Copy)]
struct DependentList {
    head: u32,
    tail: u32,
    len: u32,
}

impl DependentList {
    const EMPTY: DependentList = DependentList {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// One arena cell: a dependent and the next cell of its list.
#[derive(Debug, Clone, Copy)]
struct Link {
    task: TaskId,
    next: u32,
}

/// The arena every dependent list of a tracker is chained through, with a
/// free chain of retired cells, so a list costs no allocation of its own.
#[derive(Debug, Clone)]
struct Links {
    cells: Vec<Link>,
    free: u32,
}

impl Links {
    /// Appends `task` to `list`.
    fn push(&mut self, list: &mut DependentList, task: TaskId) {
        let cell = Link { task, next: NIL };
        let at = if self.free == NIL {
            self.cells.push(cell);
            u32::try_from(self.cells.len() - 1).expect("more than u32::MAX dependents")
        } else {
            let at = self.free;
            self.free = self.cells[at as usize].next;
            self.cells[at as usize] = cell;
            at
        };
        if list.tail == NIL {
            list.head = at;
        } else {
            self.cells[list.tail as usize].next = at;
        }
        list.tail = at;
        list.len += 1;
    }

    /// Returns every cell of `list` to the free chain.
    fn release(&mut self, list: DependentList) {
        if list.tail != NIL {
            self.cells[list.tail as usize].next = self.free;
            self.free = list.head;
        }
    }
}

/// Per-address tracking state.
#[derive(Debug, Clone, Default)]
struct AddrState {
    /// Outstanding accesses in insertion order, oldest first. Retirement
    /// keeps the order, so every access's dependents sit after it, in the
    /// order of its `dependents` list.
    outstanding: Vec<Access>,
    /// Number of tasks currently waiting on this address (the kick-off list
    /// occupancy).
    kickoff_len: usize,
}

impl AddrState {
    fn kickoff_segments(&self) -> usize {
        self.kickoff_len.div_ceil(DEFAULT_SEGMENT_CAPACITY)
    }
}

/// Result of inserting one task parameter into the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertOutcome {
    /// True if the parameter has unresolved predecessors (the task must wait
    /// for this address).
    pub blocked: bool,
    /// True if a new address entry had to be allocated.
    pub new_entry: bool,
    /// True if the entry lives in the overflow (dummy-entry) area.
    pub overflow: bool,
    /// Kick-off-list segment the waiter landed in (0 if not blocked);
    /// segments beyond the first model dummy-entry chaining cycles.
    pub kickoff_segment: usize,
}

/// What retiring one task parameter cost; the released tasks go to the
/// caller's buffer (see [`DependencyTracker::retire_param_into`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Retirement {
    /// True if the address entry became empty and was freed.
    pub entry_freed: bool,
    /// Number of waiters examined while walking the kick-off list (for timing).
    pub waiters_scanned: usize,
}

/// Result of retiring one task parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireOutcome {
    /// Tasks whose dependency *on this address* became fully resolved.
    pub released: Vec<TaskId>,
    /// True if the address entry became empty and was freed.
    pub entry_freed: bool,
    /// Number of waiters examined while walking the kick-off list (for timing).
    pub waiters_scanned: usize,
}

/// Statistics of a dependency tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrackerStats {
    /// Parameters inserted.
    pub params_inserted: u64,
    /// Parameters that had to wait.
    pub params_blocked: u64,
    /// Parameters retired.
    pub params_retired: u64,
    /// Largest kick-off list observed.
    pub max_kickoff_len: usize,
    /// Largest number of outstanding accesses on one address.
    pub max_accesses_per_addr: usize,
}

/// Dependency tracker over a (subset of the) address space.
#[derive(Debug, Clone)]
pub struct DependencyTracker {
    table: SetAssocTable<AddrState>,
    /// Emptied access lists of freed entries, reused by later entries.
    spare_entries: Vec<Vec<Access>>,
    /// The cells of every access's `dependents` list.
    links: Links,
    stats: TrackerStats,
}

impl DependencyTracker {
    /// Creates a tracker with the given table geometry.
    pub fn new(config: SetAssocConfig) -> Self {
        DependencyTracker {
            table: SetAssocTable::new(config),
            spare_entries: Vec::new(),
            links: Links {
                cells: Vec::new(),
                free: NIL,
            },
            stats: TrackerStats::default(),
        }
    }

    /// Creates a tracker with the default geometry.
    pub fn with_default_geometry() -> Self {
        Self::new(SetAssocConfig::default())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }

    /// Number of live address entries.
    pub fn live_addresses(&self) -> usize {
        self.table.len()
    }

    /// Underlying table statistics (occupancy, overflow usage).
    pub fn table_stats(&self) -> crate::assoc::TableStats {
        self.table.stats()
    }

    /// Inserts one parameter of `task` into the graph.
    ///
    /// Parameters must be inserted in task submission order per address (the
    /// managers guarantee this by processing requests in order per task graph).
    pub fn insert_param(&mut self, task: TaskId, addr: u64, dir: Direction) -> InsertOutcome {
        self.stats.params_inserted += 1;
        let spare_entries = &mut self.spare_entries;
        let (state, placement, new_entry) = self.table.get_or_insert_with(addr, || AddrState {
            outstanding: spare_entries.pop().unwrap_or_default(),
            kickoff_len: 0,
        });
        debug_assert!(
            !state.outstanding.iter().any(|a| a.task == task),
            "{task} inserted two parameters on address {addr:#x}"
        );

        // Register this parameter with every outstanding access that blocks it.
        let writes = dir.writes();
        let links = &mut self.links;
        let blockers = if writes {
            // WAW + WAR: wait for every outstanding access.
            for access in &mut state.outstanding {
                links.push(&mut access.dependents, task);
            }
            state.outstanding.len()
        } else if let Some(writer) = state.outstanding.iter_mut().rev().find(|a| a.writes) {
            // RAW: wait for the most recent outstanding writer only.
            links.push(&mut writer.dependents, task);
            1
        } else {
            0
        };

        let blocked = blockers > 0;
        let mut kickoff_segment = 0;
        if blocked {
            self.stats.params_blocked += 1;
            state.kickoff_len += 1;
            kickoff_segment = state.kickoff_segments();
        }

        // Record this task's own access so later tasks can depend on it.
        state.outstanding.push(Access {
            task,
            writes,
            blockers: blockers as u32,
            dependents: DependentList::EMPTY,
        });

        self.stats.max_kickoff_len = self.stats.max_kickoff_len.max(state.kickoff_len);
        self.stats.max_accesses_per_addr = self
            .stats
            .max_accesses_per_addr
            .max(state.outstanding.len());

        InsertOutcome {
            blocked,
            new_entry,
            overflow: placement == Placement::Overflow,
            kickoff_segment,
        }
    }

    /// Retires one parameter of `task` (the task has finished executing and the
    /// manager is cleaning up its entries) and appends to `released`, in
    /// kick-off-list order, the tasks whose dependency on this address is now
    /// fully resolved. The hot path allocates nothing once the tracker has
    /// seen its peak occupancy.
    ///
    /// A task may retire while it still waits on `addr` (its blockers retire
    /// later); it then leaves the kick-off list at once and its blockers skip
    /// it, so the list length stays exact.
    pub fn retire_param_into(
        &mut self,
        task: TaskId,
        addr: u64,
        released: &mut Vec<TaskId>,
    ) -> Retirement {
        self.stats.params_retired += 1;
        let Some((state, _)) = self.table.get_mut(addr) else {
            debug_assert!(false, "retire_param: no entry for address {addr:#x}");
            return Retirement::default();
        };
        let Some(pos) = state.outstanding.iter().position(|a| a.task == task) else {
            debug_assert!(false, "retire_param: {task} has no access on {addr:#x}");
            return Retirement::default();
        };
        let access = state.outstanding.remove(pos);
        if access.blockers > 0 {
            debug_assert!(state.kickoff_len > 0, "{task} waits on {addr:#x} uncounted");
            state.kickoff_len -= 1;
        }

        // Dependents were inserted after this access, in list order, so one
        // left-to-right pass from its old position finds them all.
        let mut cursor = pos;
        let mut link = access.dependents.head;
        while link != NIL {
            let Link { task: dep, next } = self.links.cells[link as usize];
            link = next;
            let Some(offset) = state.outstanding[cursor..]
                .iter()
                .position(|a| a.task == dep)
            else {
                continue; // `dep` already retired out of order
            };
            cursor += offset;
            let waiter = &mut state.outstanding[cursor];
            debug_assert!(waiter.blockers > 0, "{dep} released twice on {addr:#x}");
            waiter.blockers -= 1;
            if waiter.blockers == 0 {
                state.kickoff_len -= 1;
                released.push(dep);
            }
            cursor += 1;
        }
        let waiters_scanned = access.dependents.len as usize;
        self.links.release(access.dependents);

        let entry_freed = state.outstanding.is_empty();
        if entry_freed {
            debug_assert_eq!(state.kickoff_len, 0, "waiters left on a freed entry");
            if let Some(entry) = self.table.remove(addr) {
                self.spare_entries.push(entry.outstanding);
            }
        }

        Retirement {
            entry_freed,
            waiters_scanned,
        }
    }

    /// [`DependencyTracker::retire_param_into`] with a fresh `released` list.
    pub fn retire_param(&mut self, task: TaskId, addr: u64, _dir: Direction) -> RetireOutcome {
        let mut released = Vec::new();
        let r = self.retire_param_into(task, addr, &mut released);
        RetireOutcome {
            released,
            entry_freed: r.entry_freed,
            waiters_scanned: r.waiters_scanned,
        }
    }

    /// True if `task` still waits on `addr`.
    pub fn is_waiting(&self, task: TaskId, addr: u64) -> bool {
        self.table
            .get(addr)
            .and_then(|(s, _)| s.outstanding.iter().find(|a| a.task == task))
            .is_some_and(|a| a.blockers > 0)
    }

    /// Current kick-off-list length of an address (0 if untracked).
    pub fn kickoff_len(&self, addr: u64) -> usize {
        self.table
            .get(addr)
            .map(|(s, _)| s.kickoff_len)
            .unwrap_or(0)
    }

    /// Number of outstanding accesses on an address (0 if untracked).
    pub fn outstanding_accesses(&self, addr: u64) -> usize {
        self.table
            .get(addr)
            .map(|(s, _)| s.outstanding.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TaskId {
        TaskId(id)
    }

    #[test]
    fn raw_dependency_is_tracked_and_released() {
        let mut g = DependencyTracker::with_default_geometry();
        // T0 writes A, T1 reads A => T1 waits for T0.
        let a = 0x1000;
        let o0 = g.insert_param(t(0), a, Direction::Out);
        assert!(!o0.blocked);
        assert!(o0.new_entry);
        let o1 = g.insert_param(t(1), a, Direction::In);
        assert!(o1.blocked);
        assert_eq!(o1.kickoff_segment, 1);
        assert!(g.is_waiting(t(1), a));
        assert_eq!(g.kickoff_len(a), 1);

        let r = g.retire_param(t(0), a, Direction::Out);
        assert_eq!(r.released, vec![t(1)]);
        assert!(!g.is_waiting(t(1), a));
        assert!(!r.entry_freed, "T1's own access is still outstanding");
        let r1 = g.retire_param(t(1), a, Direction::In);
        assert!(r1.entry_freed);
        assert_eq!(g.live_addresses(), 0);
    }

    #[test]
    fn concurrent_readers_do_not_block_each_other() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x2000;
        g.insert_param(t(0), a, Direction::Out);
        g.retire_param(t(0), a, Direction::Out);
        // Writer retired: two readers arrive, neither blocks.
        assert!(!g.insert_param(t(1), a, Direction::In).blocked);
        assert!(!g.insert_param(t(2), a, Direction::In).blocked);
    }

    #[test]
    fn war_dependency_waits_for_all_readers() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x3000;
        g.insert_param(t(0), a, Direction::Out);
        g.retire_param(t(0), a, Direction::Out);
        g.insert_param(t(1), a, Direction::In);
        g.insert_param(t(2), a, Direction::In);
        // A writer after two outstanding readers waits for both.
        let o = g.insert_param(t(3), a, Direction::InOut);
        assert!(o.blocked);
        let r1 = g.retire_param(t(1), a, Direction::In);
        assert!(r1.released.is_empty(), "still blocked by the second reader");
        let r2 = g.retire_param(t(2), a, Direction::In);
        assert_eq!(r2.released, vec![t(3)]);
    }

    #[test]
    fn waw_chain_serializes() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x4000;
        assert!(!g.insert_param(t(0), a, Direction::InOut).blocked);
        assert!(g.insert_param(t(1), a, Direction::InOut).blocked);
        assert!(g.insert_param(t(2), a, Direction::InOut).blocked);
        // Retiring T0 releases T1 but not T2 (T2 also waits on T1).
        let r = g.retire_param(t(0), a, Direction::InOut);
        assert_eq!(r.released, vec![t(1)]);
        assert!(g.is_waiting(t(2), a));
        let r = g.retire_param(t(1), a, Direction::InOut);
        assert_eq!(r.released, vec![t(2)]);
    }

    #[test]
    fn reader_only_waits_for_most_recent_writer() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x5000;
        g.insert_param(t(0), a, Direction::Out); // writer 1 (outstanding)
        g.insert_param(t(1), a, Direction::Out); // writer 2 (outstanding, waits on writer 1)
        let o = g.insert_param(t(2), a, Direction::In);
        assert!(o.blocked);
        // Retiring writer 2 releases the reader even though writer 1 is still
        // outstanding: the reader's only blocker is the most recent writer.
        // (Writer 2 could not have run before writer 1 retired, so in a real
        // execution this ordering cannot happen; the tracker is still safe.)
        let r = g.retire_param(t(1), a, Direction::Out);
        assert!(r.released.contains(&t(2)));
    }

    #[test]
    fn out_of_order_retirement_keeps_the_kickoff_list_exact() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x5800;
        g.insert_param(t(0), a, Direction::Out);
        assert!(g.insert_param(t(1), a, Direction::Out).blocked);
        assert!(g.insert_param(t(2), a, Direction::In).blocked);
        assert_eq!(g.kickoff_len(a), 2);
        // Writer 2 retires while it still waits on writer 1: it leaves the
        // kick-off list itself and releases the reader.
        let r = g.retire_param(t(1), a, Direction::Out);
        assert_eq!(r.released, vec![t(2)]);
        assert_eq!(g.kickoff_len(a), 0);
        assert!(!g.is_waiting(t(1), a));
        // Writer 1 then finds its only dependent gone: it scans it, releases
        // nothing and the list length does not underflow.
        let r = g.retire_param(t(0), a, Direction::Out);
        assert!(r.released.is_empty());
        assert_eq!(r.waiters_scanned, 1);
        assert_eq!(g.kickoff_len(a), 0);
        assert!(!r.entry_freed, "the reader is still outstanding");
        assert!(g.retire_param(t(2), a, Direction::In).entry_freed);
        assert_eq!(g.live_addresses(), 0);
    }

    #[test]
    fn waiters_scanned_counts_dependents_that_stay_blocked() {
        // A writer queued behind N readers sits in the producer's kick-off
        // list and in every reader's: each walk scans it, only the last one
        // releases it.
        const N: u64 = 5;
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x6000;
        g.insert_param(t(0), a, Direction::Out);
        for i in 1..=N {
            assert!(g.insert_param(t(i), a, Direction::In).blocked);
        }
        let w = t(N + 1);
        assert!(g.insert_param(w, a, Direction::Out).blocked);
        assert_eq!(g.kickoff_len(a), N as usize + 1);

        let r = g.retire_param(t(0), a, Direction::Out);
        assert_eq!(r.released, (1..=N).map(t).collect::<Vec<_>>());
        assert_eq!(r.waiters_scanned, N as usize + 1);
        assert!(g.is_waiting(w, a));
        for i in 1..N {
            let r = g.retire_param(t(i), a, Direction::In);
            assert!(r.released.is_empty());
            assert_eq!(r.waiters_scanned, 1);
        }
        let r = g.retire_param(t(N), a, Direction::In);
        assert_eq!(r.released, vec![w]);
        assert_eq!(r.waiters_scanned, 1);
        assert_eq!(g.kickoff_len(a), 0);
    }

    #[test]
    fn retire_into_appends_to_the_callers_buffer() {
        let mut g = DependencyTracker::with_default_geometry();
        let (a, b) = (0x8000, 0x8040);
        g.insert_param(t(0), a, Direction::Out);
        g.insert_param(t(0), b, Direction::Out);
        g.insert_param(t(1), a, Direction::In);
        g.insert_param(t(2), b, Direction::In);
        let mut released = Vec::new();
        g.retire_param_into(t(0), a, &mut released);
        let r = g.retire_param_into(t(0), b, &mut released);
        assert_eq!(released, vec![t(1), t(2)]);
        assert_eq!(
            r,
            Retirement {
                entry_freed: false,
                waiters_scanned: 1
            }
        );
    }

    #[test]
    fn long_kickoff_lists_report_segments() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x7000;
        g.insert_param(t(0), a, Direction::Out);
        let mut max_seg = 0;
        for i in 1..=100 {
            let o = g.insert_param(t(i), a, Direction::In);
            assert!(o.blocked);
            max_seg = max_seg.max(o.kickoff_segment);
        }
        assert!(max_seg >= 100 / DEFAULT_SEGMENT_CAPACITY);
        assert_eq!(g.kickoff_len(a), 100);
        // Retiring the producer releases all 100 readers at once.
        let r = g.retire_param(t(0), a, Direction::Out);
        assert_eq!(r.released.len(), 100);
        assert_eq!(r.waiters_scanned, 100);
        assert_eq!(g.stats().max_kickoff_len, 100);
    }

    #[test]
    fn stats_accumulate() {
        let mut g = DependencyTracker::with_default_geometry();
        g.insert_param(t(0), 0x10, Direction::Out);
        g.insert_param(t(1), 0x10, Direction::In);
        g.insert_param(t(1), 0x20, Direction::Out);
        let s = g.stats();
        assert_eq!(s.params_inserted, 3);
        assert_eq!(s.params_blocked, 1);
        assert_eq!(g.outstanding_accesses(0x10), 2);
        assert_eq!(g.outstanding_accesses(0x999), 0);
        assert_eq!(g.live_addresses(), 2);
    }

    #[test]
    fn overflow_placement_is_reported() {
        let mut g = DependencyTracker::new(SetAssocConfig {
            sets: 2,
            ways: 1,
            line_offset_bits: 6,
        });
        // Four distinct addresses mapping to the two sets: the third and fourth
        // allocations overflow.
        let outcomes: Vec<_> = (0..4u64)
            .map(|i| g.insert_param(t(i), i * 64, Direction::Out))
            .collect();
        assert!(outcomes.iter().filter(|o| o.overflow).count() >= 2);
        // Entries are freed on retirement even from the overflow area.
        for i in 0..4u64 {
            g.retire_param(t(i), i * 64, Direction::Out);
        }
        assert_eq!(g.live_addresses(), 0);
    }
}

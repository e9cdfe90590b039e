//! The Task Pool: bounded storage for in-flight task descriptors.
//!
//! "After having distributed all the memory addresses in the new task's
//! input/output list, the Input Parser stores the new task in the Task Pool.
//! This is important at the end of a task's life cycle; i.e., after running it
//! … the Input Parser will read its input/output list from the Task Pool, and
//! distribute them subsequently" (§IV-B).
//!
//! The pool holds the one copy of each in-flight task's input/output list
//! that the manager keeps: [`TaskPool::admit`] copies the list in, the
//! finished-task cleanup reads it back through [`TaskPool::params`], and
//! [`TaskPool::finish`] keeps its buffer for the next admission, so the pool
//! stops allocating once it has been full.
//!
//! The pool is a fixed-size hardware structure: when it is full the manager
//! back-pressures the submitting runtime. Two retirement disciplines are
//! modelled:
//!
//! * [`RetirementOrder::FreeList`] — any finished slot is immediately reusable
//!   (Nexus#),
//! * [`RetirementOrder::InOrder`] — slots are recycled in allocation order
//!   (a circular buffer, the simpler hardware used by the Nexus++ baseline);
//!   a long-running early task then blocks slot reuse (head-of-line blocking),
//!   which is one of the structural reasons the central design falls behind on
//!   irregular workloads.

use nexus_sim::FxHashMap;
use nexus_trace::{TaskDescriptor, TaskId, TaskParam};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Slot recycling discipline of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetirementOrder {
    /// Finished slots are reusable immediately (free-list allocation).
    FreeList,
    /// Slots are recycled strictly in allocation order (circular buffer).
    InOrder,
}

/// Occupancy statistics of the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskPoolStats {
    /// Tasks ever admitted.
    pub admitted: u64,
    /// Tasks retired (slot made reusable).
    pub recycled: u64,
    /// Admission attempts rejected because the pool was full.
    pub rejections: u64,
    /// Peak occupancy.
    pub peak_occupancy: usize,
}

/// Admission refused because every slot is occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull;

/// A bounded pool of in-flight task descriptors.
#[derive(Debug, Clone)]
pub struct TaskPool {
    capacity: usize,
    order: RetirementOrder,
    /// Input/output lists of admitted, unfinished tasks.
    params: FxHashMap<TaskId, Vec<TaskParam>>,
    /// Emptied lists of finished tasks, reused by later admissions.
    spare: Vec<Vec<TaskParam>>,
    /// Occupied slots (admitted and not yet recycled).
    occupied: usize,
    /// Allocation order — maintained only under in-order recycling (free-list
    /// slots have no positional identity, so keeping this queue would cost an
    /// O(occupancy) scan per retirement for nothing).
    fifo: VecDeque<TaskId>,
    /// Tasks finished but whose slot is not yet recyclable (in-order mode only).
    finished_pending: FxHashMap<TaskId, ()>,
    stats: TaskPoolStats,
}

impl TaskPool {
    /// Creates a pool with the given capacity and retirement discipline.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, order: RetirementOrder) -> Self {
        assert!(capacity > 0, "task pool capacity must be non-zero");
        TaskPool {
            capacity,
            order,
            params: FxHashMap::default(),
            spare: Vec::new(),
            occupied: 0,
            fifo: VecDeque::with_capacity(capacity),
            finished_pending: FxHashMap::default(),
            stats: TaskPoolStats::default(),
        }
    }

    /// Pool capacity in tasks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retirement discipline.
    pub fn order(&self) -> RetirementOrder {
        self.order
    }

    /// Number of occupied slots (admitted and not yet recycled).
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// True if a new task can be admitted right now.
    pub fn has_free_slot(&self) -> bool {
        self.occupancy() < self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TaskPoolStats {
        self.stats
    }

    /// Admits a task, storing a copy of its input/output list.
    pub fn admit(&mut self, task: &TaskDescriptor) -> Result<(), PoolFull> {
        if !self.has_free_slot() {
            self.stats.rejections += 1;
            return Err(PoolFull);
        }
        self.stats.admitted += 1;
        let id = task.id;
        let mut list = self.spare.pop().unwrap_or_default();
        list.extend_from_slice(&task.params);
        let previous = self.params.insert(id, list);
        debug_assert!(previous.is_none(), "{id} admitted twice");
        self.occupied += 1;
        if self.order == RetirementOrder::InOrder {
            self.fifo.push_back(id);
        }
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
        Ok(())
    }

    /// The input/output list of an unfinished task, as admitted.
    pub fn params(&self, id: TaskId) -> Option<&[TaskParam]> {
        self.params.get(&id).map(Vec::as_slice)
    }

    /// Marks a task as finished, drops its input/output list and recycles
    /// whatever slots the retirement discipline allows. Returns the number of
    /// slots made reusable by this call (0 is possible under in-order
    /// recycling when an older task is still running).
    pub fn finish(&mut self, id: TaskId) -> usize {
        match self.params.remove(&id) {
            Some(mut list) => {
                list.clear();
                self.spare.push(list);
            }
            None => debug_assert!(false, "finishing unknown task {id}"),
        }
        match self.order {
            RetirementOrder::FreeList => {
                self.occupied -= 1;
                self.stats.recycled += 1;
                1
            }
            RetirementOrder::InOrder => {
                self.finished_pending.insert(id, ());
                let mut recycled = 0;
                while let Some(&head) = self.fifo.front() {
                    if self.finished_pending.remove(&head).is_some() {
                        self.fifo.pop_front();
                        self.occupied -= 1;
                        recycled += 1;
                    } else {
                        break;
                    }
                }
                self.stats.recycled += recycled as u64;
                recycled
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimDuration;

    fn task(id: u64) -> TaskDescriptor {
        TaskDescriptor::builder(id)
            .inout(0x1000 + id * 64)
            .duration(SimDuration::from_us(1))
            .build()
    }

    #[test]
    fn free_list_recycles_immediately() {
        let mut p = TaskPool::new(2, RetirementOrder::FreeList);
        p.admit(&task(0)).unwrap();
        p.admit(&task(1)).unwrap();
        assert!(!p.has_free_slot());
        assert!(p.admit(&task(2)).is_err());
        assert_eq!(p.stats().rejections, 1);
        // Finishing the *second* task frees a slot immediately.
        assert_eq!(p.finish(TaskId(1)), 1);
        assert!(p.has_free_slot());
        p.admit(&task(2)).unwrap();
        assert_eq!(p.occupancy(), 2);
        assert_eq!(p.params(TaskId(0)), Some(&task(0).params[..]));
        assert!(p.params(TaskId(1)).is_none());
    }

    #[test]
    fn in_order_recycling_suffers_head_of_line_blocking() {
        let mut p = TaskPool::new(3, RetirementOrder::InOrder);
        p.admit(&task(0)).unwrap();
        p.admit(&task(1)).unwrap();
        p.admit(&task(2)).unwrap();
        // Tasks 1 and 2 finish, but task 0 (the head) is still running:
        // no slot can be recycled.
        assert_eq!(p.finish(TaskId(1)), 0);
        assert_eq!(p.finish(TaskId(2)), 0);
        assert!(!p.has_free_slot());
        // Their lists are gone even though their slots are not yet free.
        assert!(p.params(TaskId(1)).is_none());
        assert!(p.params(TaskId(0)).is_some());
        // When the head finishes, all three slots recycle at once.
        assert_eq!(p.finish(TaskId(0)), 3);
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.stats().recycled, 3);
    }

    #[test]
    fn peak_occupancy_is_tracked() {
        let mut p = TaskPool::new(8, RetirementOrder::FreeList);
        for i in 0..5 {
            p.admit(&task(i)).unwrap();
        }
        for i in 0..5 {
            p.finish(TaskId(i));
        }
        assert_eq!(p.stats().peak_occupancy, 5);
        assert_eq!(p.stats().admitted, 5);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = TaskPool::new(0, RetirementOrder::FreeList);
    }
}

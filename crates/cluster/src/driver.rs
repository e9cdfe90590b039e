//! The multi-node cluster simulation.
//!
//! [`ClusterDriver`] owns one task manager and one [`WorkerPool`] per node and
//! replays a trace on the whole cluster:
//!
//! * the **master** (on node 0) streams trace operations in program order
//!   (the [`MasterSm`] state machine shared with the single-node host driver);
//!   each submitted task is routed to its home node by the configured
//!   [`PlacementPolicy`] (affinity hint +
//!   XOR distribution function by default) and its descriptor is forwarded
//!   over the interconnect (`transfer_words()` words, as over PCIe in the
//!   single-chip design). Messages traverse the fabric hop by hop through
//!   the event loop (one relay event per intermediate hop), so every link is
//!   acquired at the message's physical arrival time and shared trunks of
//!   tiered fabrics contend causally, in arrival order;
//! * each node's **input processor** hands arrived descriptors to the local
//!   manager strictly in arrival order (the links are FIFO, so this is
//!   per-node program order — local dependency semantics are preserved by the
//!   manager exactly as in the single-node testbench);
//! * **cross-node dependencies** (a task whose last-writer producer lives on
//!   another node) are enforced by the driver: the consumer is held in its
//!   node's pending queue until the producer's retirement notification
//!   ([`NOTIFY_WORDS`] words) has crossed the interconnect;
//! * every retirement is also forwarded to the master, which implements
//!   `taskwait` / `taskwait on` over the cluster-wide retirement count;
//! * with runtime **feedback** enabled ([`FeedbackKind`], `NEXUS_FEEDBACK`),
//!   every retirement notification to the master additionally carries the
//!   retiring node's live load digest ([`LoadView`]) — no new message types
//!   on the happy path. The master folds the digests into a `LoadTracker`
//!   consulted by submit-time re-placement (`place` mode, via
//!   [`FeedbackPlacement`]) and by reclaim victim selection;
//! * **task migration** moves pending descriptors from a loaded victim to an
//!   idle thief (free workers, empty ready and input queues) in one protocol
//!   of two kinds: *steal* (with a [`StealPolicy`] enabled) and *reclaim*
//!   (feedback `reclaim` mode). A request
//!   message crosses the interconnect; the victim hands over its youngest
//!   candidates, each paying the full re-forwarding cost on the victim→thief
//!   link, or answers empty-handed. The kinds differ only in their candidate
//!   filter — a steal takes *eligible* descriptors (all last-writer producers
//!   retired, so the task can run anywhere), a reclaim the
//!   dependence-*blocked* remainder a steal can never reach — in the policy
//!   calls that pick the victim and size the batch, and in the span event
//!   they emit. Dependences are re-homed at grant time: consumers that would
//!   have resolved the moved task node-locally, and the moved task's own
//!   unretired producers, are subscribed to cross-node retirement
//!   notifications. On arrival an eligible descriptor enters the thief's
//!   input queue at the *front* — parking it behind the thief's own blocked
//!   head would break the queues' topological order and can deadlock the
//!   cluster on dependence-heavy traces — and a still-blocked one is
//!   *parked* outside the queue until its last producer notification lands,
//!   then enters at the front. Stolen descriptors are eligible by
//!   construction, so they always take the front. After every event all
//!   steal requests are issued first, then all reclaim requests; a node with
//!   a steal in flight sits out the reclaim round.
//!
//! Cross-node anti-dependencies (a remote writer overtaking a remote reader)
//! are intentionally *not* ordered: as in distributed task-based runtimes
//! (DuctTeip's versioned data, the distributed runtime of Bosch et al.), each
//! node works on its own copy of remote data, so write-after-read hazards are
//! resolved by renaming rather than by synchronization. (For the same reason
//! a stolen task that shares addresses with unrelated tasks at the thief may
//! pick up a conservative manager-level ordering there — never a lost
//! dependence.)
//!
//! The event queue moves every event by value, so events stay at most 24
//! bytes: they carry `u32` indices, and a multi-hop message and a load
//! digest ride as `u32` handles into per-run tables (see `Event`).

use crate::config::ClusterConfig;
use crate::interconnect::Interconnect;
use crate::outcome::{ClusterOutcome, LinkStats};
use crate::routing::{DepScanner, EdgeStats};
use crate::stream::{DepthSeries, StreamOutcome, StreamingSource};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_host::master::{MasterSm, MasterStep};
use nexus_host::metrics::SimOutcome;
use nexus_host::pool::WorkerPool;
use nexus_obs::{Recorder, Registry, SpanEvent};
use nexus_sched::{
    FeedbackKind, FeedbackPlacement, LiveLoad, LoadView, NodeLoad, PlacedLoad, PlacementCtx,
    PlacementPolicy, StealPolicy,
};
use nexus_sim::events::TimedEvent;
use nexus_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use nexus_topo::{DistanceMatrix, Fabric};
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::collections::VecDeque;
use std::time::Instant;

/// Words on the wire for a retirement / dependency notification (message tag
/// plus task id).
pub const NOTIFY_WORDS: u64 = 2;

/// Words on the wire for a steal request or its empty-handed reply (message
/// tag plus node id).
pub const STEAL_WORDS: u64 = 2;

/// Words on the wire for a pool-reclamation request or its empty-handed
/// reply (message tag plus node id — same shape as a steal request).
pub const RECLAIM_WORDS: u64 = 2;

/// Decay half-life of a live load digest, in virtual picoseconds (200 µs —
/// a few task lengths at benchmark scale, so a digest that stops refreshing
/// fades from the placement decision within a handful of retirements).
const DIGEST_HALF_LIFE_PS: u64 = 200_000_000;

/// The two kinds of task migration (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigrationKind {
    /// Work stealing: moves *eligible* descriptors.
    Steal,
    /// Pool reclamation: moves dependence-*blocked* descriptors.
    Reclaim,
}

impl MigrationKind {
    /// Both kinds, in the order the driver issues their requests.
    const ALL: [MigrationKind; 2] = [MigrationKind::Steal, MigrationKind::Reclaim];

    fn index(self) -> usize {
        self as usize
    }

    /// Words on the wire for a request or its empty-handed reply.
    fn words(self) -> u64 {
        match self {
            MigrationKind::Steal => STEAL_WORDS,
            MigrationKind::Reclaim => RECLAIM_WORDS,
        }
    }
}

/// One scheduled simulator event. Every field is a `u32` node, worker or
/// submission index, a [`TaskId`], or a `u32` handle into one of the run's
/// side tables, so an event is at most 24 bytes (a [`TimedEvent`] at most
/// 40) and the queue moves small values:
///
/// * a multi-hop message rides as an [`Event::Relay`] carrying a handle into
///   the run's relay table ([`InFlight`]: route, size and terminal
///   [`Deliver`]) plus the hop it enters, instead of a copy of the whole
///   message on every hop;
/// * a retirement notification's load digest rides as a handle into the
///   run's digest table, or [`NO_DIGEST`] while feedback is off.
///
/// Both tables recycle their slots through a free list; every slot is back
/// on it when the event loop ends.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The master executes its next trace operation.
    MasterStep,
    /// A task descriptor reaches its home node's input queue.
    DescriptorArrive { node: u32, idx: u32 },
    /// A remote-dependency notification reaches the consumer's node.
    NotifyArrive { idx: u32 },
    /// A node's input processor retries handing pending tasks to its manager.
    Pump { node: u32 },
    /// A node-local ready notification becomes visible.
    Ready { node: u32, task: TaskId },
    /// Worker core `worker` on `node` finished executing `task`.
    WorkerFinish {
        node: u32,
        worker: u32,
        task: TaskId,
    },
    /// Worker core `worker` on `node` becomes available again.
    WorkerFree { node: u32, worker: u32 },
    /// A node's manager retired a task.
    Retired { node: u32, task: TaskId },
    /// A retirement notification reaches the master.
    MasterSawRetire {
        task: TaskId,
        /// Digest-table handle of the retiring node's load digest riding on
        /// the notification, or [`NO_DIGEST`] while feedback is off.
        digest: u32,
    },
    /// An idle node's migration request reaches its victim.
    MigrateRequest {
        kind: MigrationKind,
        thief: u32,
        victim: u32,
    },
    /// A migrated descriptor reaches the thief.
    MigratedArrive {
        kind: MigrationKind,
        node: u32,
        idx: u32,
    },
    /// The victim's empty-handed reply reaches the thief.
    MigrateFailed { kind: MigrationKind, thief: u32 },
    /// The relay-table message `msg` finished hop `hop - 1` of its route and
    /// enters hop `hop` now (its physical arrival time at that link — links
    /// are acquired causally, in arrival order).
    Relay { msg: u32, hop: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() <= 24);
const _: () = assert!(std::mem::size_of::<TimedEvent<Event>>() <= 40);

/// Digest handle of a retirement notification that carries no load digest.
const NO_DIGEST: u32 = u32::MAX;

impl Event {
    /// Event-kind names for the profiling registry, indexed by
    /// [`Event::kind_index`]. Each migration event keeps one name per kind.
    const KINDS: [&'static str; 16] = [
        "master_step",
        "descriptor_arrive",
        "notify_arrive",
        "pump",
        "ready",
        "worker_finish",
        "worker_free",
        "retired",
        "master_saw_retire",
        "steal_request",
        "stolen_arrive",
        "steal_failed",
        "reclaim_request",
        "reclaimed_arrive",
        "reclaim_failed",
        "relay",
    ];

    fn kind_index(&self) -> usize {
        match self {
            Event::MasterStep => 0,
            Event::DescriptorArrive { .. } => 1,
            Event::NotifyArrive { .. } => 2,
            Event::Pump { .. } => 3,
            Event::Ready { .. } => 4,
            Event::WorkerFinish { .. } => 5,
            Event::WorkerFree { .. } => 6,
            Event::Retired { .. } => 7,
            Event::MasterSawRetire { .. } => 8,
            Event::MigrateRequest { kind, .. } => 9 + 3 * kind.index(),
            Event::MigratedArrive { kind, .. } => 10 + 3 * kind.index(),
            Event::MigrateFailed { kind, .. } => 11 + 3 * kind.index(),
            Event::Relay { .. } => 15,
        }
    }
}

/// Wall-clock profile of the event loop, filled by
/// [`ClusterDriver::run_profiled`]: per-event-kind handler time and queue
/// pop/push/coalesce counts. Kept *outside* [`ClusterOutcome`] because wall
/// times are nondeterministic and the outcome is compared bit-for-bit across
/// engines.
#[derive(Debug, Default)]
struct EngineProf {
    counts: [u64; Event::KINDS.len()],
    wall_ns: [u64; Event::KINDS.len()],
    pops: u64,
    pushes: u64,
    inline_coalesced: u64,
}

impl EngineProf {
    fn note(&mut self, kind: usize, elapsed_ns: u64) {
        self.counts[kind] += 1;
        self.wall_ns[kind] += elapsed_ns;
    }

    fn export(&self, reg: &mut Registry) {
        for (i, name) in Event::KINDS.iter().enumerate() {
            if self.counts[i] > 0 {
                reg.add(&format!("engine.event.{name}.count"), self.counts[i]);
                reg.add(&format!("engine.event.{name}.wall_ns"), self.wall_ns[i]);
            }
        }
        reg.add("engine.pops", self.pops);
        reg.add("engine.pushes", self.pushes);
        reg.add("engine.inline_coalesced", self.inline_coalesced);
    }
}

/// Terminal action of a message once it leaves the fabric — what a
/// multi-hop message's [`InFlight`] record delivers after its last hop. Same
/// `u32` fields as the [`Event`] it becomes.
#[derive(Debug, Clone, Copy)]
enum Deliver {
    /// Becomes [`Event::DescriptorArrive`].
    Descriptor { node: u32, idx: u32 },
    /// Becomes [`Event::NotifyArrive`].
    Notify { idx: u32 },
    /// Becomes [`Event::MasterSawRetire`].
    MasterRetire { task: TaskId, digest: u32 },
    /// Becomes [`Event::MigrateRequest`].
    MigrateRequest {
        kind: MigrationKind,
        thief: u32,
        victim: u32,
    },
    /// Becomes [`Event::MigratedArrive`].
    Migrated {
        kind: MigrationKind,
        node: u32,
        idx: u32,
    },
    /// Becomes [`Event::MigrateFailed`].
    MigrateFailed { kind: MigrationKind, thief: u32 },
}

impl Deliver {
    fn into_event(self) -> Event {
        match self {
            Deliver::Descriptor { node, idx } => Event::DescriptorArrive { node, idx },
            Deliver::Notify { idx } => Event::NotifyArrive { idx },
            Deliver::MasterRetire { task, digest } => Event::MasterSawRetire { task, digest },
            Deliver::MigrateRequest {
                kind,
                thief,
                victim,
            } => Event::MigrateRequest {
                kind,
                thief,
                victim,
            },
            Deliver::Migrated { kind, node, idx } => Event::MigratedArrive { kind, node, idx },
            Deliver::MigrateFailed { kind, thief } => Event::MigrateFailed { kind, thief },
        }
    }
}

/// A multi-hop message crossing the fabric: one relay-table record, shared
/// by every [`Event::Relay`] hop of the message.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Source node of the message.
    from: u32,
    /// Destination node of the message.
    to: u32,
    /// Message size in 32-bit words (paid on every hop).
    words: u64,
    /// What happens when the message leaves the last hop.
    then: Deliver,
}

/// A per-run table of records addressed by `u32` handles, whose slots are
/// recycled through a free list: after warm-up, taking a slot and giving it
/// back allocate nothing.
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Copy> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` in a free slot and returns its handle.
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = value;
                h
            }
            None => {
                self.slots.push(value);
                u32::try_from(self.slots.len() - 1).expect("more than u32::MAX slots in flight")
            }
        }
    }

    fn get(&self, handle: u32) -> T {
        self.slots[handle as usize]
    }

    /// Returns the value at `handle` and frees its slot.
    fn remove(&mut self, handle: u32) -> T {
        debug_assert!(!self.free.contains(&handle), "slot {handle} freed twice");
        self.free.push(handle);
        self.slots[handle as usize]
    }

    /// True when every slot ever taken has been given back.
    fn all_returned(&self) -> bool {
        self.free.len() == self.slots.len()
    }
}

/// Task-id → submission-index lookup. Traces built by the generators assign
/// dense ids in submission order, which a flat vector resolves in one indexed
/// load; arbitrary (sparse) ids fall back to a hash map.
enum IdMap {
    Dense(Vec<u32>),
    Sparse(FxHashMap<TaskId, usize>),
}

impl IdMap {
    fn build(tasks: &[&TaskDescriptor]) -> IdMap {
        let n = tasks.len();
        // Dense only when ids fit a table of bounded slack (≤2× + change), so
        // a stray huge id cannot blow up memory.
        let max_id = tasks.iter().map(|t| t.id.0).max().unwrap_or(0);
        if max_id < (2 * n + 64) as u64 {
            let mut map = vec![u32::MAX; max_id as usize + 1];
            for (i, t) in tasks.iter().enumerate() {
                map[t.id.0 as usize] = i as u32;
            }
            IdMap::Dense(map)
        } else {
            IdMap::Sparse(tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect())
        }
    }

    #[inline]
    fn idx(&self, id: TaskId) -> usize {
        match self {
            IdMap::Dense(v) => {
                let i = v[id.0 as usize];
                debug_assert!(i != u32::MAX, "unknown task {id}");
                i as usize
            }
            IdMap::Sparse(m) => m[&id],
        }
    }
}

/// Per-task routing and cross-node dependency bookkeeping. The task's
/// dependence edges live in the run's [`DepTables`].
struct TaskMeta {
    /// The task's current home node (placement decision, updated on
    /// migration).
    home: usize,
    /// Producer retirement notifications this task still waits for.
    remaining_remote: usize,
    /// When the task retired (if it has).
    retired_at: Option<SimTime>,
    /// Consumers (by index) waiting for this producer's retirement.
    subscribers: Vec<usize>,
}

/// Every task's dependence edges, built once by [`analyze`] and indexed by
/// submission order. The lists are stored in compressed sparse row (CSR)
/// form — one offset array plus one flat `u32` array — so a run holds a
/// handful of allocations instead of three vectors per task:
///
/// * task `i`'s distinct last-writer producers are
///   `producers[prod_off[i]..prod_off[i + 1]]`, ascending;
/// * its remote producers (homed on another node) share the producer
///   offsets: they are `remote[prod_off[i]..][..remote_len[i]]`, a subset of
///   its producers in the same order. Submit-time re-placement rewrites the
///   subset in place, which never needs more room than the producers have;
/// * the tasks that have task `i` as a producer are
///   `consumers[cons_off[i]..cons_off[i + 1]]`, ascending.
struct DepTables {
    prod_off: Vec<u32>,
    producers: Vec<u32>,
    remote: Vec<u32>,
    remote_len: Vec<u32>,
    cons_off: Vec<u32>,
    consumers: Vec<u32>,
}

impl DepTables {
    /// The distinct last-writer producers of task `idx`.
    fn producers(&self, idx: usize) -> &[u32] {
        &self.producers[self.prod_off[idx] as usize..self.prod_off[idx + 1] as usize]
    }

    /// The tasks that have task `idx` as a last-writer producer.
    fn consumers(&self, idx: usize) -> &[u32] {
        &self.consumers[self.cons_off[idx] as usize..self.cons_off[idx + 1] as usize]
    }

    /// The slab range holding task `idx`'s remote producers.
    fn remote_range(&self, idx: usize) -> std::ops::Range<usize> {
        let lo = self.prod_off[idx] as usize;
        lo..lo + self.remote_len[idx] as usize
    }
}

/// Open-loop bookkeeping threaded through the event loop by the streaming
/// entry point ([`ClusterDriver::run_streaming`]). With `gated == false`
/// (closed-loop source) it performs *no* gating or migration capping — only
/// latency/occupancy accounting on the side — so the event flow stays
/// bit-identical to [`ClusterDriver::run`]. With `gated == true` the master's
/// submissions are released at their overlay arrival times, shifted by the
/// accumulated back-pressure skew, and held while the home node's admission
/// domain (in-flight + pending descriptors) is at its bound.
struct FlowState {
    /// Open loop: enforce arrival times and the admission bound.
    gated: bool,
    /// Overlay arrival time per submission index (empty when closed-loop).
    arrivals: Vec<SimTime>,
    /// Accumulated source-clock shift from admission blocking.
    skew: SimDuration,
    /// Per-node admission bound.
    depth: usize,
    /// Admission-domain occupancy per node: descriptors the source has
    /// emitted toward the node (in flight or pending) not yet handed to the
    /// node's manager.
    admitted: Vec<usize>,
    max_admitted: usize,
    /// Node whose full admission domain currently blocks the master.
    blocked_on: Option<usize>,
    /// Start of the current blocking episode (folded into `skew` on release).
    blocked_since: Option<SimTime>,
    backpressure_events: u64,
    /// Effective arrival time per submission index (latency zero point).
    submitted_at: Vec<SimTime>,
    /// Submit→retire latency per submission index.
    latencies: Vec<SimDuration>,
    series: DepthSeries,
}

impl FlowState {
    fn open_loop(arrivals: Vec<SimTime>, depth: usize, tasks: usize, nodes: usize) -> FlowState {
        debug_assert_eq!(arrivals.len(), tasks);
        FlowState {
            gated: true,
            arrivals,
            ..FlowState::closed_loop_inner(depth, tasks, nodes)
        }
    }

    fn closed_loop(tasks: usize, nodes: usize) -> FlowState {
        FlowState::closed_loop_inner(usize::MAX, tasks, nodes)
    }

    fn closed_loop_inner(depth: usize, tasks: usize, nodes: usize) -> FlowState {
        FlowState {
            gated: false,
            arrivals: Vec::new(),
            skew: SimDuration::ZERO,
            depth,
            admitted: vec![0; nodes],
            max_admitted: 0,
            blocked_on: None,
            blocked_since: None,
            backpressure_events: 0,
            submitted_at: vec![SimTime::ZERO; tasks],
            latencies: vec![SimDuration::ZERO; tasks],
            series: DepthSeries::default(),
        }
    }

    /// Decides whether the submission at `idx` (home `home`) may proceed at
    /// `now`. Returns `true` when the submit is *deferred*: either the
    /// arrival time lies in the future (a retry is scheduled for then) or the
    /// home node's admission domain is full (the release pump wakes the
    /// master; the blocked span shifts the source clock).
    fn gate_submit(
        &mut self,
        home: usize,
        idx: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        if !self.gated {
            return false;
        }
        let due = self.arrivals[idx] + self.skew;
        if now < due {
            queue.schedule(due, Event::MasterStep);
            return true;
        }
        if self.admitted[home] >= self.depth {
            if self.blocked_since.is_none() {
                self.blocked_since = Some(now);
                self.backpressure_events += 1;
            }
            self.blocked_on = Some(home);
            return true;
        }
        if let Some(since) = self.blocked_since.take() {
            self.skew += now.since(since);
        }
        false
    }

    /// Records a committed submission into `home`'s admission domain.
    fn note_submit(&mut self, home: usize, idx: usize, now: SimTime) {
        self.admitted[home] += 1;
        self.max_admitted = self.max_admitted.max(self.admitted[home]);
        self.series.push(now, self.admitted[home] as u64);
        self.submitted_at[idx] = if self.gated {
            self.arrivals[idx] + self.skew
        } else {
            now
        };
    }

    /// A descriptor left `node`'s admission domain (handed to the manager or
    /// migrated away); wakes the master if it was blocked on this node.
    fn on_slot_freed(&mut self, node: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        self.admitted[node] -= 1;
        if self.blocked_on == Some(node) && self.admitted[node] < self.depth {
            self.blocked_on = None;
            queue.schedule(now, Event::MasterStep);
        }
    }

    /// A migrated descriptor entered the thief's admission domain. (No
    /// gating: the grant sizes its batch against the bound.)
    fn note_migrated_in(&mut self, thief: usize) {
        self.admitted[thief] += 1;
        self.max_admitted = self.max_admitted.max(self.admitted[thief]);
    }
}

/// A thief's state for one migration kind.
#[derive(Debug, Default, Clone, Copy)]
struct MigrationState {
    /// A request is in flight from this node (unresolved at the victim).
    inflight: bool,
    /// Descriptors granted to this node and still crossing the link. The
    /// node does not issue further requests until the whole batch landed.
    incoming: usize,
    /// Last time an attempt came back empty-handed (suppresses immediate
    /// same-timestamp retries, which would loop forever on ideal links).
    last_fail: Option<SimTime>,
}

impl MigrationState {
    /// No request and no granted batch in flight.
    fn quiet(&self) -> bool {
        !self.inflight && self.incoming == 0
    }
}

/// One simulated node: its manager, worker pool and input queue.
struct NodeState<M> {
    manager: M,
    pool: WorkerPool,
    /// Arrived tasks not yet handed to the manager, in arrival order.
    pending: VecDeque<usize>,
    /// The node's submission interface is busy until this time.
    input_free: SimTime,
    /// A [`Event::Pump`] retry is already queued for this node. Without the
    /// flag every event observing the busy interface schedules its own
    /// duplicate retry, which cascades into an event storm on loaded nodes
    /// (hundreds of no-op events per task at high backlog).
    pump_queued: bool,
    /// Tasks arrived at this node and not yet retired (for idle accounting).
    outstanding: u64,
    executed: u64,
    retired: u64,
    total_work: SimDuration,
    idle_area: SimDuration,
    last_accounting: SimTime,
    makespan: SimTime,
    max_pending: usize,
    /// Migrated descriptors parked at this node until their last producer
    /// notification arrives. They are dependence-blocked and must *not*
    /// enter `pending`: a consumer queued ahead of its own migrated producer
    /// would deadlock the FIFO, and in-flight races make any grant-time
    /// ordering guarantee unsound. Unparked to the *front* of `pending` the
    /// moment they resolve.
    parked: Vec<usize>,
    /// This node's thief-side state per [`MigrationKind`].
    migration: [MigrationState; 2],
}

impl<M> NodeState<M> {
    /// Integrates idle-worker time up to `now` and advances the local clock.
    fn touch(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accounting);
        if self.outstanding > 0 && self.pool.free() > 0 {
            self.idle_area += dt * self.pool.free().min(self.outstanding as usize) as u64;
        }
        self.last_accounting = now;
        self.makespan = self.makespan.max(now);
    }

    /// The node's live load digest at `now`. `pending` counts parked
    /// (migrated, still-blocked) descriptors too: they occupy the node
    /// exactly like queued ones as far as a remote placement is concerned.
    fn digest(&self, now: SimTime) -> LoadView {
        let held = (self.pending.len() + self.parked.len()) as u64;
        LoadView {
            pending: held,
            in_flight: self.outstanding.saturating_sub(held),
            retired: self.retired,
            updated_at: now.as_ps(),
        }
    }

    /// True if the node may issue a `kind` request right now: free workers,
    /// nothing ready, nothing pending, no request or granted batch of that
    /// kind in flight, and no failed attempt at this very timestamp. A
    /// reclaim additionally needs nothing parked and no steal in flight —
    /// imported eligible work is strictly cheaper than imported blocked work.
    fn may_migrate(&self, kind: MigrationKind, now: SimTime) -> bool {
        let state = self.migration[kind.index()];
        state.quiet()
            && state.last_fail != Some(now)
            && self.pool.free() > 0
            && self.pool.queued() == 0
            && self.pending.is_empty()
            && (kind == MigrationKind::Steal
                || (self.parked.is_empty() && self.migration[MigrationKind::Steal.index()].quiet()))
    }

    /// Queues a now-eligible descriptor at the front of the input queue.
    fn push_front(&mut self, idx: usize) {
        self.pending.push_front(idx);
        self.max_pending = self.max_pending.max(self.pending.len());
    }
}

/// The master's fold of the per-node load digests piggybacked on retirement
/// notifications — the live counterpart of the routing pre-pass's placed-load
/// board. Built only when `cfg.feedback` enables a consumer, so the off path
/// never touches it.
struct LoadTracker {
    views: Vec<LoadView>,
    /// Digests actually applied (reordered stale digests are dropped).
    updates: u64,
}

impl LoadTracker {
    fn new(nodes: usize) -> Self {
        LoadTracker {
            views: vec![LoadView::default(); nodes],
            updates: 0,
        }
    }

    fn observe(&mut self, node: usize, view: LoadView) {
        if self.views[node].observe(view) {
            self.updates += 1;
        }
    }

    fn live(&self, now_ps: u64) -> LiveLoad<'_> {
        LiveLoad {
            views: &self.views,
            now: now_ps,
            half_life: DIGEST_HALF_LIFE_PS,
        }
    }
}

/// A cluster of simulated Nexus# nodes connected by an interconnect.
pub struct ClusterDriver<M> {
    cfg: ClusterConfig,
    nodes: Vec<NodeState<M>>,
    net: Interconnect,
}

impl<M: TaskManager> ClusterDriver<M> {
    /// Builds a cluster per `cfg`; `make_manager(node)` constructs each node's
    /// task manager.
    ///
    /// # Panics
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero.
    pub fn new(cfg: &ClusterConfig, make_manager: impl FnMut(usize) -> M) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        Self::with_fabric(cfg, cfg.link.fabric(cfg.nodes), make_manager)
    }

    /// Builds a cluster per `cfg` over an explicit interconnect fabric
    /// (custom rack/group sizes, hand-built graphs, …) instead of the one
    /// derived from `cfg.link.topology`.
    ///
    /// # Panics
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero, or if the
    /// fabric covers a different node count.
    pub fn with_fabric(
        cfg: &ClusterConfig,
        fabric: Fabric,
        mut make_manager: impl FnMut(usize) -> M,
    ) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(
            cfg.workers_per_node > 0,
            "need at least one worker per node"
        );
        assert_eq!(
            fabric.nodes(),
            cfg.nodes,
            "fabric node count must match the cluster"
        );
        let nodes = (0..cfg.nodes)
            .map(|n| NodeState {
                manager: make_manager(n),
                pool: WorkerPool::new(cfg.workers_per_node),
                pending: VecDeque::new(),
                input_free: SimTime::ZERO,
                pump_queued: false,
                outstanding: 0,
                executed: 0,
                retired: 0,
                total_work: SimDuration::ZERO,
                idle_area: SimDuration::ZERO,
                last_accounting: SimTime::ZERO,
                makespan: SimTime::ZERO,
                max_pending: 0,
                parked: Vec::new(),
                migration: Default::default(),
            })
            .collect();
        ClusterDriver {
            cfg: *cfg,
            nodes,
            net: Interconnect::with_fabric(fabric),
        }
    }

    /// Replaces every node's worker pool with one built from per-core speed
    /// factors (`1.0` = a standard core; see
    /// [`WorkerPool::with_speeds`](nexus_host::WorkerPool::with_speeds)).
    /// All nodes share the same core mix; steal policies see the aggregate
    /// capacity through the load board and normalize backlogs by it.
    ///
    /// # Panics
    /// Panics if `speeds.len()` differs from `workers_per_node`, or if any
    /// factor is not a positive finite number.
    pub fn with_worker_speeds(mut self, speeds: &[f64]) -> Self {
        assert_eq!(
            speeds.len(),
            self.cfg.workers_per_node,
            "need one speed factor per worker core"
        );
        for node in &mut self.nodes {
            node.pool = WorkerPool::with_speeds(speeds);
        }
        self
    }

    /// Runs `trace` to completion on the cluster. Panics if the simulation
    /// deadlocks (which would indicate a model bug).
    pub fn run(self, trace: &Trace) -> ClusterOutcome {
        self.run_inner(trace, None, None, None).0
    }

    /// Runs `trace` with a [`Recorder`] attached: the event loop emits
    /// task-lifecycle span events ([`SpanEvent`]) stamped in virtual
    /// picoseconds. The recorder is purely observational — the outcome is
    /// bit-identical to [`ClusterDriver::run`], asserted across the full
    /// determinism grid.
    pub fn run_recorded(self, trace: &Trace, rec: &mut dyn Recorder) -> ClusterOutcome {
        self.run_inner(trace, None, Some(rec), None).0
    }

    /// Runs `trace` with the event loop profiled: returns the outcome plus a
    /// [`Registry`] of per-event-kind handler wall time (`engine.event.*`)
    /// and queue pop/push/coalesce counters (`engine.pops`, `engine.pushes`,
    /// `engine.inline_coalesced`). The wall times are nondeterministic, which
    /// is why they ride outside the (bit-compared) [`ClusterOutcome`].
    pub fn run_profiled(self, trace: &Trace) -> (ClusterOutcome, Registry) {
        let mut prof = EngineProf::default();
        let outcome = self.run_inner(trace, None, None, Some(&mut prof)).0;
        let mut reg = Registry::new();
        prof.export(&mut reg);
        (outcome, reg)
    }

    /// Runs `trace` as a *service*: submissions are released by `source`
    /// (arrival times + bounded per-node admission queues) instead of
    /// self-clocked by the master, and per-task submit→retire latencies are
    /// recorded. A closed-loop source reproduces [`ClusterDriver::run`]
    /// exactly (bit-identical makespan and event count) with the service
    /// metrics recorded on the side.
    ///
    /// # Panics
    /// Panics if an open-loop source's overlay does not cover exactly the
    /// trace's submissions, or if the simulation deadlocks.
    pub fn run_streaming(self, trace: &Trace, source: &StreamingSource) -> StreamOutcome {
        self.run_streaming_inner(trace, source, None)
    }

    /// [`ClusterDriver::run_streaming`] with a [`Recorder`] attached (see
    /// [`ClusterDriver::run_recorded`]); open-loop runs additionally emit
    /// [`SpanEvent::Backpressure`] when admission blocks the source clock.
    pub fn run_streaming_recorded(
        self,
        trace: &Trace,
        source: &StreamingSource,
        rec: &mut dyn Recorder,
    ) -> StreamOutcome {
        self.run_streaming_inner(trace, source, Some(rec))
    }

    fn run_streaming_inner<'a>(
        self,
        trace: &'a Trace,
        source: &StreamingSource,
        rec: Option<&'a mut dyn Recorder>,
    ) -> StreamOutcome {
        let tasks = trace.task_count();
        let nodes = self.cfg.nodes;
        let flow = match &source.overlay {
            Some(overlay) => {
                if let Err(e) = overlay.matches(trace) {
                    panic!("streaming source does not match the trace: {e}");
                }
                FlowState::open_loop(
                    overlay.times().to_vec(),
                    source.admission.depth,
                    tasks,
                    nodes,
                )
            }
            None => FlowState::closed_loop(tasks, nodes),
        };
        let (cluster, flow) = self.run_inner(trace, Some(flow), rec, None);
        let fs = flow.expect("run_inner returns the flow state it was given");
        StreamOutcome {
            cluster,
            latencies: fs.latencies,
            backpressure_events: fs.backpressure_events,
            max_admission_depth: fs.max_admitted,
            depth_series: fs.series.into_samples(),
            source_lag: fs.skew,
        }
    }

    /// The run shared by [`ClusterDriver::run`] (`flow == None`) and
    /// [`ClusterDriver::run_streaming`]. With `flow == None` every flow hook
    /// compiles to a no-op check, keeping the closed-loop path untouched; the
    /// same holds for `rec` (span tracing) and `prof` (event-loop profiling),
    /// each a single `Option` branch when disabled.
    fn run_inner<'a>(
        self,
        trace: &'a Trace,
        flow: Option<FlowState>,
        rec: Option<&'a mut dyn Recorder>,
        prof: Option<&'a mut EngineProf>,
    ) -> (ClusterOutcome, Option<FlowState>) {
        let mut run = Run::new(self, trace, flow, rec, prof);
        run.event_loop();
        run.finish()
    }
}

/// Deterministic tallies of one migration kind.
#[derive(Debug, Default, Clone, Copy)]
struct MigrationCounts {
    /// Descriptors moved.
    moved: u64,
    /// Requests answered with a non-empty batch.
    grants: u64,
    /// Requests answered empty-handed.
    failures: u64,
}

/// Everything one run of the event loop owns: the cluster taken out of the
/// [`ClusterDriver`], the trace's routing metadata, the event queue, the
/// optional flow, recorder and profile hooks, and the run's tallies. The
/// event handlers are its methods.
struct Run<'a, M> {
    cfg: ClusterConfig,
    trace: &'a Trace,
    edges: EdgeStats,
    flow: Option<FlowState>,
    rec: Option<&'a mut dyn Recorder>,
    prof: Option<&'a mut EngineProf>,
    supports_taskwait_on: bool,
    /// Which [`MigrationKind`]s issue requests after every event.
    migrating: [bool; 2],
    feedback: FeedbackKind,
    notifications: u64,
    migrations: [MigrationCounts; 2],
    events_processed: u64,
    inline_coalesced: u64,
    makespan: SimTime,
    // Fields drop in declaration order: the per-run tables below are freed
    // newest first and before the cluster they were built for, which keeps
    // the allocator's footprint flat across back-to-back runs.
    /// Submit-time re-placement's placed-load board (`place` mode). Unlike
    /// the pre-pass board (charged at static homes during `analyze`), tasks
    /// are charged to their *final* home at commit time.
    placed_loads: Vec<PlacedLoad>,
    /// The live-load tracker only exists while a feedback consumer is
    /// active, so the off path computes no digests and stays bit-identical
    /// to the static behaviour (same pattern as `flow`/`rec`/`prof`).
    tracker: Option<LoadTracker>,
    policy: Box<dyn StealPolicy>,
    master: MasterSm,
    /// Reused buffer for draining manager notifications.
    scratch: Vec<ManagerEvent>,
    /// Reused buffer for re-placement's producer homes.
    producer_homes: Vec<usize>,
    /// Reused buffer for the migration scan's load board.
    load_board: Vec<NodeLoad>,
    /// The relay table: multi-hop messages crossing the fabric.
    relays: Slab<InFlight>,
    /// The digest table: load digests riding on retirement notifications
    /// to the master, with the retiring node.
    digests: Slab<(u32, LoadView)>,
    queue: EventQueue<Event>,
    metas: Vec<TaskMeta>,
    deps: DepTables,
    /// The fabric's distance matrix (static; cloned out of the interconnect
    /// so the policies can consult it while messages are sent).
    distances: DistanceMatrix,
    durations: Vec<SimDuration>,
    idx_of: IdMap,
    tasks: Vec<&'a TaskDescriptor>,
    nodes: Vec<NodeState<M>>,
    net: Interconnect,
}

impl<'a, M: TaskManager> Run<'a, M> {
    fn new(
        driver: ClusterDriver<M>,
        trace: &'a Trace,
        flow: Option<FlowState>,
        rec: Option<&'a mut dyn Recorder>,
        prof: Option<&'a mut EngineProf>,
    ) -> Self {
        let ClusterDriver { cfg, nodes, net } = driver;
        let tasks: Vec<&TaskDescriptor> = trace.tasks().collect();
        // Events carry node, worker and submission indices as `u32`.
        assert!(
            [tasks.len(), cfg.nodes, cfg.workers_per_node]
                .iter()
                .all(|&n| u32::try_from(n).is_ok()),
            "trace or cluster too large for u32 event indices"
        );
        let idx_of = IdMap::build(&tasks);
        let durations = tasks.iter().map(|t| t.duration).collect();
        let distances = net.distances().clone();
        let (metas, deps, edges) = analyze(&cfg, &tasks, &distances);
        let feedback = cfg.feedback;
        Run {
            queue: EventQueue::with_engine(cfg.engine),
            scratch: Vec::new(),
            producer_homes: Vec::new(),
            load_board: Vec::new(),
            relays: Slab::new(),
            digests: Slab::new(),
            master: MasterSm::new(),
            supports_taskwait_on: nodes[0].manager.supports_taskwait_on(),
            policy: cfg.stealing.build(),
            migrating: [cfg.stealing.is_enabled(), feedback.reclaim_enabled()],
            feedback,
            tracker: feedback.is_enabled().then(|| LoadTracker::new(cfg.nodes)),
            placed_loads: vec![PlacedLoad::default(); cfg.nodes],
            notifications: 0,
            migrations: Default::default(),
            events_processed: 0,
            inline_coalesced: 0,
            makespan: SimTime::ZERO,
            cfg,
            nodes,
            net,
            trace,
            tasks,
            idx_of,
            durations,
            distances,
            metas,
            deps,
            edges,
            flow,
            rec,
            prof,
        }
    }

    fn record(&mut self, now: SimTime, event: SpanEvent) {
        if let Some(r) = self.rec.as_mut() {
            r.record(now.as_ps(), event);
        }
    }

    /// Pops and handles events until the queue runs dry.
    fn event_loop(&mut self) {
        self.queue.schedule(SimTime::ZERO, Event::MasterStep);
        // Back-to-back link-relay coalescing: when a relay's continuation is
        // provably the next event to pop (strictly smaller `(time, seq)` key
        // than the queue minimum, under a seq reserved at the exact position a
        // plain `schedule` would have used), it is handed to the next loop
        // iteration directly, skipping one queue round-trip per hop without
        // perturbing the deterministic event order.
        let mut inline_next: Option<TimedEvent<Event>> = None;
        loop {
            let ev = match inline_next.take() {
                Some(ev) => {
                    self.inline_coalesced += 1;
                    ev
                }
                None => match self.queue.pop() {
                    Some(ev) => ev,
                    None => break,
                },
            };
            let now = ev.time;
            self.makespan = self.makespan.max(now);
            self.events_processed += 1;
            // Profiling samples the wall clock only when a profile is
            // attached; the disabled path is one `Option` check per event.
            let prof_start = self
                .prof
                .as_ref()
                .map(|_| (Instant::now(), ev.payload.kind_index()));
            if self.events_processed > self.cfg.max_events {
                panic!(
                    "cluster simulation exceeded {} events on {}",
                    self.cfg.max_events, self.trace.name
                );
            }
            // A relay's continuation is resolved after the post-event
            // migration scan (which may schedule earlier events and veto the
            // inline).
            let relayed = self.handle(ev.payload, now);
            for kind in MigrationKind::ALL {
                if self.migrating[kind.index()] {
                    self.try_migrate(kind, now);
                }
            }
            if let Some((t0, kind)) = prof_start {
                if let Some(p) = self.prof.as_mut() {
                    p.note(kind, t0.elapsed().as_nanos() as u64);
                }
            }
            if let Some(te) = relayed {
                let beats_queue = self
                    .queue
                    .peek_key()
                    .is_none_or(|min| (te.time, te.seq) < min);
                if beats_queue {
                    inline_next = Some(te);
                } else {
                    self.queue.schedule_at_seq(te.time, te.seq, te.payload);
                }
            }
        }
        debug_assert!(
            self.relays.all_returned() && self.digests.all_returned(),
            "relay or digest table slots outlived the run"
        );
    }

    /// Handles one event. A relay returns its continuation unscheduled (see
    /// [`Run::event_loop`]).
    fn handle(&mut self, ev: Event, now: SimTime) -> Option<TimedEvent<Event>> {
        match ev {
            Event::MasterStep => self.master_step(now),
            Event::DescriptorArrive { node, idx } => {
                let (node, idx) = (node as usize, idx as usize);
                let n = &mut self.nodes[node];
                n.touch(now);
                n.outstanding += 1;
                n.pending.push_back(idx);
                n.max_pending = n.max_pending.max(n.pending.len());
                self.pump(node, now);
            }
            Event::NotifyArrive { idx } => {
                let idx = idx as usize;
                let meta = &mut self.metas[idx];
                meta.remaining_remote -= 1;
                let home = meta.home;
                let resolved = meta.remaining_remote == 0;
                let n = &mut self.nodes[home];
                n.touch(now);
                // A parked migrated descriptor resolves on its last producer
                // notification and enters the queue at the *front*. No-op
                // unless a migration actually parked something here.
                if resolved {
                    if let Some(pos) = n.parked.iter().position(|&i| i == idx) {
                        n.parked.swap_remove(pos);
                        debug_assert!(
                            eligible(&self.metas, &self.deps, idx),
                            "unparked task {idx} still has unretired producers"
                        );
                        n.push_front(idx);
                    }
                }
                self.pump(home, now);
            }
            Event::Pump { node } => {
                let node = node as usize;
                let n = &mut self.nodes[node];
                n.pump_queued = false;
                n.touch(now);
                self.pump(node, now);
            }
            Event::Ready { node, task } => {
                let n = &mut self.nodes[node as usize];
                n.touch(now);
                n.pool.enqueue(task);
                self.dispatch(node as usize, now);
            }
            Event::WorkerFinish { node, worker, task } => {
                let n = &mut self.nodes[node as usize];
                n.touch(now);
                n.executed += 1;
                let free_at = n.manager.finish(task, now);
                self.drain(node as usize, now);
                self.queue
                    .schedule(free_at.max(now), Event::WorkerFree { node, worker });
            }
            Event::WorkerFree { node, worker } => {
                let n = &mut self.nodes[node as usize];
                n.touch(now);
                n.pool.release(worker as usize);
                self.dispatch(node as usize, now);
            }
            Event::Retired { node, task } => self.retired(node as usize, task, now),
            Event::MasterSawRetire { task, digest } => {
                if digest != NO_DIGEST {
                    let (node, view) = self.digests.remove(digest);
                    if let Some(tr) = self.tracker.as_mut() {
                        tr.observe(node as usize, view);
                    }
                }
                if self.master.on_retired(task, now) {
                    self.queue.schedule(now, Event::MasterStep);
                }
            }
            Event::MigrateRequest {
                kind,
                thief,
                victim,
            } => self.grant(kind, thief as usize, victim as usize, now),
            Event::MigratedArrive { kind, node, idx } => {
                self.migrated_arrive(kind, node as usize, idx as usize, now)
            }
            Event::MigrateFailed { kind, thief } => {
                let n = &mut self.nodes[thief as usize];
                let state = &mut n.migration[kind.index()];
                state.inflight = false;
                state.last_fail = Some(now);
                n.touch(now);
            }
            Event::Relay { msg, hop } => {
                let InFlight {
                    from,
                    to,
                    words,
                    then,
                } = self.relays.get(msg);
                let (from, to, hop) = (from as usize, to as usize, hop as usize);
                if self.rec.is_some() {
                    let (link, tier) = self.net.hop_link(from, to, hop);
                    self.record(now, SpanEvent::LinkHop { link, tier, words });
                }
                let d = self.net.send_hop(from, to, hop, words, now);
                let payload = if hop + 1 == self.net.hops(from, to) {
                    self.relays.remove(msg);
                    then.into_event()
                } else {
                    Event::Relay {
                        msg,
                        hop: hop as u32 + 1,
                    }
                };
                // Reserve the seq a plain `schedule` would assign, but defer
                // the enqueue.
                return Some(TimedEvent {
                    time: d.delivered,
                    seq: self.queue.reserve_seq(),
                    payload,
                });
            }
        }
        None
    }

    /// The master executes its next trace operation.
    fn master_step(&mut self, now: SimTime) {
        let task = match self.master.step(self.trace, now, self.supports_taskwait_on) {
            MasterStep::Submit(task) => task,
            MasterStep::Compute(d) => return self.queue.schedule(now + d, Event::MasterStep),
            MasterStep::Continue => return self.queue.schedule(now, Event::MasterStep),
            MasterStep::Waiting | MasterStep::Done => return,
        };
        let idx = self.idx_of.idx(task.id);
        if self.feedback.place_enabled() {
            if let Some(tr) = self.tracker.as_ref() {
                // Live re-placement: the pre-pass home was chosen before any
                // runtime load existed; re-decide against the decayed
                // digests. Producers may themselves have moved (re-placed or
                // migrated), so the remote-producer set and the outstanding
                // notification count are recomputed from the producers'
                // *current* homes — a producer that already subscribed this
                // task keeps exactly one subscription.
                let (metas, deps) = (&mut self.metas, &mut self.deps);
                self.producer_homes.clear();
                self.producer_homes
                    .extend(deps.producers(idx).iter().map(|&p| metas[p as usize].home));
                let home = FeedbackPlacement.place(
                    self.tasks[idx],
                    &PlacementCtx {
                        nodes: self.cfg.nodes,
                        loads: &self.placed_loads,
                        producer_homes: &self.producer_homes,
                        distances: Some(&self.distances),
                        live: Some(tr.live(now.as_ps())),
                    },
                );
                metas[idx].home = home;
                let (lo, hi) = (deps.prod_off[idx] as usize, deps.prod_off[idx + 1] as usize);
                let mut subscribed = 0;
                let mut remote = lo;
                for k in lo..hi {
                    let p = deps.producers[k];
                    if metas[p as usize].subscribers.contains(&idx) {
                        subscribed += 1;
                    } else if metas[p as usize].home != home {
                        deps.remote[remote] = p;
                        remote += 1;
                    }
                }
                deps.remote_len[idx] = (remote - lo) as u32;
                metas[idx].remaining_remote = subscribed + remote - lo;
            }
        }
        let home = self.metas[idx].home;
        // An open-loop source may defer the submission (future arrival time
        // or full admission queue); the cursor stays put and the same submit
        // is re-offered on the next master step.
        if let Some(fs) = self.flow.as_mut() {
            let bp_before = fs.backpressure_events;
            let deferred = fs.gate_submit(home, idx, now, &mut self.queue);
            if fs.backpressure_events > bp_before {
                self.record(now, SpanEvent::Backpressure { node: home });
            }
            if deferred {
                return;
            }
        }
        self.master.commit_submit(task, now);
        if self.feedback.place_enabled() {
            self.placed_loads[home].tasks += 1;
            self.placed_loads[home].work += task.duration;
        }
        if let Some(fs) = self.flow.as_mut() {
            fs.note_submit(home, idx, now);
        }
        self.record(now, SpanEvent::Submitted { task: idx });
        self.record(
            now,
            SpanEvent::Placed {
                task: idx,
                node: home,
            },
        );
        // Forward the descriptor to its home node.
        let words = task.transfer_words();
        let then = Deliver::Descriptor {
            node: home as u32,
            idx: idx as u32,
        };
        let sender_free = self.send_msg(0, home, words, now, then);
        // Subscribe to (or directly forward) the remote dependency
        // notifications the task needs.
        for k in self.deps.remote_range(idx) {
            let p = self.deps.remote[k] as usize;
            match self.metas[p].retired_at {
                Some(_) => {
                    let ph = self.metas[p].home;
                    let then = Deliver::Notify { idx: idx as u32 };
                    self.send_msg(ph, home, NOTIFY_WORDS, now, then);
                    self.notifications += 1;
                }
                None => self.metas[p].subscribers.push(idx),
            }
        }
        self.queue.schedule(sender_free.max(now), Event::MasterStep);
    }

    /// A node's manager retired a task: notify its subscribers and the
    /// master, then refill the freed pool slot.
    fn retired(&mut self, node: usize, task: TaskId, now: SimTime) {
        let idx = self.idx_of.idx(task);
        let n = &mut self.nodes[node];
        n.touch(now);
        n.retired += 1;
        n.outstanding -= 1;
        n.total_work += self.durations[idx];
        self.metas[idx].retired_at = Some(now);
        if let Some(fs) = self.flow.as_mut() {
            fs.latencies[idx] = now.since(fs.submitted_at[idx]);
        }
        self.record(now, SpanEvent::Retired { task: idx, node });
        // Forward the retirement to every subscribed consumer…
        for sub in std::mem::take(&mut self.metas[idx].subscribers) {
            let home = self.metas[sub].home;
            let then = Deliver::Notify { idx: sub as u32 };
            self.send_msg(node, home, NOTIFY_WORDS, now, then);
            self.notifications += 1;
        }
        // …and to the master (free if the task retired on node 0). With
        // feedback enabled the notification carries the retiring node's load
        // digest — same message, same words, no extra traffic on the happy
        // path.
        let digest = match self.tracker {
            Some(_) => {
                let view = self.nodes[node].digest(now);
                self.digests.insert((node as u32, view))
            }
            None => NO_DIGEST,
        };
        let then = Deliver::MasterRetire { task, digest };
        self.send_msg(node, 0, NOTIFY_WORDS, now, then);
        // A task-pool slot may have been freed.
        self.pump(node, now);
    }

    /// Hands a message to the fabric: serializes it onto the first hop now
    /// and schedules an [`Event::Relay`] per remaining hop, so every link is
    /// acquired at the message's physical arrival time (causal,
    /// work-conserving FIFO per link — see `Interconnect::send_hop`). The
    /// terminal [`Deliver`] fires when the message leaves the last hop.
    /// Node-local messages (`from == to`) bypass the network and deliver
    /// immediately. Returns when the sender's interface is free again.
    fn send_msg(
        &mut self,
        from: usize,
        to: usize,
        words: u64,
        now: SimTime,
        then: Deliver,
    ) -> SimTime {
        if from == to {
            self.queue.schedule(now, then.into_event());
            return now;
        }
        if self.rec.is_some() {
            let (link, tier) = self.net.hop_link(from, to, 0);
            self.record(now, SpanEvent::LinkHop { link, tier, words });
        }
        let d = self.net.send_hop(from, to, 0, words, now);
        let ev = if self.net.hops(from, to) == 1 {
            then.into_event()
        } else {
            let msg = self.relays.insert(InFlight {
                from: from as u32,
                to: to as u32,
                words,
                then,
            });
            Event::Relay { msg, hop: 1 }
        };
        self.queue.schedule(d.delivered, ev);
        d.sender_free
    }

    /// The per-node load board handed to migration victim selection, built
    /// through the shared [`NodeLoad::snapshot`] constructor (the live
    /// runtime's manager loop builds its board through the same one).
    fn fill_load_board(&self, board: &mut Vec<NodeLoad>) {
        board.clear();
        board.extend(self.nodes.iter().map(|n| {
            NodeLoad::snapshot(
                n.pending.len(),
                n.pending
                    .iter()
                    .filter(|&&i| eligible(&self.metas, &self.deps, i))
                    .count(),
                n.pool.queued(),
                n.pool.free(),
                n.outstanding,
                n.pool.total_speed_milli(),
            )
        }));
    }

    /// Issues `kind` requests from every node that may migrate (see
    /// [`NodeState::may_migrate`]). Runs after each event while the kind is
    /// enabled; the load snapshot (with its per-descriptor eligibility scan)
    /// is only built when some node actually qualifies.
    fn try_migrate(&mut self, kind: MigrationKind, now: SimTime) {
        if !self.nodes.iter().any(|n| n.may_migrate(kind, now)) {
            return;
        }
        let mut loads = std::mem::take(&mut self.load_board);
        self.fill_load_board(&mut loads);
        for thief in 0..self.nodes.len() {
            if !self.nodes[thief].may_migrate(kind, now) {
                continue;
            }
            let distances = Some(&self.distances);
            let victim = match kind {
                MigrationKind::Steal => self.policy.choose_victim_tiered(thief, &loads, distances),
                MigrationKind::Reclaim => {
                    let live = self.tracker.as_ref().map(|tr| tr.live(now.as_ps()));
                    self.policy
                        .choose_reclaim_victim(thief, &loads, live, distances)
                }
            };
            let Some(victim) = victim else {
                continue;
            };
            assert!(
                victim != thief && victim < self.nodes.len(),
                "{kind:?} policy {} picked victim {victim} for thief {thief}",
                self.policy.name()
            );
            self.nodes[thief].migration[kind.index()].inflight = true;
            let request = Deliver::MigrateRequest {
                kind,
                thief: thief as u32,
                victim: victim as u32,
            };
            self.send_msg(thief, victim, kind.words(), now, request);
        }
        self.load_board = loads;
    }

    /// Handles a `kind` request arriving at `victim`: hand over up to a batch
    /// of the youngest candidate pending descriptors — eligible ones for a
    /// steal, dependence-blocked ones for a reclaim — or send an empty-handed
    /// reply. The batch is sized by the policy from the thief's free workers
    /// *and* the victim's candidate backlog at grant time. Each moved
    /// descriptor's dependences are re-homed before it leaves: consumers that
    /// counted on resolving it inside the victim's manager, and its own
    /// unretired producers (which the victim's manager would have ordered
    /// locally), are subscribed to cross-node retirement notifications.
    fn grant(&mut self, kind: MigrationKind, thief: usize, victim: usize, now: SimTime) {
        self.nodes[victim].touch(now);
        // Positions of the youngest candidates, collected from the back of
        // the queue (descending, so removal is position-stable).
        let take_eligible = kind == MigrationKind::Steal;
        let mut positions: Vec<usize> = {
            let pending = &self.nodes[victim].pending;
            (0..pending.len())
                .rev()
                .filter(|&pos| eligible(&self.metas, &self.deps, pending[pos]) == take_eligible)
                .collect()
        };
        let free = self.nodes[thief].pool.free();
        let mut batch = match kind {
            MigrationKind::Steal => self.policy.batch_for(free, positions.len()),
            MigrationKind::Reclaim => self.policy.reclaim_batch(free, positions.len()),
        };
        if let Some(fs) = self.flow.as_ref() {
            if fs.gated {
                // An open-loop thief honours its own admission bound:
                // migrated descriptors enter its admission domain too.
                batch = batch.min(fs.depth.saturating_sub(fs.admitted[thief]));
            }
        }
        positions.truncate(batch);
        let counts = &mut self.migrations[kind.index()];
        if positions.is_empty() {
            counts.failures += 1;
            let reply = Deliver::MigrateFailed {
                kind,
                thief: thief as u32,
            };
            self.send_msg(victim, thief, kind.words(), now, reply);
            return;
        }
        // The request is resolved; the thief stays quiet until every granted
        // descriptor has landed (it has no capacity for more anyway).
        counts.grants += 1;
        counts.moved += positions.len() as u64;
        let state = &mut self.nodes[thief].migration[kind.index()];
        state.inflight = false;
        state.incoming += positions.len();
        for pos in positions {
            let idx = self.nodes[victim]
                .pending
                .remove(pos)
                .expect("migration position in range");
            self.nodes[victim].outstanding -= 1;
            if let Some(fs) = self.flow.as_mut() {
                // The descriptor moves between admission domains; the freed
                // victim slot may wake a back-pressured source.
                fs.on_slot_freed(victim, now, &mut self.queue);
                fs.note_migrated_in(thief);
            }
            let (metas, deps) = (&mut self.metas, &self.deps);
            debug_assert_eq!(metas[idx].home, victim, "migrated task must be at home");
            for &c in deps.consumers(idx) {
                let c = c as usize;
                if metas[c].home == victim && !metas[idx].subscribers.contains(&c) {
                    metas[c].remaining_remote += 1;
                    metas[idx].subscribers.push(c);
                }
            }
            // Already-subscribed producers (the task was their remote
            // consumer all along) keep exactly one subscription. A stolen
            // task has no unretired producer, so this is a no-op for steals.
            for &p in deps.producers(idx) {
                let p = p as usize;
                if metas[p].retired_at.is_none() && !metas[p].subscribers.contains(&idx) {
                    metas[idx].remaining_remote += 1;
                    metas[p].subscribers.push(idx);
                }
            }
            metas[idx].home = thief;
            let (task, from, to) = (idx, victim, thief);
            self.record(
                now,
                match kind {
                    MigrationKind::Steal => SpanEvent::Stolen { task, from, to },
                    MigrationKind::Reclaim => SpanEvent::Reclaimed { task, from, to },
                },
            );
            let words = self.tasks[idx].transfer_words();
            let migrated = Deliver::Migrated {
                kind,
                node: thief as u32,
                idx: idx as u32,
            };
            self.send_msg(victim, thief, words, now, migrated);
        }
    }

    /// A migrated descriptor reaches the thief. An eligible one enters the
    /// input queue at the *front*: the thief imported it to run *now*, and
    /// queueing it behind the thief's own blocked head would break the
    /// topological order of the per-node FIFO queues — an early-order task
    /// stuck behind a later blocked head can close a cross-node
    /// head-of-line dependency cycle (deadlock). A still-blocked one is
    /// parked until its last producer notification lands (`NotifyArrive`).
    fn migrated_arrive(&mut self, kind: MigrationKind, node: usize, idx: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        let state = &mut n.migration[kind.index()];
        debug_assert!(
            state.incoming > 0,
            "{kind:?} arrival at node {node} without an outstanding grant"
        );
        state.incoming = state
            .incoming
            .checked_sub(1)
            .expect("migration accounting underflow: arrival without a grant");
        n.touch(now);
        n.outstanding += 1;
        let ready = eligible(&self.metas, &self.deps, idx);
        debug_assert!(
            ready || kind == MigrationKind::Reclaim,
            "stolen task {idx} arrived with unretired producers"
        );
        if ready {
            n.push_front(idx);
            self.pump(node, now);
        } else {
            n.parked.push(idx);
        }
    }

    /// Hands pending tasks at `node` to the local manager: strictly in arrival
    /// order, only once all remote dependencies have arrived, respecting the
    /// manager's back-pressure and the submission interface's busy time.
    /// Every hand-over frees a slot in the node's admission domain (streaming
    /// runs only), which may wake a back-pressured source.
    fn pump(&mut self, node: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        while let Some(&idx) = n.pending.front() {
            if self.metas[idx].remaining_remote > 0 {
                break; // head-of-line: preserves per-node program order
            }
            if !n.manager.can_accept(now) {
                break; // re-pumped when a retirement frees a pool slot
            }
            if now < n.input_free {
                // A submittable head is blocked only by the busy submission
                // interface: retry exactly when it frees up. `input_free` only
                // moves forward, so one outstanding retry per node suffices —
                // the dedup flag collapses what used to be an O(queue-depth)
                // storm of no-op Pump events.
                if !n.pump_queued {
                    n.pump_queued = true;
                    let node = node as u32;
                    self.queue.schedule(n.input_free, Event::Pump { node });
                }
                break;
            }
            n.pending.pop_front();
            if let Some(fs) = self.flow.as_mut() {
                fs.on_slot_freed(node, now, &mut self.queue);
            }
            if let Some(r) = self.rec.as_mut() {
                r.record(now.as_ps(), SpanEvent::Dispatched { task: idx, node });
            }
            let release = n.manager.submit(self.tasks[idx], now);
            n.manager.drain_events_into(&mut self.scratch);
            schedule_events(&mut self.scratch, node, now, &mut self.queue);
            n.input_free = release.max(now);
        }
    }

    /// Drains `node`'s manager notifications into the global event queue
    /// through the reused scratch buffer (no per-call allocation).
    fn drain(&mut self, node: usize, now: SimTime) {
        self.nodes[node]
            .manager
            .drain_events_into(&mut self.scratch);
        schedule_events(&mut self.scratch, node, now, &mut self.queue);
    }

    /// Hands queued ready tasks to free workers on `node`.
    fn dispatch(&mut self, node: usize, now: SimTime) {
        let NodeState { manager, pool, .. } = &mut self.nodes[node];
        let (idx_of, durations) = (&self.idx_of, &self.durations);
        let (queue, scratch, rec) = (&mut self.queue, &mut self.scratch, &mut self.rec);
        pool.dispatch(|task, worker, speed| {
            let idx = idx_of.idx(task);
            let extra = manager.dispatch_cost(task, now);
            manager.drain_events_into(scratch);
            if let Some(r) = rec.as_mut() {
                // The body begins once the manager's dispatch cost is paid.
                r.record(
                    (now + extra).as_ps(),
                    SpanEvent::Started {
                        task: idx,
                        node,
                        worker,
                    },
                );
            }
            // A core of speed `speed/1000`× executes the task proportionally
            // faster (exact for the uniform default: `d * 1000 / 1000 == d`).
            let dur = durations[idx] * 1000 / speed;
            let (node, worker) = (node as u32, worker as u32);
            queue.schedule(
                now + extra + dur,
                Event::WorkerFinish { node, worker, task },
            );
        });
        schedule_events(scratch, node, now, queue);
    }

    /// Checks the run completed and assembles the outcome.
    fn finish(mut self) -> (ClusterOutcome, Option<FlowState>) {
        let trace = self.trace;
        assert!(
            self.master.is_done(),
            "cluster master never finished the trace ({}; deadlock?)",
            trace.name
        );
        let master_last_writer = self.master.last_writer_table();
        let executed: u64 = self.nodes.iter().map(|n| n.executed).sum();
        assert_eq!(
            executed as usize,
            self.tasks.len(),
            "not all tasks executed on the cluster ({})",
            trace.name
        );
        let retired: u64 = self.nodes.iter().map(|n| n.retired).sum();
        assert_eq!(retired as usize, self.tasks.len());

        if let Some(p) = self.prof.as_mut() {
            p.pops = self.events_processed - self.inline_coalesced;
            p.pushes = self.queue.total_scheduled();
            p.inline_coalesced = self.inline_coalesced;
        }

        let net = &self.net;
        let link = LinkStats {
            messages: net.messages(),
            words: net.words(),
            busy_time: net.busy_time(),
            wait_time: net.wait_time(),
            peak_utilization: net.peak_utilization(self.makespan),
            per_tier: net.tier_stats(),
        };

        // The registry the outcome's scalar fields are views over. Populated
        // once here from the run's deterministic tallies (no hot-path
        // registry operations), so the engine-equivalence grid can compare it
        // bit for bit.
        let mut metrics = Registry::new();
        metrics.add("task.executed", executed);
        metrics.add("task.retired", retired);
        metrics.add("notify.sent", self.notifications);
        let [steal, reclaim] = self.migrations;
        metrics.add("steal.stolen", steal.moved);
        metrics.add("steal.grants", steal.grants);
        metrics.add("steal.failures", steal.failures);
        metrics.add("reclaim.reclaimed", reclaim.moved);
        metrics.add("reclaim.grants", reclaim.grants);
        metrics.add("reclaim.failures", reclaim.failures);
        metrics.add(
            "load.digest.updates",
            self.tracker.as_ref().map_or(0, |tr| tr.updates),
        );
        metrics.add("sim.events", self.events_processed);
        metrics.add("link.messages", link.messages);
        metrics.add("link.words", link.words);
        for tier in &link.per_tier {
            metrics.add(&format!("link.tier{}.messages", tier.tier), tier.messages);
            metrics.add(&format!("link.tier{}.words", tier.tier), tier.words);
        }
        for n in &self.nodes {
            metrics.sample("node.pending.max", n.max_pending as u64);
            metrics.sample("node.executed", n.executed);
        }
        if let Some(fs) = self.flow.as_ref() {
            if fs.gated {
                metrics.add("stream.backpressure", fs.backpressure_events);
                metrics.sample("stream.admission.max", fs.max_admitted as u64);
            }
        }
        let max_pending_depth = self.nodes.iter().map(|n| n.max_pending).max().unwrap_or(0);
        let per_node: Vec<SimOutcome> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| SimOutcome {
                benchmark: format!("{} [node {i}]", trace.name),
                manager: n.manager.name(),
                workers: self.cfg.workers_per_node,
                makespan: n.makespan.since(SimTime::ZERO),
                total_work: n.total_work,
                tasks: n.executed,
                master_barrier_time: SimDuration::ZERO,
                master_backpressure_time: SimDuration::ZERO,
                worker_idle_time: n.idle_area,
                manager_stats: n.manager.stats_summary(),
            })
            .collect();

        let outcome = ClusterOutcome {
            benchmark: trace.name.clone(),
            manager: self.nodes[0].manager.name(),
            placement: self.cfg.placement.name().to_string(),
            stealing: self.cfg.stealing.name().to_string(),
            topology: net.fabric().name().to_string(),
            nodes: self.cfg.nodes,
            workers_per_node: self.cfg.workers_per_node,
            makespan: self.makespan.since(SimTime::ZERO),
            total_work: trace.total_work(),
            tasks: executed,
            master_barrier_time: self.master.barrier_time(),
            per_node,
            edges: self.edges,
            notifications: metrics.counter("notify.sent"),
            steals: metrics.counter("steal.stolen"),
            steal_failures: metrics.counter("steal.failures"),
            reclaims: metrics.counter("reclaim.reclaimed"),
            reclaim_failures: metrics.counter("reclaim.failures"),
            sim_events: metrics.counter("sim.events"),
            link,
            max_pending_depth,
            master_last_writer,
            metrics,
        };
        (outcome, self.flow)
    }
}

/// Routes every task and finds its remote last-writer producers, in the same
/// pass that accumulates the edge census (one [`DepScanner`] scan — the
/// reported statistics and the enforced dependencies cannot diverge). The
/// fabric's distance matrix is handed to the placement policy so
/// distance-aware placements see the real tiers.
///
/// The scan appends every task's producers and remote producers straight
/// into the [`DepTables`] slabs; a counting pass over the producer edges
/// then sizes each task's consumer row and a second pass fills the rows in
/// submission order.
fn analyze(
    cfg: &ClusterConfig,
    tasks: &[&TaskDescriptor],
    distances: &DistanceMatrix,
) -> (Vec<TaskMeta>, DepTables, EdgeStats) {
    let mut scanner =
        DepScanner::with_policy(cfg.nodes, cfg.placement.build()).with_distances(distances.clone());
    let n = tasks.len();
    let mut metas: Vec<TaskMeta> = Vec::with_capacity(n);
    let mut prod_off = Vec::with_capacity(n + 1);
    let mut remote_len = Vec::with_capacity(n);
    let (mut producers, mut remote) = (Vec::new(), Vec::new());
    prod_off.push(0);
    for task in tasks {
        let start = producers.len();
        let home = scanner.scan_into(task, None, &mut producers, &mut remote);
        let remotes = remote.len() - start;
        remote.resize(producers.len(), 0);
        prod_off.push(u32::try_from(producers.len()).expect("more than u32::MAX edges"));
        remote_len.push(remotes as u32);
        metas.push(TaskMeta {
            home,
            remaining_remote: remotes,
            retired_at: None,
            subscribers: Vec::new(),
        });
    }
    let mut cons_off = vec![0u32; n + 1];
    for &p in &producers {
        cons_off[p as usize + 1] += 1;
    }
    for i in 0..n {
        cons_off[i + 1] += cons_off[i];
    }
    let mut next = cons_off.clone();
    let mut consumers = vec![0u32; producers.len()];
    for (i, w) in prod_off.windows(2).enumerate() {
        for &p in &producers[w[0] as usize..w[1] as usize] {
            let slot = &mut next[p as usize];
            consumers[*slot as usize] = i as u32;
            *slot += 1;
        }
    }
    let deps = DepTables {
        prod_off,
        producers,
        remote,
        remote_len,
        cons_off,
        consumers,
    };
    (metas, deps, scanner.stats())
}

/// True if the descriptor at `idx` is *eligible*: every last-writer producer
/// has retired and no notification is still in flight, so the task can
/// execute on any node without waiting on anything.
fn eligible(metas: &[TaskMeta], deps: &DepTables, idx: usize) -> bool {
    metas[idx].remaining_remote == 0
        && deps
            .producers(idx)
            .iter()
            .all(|&p| metas[p as usize].retired_at.is_some())
}

/// Moves drained manager notifications onto the global event queue.
fn schedule_events(
    scratch: &mut Vec<ManagerEvent>,
    node: usize,
    now: SimTime,
    queue: &mut EventQueue<Event>,
) {
    let node = node as u32;
    for ev in scratch.drain(..) {
        match ev {
            ManagerEvent::Ready { task, at } => {
                queue.schedule(at.max(now), Event::Ready { node, task });
            }
            ManagerEvent::Retired { task, at } => {
                queue.schedule(at.max(now), Event::Retired { node, task });
            }
        }
    }
}

/// Runs `trace` on a cluster configured by `cfg`, constructing each node's
/// manager with `make_manager`. Convenience wrapper around [`ClusterDriver`].
pub fn simulate_cluster<M: TaskManager>(
    trace: &Trace,
    cfg: &ClusterConfig,
    make_manager: impl FnMut(usize) -> M,
) -> ClusterOutcome {
    ClusterDriver::new(cfg, make_manager).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use nexus_host::IdealManager;
    use nexus_sched::{PolicyKind, StealKind};
    use nexus_trace::generators::{distributed, micro};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    /// A Nexus# manager with a small task pool, so overloaded nodes actually
    /// back-pressure and build the pending backlog stealing feeds on.
    fn tight_sharp() -> nexus_core::NexusSharp {
        let mut cfg = nexus_core::NexusSharpConfig::paper(6);
        cfg.task_pool_capacity = 16;
        nexus_core::NexusSharp::new(cfg)
    }

    #[test]
    fn single_node_ideal_cluster_matches_the_host_driver() {
        // With one node and an ideal link, the cluster reduces to the
        // single-node testbench (modulo the asynchronous master, which cannot
        // matter for an ideal manager with zero submission cost).
        let trace = micro::wavefront(8, 8, us(10));
        let cfg = ClusterConfig::new(1, 16).with_link(LinkConfig::ideal());
        let out = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let host = nexus_host::simulate(
            &trace,
            &mut IdealManager::new(),
            &nexus_host::HostConfig::with_workers(16),
        );
        assert_eq!(out.makespan, host.makespan);
        assert_eq!(out.tasks, host.tasks);
        assert_eq!(out.notifications, 0);
        assert_eq!(out.link.messages, 0);
    }

    #[test]
    fn independent_domains_scale_with_the_node_count() {
        let trace = distributed::wavefront(4, 0.0, 6, 6, us(50), 1);
        let cfg1 = ClusterConfig::new(1, 4).with_link(LinkConfig::rdma());
        let cfg4 = ClusterConfig::new(4, 4).with_link(LinkConfig::rdma());
        let one = simulate_cluster(&trace, &cfg1, |_| IdealManager::new());
        let four = simulate_cluster(&trace, &cfg4, |_| IdealManager::new());
        assert_eq!(one.tasks, four.tasks);
        assert!(
            four.makespan.as_us_f64() < 0.5 * one.makespan.as_us_f64(),
            "4 nodes {} vs 1 node {}",
            four.makespan,
            one.makespan
        );
        // Descriptor traffic crossed the network, but no dependency
        // notifications (the domains are independent).
        assert!(four.link.messages > 0);
        assert_eq!(four.notifications, 0);
        assert_eq!(four.edges.remote, 0);
    }

    #[test]
    fn remote_dependencies_pay_the_link_latency() {
        // Two tasks on different nodes, consumer reads producer's output.
        let mut b = nexus_trace::trace::TraceBuilder::new("remote-pair");
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .output(0x100)
                .duration(us(10))
                .affinity(0)
                .build()
        });
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .input(0x100)
                .inout(0x2000)
                .duration(us(10))
                .affinity(1)
                .build()
        });
        b.taskwait();
        let trace = b.finish();

        let slow = LinkConfig {
            latency: us(100),
            per_word: SimDuration::ZERO,
            topology: crate::config::Topology::FullMesh,
        };
        let fast = LinkConfig::ideal();
        let cfg_slow = ClusterConfig::new(2, 1).with_link(slow);
        let cfg_fast = ClusterConfig::new(2, 1).with_link(fast);
        let out_slow = simulate_cluster(&trace, &cfg_slow, |_| IdealManager::new());
        let out_fast = simulate_cluster(&trace, &cfg_fast, |_| IdealManager::new());
        assert_eq!(out_fast.makespan, us(20));
        // Producer retires at 10 us; its notification reaches node 1 at
        // 110 us (the consumer's descriptor arrived at 100 us); the consumer
        // runs until 120 us and its retirement notification reaches the
        // master at 220 us.
        assert_eq!(out_slow.makespan, us(220));
        assert_eq!(out_slow.notifications, 1);
        assert_eq!(out_slow.edges.remote, 1);
        assert!(out_slow.master_barrier_time > SimDuration::ZERO);
    }

    #[test]
    fn runs_are_bit_identical() {
        let trace = distributed::sparselu(4, 0.3, 9, 0.002);
        let cfg = ClusterConfig::new(4, 4);
        let a = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let b = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.link.words, b.link.words);
        assert_eq!(a.node_tasks(), b.node_tasks());
    }

    #[test]
    fn stealing_drains_an_imbalanced_trace_onto_idle_nodes() {
        // Node 0 owns 6x the work of node 3; without stealing the makespan is
        // pinned to node 0's backlog.
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2).with_link(LinkConfig::rdma());
        let frozen = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        let stolen = simulate_cluster(&trace, &cfg.with_stealing(StealKind::MostLoaded), |_| {
            tight_sharp()
        });
        assert_eq!(frozen.steals, 0);
        assert!(stolen.steals > 0, "stealing must actually happen");
        assert!(
            stolen.makespan < frozen.makespan,
            "stealing must improve the makespan: {} vs {}",
            stolen.makespan,
            frozen.makespan
        );
        assert_eq!(frozen.tasks, stolen.tasks);
        // Every stolen descriptor paid the wire.
        assert!(stolen.link.words > frozen.link.words);
    }

    #[test]
    fn stealing_preserves_cross_node_dependences() {
        // A producer chain on node 0 with consumers that must not run early:
        // steal-eligibility (all producers retired) plus re-subscription keep
        // the dependences intact. The chain forces sequential execution, so
        // the makespan lower bound is the chain length regardless of theft.
        let mut b = nexus_trace::trace::TraceBuilder::new("steal-chain");
        for i in 0..24u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x100 + (i / 8) * 0x40) // three 8-long chains
                    .duration(us(20))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        let trace = b.finish();
        let cfg = ClusterConfig::new(2, 1)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        assert_eq!(out.tasks, 24);
        // Three independent chains of 8 tasks × 20 us: nothing may finish
        // before 160 us however the tasks are distributed.
        assert!(out.makespan >= us(160), "{}", out.makespan);
    }

    #[test]
    fn stolen_descriptors_jump_blocked_heads_so_chains_cannot_deadlock() {
        // Regression: a chain-heavy un-hinted trace scattered by XorHash
        // builds cross-node head-of-line dependency cycles if stolen
        // descriptors queue behind the thief's own blocked head. They must
        // enter at the front (they are fully resolved by construction).
        let trace = distributed::unhinted(&distributed::rack_clustered(
            2,
            2,
            4,
            8,
            2.0,
            0.5,
            0.2,
            us(20),
            3,
        ));
        for stealing in StealKind::ALL {
            let cfg = ClusterConfig::new(4, 2).with_stealing(stealing);
            let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(out.tasks, trace.task_count() as u64, "{stealing}");
        }
    }

    #[test]
    fn calendar_engine_is_bit_identical_to_heap_across_the_grid() {
        // The engine-equivalence suite for the pluggable event core: every
        // topology × placement × stealing combination of the determinism grid
        // must produce the same `ClusterOutcome` bit for bit whether the
        // driver pops its events from the reference `BinaryHeap` or from the
        // calendar queue. The debug rendering covers every field (makespan,
        // per-node outcomes, link tiers, steals, event counts, ...).
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for topology in crate::config::Topology::ALL {
            for placement in PolicyKind::ALL {
                for stealing in StealKind::ALL {
                    let cfg = ClusterConfig::new(4, 4)
                        .with_link(LinkConfig::rdma().with_topology(topology))
                        .with_placement(placement)
                        .with_stealing(stealing);
                    let heap = simulate_cluster(
                        &trace,
                        &cfg.with_engine(nexus_sim::EngineKind::Heap),
                        |_| tight_sharp(),
                    );
                    let calendar = simulate_cluster(
                        &trace,
                        &cfg.with_engine(nexus_sim::EngineKind::Calendar),
                        |_| tight_sharp(),
                    );
                    assert_eq!(
                        format!("{heap:?}"),
                        format!("{calendar:?}"),
                        "engines diverged on {topology:?}/{placement}/{stealing}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_case_of_the_determinism_grid_is_bit_identical_across_engines() {
        // The streaming extension of the engine-equivalence grid: open-loop
        // arrivals through a tight admission bound (so back-pressure, wakes
        // and steal-capping all engage) must produce the same `StreamOutcome`
        // bit for bit on both engines. The debug rendering covers every field
        // (latencies, back-pressure count, depth series, source lag, ...).
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        let arrivals: Vec<SimTime> = (0..trace.task_count())
            .map(|i| SimTime::ZERO + us(5) * i as u64)
            .collect();
        let overlay = nexus_trace::arrivals::ArrivalOverlay::new(arrivals).unwrap();
        let source = StreamingSource::open_loop(overlay, crate::stream::AdmissionConfig::new(4));
        let run = |engine: nexus_sim::EngineKind| {
            let cfg = ClusterConfig::new(4, 4)
                .with_link(LinkConfig::rdma())
                .with_stealing(StealKind::MostLoaded)
                .with_engine(engine);
            ClusterDriver::new(&cfg, |_| tight_sharp()).run_streaming(&trace, &source)
        };
        let heap = run(nexus_sim::EngineKind::Heap);
        let calendar = run(nexus_sim::EngineKind::Calendar);
        assert_eq!(
            format!("{heap:?}"),
            format!("{calendar:?}"),
            "engines diverged on the streaming case"
        );
        // The tight bound was actually exercised, not vacuously satisfied.
        assert!(heap.max_admission_depth <= 4);
        assert_eq!(
            heap.latencies.len(),
            trace.task_count(),
            "every task must retire exactly once"
        );
    }

    #[test]
    fn streaming_recorder_is_observational_and_sees_backpressure() {
        // Open-loop streaming with a tight admission bound: the recorder must
        // not perturb the StreamOutcome, and the Backpressure span events
        // must agree with the outcome's counter.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        let arrivals: Vec<SimTime> = (0..trace.task_count())
            .map(|i| SimTime::ZERO + us(5) * i as u64)
            .collect();
        let overlay = nexus_trace::arrivals::ArrivalOverlay::new(arrivals).unwrap();
        let source = StreamingSource::open_loop(overlay, crate::stream::AdmissionConfig::new(4));
        let cfg = ClusterConfig::new(4, 4)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let plain = ClusterDriver::new(&cfg, |_| tight_sharp()).run_streaming(&trace, &source);
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let traced = ClusterDriver::new(&cfg, |_| tight_sharp())
            .run_streaming_recorded(&trace, &source, &mut rec);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        let bp = rec.count(|ev| matches!(ev, nexus_obs::SpanEvent::Backpressure { .. }));
        assert_eq!(bp as u64, traced.backpressure_events);
        assert!(bp > 0, "tight bound must actually back-pressure");
        assert_eq!(
            traced.cluster.metrics.counter("stream.backpressure"),
            traced.backpressure_events,
            "stream counters fold into the outcome registry"
        );
        nexus_obs::check_conservation(&rec.events)
            .expect("streaming trace must conserve the task lifecycle");
    }

    #[test]
    fn recorder_is_purely_observational_across_the_grid() {
        // The tentpole invariant of the observability layer: attaching a
        // recorder must not perturb the simulation. Every topology ×
        // placement × stealing combination of the determinism grid, on both
        // event engines, must produce a bit-identical `ClusterOutcome` with
        // tracing on vs. off.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for engine in [nexus_sim::EngineKind::Heap, nexus_sim::EngineKind::Calendar] {
            for topology in crate::config::Topology::ALL {
                for placement in PolicyKind::ALL {
                    for stealing in StealKind::ALL {
                        let cfg = ClusterConfig::new(4, 4)
                            .with_link(LinkConfig::rdma().with_topology(topology))
                            .with_placement(placement)
                            .with_stealing(stealing)
                            .with_engine(engine);
                        let plain = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
                        let traced = ClusterDriver::new(&cfg, |_| tight_sharp())
                            .run_recorded(&trace, &mut rec);
                        assert_eq!(
                            format!("{plain:?}"),
                            format!("{traced:?}"),
                            "recorder perturbed {engine:?}/{topology:?}/{placement}/{stealing}"
                        );
                        assert!(!rec.is_empty(), "recorder saw no events");
                    }
                }
            }
        }
    }

    #[test]
    fn recorded_spans_conserve_the_task_lifecycle() {
        // Every submitted task retires exactly once and its lifecycle
        // timestamps are monotone; steals and link hops show up in the log.
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let out = ClusterDriver::new(&cfg, |_| tight_sharp()).run_recorded(&trace, &mut rec);
        let report = nexus_obs::check_conservation(&rec.events)
            .expect("cluster trace must conserve the task lifecycle");
        assert_eq!(report.submitted as u64, out.tasks);
        assert_eq!(report.retired as u64, out.tasks);
        assert_eq!(report.started as u64, out.tasks);
        assert_eq!(report.stolen as u64, out.steals);
        assert!(out.steals > 0, "scenario must actually steal");
        let hops = rec.count(|ev| matches!(ev, nexus_obs::SpanEvent::LinkHop { .. }));
        assert_eq!(hops as u64, out.link.messages, "one LinkHop per link entry");
    }

    #[test]
    fn outcome_metrics_mirror_the_scalar_fields() {
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        assert_eq!(out.metrics.counter("task.executed"), out.tasks);
        assert_eq!(out.metrics.counter("steal.stolen"), out.steals);
        assert_eq!(out.metrics.counter("steal.failures"), out.steal_failures);
        assert!(out.metrics.counter("steal.grants") > 0);
        assert_eq!(out.metrics.counter("reclaim.reclaimed"), out.reclaims);
        assert_eq!(
            out.metrics.counter("reclaim.failures"),
            out.reclaim_failures
        );
        assert_eq!(out.reclaims, 0, "feedback is off in this scenario");
        assert_eq!(out.metrics.counter("load.digest.updates"), 0);
        assert_eq!(out.metrics.counter("notify.sent"), out.notifications);
        assert_eq!(out.metrics.counter("sim.events"), out.sim_events);
        assert_eq!(out.metrics.counter("link.words"), out.link.words);
        assert_eq!(
            out.metrics.counter("link.tier0.words"),
            out.link.per_tier[0].words
        );
        let pending = out.metrics.gauge("node.pending.max").unwrap();
        assert_eq!(pending.max, out.max_pending_depth as u64);
    }

    #[test]
    fn profiled_run_reports_engine_activity_without_touching_the_outcome() {
        let trace = distributed::sparselu(4, 0.3, 9, 0.002);
        let cfg = ClusterConfig::new(4, 4);
        let plain = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let (profiled, prof) =
            ClusterDriver::new(&cfg, |_| IdealManager::new()).run_profiled(&trace);
        assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
        // Per-kind counts add up to the loop's event total, and the queue
        // accounting is consistent: every processed event was either popped
        // from the queue or coalesced inline.
        let per_kind: u64 = prof
            .counters_with_prefix("engine.event.")
            .filter(|(k, _)| k.ends_with(".count"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_kind, profiled.sim_events);
        assert_eq!(
            prof.counter("engine.pops") + prof.counter("engine.inline_coalesced"),
            profiled.sim_events
        );
        assert!(prof.counter("engine.pushes") >= prof.counter("engine.pops"));
        assert!(prof.counter("engine.event.master_step.count") > 0);
    }

    #[test]
    fn failed_steals_on_ideal_links_cannot_livelock_a_timestamp() {
        // Regression for the `last_steal_fail == Some(now)` guard: on an
        // ideal (zero-latency) link a failed steal's empty-handed reply
        // returns at the *same* timestamp it was issued. Without the guard
        // the idle thief re-issues the request inside the same event cascade
        // and the loop never advances time. The victim here is a serial
        // chain pinned to node 0, so node 1 stays idle (and stealing stays
        // useless) for the whole run.
        let mut b = nexus_trace::trace::TraceBuilder::new("ideal-empty-victim");
        for _ in 0..32u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x40)
                    .duration(us(10))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        let trace = b.finish();
        for stealing in StealKind::ALL {
            if !stealing.is_enabled() {
                continue;
            }
            let cfg = ClusterConfig::new(2, 2)
                .with_link(LinkConfig::ideal())
                .with_stealing(stealing);
            let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(out.tasks, 32, "{stealing}");
            // The chain serializes execution whatever the thief does.
            assert!(out.makespan >= us(320), "{stealing}: {}", out.makespan);
            // Failed attempts are bounded (at most one per thief per distinct
            // timestamp), not a same-time livelock.
            assert!(
                out.steal_failures <= out.sim_events,
                "{stealing}: {} failures in {} events",
                out.steal_failures,
                out.sim_events
            );
        }
    }

    #[test]
    fn policies_and_stealing_stay_deterministic() {
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for placement in PolicyKind::ALL {
            for stealing in StealKind::ALL {
                let cfg = ClusterConfig::new(4, 4)
                    .with_placement(placement)
                    .with_stealing(stealing);
                let a = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                let b = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                assert_eq!(a.makespan, b.makespan, "{placement}/{stealing}");
                assert_eq!(a.steals, b.steals, "{placement}/{stealing}");
                assert_eq!(a.link.words, b.link.words, "{placement}/{stealing}");
                assert_eq!(a.node_tasks(), b.node_tasks(), "{placement}/{stealing}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterDriver::new(&ClusterConfig::new(0, 4), |_| IdealManager::new());
    }

    use nexus_sched::FeedbackKind;

    /// Six interleaved 8-long chains pinned to node 0: at any instant only
    /// the chain fronts are steal-eligible — everything behind them is
    /// dependence-blocked, work that only reclamation can move.
    fn chain_block_trace() -> Trace {
        let mut b = nexus_trace::trace::TraceBuilder::new("reclaim-chains");
        for i in 0..48u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x100 + (i % 6) * 0x40)
                    .duration(us(20))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        b.finish()
    }

    #[test]
    fn reclamation_moves_blocked_backlogs_stealing_cannot_reach() {
        // With stealing disabled entirely, only the reclaim protocol can get
        // work off node 0 — and because each chain serializes on itself, the
        // blocked tail is exactly what is worth moving.
        let cfg = ClusterConfig::new(2, 2).with_link(LinkConfig::rdma());
        let frozen = simulate_cluster(&chain_block_trace(), &cfg, |_| tight_sharp());
        let reclaimed = simulate_cluster(
            &chain_block_trace(),
            &cfg.with_feedback(FeedbackKind::Reclaim),
            |_| tight_sharp(),
        );
        assert_eq!(frozen.reclaims, 0);
        assert_eq!(frozen.tasks, reclaimed.tasks);
        assert!(reclaimed.reclaims > 0, "reclamation must actually happen");
        assert!(
            reclaimed.makespan < frozen.makespan,
            "reclaim must improve the makespan: {} vs {}",
            reclaimed.makespan,
            frozen.makespan
        );
        // Every reclaimed descriptor paid the wire.
        assert!(reclaimed.link.words > frozen.link.words);
        assert_eq!(
            reclaimed.metrics.counter("reclaim.reclaimed"),
            reclaimed.reclaims
        );
        assert!(reclaimed.metrics.counter("reclaim.grants") > 0);
        assert!(
            reclaimed.metrics.counter("load.digest.updates") > 0,
            "digests must ride the retirement notifications"
        );
    }

    #[test]
    fn reclaimed_descriptors_keep_dependences_and_conserve_the_lifecycle() {
        // Recorded reclaim run: every task retires exactly once (the
        // conservation checker treats a Reclaimed task like a Stolen one),
        // and the span census agrees with the outcome counters.
        let cfg = ClusterConfig::new(2, 2)
            .with_link(LinkConfig::rdma())
            .with_feedback(FeedbackKind::Reclaim);
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let out = ClusterDriver::new(&cfg, |_| tight_sharp())
            .run_recorded(&chain_block_trace(), &mut rec);
        let report = nexus_obs::check_conservation(&rec.events)
            .expect("reclaim trace must conserve the task lifecycle");
        assert_eq!(report.retired as u64, out.tasks);
        assert_eq!(report.reclaimed as u64, out.reclaims);
        assert!(out.reclaims > 0, "scenario must actually reclaim");
        // The chains force sequential execution per chain: 8 × 20 µs is a
        // hard lower bound however the descriptors move.
        assert!(out.makespan >= us(160), "{}", out.makespan);
    }

    #[test]
    fn reclaimed_descriptors_park_until_resolved_so_chains_cannot_deadlock() {
        // The reclaim counterpart of the stolen-front-of-queue regression: a
        // chain-heavy un-hinted trace must complete under every stealing
        // policy with reclamation (and full feedback) on. A reclaimed
        // descriptor entering the thief's FIFO while still blocked — ahead of
        // or behind the wrong neighbours — would deadlock exactly like the
        // stolen case did.
        let trace = distributed::unhinted(&distributed::rack_clustered(
            2,
            2,
            4,
            8,
            2.0,
            0.5,
            0.2,
            us(20),
            3,
        ));
        for stealing in StealKind::ALL {
            for feedback in [FeedbackKind::Reclaim, FeedbackKind::Full] {
                let cfg = ClusterConfig::new(4, 2)
                    .with_stealing(stealing)
                    .with_feedback(feedback);
                let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                assert_eq!(
                    out.tasks,
                    trace.task_count() as u64,
                    "{stealing}/{feedback}"
                );
            }
        }
    }

    #[test]
    fn feedback_grid_is_bit_identical_across_engines_and_reruns() {
        // The feedback × reclaim extension of the determinism grid: every
        // feedback mode must be bit-identical across event engines and across
        // reruns, with stealing active so all three balancing mechanisms
        // (placement, stealing, reclamation) interleave.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for feedback in FeedbackKind::ALL {
            let cfg = ClusterConfig::new(4, 4)
                .with_link(LinkConfig::rdma())
                .with_stealing(StealKind::Hierarchical)
                .with_feedback(feedback);
            let heap = simulate_cluster(
                &trace,
                &cfg.with_engine(nexus_sim::EngineKind::Heap),
                |_| tight_sharp(),
            );
            let calendar = simulate_cluster(
                &trace,
                &cfg.with_engine(nexus_sim::EngineKind::Calendar),
                |_| tight_sharp(),
            );
            let rerun = simulate_cluster(
                &trace,
                &cfg.with_engine(nexus_sim::EngineKind::Heap),
                |_| tight_sharp(),
            );
            assert_eq!(
                format!("{heap:?}"),
                format!("{calendar:?}"),
                "engines diverged on feedback {feedback}"
            );
            assert_eq!(
                format!("{heap:?}"),
                format!("{rerun:?}"),
                "rerun diverged on feedback {feedback}"
            );
            // The recorder stays observational with feedback on, too.
            let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
            let traced = ClusterDriver::new(&cfg, |_| tight_sharp()).run_recorded(&trace, &mut rec);
            assert_eq!(
                format!("{heap:?}"),
                format!("{traced:?}"),
                "recorder perturbed feedback {feedback}"
            );
        }
    }

    #[test]
    fn relay_and_digest_slots_are_all_returned_when_a_run_ends() {
        // Every relay-table and digest-table slot a run takes is back on its
        // free list once the queue runs dry, across the determinism grid's
        // placements and stealing policies with full feedback (digests on
        // every retirement) on a rack fabric (multi-hop relays).
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for placement in PolicyKind::ALL {
            for stealing in StealKind::ALL {
                let cfg = ClusterConfig::new(4, 4)
                    .with_link(LinkConfig::rdma().with_topology(crate::config::Topology::RackTiers))
                    .with_placement(placement)
                    .with_stealing(stealing)
                    .with_feedback(FeedbackKind::Full);
                let driver = ClusterDriver::new(&cfg, |_| tight_sharp());
                let mut run = Run::new(driver, &trace, None, None, None);
                run.event_loop();
                let case = format!("{placement}/{stealing}");
                assert!(!run.relays.slots.is_empty(), "{case}: no multi-hop message");
                assert!(!run.digests.slots.is_empty(), "{case}: no digest");
                assert!(run.relays.all_returned(), "{case}: relay slot leaked");
                assert!(run.digests.all_returned(), "{case}: digest slot leaked");
                let (out, _) = run.finish();
                assert_eq!(out.tasks, trace.task_count() as u64, "{case}");
            }
        }
    }

    #[test]
    fn feedback_placement_follows_the_live_digests() {
        // `place` mode on an un-hinted imbalanced trace: the digests steer
        // un-hinted tasks away from the hot node, so placement spreads
        // strictly better than the static pre-pass decision.
        let trace = distributed::unhinted(&distributed::imbalanced(4, 96, 8.0, us(50), 0.1, 5));
        let cfg = ClusterConfig::new(4, 2).with_link(LinkConfig::rdma());
        let static_run = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        let live = simulate_cluster(&trace, &cfg.with_feedback(FeedbackKind::Place), |_| {
            tight_sharp()
        });
        assert_eq!(static_run.tasks, live.tasks);
        assert!(live.metrics.counter("load.digest.updates") > 0);
        assert_eq!(live.reclaims, 0, "place mode must not reclaim");
        let spread = |o: &ClusterOutcome| {
            let t = o.node_tasks();
            t.iter().max().copied().unwrap_or(0) - t.iter().min().copied().unwrap_or(0)
        };
        assert!(
            spread(&live) <= spread(&static_run),
            "live placement must not be more skewed: {:?} vs {:?}",
            live.node_tasks(),
            static_run.node_tasks()
        );
    }
}

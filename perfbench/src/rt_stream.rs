//! The live-runtime workload `rt-stream-n2`: `nexus-rt` on 2 nodes × 1
//! worker with the default configuration (XOR-hash placement, no stealing,
//! feedback off, time scale 0). One submitter thread keeps a fixed window of
//! trivial-body tasks in flight. Task `i` writes ring slot `i mod 1024` and
//! reads a seeded random other slot, so after the first pass every task has
//! producers, some of them homed on the other node.
//!
//! Every wait is bounded: the submitter gives up on a stream at its deadline,
//! polls `retired()` to drain, and shuts the runtime down with
//! `shutdown_timeout`. Tasks that did not retire by then count as failed.

use crate::stats::{median, peak_rss_bytes, quantile_sorted, rss_bytes};
use crate::Outcome;
use nexus_cluster::routing::DepScanner;
use nexus_rt::{ClusterRuntime, RtConfig, RtTask};
use nexus_sim::SimRng;
use nexus_trace::TaskDescriptor;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const NODES: usize = 2;
const WORKERS: usize = 1;
/// Ring of addresses the stream reads and writes.
pub const RING: u64 = 1024;
const RING_BASE: u64 = 0x4000_0000;
/// Address stride between ring slots (one cache line).
const SLOT: u64 = 64;
/// Repetitions of the timed dependence scan.
const SCAN_REPS: usize = 11;
/// Fewest measured streams, however long they take.
const MIN_STREAMS: u64 = 3;

/// Stream shape: tasks per stream, in-flight window and the per-stream
/// deadline after which unfinished tasks count as failed.
#[derive(Debug, Clone, Copy)]
pub struct StreamSize {
    /// Tasks per stream.
    pub tasks: usize,
    /// Most tasks submitted but not yet finished.
    pub window: usize,
    /// Longest a stream may take from first submit to last retirement.
    pub deadline: Duration,
}

/// The benchmark's stream: 10,000 tasks, window 32, 10 s deadline.
pub const SIZE: StreamSize = StreamSize {
    tasks: 10_000,
    window: 32,
    deadline: Duration::from_secs(10),
};

/// The stream for `seed`: `(written, read)` ring addresses per task.
pub fn stream(seed: u64, tasks: usize) -> Vec<(u64, u64)> {
    let mut rng = SimRng::new(seed ^ 0x5EED_57EA_0000_0002);
    (0..tasks as u64)
        .map(|i| {
            let w = i % RING;
            let r = (w + 1 + rng.next_below(RING - 1)) % RING;
            (RING_BASE + w * SLOT, RING_BASE + r * SLOT)
        })
        .collect()
}

/// Task `i`'s descriptor: `inout` its ring slot, `in` the other one.
fn descriptor(i: usize, (w, r): (u64, u64)) -> TaskDescriptor {
    TaskDescriptor::builder(i as u64).inout(w).input(r).build()
}

/// What a fresh `DepScanner` says about the stream.
pub struct Scan {
    /// Producer indices per task.
    pub producers: Vec<Vec<u32>>,
    /// Producer edges whose producer is homed on the other node.
    pub remote_edges: u64,
    /// Messages the manager threads handle: one `Submit` and one
    /// `WorkerDone` per task, plus one `Subscribe` and one `Notify` per
    /// distinct remote (producer, consumer home) pair.
    pub messages: u64,
}

/// Scans the stream with a fresh XOR-hash `DepScanner`, the placement and
/// dependence definition the runtime uses.
pub fn scan(pairs: &[(u64, u64)]) -> Scan {
    let mut scanner = DepScanner::new(NODES);
    let mut subscriptions = HashSet::new();
    let mut remote_edges = 0;
    let producers = pairs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let rec = scanner.scan_full(&descriptor(i, p));
            remote_edges += rec.remote_producers.len() as u64;
            for &rp in &rec.remote_producers {
                subscriptions.insert((rp, rec.home));
            }
            rec.producers.iter().map(|&p| p as u32).collect()
        })
        .collect();
    Scan {
        producers,
        remote_edges,
        messages: 2 * pairs.len() as u64 + 2 * subscriptions.len() as u64,
    }
}

/// A stamp not written yet. Filling with it (not with zero, which may map
/// untouched zero pages) makes the stamps resident before a stream starts.
const UNSTAMPED: u64 = u64::MAX;

/// Wall-clock stamps the task bodies write, in ns since `epoch`, and the
/// completion count the submitter's window waits on. The stamps are
/// `Relaxed`: they are read only after `shutdown_timeout` has joined the
/// workers that wrote them. `done` pairs its `Release` increment in the body
/// with the submitter's `Acquire` load.
struct Stamps {
    epoch: Instant,
    start_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
    done: AtomicU64,
}

impl Stamps {
    fn new(n: usize) -> Stamps {
        Stamps {
            epoch: Instant::now(),
            start_ns: (0..n).map(|_| AtomicU64::new(UNSTAMPED)).collect(),
            end_ns: (0..n).map(|_| AtomicU64::new(UNSTAMPED)).collect(),
            done: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A task body finished: stamp it and count it.
    fn finish(&self, i: usize) {
        self.end_ns[i].store(self.now_ns(), Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Yields until fewer than `window` of the first `i` tasks are
    /// unfinished; false if `limit` passes first.
    fn wait_window(&self, i: usize, window: usize, limit: Instant) -> bool {
        while i as u64 - self.done.load(Ordering::Acquire) >= window as u64 {
            if Instant::now() >= limit {
                return false;
            }
            thread::yield_now();
        }
        true
    }
}

/// One stream's census.
#[derive(Debug)]
pub struct StreamRun {
    /// Tasks retired by the deadline.
    pub retired: u64,
    /// Tasks of the stream not correctly retired (each exactly once, after
    /// its producers).
    pub failed: u64,
    /// First submit to last retirement.
    pub wall: Duration,
    /// Stream generation, as timed by the caller.
    pub gen: Duration,
    /// `gen` plus `ClusterRuntime::new` and `start`.
    pub setup: Duration,
    /// Submit-call → body-end latency samples (the finished tasks).
    pub latency_samples: u64,
    /// Their median and 99th percentile, ns.
    pub latency_ns: [u64; 2],
    /// Median and 99th percentile of the `RuntimeHandle::submit` calls, ns
    /// (traced only).
    pub submit_ns: [u64; 2],
    /// Total time inside `RuntimeHandle::submit`, ns (traced only).
    pub submit_busy_ns: u64,
    /// Median and 99th percentile of submit return → body start, ns
    /// (traced only).
    pub start_wait_ns: [u64; 2],
    /// RSS growth from just before `start` to the drained stream, bytes.
    pub rss_growth: i64,
    /// What went wrong, if anything.
    pub error: Option<String>,
}

/// Runs one stream on a fresh runtime. `panic_at` makes that task's body
/// panic (the failure-injection test); `traced` adds the submit-return
/// stamps. `gen` is the caller's time to
/// generate `pairs`; the reported set-up time adds `ClusterRuntime::new`
/// and `start` to it.
pub fn run_stream(
    pairs: &[(u64, u64)],
    producers: &[Vec<u32>],
    size: StreamSize,
    traced: bool,
    panic_at: Option<usize>,
    gen: Duration,
) -> StreamRun {
    let n = pairs.len();
    let stamps = Arc::new(Stamps::new(n));
    let mut call_ns = vec![UNSTAMPED; n];
    let mut return_ns = vec![UNSTAMPED; if traced { n } else { 0 }];
    let rss0 = rss_bytes() as i64;
    let t_start = Instant::now();
    let mut rt = ClusterRuntime::new(RtConfig::new(NODES, WORKERS));
    let handle = rt.start();
    let t0 = Instant::now();
    let setup = gen + (t0 - t_start);
    let limit = t0 + size.deadline;
    let mut submitted = 0;
    let mut error = None;
    for (i, &pair) in pairs.iter().enumerate() {
        if !stamps.wait_window(i, size.window, limit) {
            error = Some(format!("window stalled at task {i} until the deadline"));
            break;
        }
        let s = Arc::clone(&stamps);
        let body = move || {
            s.start_ns[i].store(s.now_ns(), Ordering::Relaxed);
            if panic_at == Some(i) {
                panic!("injected task failure (task {i})");
            }
            s.finish(i);
        };
        let task = RtTask::new(descriptor(i, pair)).with_body(body);
        call_ns[i] = stamps.now_ns();
        if handle.submit(task).is_err() {
            error = Some(format!("submit of task {i} refused"));
            break;
        }
        if traced {
            return_ns[i] = stamps.now_ns();
        }
        submitted += 1;
    }
    while handle.retired() < submitted && Instant::now() < limit {
        thread::sleep(Duration::from_micros(20));
    }
    let wall = t0.elapsed();
    let retired = handle.retired();
    let log = if retired == n as u64 {
        handle.retire_log()
    } else {
        Vec::new()
    };
    let rss_growth = rss_bytes() as i64 - rss0;
    let drained = retired == submitted;
    let report = rt.shutdown_timeout(Duration::from_millis(if drained { 1000 } else { 100 }));
    if error.is_none() && retired < n as u64 {
        error = Some(format!(
            "{retired} of {n} tasks retired by the deadline ({} pending at shutdown)",
            report.pending
        ));
    }
    if error.is_none() {
        if let Err(e) = check_order(&log, producers) {
            error = Some(e);
        }
    }
    let failed = match error {
        None => 0,
        Some(_) => (n as u64).saturating_sub(retired).max(1),
    };

    let ns = |a: &[AtomicU64], i: usize| a[i].load(Ordering::Relaxed);
    let finished: Vec<usize> = (0..submitted as usize)
        .filter(|&i| ns(&stamps.end_ns, i) != UNSTAMPED)
        .collect();
    let p50_p99 = |mut v: Vec<u64>| {
        v.sort_unstable();
        [quantile_sorted(&v, 0.50), quantile_sorted(&v, 0.99)]
    };
    let latency_ns = p50_p99(
        finished
            .iter()
            .map(|&i| ns(&stamps.end_ns, i).saturating_sub(call_ns[i]))
            .collect(),
    );
    let (mut submit_ns, mut submit_busy_ns, mut start_wait_ns) = ([0; 2], 0, [0; 2]);
    if traced {
        let submits: Vec<u64> = (0..submitted as usize)
            .map(|i| return_ns[i] - call_ns[i])
            .collect();
        submit_busy_ns = submits.iter().sum();
        submit_ns = p50_p99(submits);
        start_wait_ns = p50_p99(
            finished
                .iter()
                .map(|&i| ns(&stamps.start_ns, i).saturating_sub(return_ns[i]))
                .collect(),
        );
    }
    StreamRun {
        retired,
        failed,
        wall,
        gen,
        setup,
        latency_samples: finished.len() as u64,
        latency_ns,
        submit_ns,
        submit_busy_ns,
        start_wait_ns,
        rss_growth,
        error,
    }
}

/// Checks that `log` retires every task exactly once and every task after
/// all of its producers.
pub fn check_order(log: &[nexus_trace::TaskId], producers: &[Vec<u32>]) -> Result<(), String> {
    let n = producers.len();
    if log.len() != n {
        return Err(format!(
            "retire log has {} entries for {n} tasks",
            log.len()
        ));
    }
    let mut pos = vec![usize::MAX; n];
    for (k, id) in log.iter().enumerate() {
        let i = id.0 as usize;
        if i >= n || pos[i] != usize::MAX {
            return Err(format!("task {} retired twice or unknown", id.0));
        }
        pos[i] = k;
    }
    for (i, ps) in producers.iter().enumerate() {
        if let Some(&p) = ps.iter().find(|&&p| pos[p as usize] > pos[i]) {
            return Err(format!("task {i} retired before its producer {p}"));
        }
    }
    Ok(())
}

/// The measured streams of a run.
#[derive(Debug, Default)]
struct Streams {
    /// The measured streams.
    runs: Vec<StreamRun>,
    /// The warm-up stream's RSS growth per task, bytes: the first runtime
    /// in the process to hold a full stream's bookkeeping (later streams
    /// reuse the memory it freed).
    rss_per_task: f64,
}

impl Streams {
    /// The median over the measured streams of one per-stream figure.
    fn median_of(&self, figure: impl Fn(&StreamRun) -> f64) -> f64 {
        median(&mut self.runs.iter().map(figure).collect::<Vec<_>>())
    }

    /// Latency samples of the measured streams.
    fn latency_samples(&self) -> u64 {
        self.runs.iter().map(|r| r.latency_samples).sum()
    }
}

/// Runs one warm-up stream, then measured streams until `seconds` have
/// passed (at least `MIN_STREAMS`), each set up afresh: the seed's stream
/// is generated again and a new runtime started. Every stream counts in
/// the outcome's task census; the measured ones are returned.
fn streams(
    seed: u64,
    producers: &[Vec<u32>],
    size: StreamSize,
    seconds: f64,
    traced: bool,
    o: &mut Outcome,
) -> Streams {
    let mut out = Streams::default();
    let start = Instant::now();
    let mut warm_up = true;
    while (out.runs.len() as u64) < MIN_STREAMS || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() > 4.0 * seconds.max(1.0) {
            break;
        }
        let t = Instant::now();
        let pairs = stream(seed, size.tasks);
        let gen = t.elapsed();
        let run = run_stream(&pairs, producers, size, traced, None, gen);
        o.attempted += pairs.len() as u64;
        o.failed += run.failed;
        if let Some(e) = &run.error {
            o.fail(format!("rt-stream-n2: {e}"));
        } else if std::mem::take(&mut warm_up) {
            out.rss_per_task = run.rss_growth as f64 / pairs.len() as f64;
        } else {
            out.runs.push(run);
        }
    }
    out
}

/// The untraced run: the end-to-end metrics.
pub fn measure(seed: u64, seconds: f64, size: StreamSize) -> Outcome {
    let mut o = Outcome::default();
    let scan = scan(&stream(seed, size.tasks));
    let s = streams(seed, &scan.producers, size, seconds, false, &mut o);
    let wall = s.median_of(|r| r.wall.as_secs_f64().max(1e-9));
    let m = &mut o.metrics;
    m.insert("tasks_per_s".into(), size.tasks as f64 / wall);
    m.insert("events_per_s".into(), scan.messages as f64 / wall);
    m.insert("makespan_us".into(), wall * 1e6);
    m.insert(
        "latency_p50_us".into(),
        s.median_of(|r| r.latency_ns[0] as f64 / 1e3),
    );
    m.insert(
        "latency_p99_us".into(),
        s.median_of(|r| r.latency_ns[1] as f64 / 1e3),
    );
    m.insert("peak_rss_mb".into(), peak_rss_bytes() as f64 / 1e6);
    m.insert("setup_s".into(), s.median_of(|r| r.setup.as_secs_f64()));
    eprintln!(
        "perfbench: rt-stream-n2 seed {seed}: {} measured streams of {} tasks \
         (median stream {wall:.4} s); {} latency samples; {} CPUs available",
        s.runs.len(),
        size.tasks,
        s.latency_samples(),
        thread::available_parallelism().map_or(0, |n| n.get())
    );
    o
}

/// The traced run: the runtime's per-layer metrics.
pub fn trace_layers(seed: u64, seconds: f64, size: StreamSize) -> Outcome {
    let mut o = Outcome::default();
    let pairs = stream(seed, size.tasks);
    let mut scan_ms = Vec::new();
    let mut scanned = None;
    for _ in 0..SCAN_REPS {
        let t = Instant::now();
        scanned = Some(scan(&pairs));
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let scan = scanned.expect("at least one scan");
    let s = streams(seed, &scan.producers, size, seconds, true, &mut o);
    let m = &mut o.metrics;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("trace.gen_ms", s.median_of(|r| r.gen.as_secs_f64() * 1e3));
    put("trace.tasks", size.tasks as f64);
    put("routing.scan_ms", median(&mut scan_ms));
    put("routing.remote_edges", scan.remote_edges as f64);
    put("rt.submit_ns_p50", s.median_of(|r| r.submit_ns[0] as f64));
    put("rt.submit_ns_p99", s.median_of(|r| r.submit_ns[1] as f64));
    put(
        "rt.submit_busy_frac",
        s.median_of(|r| r.submit_busy_ns as f64 / r.wall.as_nanos().max(1) as f64),
    );
    put(
        "rt.start_wait_us_p50",
        s.median_of(|r| r.start_wait_ns[0] as f64 / 1e3),
    );
    put(
        "rt.start_wait_us_p99",
        s.median_of(|r| r.start_wait_ns[1] as f64 / 1e3),
    );
    put("rt.rss_bytes_per_task", s.rss_per_task);
    put("rt.latency_samples", s.latency_samples() as f64);
    crate::metrics::not_exercised(
        m,
        &[
            "manager.", "engine.", "link.", "steal.", "reclaim.", "load.", "obs.",
        ],
    );
    o
}

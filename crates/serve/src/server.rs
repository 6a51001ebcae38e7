//! The TCP server: admission, shard fleet, solving, shutdown.
//!
//! ```text
//!            ┌───────────────┐  ring   ┌─ shard 0: queue+caches+pool ─┐
//!  client ──▶│ connection    │──route──▶  shard 1: queue+caches+pool  │
//!  (NDJSON)  │ thread (read  │◀─reply──│  …                           │
//!            │ timeout poll) │         └─ shard N-1 ──────────────────┘
//!            └───────────────┘
//! ```
//!
//! * The **acceptor** polls a non-blocking listener and spawns one
//!   scoped thread per connection.
//! * **Connection threads** parse one request per line. Cheap
//!   operations (`cache_stats`, `metrics`, `health`, `shutdown`,
//!   malformed input) are answered inline; `solve` / `mode_solve` /
//!   `validate` are fingerprinted and routed onto one of
//!   [`ServeConfig::shards`] independent shards by the consistent-hash
//!   [`Ring`]. `batch_solve` fingerprints each item and groups the
//!   batch by destination shard. Both then go through one admission
//!   path: every target shard's bounded queue takes one job, or none
//!   does — when a queue is full, or after shutdown began, the whole
//!   request is rejected immediately with a structured reason rather
//!   than queued without bound. Each job answers through its own
//!   one-shot channel; a batch's per-item responses are reassembled in
//!   request order. A worker that exits without answering drops that
//!   channel, and its client gets a structured `error` instead of a
//!   hang. The two read-only probes (`metrics`, `health`) are excluded
//!   from request counting so polling them never perturbs the telemetry
//!   they report.
//! * **Shards** each own one LRU answer cache (for `solve` and
//!   `mode_solve` alike) and [`ServeConfig::workers`] worker threads (a
//!   [`netdag_runtime::run_indexed`] fan-out of `shards × workers`).
//!   Routing by the *structural* fingerprint hash keeps every
//!   structural family on one shard, so exact/warm/miss classification
//!   — and therefore every response byte — is identical at any shard
//!   count. Each solve first probes its shard's cache: an exact hit
//!   answers verbatim with zero solver nodes; a structural hit
//!   warm-starts branch-and-bound through [`SolveControl`]; a miss
//!   solves cold. Timing infeasibility is left to the solve's own CPM
//!   presolve (zero search nodes): there is no screen before admission,
//!   so an exact hit never pays for the closure. A per-request deadline is enforced by the same
//!   controller — expiry returns the best incumbent found so far,
//!   marked incomplete.
//! * **Warm restart** ([`ServeConfig::cache_snapshot`]): at startup the
//!   snapshot file, if present, is validated against its schema tag and
//!   every entry is re-routed through the *current* ring — a snapshot
//!   written by an N-shard daemon restores into an M-shard one. On
//!   graceful drain the merged cache contents are written back
//!   atomically (sibling temp file + `rename`).
//! * **Shutdown** (the `shutdown` operation) stops admission, wakes
//!   every worker, and lets them drain all accepted requests before
//!   [`serve`] returns; every accepted request is answered — by its
//!   result, or by an `error` if its handler panicked.
//!
//! All counters land in the global [`netdag_obs`] recorder under the
//! `serve.*` keys and every request runs inside a `serve.request`
//! trace span, so `netdag serve --metrics/--trace` export them with the
//! standard schemas. Live telemetry layers on top: per-server
//! [`netdag_obs::WindowedHist`] rings answer the `metrics` operation
//! with rolling p50/p90/p99 over recent traffic, each worker-handled
//! request can emit one structured JSON access-log line
//! ([`ServeConfig::access_log`]) carrying the same `rid` stamped into
//! its trace span, periodic delta snapshots are written atomically
//! every [`ServeConfig::metrics_interval`] completed requests, and an
//! [`SloGate`] is evaluated against the windowed data at shutdown.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use netdag_core::app::TaskId;
use netdag_core::config::{Backend, RoundStructure, ScheduleError, SchedulerConfig};
use netdag_core::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
use netdag_core::control::SolveControl;
use netdag_core::modes::schedule_modes_controlled;
use netdag_core::soft::schedule_soft_controlled;
use netdag_core::spec::{ScheduleExport, SpecError};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::schedule_weakly_hard_controlled;
use netdag_obs::{counter, keys, Gauge, SloGate, SloInputs, SloReport, WindowedHist};
use netdag_runtime::{run_indexed, ExecPolicy};
use netdag_validation::{validate_contract, ValidationSettings};

use crate::cache::{Answer, Lookup, SolutionCache};
use crate::fingerprint::{fingerprint, mode_fingerprint, Fingerprint};
use crate::protocol::{
    CacheStatsBody, HealthBody, MetricsBody, Request, Response, RollingStats, ShardCacheStats,
    StatSpec, ValidationReport, WindowMeta, MAX_FRAME_BYTES, REASON_QUEUE_FULL,
    REASON_SHUTTING_DOWN, STATUS_INCOMPLETE, STATUS_INFEASIBLE, STATUS_OK,
};
use crate::ring::Ring;
use crate::snapshot::{self, CacheSnapshot, SnapshotEntry};

/// How often blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Locks `m`, taking the guard over even when a panicking holder
/// poisoned it, so one failed request cannot turn every later lock of
/// the daemon into a panic. Sound because each guarded update (a queue
/// push or pop, a cache insert, one access-log line, a baseline swap)
/// is one call that leaves its structure valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's one error exit: answers `reason` as an `error` and
/// counts it under `serve.errors`. Every handler reports a refusal as
/// `Err(reason)` and ends here.
fn error_response(id: Option<u64>, reason: &str) -> Response {
    counter!(keys::SERVE_ERRORS).incr();
    Response::error(id, reason)
}

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Independent shards (minimum 1). Each shard owns its own answer
    /// cache, admission queue, and worker pool;
    /// requests are routed by consistent hashing over the structural
    /// fingerprint, so responses are byte-identical at any shard count.
    pub shards: usize,
    /// Worker threads solving requests **per shard** (minimum 1).
    pub workers: usize,
    /// Admission queue bound **per shard**: requests beyond this many
    /// waiting are rejected with [`REASON_QUEUE_FULL`].
    pub queue_capacity: usize,
    /// Answer cache bound **per shard**, shared by `solve` and
    /// `mode_solve` answers (LRU eviction beyond it).
    pub cache_capacity: usize,
    /// Engine node budget between deadline polls of a controlled solve.
    pub step_nodes: u64,
    /// Structured JSON access-log path: one line per worker-handled
    /// request. `None` disables logging.
    pub access_log: Option<PathBuf>,
    /// Target file of the periodic snapshot writer (the CLI passes its
    /// `--metrics` path). Only used when `metrics_interval > 0`.
    pub metrics_path: Option<PathBuf>,
    /// Write a delta metrics snapshot every this many completed
    /// requests (0 disables the writer). Writes go to a sibling temp
    /// file then `rename`, so readers never observe a torn document.
    pub metrics_interval: u64,
    /// Ring slots of each rolling telemetry window.
    pub window_slots: usize,
    /// Advance the rolling windows every this many completed requests,
    /// so the window covers the last `window_slots × window_tick`
    /// requests of traffic.
    pub window_tick: u64,
    /// Thresholds evaluated against the windowed data at shutdown
    /// (empty by default: no checks, report omitted).
    pub slo: SloGate,
    /// Cache persistence file: restored (re-routed onto the current
    /// ring) before accepting connections, written atomically on
    /// graceful drain. `None` disables persistence.
    pub cache_snapshot: Option<PathBuf>,
    /// Test fixture, not a tuning knob: see [`WorkerHook`].
    #[doc(hidden)]
    pub worker_hook: Option<WorkerHook>,
}

/// A callback each worker runs on every dequeued job, after counting it
/// in flight and just before its handler, with the job's op and client
/// id. Tests use it to hold a worker at a gate they open themselves, or
/// to inject a handler panic. Neither the CLI nor the protocol
/// can set it.
#[doc(hidden)]
#[derive(Clone)]
pub struct WorkerHook(Arc<HookFn>);

type HookFn = dyn Fn(&str, Option<u64>) + Send + Sync;

impl WorkerHook {
    /// Wraps `f` as a hook.
    pub fn new(f: impl Fn(&str, Option<u64>) + Send + Sync + 'static) -> WorkerHook {
        WorkerHook(Arc::new(f))
    }
}

impl fmt::Debug for WorkerHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WorkerHook(..)")
    }
}

/// Hooks compare by identity.
impl PartialEq for WorkerHook {
    fn eq(&self, other: &WorkerHook) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            step_nodes: 4096,
            access_log: None,
            metrics_path: None,
            metrics_interval: 0,
            window_slots: 16,
            window_tick: 64,
            slo: SloGate::default(),
            cache_snapshot: None,
            worker_hook: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`serve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Request lines received (including malformed and rejected ones).
    pub requests: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Exact cache hits.
    pub cache_hits: u64,
    /// Cold solves.
    pub cache_misses: u64,
    /// Warm-started solves.
    pub warm_starts: u64,
    /// Solves truncated by their deadline.
    pub deadline_expired: u64,
    /// Cache entries restored from [`ServeConfig::cache_snapshot`].
    pub restored: u64,
    /// The shutdown SLO verdict; `None` when no gate was configured.
    pub slo: Option<SloReport>,
}

/// What a queued job asks its shard's worker to do.
enum Work {
    /// One `solve` / `mode_solve` / `validate` request. The connection
    /// thread already computed the fingerprint to route the request; it
    /// rides along so the worker never hashes twice.
    Single {
        req: Box<Request>,
        fp: Option<Fingerprint>,
    },
    /// One shard's slice of a `batch_solve` request: synthesized solve
    /// requests (batch head's `config`/`deadline_ms` merged in) with
    /// their fingerprints, in batch order. The worker answers with a
    /// `batch` array aligned to this slice; items run back-to-back, so
    /// a repeat hits the cache its predecessor just filled and
    /// structural neighbours chain warm starts within the batch.
    Batch {
        head_id: Option<u64>,
        items: Vec<(Request, Fingerprint)>,
    },
}

impl Work {
    /// Operation label for the trace span and access log.
    fn op(&self) -> &str {
        match self {
            Work::Single { req, .. } => &req.op,
            Work::Batch { .. } => "batch_solve",
        }
    }

    /// Client correlation id.
    fn id(&self) -> Option<u64> {
        match self {
            Work::Single { req, .. } => req.id,
            Work::Batch { head_id, .. } => *head_id,
        }
    }
}

/// One queued job plus the channel its response is delivered through.
struct Job {
    work: Work,
    /// Server-assigned request id, stamped into both the access-log
    /// line and the `serve.request` trace span so the two correlate.
    rid: u64,
    accepted_at: Instant,
    /// Dropped unanswered if the worker unwinds out of a handler, which
    /// releases the waiting connection thread with an error.
    reply: SyncSender<Response>,
}

/// The daemon's rolling telemetry windows, one per windowed metric.
/// All four tick together every [`ServeConfig::window_tick`] completed
/// requests. `solver_nodes` is count-based and therefore pinned
/// bit-identical across worker counts; the three wall-time windows are
/// reported but exempt from determinism pins.
struct Windows {
    latency_us: WindowedHist,
    queue_wait_us: WindowedHist,
    service_us: WindowedHist,
    solver_nodes: WindowedHist,
}

impl Windows {
    fn new(slots: usize) -> Windows {
        Windows {
            latency_us: WindowedHist::new(slots),
            queue_wait_us: WindowedHist::new(slots),
            service_us: WindowedHist::new(slots),
            solver_nodes: WindowedHist::new(slots),
        }
    }

    fn tick(&self) {
        self.latency_us.tick();
        self.queue_wait_us.tick();
        self.service_us.tick();
        self.solver_nodes.tick();
    }

    /// The `metrics` operation's `rolling` section, in fixed name
    /// order.
    fn rolling(&self) -> Vec<RollingStats> {
        [
            ("serve.latency_us", &self.latency_us),
            ("serve.queue_wait_us", &self.queue_wait_us),
            ("serve.service_us", &self.service_us),
            ("serve.solver_nodes", &self.solver_nodes),
        ]
        .into_iter()
        .map(|(name, w)| {
            let s = w.stats();
            RollingStats {
                name: name.to_owned(),
                count: s.count,
                sum: s.sum,
                max: s.max,
                p50: s.p50,
                p90: s.p90,
                p99: s.p99,
            }
        })
        .collect()
    }
}

/// Handles to the global `serve.*` gauges, resolved once per server.
struct Gauges {
    queue_depth: Gauge,
    in_flight: Gauge,
    cache_entries: Gauge,
    workers_live: Gauge,
    shards: Gauge,
}

impl Gauges {
    fn new() -> Gauges {
        let r = netdag_obs::global();
        Gauges {
            queue_depth: r.gauge(keys::GAUGE_SERVE_QUEUE_DEPTH),
            in_flight: r.gauge(keys::GAUGE_SERVE_IN_FLIGHT),
            cache_entries: r.gauge(keys::GAUGE_SERVE_CACHE_ENTRIES),
            workers_live: r.gauge(keys::GAUGE_SERVE_WORKERS_LIVE),
            shards: r.gauge(keys::GAUGE_SERVE_SHARDS),
        }
    }
}

/// One shard of the fleet: its own admission queue, cache, and
/// restore counter. Workers are bound to exactly one shard, so a
/// shard's cache is only ever touched by its own pool (plus the
/// connection threads reading stats).
struct ShardState {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cache: Mutex<SolutionCache>,
    /// Entries restored into this shard from the startup snapshot.
    restored: AtomicU64,
}

impl ShardState {
    fn new(cache_capacity: usize) -> ShardState {
        ShardState {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cache: Mutex::new(SolutionCache::new(cache_capacity)),
            restored: AtomicU64::new(0),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    started: Instant,
    ring: Ring,
    shards: Vec<ShardState>,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    /// This daemon's live worker threads (the `serve.workers_live`
    /// gauge is process-global and would count every in-process
    /// daemon's workers).
    workers_live: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Requests fully handled by a worker (drives window ticks and the
    /// interval snapshot writer).
    completed: AtomicU64,
    /// Per-server deadline expiries (the obs counter is process-global
    /// and would double-count across in-process servers).
    deadline_expired: AtomicU64,
    /// Next server-assigned request id.
    next_rid: AtomicU64,
    windows: Windows,
    gauges: Gauges,
    /// Open access log, when configured.
    access: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Baseline of the last interval snapshot, so each written file is
    /// a true delta covering only its own interval.
    snap_base: Mutex<netdag_obs::MetricsReport>,
}

impl Shared {
    /// The state of a fresh daemon, its access log (when configured)
    /// created and its shard count published.
    fn new(cfg: &ServeConfig) -> std::io::Result<Shared> {
        let access = match cfg.access_log.as_ref() {
            Some(path) => Some(Mutex::new(BufWriter::new(std::fs::File::create(path)?))),
            None => None,
        };
        let nshards = cfg.shards.max(1);
        let shared = Shared {
            cfg: cfg.clone(),
            started: Instant::now(),
            ring: Ring::new(nshards),
            shards: (0..nshards)
                .map(|_| ShardState::new(cfg.cache_capacity))
                .collect(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            workers_live: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            next_rid: AtomicU64::new(1),
            windows: Windows::new(cfg.window_slots),
            gauges: Gauges::new(),
            access,
            snap_base: Mutex::new(netdag_obs::global().snapshot()),
        };
        shared.gauges.shards.set(nshards as u64);
        Ok(shared)
    }

    /// Wakes every shard's worker pool (the shutdown broadcast).
    fn wake_all(&self) {
        for shard in &self.shards {
            shard.ready.notify_all();
        }
    }
}

/// Runs the daemon on an already-bound listener until a client sends a
/// `shutdown` request; every request accepted before then is answered
/// before this returns. The listener may be bound to port 0 — callers
/// should print `listener.local_addr()` for clients.
///
/// # Errors
///
/// Returns the listener's error if it cannot be switched to
/// non-blocking mode, the filesystem error if a configured access log
/// cannot be created, or a configured cache snapshot's error if the
/// file exists but is unreadable, unparsable, or carries an unsupported
/// schema tag (a missing file is a normal cold start); per-connection
/// I/O errors only terminate the affected connection.
pub fn serve(listener: TcpListener, cfg: &ServeConfig) -> std::io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    // Pin the full instrument schema before the first `metrics`
    // response so its embedded obs document has the same key set as a
    // `--metrics` file, whichever entry point started the daemon.
    netdag_obs::global().preregister(
        keys::ALL_COUNTERS,
        keys::ALL_SPANS,
        keys::ALL_HISTOGRAMS,
        keys::ALL_GAUGES,
    );
    let shared = Shared::new(cfg)?;
    // Warm restart: load the predecessor's cache before accepting any
    // connection, re-routing every entry through *this* daemon's ring.
    if let Some(path) = cfg.cache_snapshot.as_ref() {
        if let Some(snap) = snapshot::load(path)? {
            restore_snapshot(&shared, snap);
        }
    }
    let nshards = shared.shards.len();
    let pool = nshards * cfg.workers.max(1);
    std::thread::scope(|scope| {
        scope.spawn(|| accept_loop(&listener, &shared, scope));
        // The shard pools run on the calling thread's fan-out — worker
        // `i` drains shard `i % nshards` — and return only when
        // shutdown was requested and every queue is drained.
        run_indexed(ExecPolicy::Threads(pool), pool, |i| {
            worker_loop(&shared, &shared.shards[i % nshards]);
        });
    });
    if let Some(log) = shared.access.as_ref() {
        let _ = lock(log).flush();
    }
    // Persist the drained fleet's caches. A write failure is reported
    // but does not fail the daemon: every accepted request was already
    // answered, and the stale-or-absent file is detected on restart.
    if let Some(path) = cfg.cache_snapshot.as_ref() {
        if let Err(e) = snapshot::store(path, &collect_snapshot(&shared)) {
            eprintln!(
                "netdag-serve: cache snapshot to {} failed: {e}",
                path.display()
            );
        }
    }
    let s = aggregate_stats(&shared);
    let deadline_expired = shared.deadline_expired.load(Ordering::Relaxed);
    let slo = if cfg.slo.is_empty() {
        None
    } else {
        let lookups = s.hits + s.misses + s.warm_starts;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            s.hits as f64 / lookups as f64
        };
        Some(cfg.slo.evaluate(&SloInputs {
            p99_us: shared.windows.latency_us.stats().p99,
            hit_rate,
            deadline_expired,
        }))
    };
    Ok(ServeReport {
        requests: shared.requests.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        cache_hits: s.hits,
        cache_misses: s.misses,
        warm_starts: s.warm_starts,
        deadline_expired,
        restored: s.restored,
        slo,
    })
}

/// Routes every snapshot entry through the current ring and reinserts
/// it into the owning shard, preserving least- to most-recent order.
/// When a shard's slice exceeds its capacity (a snapshot written by a
/// larger fleet restoring into a smaller one), only the most recent
/// `cache_capacity` entries are kept — a restore fills caches, it
/// never starts them mid-eviction.
fn restore_snapshot(shared: &Shared, snap: CacheSnapshot) {
    let cap = shared.cfg.cache_capacity.max(1);
    let mut per_shard: Vec<Vec<SnapshotEntry>> =
        (0..shared.shards.len()).map(|_| Vec::new()).collect();
    for entry in snap.entries {
        per_shard[shared.ring.route(entry.structural)].push(entry);
    }
    let mut restored_total = 0u64;
    let mut entries_total = 0u64;
    for (shard, mut entries) in shared.shards.iter().zip(per_shard) {
        if entries.len() > cap {
            entries.drain(..entries.len() - cap);
        }
        let mut cache = lock(&shard.cache);
        let mut restored = 0u64;
        for entry in entries {
            if cache.restore(entry) {
                restored += 1;
            }
        }
        entries_total += cache.stats().entries;
        shard.restored.fetch_add(restored, Ordering::Relaxed);
        restored_total += restored;
    }
    netdag_obs::global()
        .counter(keys::SERVE_CACHE_RESTORED)
        .add(restored_total);
    shared.gauges.cache_entries.set(entries_total);
}

/// Merges every shard's cache into one snapshot document, shard by
/// shard, each shard's entries in least- to most-recent order.
fn collect_snapshot(shared: &Shared) -> CacheSnapshot {
    let mut snap = CacheSnapshot::new();
    for shard in &shared.shards {
        snap.entries.extend(lock(&shard.cache).export_entries());
    }
    snap
}

/// The `cache_stats` aggregate over the whole fleet plus the per-shard
/// breakdown. Everything except the `shards` rows is invariant under
/// the shard count for the same request sequence (absent evictions),
/// because the ring routes each structural family to exactly one
/// shard; `capacity` is the per-shard bound.
fn aggregate_stats(shared: &Shared) -> CacheStatsBody {
    let mut body = CacheStatsBody {
        entries: 0,
        capacity: shared.cfg.cache_capacity.max(1) as u64,
        hits: 0,
        misses: 0,
        warm_starts: 0,
        evictions: 0,
        queued: 0,
        in_flight: shared.in_flight.load(Ordering::SeqCst),
        mode_entries: 0,
        restored: 0,
        shards: Vec::with_capacity(shared.shards.len()),
    };
    for (i, shard) in shared.shards.iter().enumerate() {
        let s = lock(&shard.cache).stats();
        let restored = shard.restored.load(Ordering::Relaxed);
        body.entries += s.entries;
        body.hits += s.hits;
        body.misses += s.misses;
        body.warm_starts += s.warm_starts;
        body.evictions += s.evictions;
        body.mode_entries += s.mode_entries;
        body.restored += restored;
        body.queued += lock(&shard.queue).len() as u64;
        body.shards.push(ShardCacheStats {
            shard: i as u64,
            entries: s.entries,
            hits: s.hits,
            misses: s.misses,
            warm_starts: s.warm_starts,
            evictions: s.evictions,
            restored,
            mode_entries: s.mode_entries,
        });
    }
    body
}

fn accept_loop<'scope>(
    listener: &'scope TcpListener,
    shared: &'scope Shared,
    scope: &'scope std::thread::Scope<'scope, '_>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                scope.spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Blocking reads with a short timeout so the thread notices
    // shutdown even on an idle connection.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    loop {
        // A read may buffer a partial line before a timeout, so `frame`
        // is only cleared after a complete one. Reading at most one byte
        // past the bound tells an oversized line from a full one.
        let room = (MAX_FRAME_BYTES + 1 - frame.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut frame) {
            Ok(0) => return,
            Ok(_) => {
                let oversized = frame.len() > MAX_FRAME_BYTES;
                let resp = if oversized {
                    Some(refuse_frame(
                        shared,
                        &format!("bad request: line exceeds {MAX_FRAME_BYTES} bytes"),
                    ))
                } else {
                    match std::str::from_utf8(&frame) {
                        Ok(line) if line.trim().is_empty() => None,
                        Ok(line) => Some(process_line(shared, line)),
                        Err(e) => Some(refuse_frame(shared, &format!("bad request: {e}"))),
                    }
                };
                if let Some(resp) = resp {
                    let mut text = match serde_json::to_string(&resp) {
                        Ok(t) => t,
                        Err(_) => return,
                    };
                    text.push('\n');
                    if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
                        return;
                    }
                }
                if oversized {
                    // Close after the answer. Discarding what the client
                    // already sent (bounded by one more frame) lets the
                    // answer reach it before the close.
                    let _ = writer.shutdown(Shutdown::Write);
                    let _ = std::io::copy(
                        &mut reader.take(MAX_FRAME_BYTES as u64),
                        &mut std::io::sink(),
                    );
                    return;
                }
                frame.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Counts a request line that never became a [`Request`] and answers it
/// with `reason`: malformed JSON, invalid UTF-8, or an oversized frame.
fn refuse_frame(shared: &Shared, reason: &str) -> Response {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    counter!(keys::SERVE_REQUESTS).incr();
    error_response(None, reason)
}

/// Parses and answers one request line (admitting solve/validate work
/// to the queue and blocking until its worker responds). The read-only
/// probes `metrics` and `health` are answered before any counting so a
/// poller observes identical counters across consecutive probes of an
/// idle daemon.
fn process_line(shared: &Shared, line: &str) -> Response {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return refuse_frame(shared, &format!("bad request: {e}")),
    };
    match req.op.as_str() {
        "metrics" => return handle_metrics(shared, &req),
        "health" => return handle_health(shared, &req),
        _ => {}
    }
    shared.requests.fetch_add(1, Ordering::Relaxed);
    counter!(keys::SERVE_REQUESTS).incr();
    let id = req.id;
    let answer = match req.op.as_str() {
        "cache_stats" => {
            let mut resp = Response::status(id, STATUS_OK);
            resp.cache = Some(aggregate_stats(shared));
            Ok(resp)
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake_all();
            Ok(Response::status(id, STATUS_OK))
        }
        "solve" | "mode_solve" | "validate" => {
            // The fingerprint is computed here both to route the
            // request onto its owning shard (by *structural* hash, so a
            // whole warm-start family shares one cache regardless of
            // the shard count) and to spare the worker re-hashing it.
            let fp = request_fingerprint(&req);
            let shard = fp.map_or(0, |fp| shared.ring.route(fp.structural));
            let work = Work::Single {
                req: Box::new(req),
                fp,
            };
            Ok(match submit(shared, id, vec![(shard, work)]) {
                // One group, one reply.
                Ok(mut replies) => replies.swap_remove(0),
                Err(reason) => Response::rejected(id, reason),
            })
        }
        "batch_solve" => handle_batch(shared, req),
        other => Err(format!("unknown op {other:?}")),
    };
    answer.unwrap_or_else(|reason| error_response(id, &reason))
}

/// Fingerprints a solve/validate request when it carries an
/// application spec, and a `mode_solve` request when it carries a mode
/// set. Computed on the connection thread so the same hash both routes
/// the request onto its owning shard and reaches the worker as a
/// pre-paid [`Work::Single::fp`]. A request whose config is refused
/// gets no fingerprint; its worker reports the refusal.
fn request_fingerprint(req: &Request) -> Option<Fingerprint> {
    let cfg = config_from(req).ok()?;
    if req.op == "mode_solve" {
        return req.modes.as_ref().map(|m| mode_fingerprint(m, &cfg));
    }
    req.app.as_ref().map(|app| {
        fingerprint(
            app,
            req.soft.as_ref(),
            req.weakly_hard.as_ref(),
            &normalized_stat(req),
            &cfg,
        )
    })
}

/// Answers the `metrics` operation: the live `netdag-obs/1` snapshot
/// embedded as JSON plus the rolling-window quantiles. Purely a read —
/// no counter, span, or window is touched.
fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    let snapshot = netdag_obs::global().snapshot();
    let obs = match serde_json::from_str_value(&snapshot.to_json()) {
        Ok(v) => v,
        Err(e) => {
            return Response::error(req.id, &format!("metrics snapshot failed: {e}"));
        }
    };
    let rolling = shared.windows.rolling();
    let ticks = shared.windows.latency_us.stats().ticks;
    let mut resp = Response::status(req.id, STATUS_OK);
    resp.metrics = Some(MetricsBody {
        obs,
        rolling,
        window: WindowMeta {
            slots: shared.cfg.window_slots.max(1) as u64,
            tick_every: shared.cfg.window_tick,
            ticks,
        },
    });
    resp
}

/// Answers the `health` operation: liveness and pressure at a glance.
/// Read-only like `metrics`.
fn handle_health(shared: &Shared, req: &Request) -> Response {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let mut cache_entries = 0;
    let mut queue_depth = 0;
    for shard in &shared.shards {
        cache_entries += lock(&shard.cache).stats().entries;
        queue_depth += lock(&shard.queue).len() as u64;
    }
    let uptime_ms = shared
        .started
        .elapsed()
        .as_millis()
        .min(u128::from(u64::MAX)) as u64;
    let mut resp = Response::status(req.id, STATUS_OK);
    resp.health = Some(HealthBody {
        status: if draining { "draining" } else { "ok" }.to_owned(),
        uptime_requests: shared.requests.load(Ordering::Relaxed),
        uptime_ms,
        queue_depth,
        in_flight: shared.in_flight.load(Ordering::SeqCst),
        shards: shared.shards.len() as u64,
        workers: shared.cfg.workers.max(1) as u64,
        workers_live: shared.workers_live.load(Ordering::SeqCst),
        cache_entries,
        cache_capacity: shared.cfg.cache_capacity.max(1) as u64,
    });
    resp
}

/// The daemon's one admission path. Admits `groups` — one `(shard,
/// work)` pair per destination, in ascending shard order — to their
/// shards' bounded queues all-or-nothing, then blocks for each job's
/// answer and returns them in group order. A `solve` / `mode_solve` /
/// `validate` request is one group; a `batch_solve` is one group per
/// destination shard.
///
/// Every target queue is locked in ascending shard order (the only
/// multi-lock site in the daemon, so lock ordering is trivially
/// acyclic) while shutdown and every capacity are checked; then the
/// jobs are pushed everywhere, or the request is counted as rejected
/// once and the reason returned. A partial batch would otherwise warm
/// caches with some of its items and not the rest, making responses
/// depend on admission timing. An empty `groups` admits nothing and is
/// never rejected.
fn submit(
    shared: &Shared,
    id: Option<u64>,
    groups: Vec<(usize, Work)>,
) -> Result<Vec<Response>, &'static str> {
    let mut queues: Vec<_> = groups
        .iter()
        .map(|&(s, _)| lock(&shared.shards[s].queue))
        .collect();
    let reason = if !queues.is_empty() && shared.shutdown.load(Ordering::SeqCst) {
        Some(REASON_SHUTTING_DOWN)
    } else if queues.iter().any(|q| q.len() >= shared.cfg.queue_capacity) {
        Some(REASON_QUEUE_FULL)
    } else {
        None
    };
    if let Some(reason) = reason {
        drop(queues);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        counter!(keys::SERVE_REJECTS).incr();
        return Err(reason);
    }
    let mut pending = Vec::with_capacity(groups.len());
    for ((shard, work), queue) in groups.into_iter().zip(queues.iter_mut()) {
        let (reply, answer) = sync_channel(1);
        let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed);
        queue.push_back(Job {
            work,
            rid,
            accepted_at: Instant::now(),
            reply,
        });
        netdag_obs::global().observe(keys::HIST_SERVE_QUEUE_DEPTH, queue.len() as u64);
        shared.gauges.queue_depth.set(queue.len() as u64);
        pending.push((shard, rid, answer));
    }
    drop(queues);
    for &(s, _, _) in &pending {
        shared.shards[s].ready.notify_one();
    }
    Ok(pending
        .into_iter()
        .map(|(_, rid, answer)| {
            answer.recv().unwrap_or_else(|_| {
                error_response(
                    id,
                    &format!("request rid {rid} lost: its worker exited without answering"),
                )
            })
        })
        .collect())
}

/// Answers a `batch_solve` request: every item is fingerprinted, the
/// items are grouped by owning shard and admitted through [`submit`],
/// and the per-item responses are gathered back into one envelope in
/// request order. The envelope's config is checked once, up front.
fn handle_batch(shared: &Shared, req: Request) -> Result<Response, String> {
    let id = req.id;
    let items = req
        .batch
        .as_ref()
        .ok_or("batch_solve needs a \"batch\" array")?;
    config_from(&req)?;
    counter!(keys::SERVE_BATCH_REQUESTS).incr();
    counter!(keys::SERVE_BATCH_ITEMS).add(items.len() as u64);
    let mut answers: Vec<Option<Response>> = (0..items.len()).map(|_| None).collect();
    // (shard index → items routed there, each remembering its position
    // in the batch). BTreeMap so the groups reach `submit` in ascending
    // shard order.
    let mut groups: BTreeMap<usize, Vec<(usize, Request, Fingerprint)>> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        // Each item solves as if it were a standalone `solve` request
        // inheriting the envelope's config and deadline.
        let mut sub = Request::op("solve");
        sub.id = id;
        sub.config = req.config.clone();
        sub.deadline_ms = req.deadline_ms;
        sub.app = item.app.clone();
        sub.soft = item.soft.clone();
        sub.weakly_hard = item.weakly_hard.clone();
        sub.stat = item.stat.clone();
        let Some(fp) = request_fingerprint(&sub) else {
            answers[i] = Some(error_response(id, "batch item needs an \"app\" spec"));
            continue;
        };
        groups
            .entry(shared.ring.route(fp.structural))
            .or_default()
            .push((i, sub, fp));
    }
    let (positions, work): (Vec<Vec<usize>>, Vec<(usize, Work)>) = groups
        .into_iter()
        .map(|(shard, group)| {
            let indices = group.iter().map(|(i, _, _)| *i).collect();
            let items = group.into_iter().map(|(_, sub, fp)| (sub, fp)).collect();
            (indices, (shard, Work::Batch { head_id: id, items }))
        })
        .unzip();
    let replies = match submit(shared, id, work) {
        Ok(replies) => replies,
        Err(reason) => return Ok(Response::rejected(id, reason)),
    };
    // Gather: each shard's worker answers its sub-batch with an
    // envelope whose `batch` field holds the group's responses in
    // group order; scatter them back to the items' batch positions.
    for (indices, group_resp) in positions.into_iter().zip(replies) {
        let mut subs = group_resp.batch.unwrap_or_default().into_iter();
        for i in indices {
            answers[i] = subs.next();
        }
    }
    let mut resp = Response::status(id, STATUS_OK);
    resp.batch = Some(
        answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|| Response::error(id, "batch item lost")))
            .collect(),
    );
    Ok(resp)
}

fn worker_loop(shared: &Shared, shard: &ShardState) {
    shared.workers_live.fetch_add(1, Ordering::SeqCst);
    shared.gauges.workers_live.add(1);
    'jobs: loop {
        let job = {
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.gauges.queue_depth.set(queue.len() as u64);
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break 'jobs;
                }
                queue = shard
                    .ready
                    .wait_timeout(queue, POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        shared.gauges.in_flight.add(1);
        let queue_us = job
            .accepted_at
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let service_started = Instant::now();
        let (resp, nodes) = {
            let _span = netdag_obs::global().span(keys::SPAN_SERVE_REQUEST);
            let _trace = netdag_trace::span_with(
                keys::SPAN_SERVE_REQUEST,
                &[
                    ("op", job.work.op().to_owned().into()),
                    ("id", job.work.id().unwrap_or(0).into()),
                    ("rid", job.rid.into()),
                ],
            );
            // A panic costs its job, not the worker: it answers an
            // error and the job is accounted like any other.
            let handled = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = &shared.cfg.worker_hook {
                    (hook.0)(job.work.op(), job.work.id());
                }
                match &job.work {
                    Work::Single { req, fp } => {
                        let answer = match req.op.as_str() {
                            "solve" => handle_solve(shared, shard, req, *fp),
                            "mode_solve" => handle_mode_solve(shared, shard, req, *fp),
                            _ => handle_validate(req).map(|resp| (resp, 0)),
                        };
                        answer.unwrap_or_else(|reason| (error_response(req.id, &reason), 0))
                    }
                    // A sub-batch runs sequentially on its owning
                    // shard's worker: items that share a structural
                    // family hit or warm-start against each other within
                    // the same batch, because each completed solve lands
                    // in the shard cache before the next item looks it
                    // up.
                    Work::Batch { head_id, items } => {
                        let mut subs = Vec::with_capacity(items.len());
                        let mut total_nodes = 0u64;
                        for (sub, fp) in items {
                            let (r, n) = handle_solve(shared, shard, sub, Some(*fp))
                                .unwrap_or_else(|reason| (error_response(sub.id, &reason), 0));
                            total_nodes += n;
                            subs.push(r);
                        }
                        let mut envelope = Response::status(*head_id, STATUS_OK);
                        envelope.batch = Some(subs);
                        (envelope, total_nodes)
                    }
                }
            }));
            handled.unwrap_or_else(|_| {
                let reason = format!("request rid {} failed: its handler panicked", job.rid);
                (error_response(job.work.id(), &reason), 0)
            })
        };
        let service_us = service_started
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let latency = job
            .accepted_at
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        netdag_obs::global().observe(keys::HIST_SERVE_LATENCY_US, latency);
        shared.windows.latency_us.observe(latency);
        shared.windows.queue_wait_us.observe(queue_us);
        shared.windows.service_us.observe(service_us);
        shared.windows.solver_nodes.observe(nodes);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.gauges.in_flight.sub(1);
        if let Some(log) = shared.access.as_ref() {
            write_access_line(log, &job, &resp, nodes, queue_us, service_us);
        }
        let done = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.cfg.window_tick > 0 && done.is_multiple_of(shared.cfg.window_tick) {
            shared.windows.tick();
        }
        if shared.cfg.metrics_interval > 0 && done.is_multiple_of(shared.cfg.metrics_interval) {
            write_interval_snapshot(shared);
        }
        // The waiting connection thread holds the receiver until this
        // one reply arrives, so the send can neither block nor fail.
        let _ = job.reply.send(resp);
    }
    shared.workers_live.fetch_sub(1, Ordering::SeqCst);
    shared.gauges.workers_live.sub(1);
}

/// Appends one structured JSON access-log line for a worker-handled
/// job (one line per job, so a sub-batch logs once). The `rid` here
/// equals the `rid` argument of the request's `serve.request` trace
/// span, so log lines and `--trace` output correlate. Logging failures
/// are swallowed — telemetry must never fail a request — but they are
/// *counted* under `serve.access_log.dropped` so an operator can see
/// that the log is incomplete.
fn write_access_line(
    log: &Mutex<BufWriter<std::fs::File>>,
    job: &Job,
    resp: &Response,
    nodes: u64,
    queue_us: u64,
    service_us: u64,
) {
    use serde::Value;
    let cache_class = if resp.cached == Some(true) {
        "hit"
    } else if resp.warm_started == Some(true) {
        "warm"
    } else if resp.cached == Some(false) {
        "cold"
    } else {
        "-"
    };
    let fp = resp
        .fingerprint
        .as_deref()
        .map_or("-".to_owned(), |hex| hex.chars().take(8).collect());
    let line = Value::Object(vec![
        ("rid".to_owned(), Value::UInt(job.rid)),
        (
            "id".to_owned(),
            job.work.id().map_or(Value::Null, Value::UInt),
        ),
        ("op".to_owned(), Value::String(job.work.op().to_owned())),
        ("status".to_owned(), Value::String(resp.status.clone())),
        ("cache".to_owned(), Value::String(cache_class.to_owned())),
        ("fp".to_owned(), Value::String(fp)),
        ("nodes".to_owned(), Value::UInt(nodes)),
        ("queue_us".to_owned(), Value::UInt(queue_us)),
        ("service_us".to_owned(), Value::UInt(service_us)),
    ]);
    if let Ok(text) = serde_json::to_string(&line) {
        let mut w = lock(log);
        // Flushed per line so tail -f / test readers see complete
        // records as soon as the response is delivered. A failure in
        // either step means this line did not (fully) reach the disk.
        if writeln!(w, "{text}").and_then(|()| w.flush()).is_err() {
            counter!(keys::SERVE_ACCESS_LOG_DROPPED).incr();
        }
    }
}

/// Writes `now - snap_base` to [`ServeConfig::metrics_path`] and
/// advances the baseline, making each file a true delta over its own
/// interval. The write is atomic, so a concurrent reader never sees a
/// torn file.
fn write_interval_snapshot(shared: &Shared) {
    let Some(path) = shared.cfg.metrics_path.as_ref() else {
        return;
    };
    let delta = {
        let mut base = lock(&shared.snap_base);
        let now = netdag_obs::global().snapshot();
        let delta = now.delta(&base);
        *base = now;
        delta
    };
    if let Err(e) = snapshot::write_atomic(path, &delta.to_json()) {
        eprintln!(
            "netdag-serve: interval metrics snapshot to {} failed: {e}",
            path.display()
        );
    }
}

/// Largest `chi_max` a request may ask for. It sizes per-message
/// `1..=chi_max` tables, so an unbounded value could abort the daemon
/// with a failed allocation; the workloads use 6 to 8.
const MAX_CHI_MAX: u32 = 64;
/// Largest `portfolio` a request may ask for: the number of distinct
/// [`netdag_solver::portfolio_configs`] members. From index 18 on,
/// member `i` repeats member `i - 12`, so a wider race only adds
/// duplicate engines.
const MAX_PORTFOLIO: u32 = 18;
/// Largest `node_limit` a request may ask for: 10× the 400,000 that
/// the soak and the benchmark send, so no request can pin a worker for
/// an unbounded search.
const MAX_NODE_LIMIT: u64 = 4_000_000;

/// Maps a request's optional [`crate::protocol::ConfigSpec`] to a
/// [`SchedulerConfig`] whose unset fields keep the defaults of
/// [`SchedulerConfig::default`], as the CLI's `netdag schedule` does,
/// so an unconfigured request solves the same problem the unconfigured
/// CLI does. Refuses a `chi_max`, `portfolio` or `node_limit` over its
/// cap, naming the field, and clamps `threads` to the core count.
fn config_from(req: &Request) -> Result<SchedulerConfig, String> {
    let spec = req.config.clone().unwrap_or_default();
    let default = SchedulerConfig::default();
    let chi_max = spec.chi_max.unwrap_or(default.chi_max);
    if chi_max > MAX_CHI_MAX {
        return Err(format!("config needs \"chi_max\" <= {MAX_CHI_MAX}"));
    }
    let portfolio = spec.portfolio.unwrap_or(default.portfolio);
    if portfolio > MAX_PORTFOLIO {
        return Err(format!("config needs \"portfolio\" <= {MAX_PORTFOLIO}"));
    }
    if spec.node_limit.is_some_and(|n| n > MAX_NODE_LIMIT) {
        return Err(format!("config needs \"node_limit\" <= {MAX_NODE_LIMIT}"));
    }
    Ok(SchedulerConfig {
        beacon_chi: spec.beacon_chi.unwrap_or(default.beacon_chi),
        chi_max,
        backend: match (spec.greedy, spec.node_limit) {
            (Some(true), _) => Backend::Greedy,
            (_, Some(n)) => Backend::Exact {
                node_limit: Some(n),
            },
            _ => default.backend,
        },
        round_structure: if spec.per_message_rounds.unwrap_or(false) {
            RoundStructure::PerMessage
        } else {
            RoundStructure::PerLevel
        },
        include_beacons: spec.include_beacons.unwrap_or(default.include_beacons),
        portfolio,
        // Results never depend on the thread count (0 still means
        // auto), so the clamp only stops a client from spawning
        // unbounded threads.
        solver_threads: spec.threads.map_or(default.solver_threads, |t| {
            usize::try_from(t)
                .unwrap_or(usize::MAX)
                .min(ExecPolicy::Auto.thread_count())
        }),
        lower_bound: spec.no_lb.map_or(default.lower_bound, |no_lb| !no_lb),
        ..default
    })
}

/// The request's statistic, normalized so the fingerprint of a
/// defaulted selection equals that of an explicit one.
fn normalized_stat(req: &Request) -> StatSpec {
    req.stat.clone().unwrap_or(StatSpec {
        kind: "eq13".into(),
        fss: None,
    })
}

fn invalid_spec(e: SpecError) -> String {
    format!("invalid spec: {e}")
}

/// A request's constraints built against its application's task names:
/// the soft ones with their eq. (15) `fss`, and the weakly hard ones.
type Constraints = (
    Option<(SoftConstraints, f64)>,
    Option<WeaklyHardConstraints>,
);

/// Builds `req`'s constraints under the statistic-family rule that
/// `solve` and `validate` share: soft constraints need eq. (15) with
/// its `fss`, and without them the statistic must be eq. (13). `doing`
/// ("solving" or "validation") words the refusal.
fn constraints(
    req: &Request,
    names: &[(String, TaskId)],
    doing: &str,
) -> Result<Constraints, String> {
    let stat = normalized_stat(req);
    let soft = match req.soft.as_ref() {
        Some(spec) => {
            let fss = stat.fss.filter(|_| stat.kind == "eq15").ok_or_else(|| {
                format!("soft {doing} needs \"stat\": {{\"kind\": \"eq15\", \"fss\": …}}")
            })?;
            Some((spec.build(names).map_err(invalid_spec)?, fss))
        }
        None if stat.kind != "eq13" => {
            return Err(format!(
                "weakly hard {doing} needs \"stat\": {{\"kind\": \"eq13\"}}"
            ))
        }
        None => None,
    };
    let weakly_hard = req
        .weakly_hard
        .as_ref()
        .map(|spec| spec.build(names))
        .transpose()
        .map_err(invalid_spec)?;
    Ok((soft, weakly_hard))
}

/// Answers a `solve` request against its owning shard's cache. The
/// second tuple element is the number of search nodes the solve
/// explored (zero for cache hits), taken from the solve's own
/// [`netdag_solver::SearchStats`] so it is exact per request even with
/// concurrent workers. `fp_hint` is the fingerprint the connection
/// thread already computed for routing, so the worker does not re-hash
/// the spec.
fn handle_solve(
    shared: &Shared,
    shard: &ShardState,
    req: &Request,
    fp_hint: Option<Fingerprint>,
) -> Result<(Response, u64), String> {
    let id = req.id;
    let app_spec = req.app.as_ref().ok_or("solve needs an \"app\" spec")?;
    if req.soft.is_some() && req.weakly_hard.is_some() {
        return Err("\"soft\" and \"weakly_hard\" are mutually exclusive".into());
    }
    let (app, names) = app_spec.build().map_err(invalid_spec)?;
    let cfg = config_from(req)?;
    let fp = fp_hint.unwrap_or_else(|| {
        fingerprint(
            app_spec,
            req.soft.as_ref(),
            req.weakly_hard.as_ref(),
            &normalized_stat(req),
            &cfg,
        )
    });
    let warm_bound = match probe(shard, &fp) {
        Lookup::Exact(answer) => {
            return Ok((answer_response(id, &fp, answer, true, true, false), 0))
        }
        // `+ 1` because the injected bound is strict-improvement: it
        // keeps every schedule with makespan ≤ the cached one
        // reachable, so the warm solve's answer is bit-identical to the
        // cold one's.
        Lookup::Warm(makespan_us) => Some(makespan_us as i64 + 1),
        Lookup::Miss => None,
    };

    let (soft, weakly_hard) = constraints(req, &names, "solving")?;
    let solved = under_deadline(shared, req, warm_bound, |control| match &soft {
        Some((f, fss)) => schedule_soft_controlled(
            &app,
            &Eq15Statistic::new(*fss, cfg.chi_max),
            f,
            &Deadlines::new(),
            &cfg,
            control,
        ),
        None => schedule_weakly_hard_controlled(
            &app,
            &Eq13Statistic::new(cfg.chi_max),
            &weakly_hard.unwrap_or_default(),
            &Deadlines::new(),
            &cfg,
            control,
        ),
    });

    match solved {
        Ok(controlled) => {
            let nodes = controlled.outcome.stats.as_ref().map_or(0, |s| s.nodes);
            let makespan = controlled.outcome.schedule.makespan(&app);
            let answer = Answer::Schedule(ScheduleExport {
                bus_us: controlled.outcome.schedule.total_communication_us(),
                schedule: controlled.outcome.schedule,
                makespan_us: makespan,
                optimal: controlled.outcome.optimal,
            });
            keep_answer(shared, shard, fp, &answer, makespan, controlled.complete);
            let warm_started = warm_bound.is_some();
            let resp = answer_response(id, &fp, answer, controlled.complete, false, warm_started);
            Ok((resp, nodes))
        }
        Err(e) => failure_response(
            shared,
            id,
            &fp,
            e,
            "no χ assignment within chi-max meets the constraints",
        )
        .map(|resp| (resp, 0)),
    }
}

/// Runs `solve` under the request's controller: the optional warm
/// bound, and the `deadline_ms` poll every [`ServeConfig::step_nodes`]
/// search nodes. The one place a request's deadline is read, for
/// `solve` and `mode_solve` alike.
fn under_deadline<T>(
    shared: &Shared,
    req: &Request,
    warm_bound: Option<i64>,
    solve: impl FnOnce(&mut SolveControl<'_>) -> T,
) -> T {
    let deadline = req.deadline_ms.map(Duration::from_millis);
    let started = Instant::now();
    let mut keep_going =
        move |_: &netdag_solver::SearchStats| deadline.is_none_or(|d| started.elapsed() < d);
    let mut control = SolveControl::warm(warm_bound, &mut keep_going);
    control.step_nodes = shared.cfg.step_nodes;
    solve(&mut control)
}

/// Caches a complete answer; an incomplete one (the deadline stopped
/// the search) is not cached and counts as an expired deadline.
fn keep_answer(
    shared: &Shared,
    shard: &ShardState,
    fp: Fingerprint,
    answer: &Answer,
    makespan_us: u64,
    complete: bool,
) {
    if complete {
        cache_answer(shared, shard, fp, answer.clone(), makespan_us);
    } else {
        count_deadline_expired(shared);
    }
}

fn count_deadline_expired(shared: &Shared) {
    counter!(keys::SERVE_DEADLINE_EXPIRED).incr();
    shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
}

/// Probes `shard`'s cache for `fp` and counts the outcome.
fn probe(shard: &ShardState, fp: &Fingerprint) -> Lookup {
    let lookup = lock(&shard.cache).lookup(fp);
    match lookup {
        Lookup::Exact(_) => {
            counter!(keys::SERVE_CACHE_HITS).incr();
            netdag_trace::instant("serve.cache_hit", &[("fingerprint", fp.hex().into())]);
        }
        Lookup::Warm(_) => counter!(keys::SERVE_WARM_STARTS).incr(),
        Lookup::Miss => counter!(keys::SERVE_CACHE_MISSES).incr(),
    }
    lookup
}

/// Caches a complete answer in `shard` and refreshes the fleet-total
/// entries gauge. The per-shard locks are taken one at a time (never
/// nested), so this cannot deadlock with another worker doing the same.
fn cache_answer(
    shared: &Shared,
    shard: &ShardState,
    fp: Fingerprint,
    answer: Answer,
    makespan_us: u64,
) {
    lock(&shard.cache).insert(fp, answer, makespan_us);
    let total: u64 = shared
        .shards
        .iter()
        .map(|s| lock(&s.cache).stats().entries)
        .sum();
    shared.gauges.cache_entries.set(total);
}

/// The response carrying `answer` — a `solve` result or a `mode_solve`
/// result, fresh or cached — with its provenance flags.
fn answer_response(
    id: Option<u64>,
    fp: &Fingerprint,
    answer: Answer,
    complete: bool,
    cached: bool,
    warm_started: bool,
) -> Response {
    let status = if complete {
        STATUS_OK
    } else {
        STATUS_INCOMPLETE
    };
    let mut resp = Response::status(id, status);
    match answer {
        Answer::Schedule(export) => resp.result = Some(export),
        Answer::Modes(export) => resp.mode_result = Some(export),
    }
    resp.complete = Some(complete);
    resp.cached = Some(cached);
    resp.warm_started = Some(warm_started);
    resp.fingerprint = Some(fp.hex());
    resp
}

/// Maps a failed solve to its response; `infeasible` is the reason
/// given when no `χ` assignment meets the constraints. An expired
/// deadline answers `error` but counts as an expired deadline; any
/// other failure is an `Err` for the error exit.
fn failure_response(
    shared: &Shared,
    id: Option<u64>,
    fp: &Fingerprint,
    err: ScheduleError,
    infeasible: &str,
) -> Result<Response, String> {
    Ok(match err {
        ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_) => {
            let mut resp = Response::status(id, STATUS_INFEASIBLE);
            resp.reason = Some(infeasible.to_owned());
            resp.fingerprint = Some(fp.hex());
            resp
        }
        // The CPM presolve inside the solve proved the timing subsystem
        // over-constrained: a named witness (naming the mode, for a
        // joint solve) and zero search nodes.
        ScheduleError::InfeasibleTiming(e) => {
            let mut resp = Response::status(id, STATUS_INFEASIBLE);
            resp.reason = Some(format!("timing presolve: {e}"));
            resp.fingerprint = Some(fp.hex());
            resp
        }
        ScheduleError::Interrupted => {
            count_deadline_expired(shared);
            let mut resp = Response::error(
                id,
                "deadline expired before any feasible schedule was found",
            );
            resp.complete = Some(false);
            resp.fingerprint = Some(fp.hex());
            resp
        }
        e => return Err(format!("scheduling failed: {e}")),
    })
}

/// Solves a `mode_solve` request: probe the shard cache for a verbatim
/// repeat, then run the joint multi-mode co-synthesis
/// ([`schedule_modes_controlled`]) under the request's deadline, which
/// expires exactly as a `solve` deadline does. The answer is the same
/// [`netdag_core::modes::ModeScheduleExport`] document `netdag schedule
/// --modes --out` writes. The second tuple element is the joint solve's
/// search-node count (zero for cache hits); `fp_hint` is the mode
/// fingerprint the connection thread computed for routing.
fn handle_mode_solve(
    shared: &Shared,
    shard: &ShardState,
    req: &Request,
    fp_hint: Option<Fingerprint>,
) -> Result<(Response, u64), String> {
    let id = req.id;
    let spec = req
        .modes
        .as_ref()
        .ok_or("mode_solve needs a \"modes\" spec")?;
    if req.app.is_some() || req.soft.is_some() || req.weakly_hard.is_some() {
        return Err(
            "mode_solve embeds its application and constraints in \"modes\"; \
             \"app\"/\"soft\"/\"weakly_hard\" must be absent"
                .into(),
        );
    }
    let cfg = config_from(req)?;
    let fp = fp_hint.unwrap_or_else(|| mode_fingerprint(spec, &cfg));
    // Mode answers are exact-only: the cache offers them no warm tier.
    if let Lookup::Exact(answer) = probe(shard, &fp) {
        return Ok((answer_response(id, &fp, answer, true, true, false), 0));
    }
    match under_deadline(shared, req, None, |control| {
        schedule_modes_controlled(spec, &cfg, control)
    }) {
        Ok(outcome) => {
            let answer = Answer::Modes(outcome.export());
            keep_answer(shared, shard, fp, &answer, 0, outcome.complete);
            Ok((
                answer_response(id, &fp, answer, outcome.complete, false, false),
                outcome.stats.nodes,
            ))
        }
        Err(e) => failure_response(
            shared,
            id,
            &fp,
            e,
            "no χ assignment within chi-max meets every mode's constraints",
        )
        .map(|resp| (resp, 0)),
    }
}

/// Largest `kappa` (Monte-Carlo samples per task) a `validate` request
/// may ask for: the fan-out allocates one result slot per job before any
/// job runs, so an unbounded value could abort the daemon.
const MAX_VALIDATE_KAPPA: u64 = 1_000_000;
/// Largest `trials` (adversarial trials per task) a `validate` request
/// may ask for, for the same reason.
const MAX_VALIDATE_TRIALS: u64 = 10_000;

fn handle_validate(req: &Request) -> Result<Response, String> {
    let app_spec = req.app.as_ref().ok_or("validate needs an \"app\" spec")?;
    let export = req
        .schedule
        .as_ref()
        .ok_or("validate needs a \"schedule\" document")?;
    if req.soft.is_none() && req.weakly_hard.is_none() {
        return Err("validate needs \"soft\" and/or \"weakly_hard\" constraints".into());
    }
    let (app, names) = app_spec.build().map_err(invalid_spec)?;
    let mut settings = ValidationSettings::default();
    if let Some(kappa) = req.kappa {
        if kappa == 0 || kappa > MAX_VALIDATE_KAPPA {
            return Err(format!(
                "validate needs \"kappa\" in 1..={MAX_VALIDATE_KAPPA}"
            ));
        }
        settings.kappa = kappa as usize;
    }
    if let Some(trials) = req.trials {
        if trials > MAX_VALIDATE_TRIALS {
            return Err(format!(
                "validate needs \"trials\" <= {MAX_VALIDATE_TRIALS}"
            ));
        }
        settings.trials = trials as usize;
    }
    settings.seed = req.seed.unwrap_or(settings.seed);
    // Results never depend on the thread count, so capping it at the
    // core count only stops a client from spawning unbounded threads;
    // 0 still means auto.
    settings.threads = req
        .threads
        .map_or(settings.threads, |t| t as usize)
        .min(ExecPolicy::Auto.thread_count());
    let (soft, weakly_hard) = constraints(req, &names, "validation")?;
    export
        .schedule
        .check_shape(&app)
        .map_err(|e| format!("schedule does not fit the app: {e}"))?;
    let (passed, report) = validate_contract(
        &app,
        &export.schedule,
        soft.as_ref().map(|(f, fss)| (f, *fss)),
        weakly_hard.as_ref(),
        &settings,
    )
    .map_err(|e| format!("adversarial synthesis failed: {e}"))?;
    let mut resp = Response::status(req.id, STATUS_OK);
    resp.validation = Some(ValidationReport { passed, report });
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ConfigSpec, STATUS_ERROR};

    /// A worker that unwinds out of a handler drops its job unanswered;
    /// the connection thread waiting in [`submit`] must then get a
    /// structured `error` naming the request instead of blocking
    /// forever.
    #[test]
    fn a_job_dropped_unanswered_yields_an_error_not_a_hang() {
        // Leaked so a waiter that never returns cannot outlive its state.
        let shared: &'static Shared = Box::leak(Box::new(
            Shared::new(&ServeConfig::default()).expect("state"),
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let work = Work::Single {
                req: Box::new(Request::op("solve")),
                fp: None,
            };
            let _ = tx.send(submit(shared, Some(7), vec![(0, work)]));
        });
        // Stand in for the shard's worker: dequeue the job the way
        // `worker_loop` does, then unwind while holding it.
        let shard = &shared.shards[0];
        let mut queue = lock(&shard.queue);
        let job = loop {
            if let Some(job) = queue.pop_front() {
                break job;
            }
            queue = shard.ready.wait(queue).expect("queue lock");
        };
        drop(queue);
        let worker = std::thread::spawn(move || {
            let _held = job;
            panic!("injected handler fault");
        });
        assert!(worker.join().is_err());
        let mut replies = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the waiting side is released")
            .expect("the job was admitted");
        let resp = replies.swap_remove(0);
        assert_eq!(resp.status, STATUS_ERROR);
        assert_eq!(resp.id, Some(7));
        let reason = resp.reason.unwrap_or_default();
        assert!(reason.contains("rid 1"), "{reason}");
    }

    fn with_config(spec: ConfigSpec) -> Request {
        let mut req = Request::op("solve");
        req.config = Some(spec);
        req
    }

    /// An unconfigured request solves with the scheduler's own
    /// defaults.
    #[test]
    fn an_empty_config_is_the_default_config() {
        assert_eq!(
            config_from(&Request::op("solve")),
            Ok(SchedulerConfig::default())
        );
    }

    /// `chi_max`, `portfolio` and `node_limit` are refused above their
    /// caps with a reason naming the field; `threads` is clamped to the
    /// core count.
    #[test]
    fn config_caps_name_the_field() {
        let chi = |n| {
            config_from(&with_config(ConfigSpec {
                chi_max: Some(n),
                ..ConfigSpec::default()
            }))
        };
        assert_eq!(chi(MAX_CHI_MAX).map(|c| c.chi_max), Ok(MAX_CHI_MAX));
        for n in [MAX_CHI_MAX + 1, u32::MAX] {
            assert_eq!(chi(n), Err("config needs \"chi_max\" <= 64".to_owned()));
        }

        let portfolio = |n| {
            config_from(&with_config(ConfigSpec {
                portfolio: Some(n),
                ..ConfigSpec::default()
            }))
        };
        assert_eq!(
            portfolio(MAX_PORTFOLIO).map(|c| c.portfolio),
            Ok(MAX_PORTFOLIO)
        );
        for n in [MAX_PORTFOLIO + 1, u32::MAX] {
            assert_eq!(
                portfolio(n),
                Err("config needs \"portfolio\" <= 18".to_owned())
            );
        }

        let node_limit = |n| {
            config_from(&with_config(ConfigSpec {
                node_limit: Some(n),
                ..ConfigSpec::default()
            }))
            .map(|c| c.backend)
        };
        assert_eq!(
            node_limit(MAX_NODE_LIMIT),
            Ok(Backend::Exact {
                node_limit: Some(MAX_NODE_LIMIT)
            })
        );
        for n in [MAX_NODE_LIMIT + 1, u64::MAX] {
            assert_eq!(
                node_limit(n),
                Err("config needs \"node_limit\" <= 4000000".to_owned())
            );
        }

        let threads = |n| {
            config_from(&with_config(ConfigSpec {
                threads: Some(n),
                ..ConfigSpec::default()
            }))
            .map(|c| c.solver_threads)
        };
        let cores = ExecPolicy::Auto.thread_count();
        assert_eq!(threads(0), Ok(0));
        assert_eq!(threads(1), Ok(1));
        assert_eq!(threads(u64::MAX), Ok(cores));
    }

    /// The portfolio cap is the number of distinct members: the first
    /// `MAX_PORTFOLIO` are pairwise different, and from there on member
    /// `i` repeats member `i - 12`.
    #[test]
    fn portfolio_members_repeat_from_the_cap() {
        let cap = MAX_PORTFOLIO as usize;
        let members: Vec<String> = netdag_solver::portfolio_configs(cap + 36, None)
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        let distinct: std::collections::BTreeSet<&String> = members[..cap].iter().collect();
        assert_eq!(distinct.len(), cap);
        for i in cap..members.len() {
            assert_eq!(members[i], members[i - 12], "member {i}");
        }
    }

    /// A batch whose envelope config is refused is refused whole, before
    /// any item is looked at or admitted.
    #[test]
    fn a_refused_batch_config_is_reported_once() {
        let shared = Shared::new(&ServeConfig::default()).expect("state");
        let mut req = Request::op("batch_solve");
        req.config = Some(ConfigSpec {
            chi_max: Some(MAX_CHI_MAX + 1),
            ..ConfigSpec::default()
        });
        req.batch = Some(vec![crate::protocol::BatchItem {
            app: None,
            soft: None,
            weakly_hard: None,
            stat: None,
        }]);
        assert_eq!(
            handle_batch(&shared, req),
            Err("config needs \"chi_max\" <= 64".to_owned())
        );
    }
}

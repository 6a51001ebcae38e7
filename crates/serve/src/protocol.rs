//! The newline-delimited JSON wire protocol.
//!
//! A client connects over TCP and writes one JSON object per line; the
//! server answers each line with exactly one JSON [`Response`] line, in
//! request order per connection. Eight operations exist:
//!
//! * `solve` — schedule an application embedded in the request (the
//!   same [`AppSpec`] / constraint documents the CLI reads from files);
//!   the answer carries the same [`ScheduleExport`] document
//!   `netdag schedule --out` writes.
//! * `batch_solve` — a vector of solve problems ([`BatchItem`]) sharing
//!   the request's `config` and `deadline_ms`. The server fingerprints
//!   each item, groups the batch by destination shard, and answers with
//!   one `batch` array of per-item responses in request order; items on
//!   the same shard run back-to-back, so repeats hit the cache and
//!   structural neighbours chain warm starts within the batch.
//! * `mode_solve` — co-synthesize a multi-mode schedule set from an
//!   embedded [`ModesSpec`] (the same document `netdag schedule
//!   --modes` reads); the answer carries the [`ModeScheduleExport`]
//!   document `--modes --out` writes.
//! * `validate` — Monte-Carlo validation of an embedded schedule
//!   against embedded constraints, mirroring `netdag validate`.
//! * `cache_stats` — a snapshot of the answer cache and queue.
//! * `metrics` — the live `netdag-obs/1` snapshot plus rolling-window
//!   quantiles ([`MetricsBody`]). Read-only: issuing it does not count
//!   as a request, so a poller never perturbs the counters it reads.
//! * `health` — daemon liveness ([`HealthBody`]): status, uptime,
//!   queue depth, worker liveness. Read-only like `metrics`.
//! * `shutdown` — stop accepting work, drain in-flight requests, exit.
//!
//! Absent optional fields deserialize to `None`; the server serializes
//! unused response fields as `null` (clients should ignore them).

use netdag_core::modes::{ModeScheduleExport, ModesSpec};
use netdag_core::spec::{AppSpec, ScheduleExport, SoftSpec, WeaklyHardSpec};

/// Status string of an accepted, fully solved request.
pub const STATUS_OK: &str = "ok";
/// Status of a solve stopped by its deadline: `result` holds the best
/// incumbent found so far and `complete` is `false`.
pub const STATUS_INCOMPLETE: &str = "incomplete";
/// Status of a request refused at admission (`reason` says why:
/// [`REASON_QUEUE_FULL`] or [`REASON_SHUTTING_DOWN`]).
pub const STATUS_REJECTED: &str = "rejected";
/// Status of a well-formed solve whose problem has no feasible schedule.
pub const STATUS_INFEASIBLE: &str = "infeasible";
/// Status of a malformed or failed request (`reason` has details).
pub const STATUS_ERROR: &str = "error";

/// Rejection reason: the bounded admission queue is at capacity.
pub const REASON_QUEUE_FULL: &str = "queue_full";
/// Rejection reason: the server is draining after a `shutdown` request.
pub const REASON_SHUTTING_DOWN: &str = "shutting_down";

/// Statistic selector of a request (the CLI's `--stat` flag).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatSpec {
    /// `"eq13"` (weakly hard) or `"eq15"` (soft).
    pub kind: String,
    /// The `fSS̄` parameter; required when `kind` is `"eq15"`.
    pub fss: Option<f64>,
}

/// Scheduler knobs of a solve request; every field is optional and
/// defaults exactly as the CLI's `netdag schedule` flags do.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfigSpec {
    /// `χ` domain bound (default 8).
    pub chi_max: Option<u32>,
    /// Beacon `χ` (default 2).
    pub beacon_chi: Option<u32>,
    /// Use the greedy backend (default false = exact).
    pub greedy: Option<bool>,
    /// Exact-backend node budget (default 200 000, the CLI's limit; at
    /// most 4 000 000).
    pub node_limit: Option<u64>,
    /// Per-message rounds instead of per-level (default false).
    pub per_message_rounds: Option<bool>,
    /// Count beacons in `pred(τ)` (default false).
    pub include_beacons: Option<bool>,
    /// Solver configurations raced by the exact backend (default 0).
    pub portfolio: Option<u32>,
    /// Portfolio worker threads (default 0 = auto; never affects
    /// results).
    pub threads: Option<u64>,
    /// Disable the relaxation lower bound and CPM presolve (default
    /// false = enabled), mirroring the CLI's `--no-lb`. A/B knob: never
    /// changes the optimum, only search effort and whether infeasible
    /// timing is rejected with a named explanation at zero nodes.
    pub no_lb: Option<bool>,
}

/// One problem of a `batch_solve` request. Each item is the solve
/// subset of a [`Request`]; the batch head's `config` and `deadline_ms`
/// apply to every item.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchItem {
    /// The application.
    pub app: Option<AppSpec>,
    /// Soft constraints (mutually exclusive with `weakly_hard`).
    pub soft: Option<SoftSpec>,
    /// Weakly hard constraints.
    pub weakly_hard: Option<WeaklyHardSpec>,
    /// Statistic selector (defaults to eq. (13)).
    pub stat: Option<StatSpec>,
}

/// One request line.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// `"solve"`, `"batch_solve"`, `"mode_solve"`, `"validate"`,
    /// `"cache_stats"`, `"metrics"`, `"health"` or `"shutdown"`.
    pub op: String,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The application (solve / validate).
    pub app: Option<AppSpec>,
    /// The multi-mode spec (mode_solve only); embeds its own
    /// application, so `app`/`soft`/`weakly_hard` must be absent.
    pub modes: Option<ModesSpec>,
    /// Soft constraints (mutually exclusive with `weakly_hard`).
    pub soft: Option<SoftSpec>,
    /// Weakly hard constraints.
    pub weakly_hard: Option<WeaklyHardSpec>,
    /// Statistic selector (defaults to eq. (13)).
    pub stat: Option<StatSpec>,
    /// Scheduler knobs (defaults mirror the CLI).
    pub config: Option<ConfigSpec>,
    /// Solve deadline in milliseconds, measured from the moment a
    /// worker picks the request up; expiry returns the best incumbent
    /// so far with status [`STATUS_INCOMPLETE`] — for `solve` and for
    /// `mode_solve`'s joint search alike. The search polls it every
    /// `--step-nodes` nodes; a portfolio race (`config.portfolio ≥ 2`)
    /// polls it at its 2048-node epoch boundaries.
    pub deadline_ms: Option<u64>,
    /// The schedule to check (validate only).
    pub schedule: Option<ScheduleExport>,
    /// Simulated runs per task (validate; default 10 000).
    pub kappa: Option<u64>,
    /// Adversarial trials (validate, weakly hard; default 50).
    pub trials: Option<u64>,
    /// RNG seed (validate; default 2020).
    pub seed: Option<u64>,
    /// Validation worker threads (default 1; never affects results).
    pub threads: Option<u64>,
    /// The problem vector of a `batch_solve` request; the response's
    /// `batch` array answers them in the same order.
    pub batch: Option<Vec<BatchItem>>,
}

impl Request {
    /// A minimal request of the given operation.
    pub fn op(op: &str) -> Request {
        Request {
            op: op.to_owned(),
            id: None,
            app: None,
            modes: None,
            soft: None,
            weakly_hard: None,
            stat: None,
            config: None,
            deadline_ms: None,
            schedule: None,
            kappa: None,
            trials: None,
            seed: None,
            threads: None,
            batch: None,
        }
    }
}

/// Validation result of a `validate` request.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ValidationReport {
    /// Whether every checked constraint held.
    pub passed: bool,
    /// The per-task report lines, exactly as `netdag validate` prints
    /// them.
    pub report: String,
}

/// Per-shard slice of the `cache_stats` body. Each shard owns an
/// independent cache; these rows show where the ring placed the
/// traffic while the aggregate fields stay shard-count-invariant.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardCacheStats {
    /// Shard index on the ring.
    pub shard: u64,
    /// Live cache entries in this shard (`solve` and `mode_solve`
    /// answers).
    pub entries: u64,
    /// Exact hits served by this shard, mode sets included.
    pub hits: u64,
    /// Cold solves run by this shard, joint mode solves included.
    pub misses: u64,
    /// Warm starts served by this shard.
    pub warm_starts: u64,
    /// LRU evictions in this shard.
    pub evictions: u64,
    /// Entries restored into this shard from a `--cache-snapshot` file.
    pub restored: u64,
    /// How many of this shard's `entries` are `mode_solve` answers.
    pub mode_entries: u64,
}

/// Cache and queue snapshot of a `cache_stats` request. All fields
/// except `shards` aggregate over the whole fleet and are identical at
/// any shard count for the same request sequence (absent evictions);
/// `capacity` is the *per-shard* LRU bound. `solve` and `mode_solve`
/// answers share one cache, so every count covers both.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheStatsBody {
    /// Live cache entries, `mode_solve` answers included.
    pub entries: u64,
    /// Configured cache capacity (per shard), shared by both kinds of
    /// answer.
    pub capacity: u64,
    /// Exact-fingerprint hits served without solving, mode sets
    /// included.
    pub hits: u64,
    /// Cold solves (no usable cached information), joint mode solves
    /// included.
    pub misses: u64,
    /// Solves warm-started from a structurally matching `solve` entry
    /// (mode sets never warm-start).
    pub warm_starts: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Requests currently waiting in the admission queue.
    pub queued: u64,
    /// Requests currently being solved by workers.
    pub in_flight: u64,
    /// How many of `entries` are `mode_solve` answers.
    pub mode_entries: u64,
    /// Entries restored from a `--cache-snapshot` file at startup.
    pub restored: u64,
    /// Per-shard breakdown, one row per shard in ring order.
    pub shards: Vec<ShardCacheStats>,
}

/// Rolling-window aggregate of one windowed histogram, reported by the
/// `metrics` operation. Quantiles resolve to power-of-two bucket upper
/// bounds; `max` is exact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RollingStats {
    /// Window name (`serve.latency_us`, `serve.queue_wait_us`,
    /// `serve.service_us`, `serve.solver_nodes`).
    pub name: String,
    /// Observations currently in the window.
    pub count: u64,
    /// Sum of windowed observations.
    pub sum: u64,
    /// Exact maximum in the window.
    pub max: u64,
    /// Median bucket upper bound.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
}

/// Window geometry echoed by the `metrics` operation so a reader can
/// tell what span of recent traffic the rolling numbers cover.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowMeta {
    /// Ring slots per window.
    pub slots: u64,
    /// Completed requests between ring advances.
    pub tick_every: u64,
    /// Ring advances since the daemon started.
    pub ticks: u64,
}

/// Body of a `metrics` response.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsBody {
    /// The full `netdag-obs/1` snapshot document (same schema as the
    /// `--metrics` file), embedded as a JSON object.
    pub obs: serde::Value,
    /// Rolling quantiles of the daemon's windowed histograms, in fixed
    /// name order.
    pub rolling: Vec<RollingStats>,
    /// Window geometry of every entry in `rolling`.
    pub window: WindowMeta,
}

/// Body of a `health` response.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthBody {
    /// `"ok"`, or `"draining"` once shutdown began.
    pub status: String,
    /// Request lines counted over the daemon's lifetime.
    pub uptime_requests: u64,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Requests currently being solved.
    pub in_flight: u64,
    /// Configured worker threads (per shard).
    pub workers: u64,
    /// Configured shards; total solver threads = `shards × workers`.
    pub shards: u64,
    /// This daemon's worker threads currently alive (equals `shards ×
    /// workers` on a healthy daemon; lower means a worker died).
    pub workers_live: u64,
    /// Live cache entries, `mode_solve` answers included.
    pub cache_entries: u64,
    /// Configured cache capacity (per shard).
    pub cache_capacity: u64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Response {
    /// The request's `id`, echoed back.
    pub id: Option<u64>,
    /// One of the `STATUS_*` strings.
    pub status: String,
    /// Failure or rejection detail.
    pub reason: Option<String>,
    /// The schedule document (solve).
    pub result: Option<ScheduleExport>,
    /// The multi-mode schedule document (mode_solve).
    pub mode_result: Option<ModeScheduleExport>,
    /// `false` when the solve was truncated by its deadline.
    pub complete: Option<bool>,
    /// `true` when the answer came from the solution cache verbatim.
    pub cached: Option<bool>,
    /// `true` when the solve was warm-started from a cached makespan.
    pub warm_started: Option<bool>,
    /// Hex problem fingerprint (solve).
    pub fingerprint: Option<String>,
    /// Validation outcome (validate).
    pub validation: Option<ValidationReport>,
    /// Cache snapshot (cache_stats).
    pub cache: Option<CacheStatsBody>,
    /// Live telemetry (metrics).
    pub metrics: Option<MetricsBody>,
    /// Liveness snapshot (health).
    pub health: Option<HealthBody>,
    /// Per-item responses of a `batch_solve` request, in the order of
    /// the request's `batch` array. Each element uses the same shape as
    /// a standalone `solve` response (status, result, cached, …).
    pub batch: Option<Vec<Response>>,
}

impl Response {
    /// A response skeleton with the given status.
    pub fn status(id: Option<u64>, status: &str) -> Response {
        Response {
            id,
            status: status.to_owned(),
            reason: None,
            result: None,
            mode_result: None,
            complete: None,
            cached: None,
            warm_started: None,
            fingerprint: None,
            validation: None,
            cache: None,
            metrics: None,
            health: None,
            batch: None,
        }
    }

    /// An error response.
    pub fn error(id: Option<u64>, reason: &str) -> Response {
        let mut r = Response::status(id, STATUS_ERROR);
        r.reason = Some(reason.to_owned());
        r
    }

    /// An admission rejection.
    pub fn rejected(id: Option<u64>, reason: &str) -> Response {
        let mut r = Response::status(id, STATUS_REJECTED);
        r.reason = Some(reason.to_owned());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_with_absent_fields() {
        let json = r#"{"op":"solve","id":7,"app":{"tasks":[],"edges":[]}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req.op, "solve");
        assert_eq!(req.id, Some(7));
        assert!(req.app.is_some());
        assert_eq!(req.soft, None);
        assert_eq!(req.deadline_ms, None);
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_constructors() {
        let r = Response::rejected(Some(3), REASON_QUEUE_FULL);
        assert_eq!(r.status, STATUS_REJECTED);
        assert_eq!(r.reason.as_deref(), Some(REASON_QUEUE_FULL));
        let e = Response::error(None, "bad request");
        assert_eq!(e.status, STATUS_ERROR);
        let line = serde_json::to_string(&e).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn mode_solve_request_roundtrip() {
        let json = r#"{"op":"mode_solve","id":3,
            "modes":{"app":{"tasks":[],"edges":[]},"modes":[]}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req.op, "mode_solve");
        assert!(req.modes.is_some());
        assert!(req.app.is_none());
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn missing_op_is_an_error() {
        assert!(serde_json::from_str::<Request>(r#"{"id":1}"#).is_err());
    }
}

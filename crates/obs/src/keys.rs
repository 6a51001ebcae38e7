//! Canonical metric names emitted by the NETDAG crates.
//!
//! One constant per instrument so call sites, the report schema, and
//! the docs agree on spelling. Names are `dotted.snake_case`, prefixed
//! by the crate (or layer) that owns the instrument. The aggregate
//! slices ([`ALL_COUNTERS`], [`ALL_SPANS`], [`ALL_HISTOGRAMS`],
//! [`ALL_GAUGES`]) are what the CLI pre-registers before a command so
//! that the `--metrics` JSON always contains the full key set,
//! zero-valued where a subsystem went unused — consumers can rely on
//! the schema without probing for key presence.
//!
//! A gauge may share a name with a histogram (`serve.queue_depth` is
//! both the current level and the distribution of enqueue-time
//! samples); the report keeps them in separate sections, so the pair
//! is unambiguous.

// ── netdag-solver ───────────────────────────────────────────────────

/// Branch-and-bound searches run.
pub const SOLVER_SEARCHES: &str = "solver.searches";
/// Search-tree nodes explored across all searches.
pub const SOLVER_NODES: &str = "solver.nodes";
/// Branching decisions: child subproblems (value or half-interval
/// choices) attempted.
pub const SOLVER_DECISIONS: &str = "solver.decisions";
/// Dead ends: nodes abandoned by propagation failure, bound pruning, or
/// an inconsistent branching choice.
pub const SOLVER_BACKTRACKS: &str = "solver.backtracks";
/// Propagator wakeups (invocations inside the fixpoint loop).
pub const SOLVER_PROPAGATIONS: &str = "solver.propagations";
/// Propagator wakeups that actually pruned a domain.
pub const SOLVER_PRUNINGS: &str = "solver.prunings";
/// Feasible solutions encountered (improvements and the satisfaction
/// hit).
pub const SOLVER_SOLUTIONS: &str = "solver.solutions";
/// Luby restarts performed by trail-engine searches.
pub const SOLVER_RESTARTS: &str = "solver.restarts";
/// Children pruned by the relaxation lower bound before they became
/// search nodes (`SearchConfig::lower_bound`).
pub const SOLVER_LB_PRUNES: &str = "solver.lb.prunes";
/// Difference-bound-matrix entries tightened by the root Floyd–Warshall
/// closure (one count per relaxation build).
pub const SOLVER_LB_TIGHTENINGS: &str = "solver.lb.tightenings";
/// Root domain endpoints shaved by the CPM `[ES, LS]` presolve.
pub const SOLVER_PRESOLVE_SHAVED: &str = "solver.presolve.shaved_domains";
/// Shared-prefix rounds pinned equal across modes by joint multi-mode
/// encodings (one count per shared round per encode).
pub const SOLVER_MODE_SHARED_ROUNDS: &str = "solver.mode_shared_rounds";
/// Portfolio races run (`Model::minimize_portfolio` invocations).
pub const SOLVER_PORTFOLIO_RACES: &str = "solver.portfolio_races";
/// Search nodes explored by non-winning portfolio engines — the race's
/// total-work overhead over its winner, otherwise invisible once the
/// per-engine stats are summed.
pub const SOLVER_PORTFOLIO_LOSER_NODES: &str = "solver.portfolio.loser_nodes";

// ── netdag-glossy ───────────────────────────────────────────────────

/// Glossy floods simulated (Monte-Carlo profiling, validation, and bus
/// execution all funnel through `simulate_flood`).
pub const GLOSSY_FLOODS_SIMULATED: &str = "glossy.floods_simulated";

// ── netdag-weakly-hard ──────────────────────────────────────────────

/// Exact `ω ⊢ (m, K)` satisfaction checks (`Constraint::models`).
pub const WEAKLY_HARD_MODELS_CHECKS: &str = "weakly_hard.models_checks";
/// `⊕` compositions evaluated (paper eq. (8)).
pub const WEAKLY_HARD_OPLUS_COMPOSITIONS: &str = "weakly_hard.oplus_compositions";

// ── netdag-core ─────────────────────────────────────────────────────

/// Eq. (10) abstraction tests evaluated (`satisfies_eq10`).
pub const CORE_EQ10_TESTS: &str = "core.eq10_tests";
/// Operating modes co-synthesized by multi-mode scheduling (one count
/// per mode in each successful `schedule_modes` call).
pub const CORE_MODES: &str = "core.modes";
/// Schedules successfully computed (soft or weakly hard, any backend).
pub const CORE_SCHEDULES_COMPUTED: &str = "core.schedules_computed";

// ── netdag-lwb ──────────────────────────────────────────────────────

/// Communication rounds in successfully computed schedules.
pub const LWB_ROUNDS_SCHEDULED: &str = "lwb.rounds_scheduled";
/// Message slots in successfully computed schedules.
pub const LWB_SLOTS_SCHEDULED: &str = "lwb.slots_scheduled";
/// Rounds executed by the time-triggered bus executor.
pub const LWB_ROUNDS_EXECUTED: &str = "lwb.rounds_executed";
/// Message slots executed (one Glossy flood each) by the bus executor.
pub const LWB_SLOTS_EXECUTED: &str = "lwb.slots_executed";
/// Beacon floods sent by the bus executor.
pub const LWB_BEACONS_SENT: &str = "lwb.beacons_sent";
/// Mode switches executed at round boundaries by the bus executor
/// (beacon-announced, never mid-round).
pub const LWB_MODE_SWITCHES: &str = "lwb.mode_switches";

// ── netdag-serve ────────────────────────────────────────────────────

/// Requests received by the scheduling daemon (any operation).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Solve requests answered straight from the fingerprint cache
/// (zero solver nodes).
pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
/// Solve requests whose fingerprint missed the cache entirely.
pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";
/// Solve requests warm-started from a structurally matching cached
/// solution (same DAG, perturbed constraints — or permuted declarations).
pub const SERVE_WARM_STARTS: &str = "serve.warm_starts";
/// Requests rejected by admission control (queue full or shutting down).
pub const SERVE_REJECTS: &str = "serve.rejects";
/// Solve requests whose deadline expired mid-search (answered with the
/// best incumbent, marked incomplete).
pub const SERVE_DEADLINE_EXPIRED: &str = "serve.deadline_expired";
/// Requests that failed (bad JSON, invalid spec, infeasible problem).
pub const SERVE_ERRORS: &str = "serve.errors";
/// `batch_solve` request lines received (each also counts one
/// [`SERVE_REQUESTS`]).
pub const SERVE_BATCH_REQUESTS: &str = "serve.batch_requests";
/// Problems carried inside `batch_solve` requests (each classified
/// individually as a hit, warm start, or miss).
pub const SERVE_BATCH_ITEMS: &str = "serve.batch_items";
/// Cache entries restored from a `--cache-snapshot` file at startup
/// (re-routed onto the current shard ring).
pub const SERVE_CACHE_RESTORED: &str = "serve.cache.restored";
/// Access-log lines dropped because the write or flush failed.
/// Telemetry never fails a request, but a full disk is not silent.
pub const SERVE_ACCESS_LOG_DROPPED: &str = "serve.access_log.dropped";

// ── netdag-validation ───────────────────────────────────────────────

/// Bernoulli samples drawn by soft validation (eq. (11)).
pub const VALIDATION_SOFT_SAMPLES: &str = "validation.soft_samples";
/// Tasks checked by soft validation.
pub const VALIDATION_SOFT_TASKS: &str = "validation.soft_tasks";
/// Adversarial trials run by weakly hard validation (eq. (12)).
pub const VALIDATION_WEAKLY_HARD_TRIALS: &str = "validation.weakly_hard_trials";
/// Tasks checked by weakly hard validation.
pub const VALIDATION_WEAKLY_HARD_TASKS: &str = "validation.weakly_hard_tasks";

// ── spans ───────────────────────────────────────────────────────────

/// Wall time of `netdag inspect`.
pub const SPAN_CLI_INSPECT: &str = "cli.inspect";
/// Wall time of `netdag schedule`.
pub const SPAN_CLI_SCHEDULE: &str = "cli.schedule";
/// Wall time of `netdag validate`.
pub const SPAN_CLI_VALIDATE: &str = "cli.validate";
/// Wall time of `netdag serve` (the daemon's whole lifetime).
pub const SPAN_CLI_SERVE: &str = "cli.serve";
/// Wall time of `netdag soak` (the whole soak run).
pub const SPAN_CLI_SOAK: &str = "cli.soak";
/// Wall time spent in a scheduling backend (exact or greedy).
pub const SPAN_CORE_SOLVE: &str = "core.solve";
/// Wall time of one daemon request, admission to response.
pub const SPAN_SERVE_REQUEST: &str = "serve.request";
/// Wall time of soft Monte-Carlo profiling sweeps.
pub const SPAN_GLOSSY_PROFILE_SOFT: &str = "glossy.profile_soft";
/// Wall time of weakly hard Monte-Carlo profiling sweeps.
pub const SPAN_GLOSSY_PROFILE_WEAKLY_HARD: &str = "glossy.profile_weakly_hard";
/// Wall time of soft validation.
pub const SPAN_VALIDATION_SOFT: &str = "validation.soft";
/// Wall time of weakly hard validation.
pub const SPAN_VALIDATION_WEAKLY_HARD: &str = "validation.weakly_hard";

// ── histograms ──────────────────────────────────────────────────────

/// Distribution of search-tree nodes per solver invocation.
pub const HIST_SOLVER_NODES_PER_SEARCH: &str = "solver.nodes_per_search";
/// Distribution of undo-trail high-water marks per solver invocation
/// (zero for the clone-based reference engine).
pub const HIST_SOLVER_TRAIL_LEN: &str = "solver.trail_len_max";
/// Distribution of daemon request latencies, µs (admission to response).
pub const HIST_SERVE_LATENCY_US: &str = "serve.latency_us";
/// Admission-queue depth sampled at each enqueue.
pub const HIST_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

// ── gauges ──────────────────────────────────────────────────────────

/// Current admission-queue depth of the serve daemon.
pub const GAUGE_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Requests currently being solved by daemon workers.
pub const GAUGE_SERVE_IN_FLIGHT: &str = "serve.in_flight";
/// Entries currently resident in the daemon's solution cache.
pub const GAUGE_SERVE_CACHE_ENTRIES: &str = "serve.cache_entries";
/// Daemon worker threads currently alive.
pub const GAUGE_SERVE_WORKERS_LIVE: &str = "serve.workers_live";
/// Shards the serve daemon was configured with (constant after start).
pub const GAUGE_SERVE_SHARDS: &str = "serve.shards";

/// Every counter the workspace emits, in report order.
pub const ALL_COUNTERS: &[&str] = &[
    CORE_EQ10_TESTS,
    CORE_MODES,
    CORE_SCHEDULES_COMPUTED,
    GLOSSY_FLOODS_SIMULATED,
    LWB_BEACONS_SENT,
    LWB_MODE_SWITCHES,
    LWB_ROUNDS_EXECUTED,
    LWB_ROUNDS_SCHEDULED,
    LWB_SLOTS_EXECUTED,
    LWB_SLOTS_SCHEDULED,
    SERVE_ACCESS_LOG_DROPPED,
    SERVE_BATCH_ITEMS,
    SERVE_BATCH_REQUESTS,
    SERVE_CACHE_RESTORED,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_DEADLINE_EXPIRED,
    SERVE_ERRORS,
    SERVE_REJECTS,
    SERVE_REQUESTS,
    SERVE_WARM_STARTS,
    SOLVER_BACKTRACKS,
    SOLVER_DECISIONS,
    SOLVER_LB_PRUNES,
    SOLVER_LB_TIGHTENINGS,
    SOLVER_MODE_SHARED_ROUNDS,
    SOLVER_NODES,
    SOLVER_PORTFOLIO_LOSER_NODES,
    SOLVER_PORTFOLIO_RACES,
    SOLVER_PRESOLVE_SHAVED,
    SOLVER_PROPAGATIONS,
    SOLVER_PRUNINGS,
    SOLVER_RESTARTS,
    SOLVER_SEARCHES,
    SOLVER_SOLUTIONS,
    VALIDATION_SOFT_SAMPLES,
    VALIDATION_SOFT_TASKS,
    VALIDATION_WEAKLY_HARD_TASKS,
    VALIDATION_WEAKLY_HARD_TRIALS,
    WEAKLY_HARD_MODELS_CHECKS,
    WEAKLY_HARD_OPLUS_COMPOSITIONS,
];

/// Every span the workspace records.
pub const ALL_SPANS: &[&str] = &[
    SPAN_CLI_INSPECT,
    SPAN_CLI_SCHEDULE,
    SPAN_CLI_SERVE,
    SPAN_CLI_SOAK,
    SPAN_CLI_VALIDATE,
    SPAN_CORE_SOLVE,
    SPAN_GLOSSY_PROFILE_SOFT,
    SPAN_GLOSSY_PROFILE_WEAKLY_HARD,
    SPAN_SERVE_REQUEST,
    SPAN_VALIDATION_SOFT,
    SPAN_VALIDATION_WEAKLY_HARD,
];

/// Every histogram the workspace observes.
pub const ALL_HISTOGRAMS: &[&str] = &[
    HIST_SERVE_LATENCY_US,
    HIST_SERVE_QUEUE_DEPTH,
    HIST_SOLVER_NODES_PER_SEARCH,
    HIST_SOLVER_TRAIL_LEN,
];

/// Every gauge the workspace levels.
pub const ALL_GAUGES: &[&str] = &[
    GAUGE_SERVE_CACHE_ENTRIES,
    GAUGE_SERVE_IN_FLIGHT,
    GAUGE_SERVE_QUEUE_DEPTH,
    GAUGE_SERVE_SHARDS,
    GAUGE_SERVE_WORKERS_LIVE,
];

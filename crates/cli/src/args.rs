//! Hand-rolled argument parsing (the CLI has no external dependencies).

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use netdag_core::config::{Backend, RoundStructure, SchedulerConfig};
use netdag_scenario::{soak_serve_config, SoakConfig};
use netdag_serve::ServeConfig;
use netdag_validation::ValidationSettings;

/// Which network statistic the scheduler consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatChoice {
    /// The paper's synthetic weakly hard statistic, eq. (13).
    Eq13,
    /// The paper's sigmoid soft statistic, eq. (15), with the given `fSS̄`.
    Eq15(f64),
}

/// Common scheduling flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOpts {
    /// Application spec path.
    pub app: PathBuf,
    /// Soft constraints path, if scheduling in soft mode.
    pub soft: Option<PathBuf>,
    /// Weakly hard constraints path, if scheduling in weakly hard mode.
    pub weakly_hard: Option<PathBuf>,
    /// Multi-mode spec path (embeds its own application), if co-
    /// synthesizing a mode set. Conflicts with `--app`, `--soft` and
    /// `--weakly-hard`.
    pub modes: Option<PathBuf>,
    /// Scheduler settings: `--greedy` (backend), `--chi-max`,
    /// `--beacon-chi`, `--per-message-rounds`, `--include-beacons`,
    /// `--portfolio`, `--threads` (portfolio workers) and `--no-lb`.
    pub config: SchedulerConfig,
    /// Statistic choice.
    pub stat: StatChoice,
    /// Where to write the schedule JSON.
    pub out: Option<PathBuf>,
    /// Print the ASCII timeline.
    pub timeline: bool,
    /// Where to write the metrics report JSON (`netdag-obs/1` schema).
    pub metrics: Option<PathBuf>,
    /// Where to write the Chrome Trace Event JSON (a `netdag-trace/1`
    /// summary lands next to it with extension `summary.json`).
    pub trace: Option<PathBuf>,
}

/// Validation flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateOpts {
    /// Application spec path.
    pub app: PathBuf,
    /// Exported schedule path.
    pub schedule: PathBuf,
    /// Soft constraints path.
    pub soft: Option<PathBuf>,
    /// Weakly hard constraints path.
    pub weakly_hard: Option<PathBuf>,
    /// Statistic choice.
    pub stat: StatChoice,
    /// Validation settings: `--kappa`, `--trials`, `--seed` and
    /// `--threads`.
    pub settings: ValidationSettings,
    /// Where to write the metrics report JSON (`netdag-obs/1` schema).
    pub metrics: Option<PathBuf>,
    /// Where to write the Chrome Trace Event JSON (a `netdag-trace/1`
    /// summary lands next to it with extension `summary.json`).
    pub trace: Option<PathBuf>,
}

/// `netdag serve` flags: the long-running scheduling daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Address to bind.
    pub host: String,
    /// Port to bind (0 = ephemeral; the chosen port is printed and
    /// optionally written to `--port-file`).
    pub port: u16,
    /// Where to write the bound port as text (for scripts binding
    /// port 0).
    pub port_file: Option<PathBuf>,
    /// Daemon settings: `--shards`, `--workers`, `--queue`, `--cache`,
    /// `--step-nodes`, `--access-log`, `--cache-snapshot`,
    /// `--metrics-interval`, the `--slo-*` gate, and `--metrics` as
    /// `metrics_path`.
    pub config: ServeConfig,
    /// Where to write the Chrome Trace Event JSON.
    pub trace: Option<PathBuf>,
}

/// `netdag soak` flags: stream a seeded scenario corpus through a live
/// daemon and check end-to-end invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOpts {
    /// Corpus settings: `--seed`, `--scenarios`, `--runs` and
    /// `--batch`.
    pub config: SoakConfig,
    /// Replay exactly one scenario index (the recipe printed with every
    /// violation) instead of a range starting at 0.
    pub index: Option<u64>,
    /// The self-hosted daemon's settings: `soak_serve_config`'s, with
    /// `--shards` and `--workers` setting the pool size.
    pub daemon: ServeConfig,
    /// Target an already-running daemon (`host:port`) instead of
    /// self-hosting one; skips the access-log join and the SLO verdict.
    pub addr: Option<String>,
    /// Where to write the soak summary JSON (`BENCH_soak.json` schema).
    pub out: Option<PathBuf>,
    /// Where to write the metrics report JSON (`netdag-obs/1` schema).
    pub metrics: Option<PathBuf>,
    /// Where to write the Chrome Trace Event JSON.
    pub trace: Option<PathBuf>,
}

/// `netdag trace` flags: replay a solved schedule as a standalone bus
/// timeline, or structurally check an exported trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOpts {
    /// Application spec path (replay mode).
    pub app: Option<PathBuf>,
    /// Exported schedule path (replay mode).
    pub schedule: Option<PathBuf>,
    /// Where to write the Chrome Trace Event JSON (replay mode).
    pub out: Option<PathBuf>,
    /// Chrome trace JSON to validate (check mode): span balance,
    /// per-track timestamp order, flow and parent consistency.
    pub check: Option<PathBuf>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print tasks, messages and levels of an application.
    Inspect {
        /// Application spec path.
        app: PathBuf,
        /// Where to write the metrics report JSON (`netdag-obs/1`
        /// schema).
        metrics: Option<PathBuf>,
        /// Where to write the Chrome Trace Event JSON.
        trace: Option<PathBuf>,
    },
    /// Compute a schedule.
    Schedule(ScheduleOpts),
    /// Validate an exported schedule.
    Validate(ValidateOpts),
    /// Run the scheduling daemon.
    Serve(ServeOpts),
    /// Stream a seeded scenario corpus through a live daemon.
    Soak(SoakOpts),
    /// Replay or check traces.
    Trace(TraceOpts),
    /// Print usage.
    Help,
}

impl Command {
    /// The shared reporting flags (`--metrics`, `--trace`) of this
    /// command, if it accepts them — the single source consulted by
    /// [`crate::commands::run`], so new subcommands extend this method
    /// instead of growing per-flag match arms there.
    pub fn reporting(&self) -> (Option<&Path>, Option<&Path>) {
        match self {
            Command::Help | Command::Trace(_) => (None, None),
            Command::Inspect { metrics, trace, .. } => (metrics.as_deref(), trace.as_deref()),
            Command::Schedule(o) => (o.metrics.as_deref(), o.trace.as_deref()),
            Command::Validate(o) => (o.metrics.as_deref(), o.trace.as_deref()),
            Command::Serve(o) => (o.config.metrics_path.as_deref(), o.trace.as_deref()),
            Command::Soak(o) => (o.metrics.as_deref(), o.trace.as_deref()),
        }
    }
}

/// Error from [`parse_args`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseArgsError {
    /// No subcommand given.
    MissingCommand,
    /// Unrecognized subcommand.
    UnknownCommand(String),
    /// Unrecognized flag for the subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue(String, String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// Mutually exclusive flags were combined: `--soft` with
    /// `--weakly-hard`, `--modes` with `--app`/`--soft`/`--weakly-hard`
    /// (schedule), or `--check` with the replay flags (trace).
    ConflictingModes,
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::MissingCommand => {
                write!(f, "missing subcommand; try `netdag help`")
            }
            ParseArgsError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            ParseArgsError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            ParseArgsError::MissingValue(flag) => write!(f, "flag {flag:?} needs a value"),
            ParseArgsError::BadValue(flag, v) => {
                write!(f, "flag {flag:?} got unparsable value {v:?}")
            }
            ParseArgsError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ParseArgsError::ConflictingModes => {
                write!(
                    f,
                    "mutually exclusive flags (--soft vs --weakly-hard, --modes vs \
                     --app/--soft/--weakly-hard, or --check vs replay)"
                )
            }
        }
    }
}

impl Error for ParseArgsError {}

/// The usage text printed by `netdag help`.
pub const USAGE: &str = "\
netdag — application-aware scheduling over the Low-Power Wireless Bus

USAGE:
  netdag inspect  --app <app.json> [--metrics <m.json>] [--trace <t.json>]
  netdag schedule --app <app.json> [--soft <f.json> | --weakly-hard <f.json>]
                  | --modes <modes.json>
                  [--greedy] [--chi-max N] [--beacon-chi N]
                  [--per-message-rounds] [--include-beacons]
                  [--portfolio N] (race N diverse solver configs; the
                                   winner is deterministic, so the
                                   schedule is identical at any thread
                                   count; 0/1 = single engine)
                  [--threads N]   (portfolio workers: 0 = auto, 1 = serial)
                  [--no-lb]       (disable the relaxation lower bound and
                                   CPM presolve; same optimum, more search
                                   nodes, and provably impossible timing is
                                   searched instead of explained)
                  [--stat eq13 | --stat eq15:<fss>]
                  [--out <schedule.json>] [--timeline]
                  [--metrics <m.json>] [--trace <t.json>]
  netdag validate --app <app.json> --schedule <schedule.json>
                  [--soft <f.json>] [--weakly-hard <f.json>]
                  [--stat …] [--kappa N] [--trials N] [--seed N]
                  [--threads N]   (0 = auto, 1 = serial; same results at any N)
                  [--metrics <m.json>] [--trace <t.json>]
  netdag serve    [--host H] [--port N] (0 = ephemeral, printed on start)
                  [--shards N]    (consistent-hash shards, each with its
                                   own cache and worker pool)
                  [--workers N] [--queue N] (per shard; overflow is
                                             rejected, not queued)
                  [--cache N]     (solution-cache entries per shard, LRU)
                  [--step-nodes N] [--port-file <p.txt>]
                  [--access-log <log.ndjson>] (one structured JSON line
                                               per handled request)
                  [--cache-snapshot <s.json>] (warm restart: restored on
                                               start, written on drain)
                  [--metrics-interval N] (rewrite --metrics atomically
                                          every N completed requests)
                  [--slo-p99-us N] [--slo-hit-rate F]
                  [--slo-max-deadline-expired N]
                                  (shutdown-time SLO gate; a violated
                                   check fails the command)
                  [--metrics <m.json>] [--trace <t.json>]
  netdag soak     [--seed N] [--scenarios N] [--index N]
                  [--shards N] [--workers N] (self-hosted daemon size)
                  [--runs N]      (bus replay runs per scenario)
                  [--batch N]     (batch_solve revisit group, 0 = off)
                  [--addr H:P]    (drive an already-running daemon)
                  [--out <soak.json>]
                  [--metrics <m.json>] [--trace <t.json>]
  netdag trace    --app <app.json> --schedule <schedule.json> --out <t.json>
  netdag trace    --check <t.json>
  netdag help

`netdag schedule --modes <modes.json>` co-synthesizes one schedule per
operating mode with a shared round prefix, so the deployment can switch
modes at a round boundary without re-flashing (the TTW multi-mode
model). The spec embeds the application plus per-mode constraints:

  { \"app\": { \"tasks\": […], \"edges\": […] },
    \"shared_prefix_rounds\": 1,
    \"modes\": [
      { \"name\": \"nominal\",
        \"weakly_hard\": { \"constraints\": [
          { \"task\": \"act\", \"m\": 25, \"k\": 40 } ] } },
      { \"name\": \"degraded\", \"loss\": 0.9,
        \"weakly_hard\": { \"constraints\": [
          { \"task\": \"act\", \"m\": 30, \"k\": 40 } ] } } ] }

Each mode carries exactly one constraint family (\"soft\" with an fss
profile, or \"weakly_hard\"), an optional \"tasks\" activation list, and
an optional \"loss\" annotation. The command prints one makespan line
per mode plus the shared-prefix length, e.g.:

  mode nominal: makespan 26800 µs, bus 10400 µs
  mode degraded: makespan 27200 µs, bus 10800 µs
  shared prefix: 1 round(s), optimal = true

and `--out` writes a JSON document with a \"modes\" array in place of
the single-schedule export. `--soft`/`--weakly-hard`/`--app` conflict
with `--modes`; `--greedy` is rejected (co-synthesis needs the exact
backend's coupled search).

`netdag serve` answers newline-delimited JSON requests over TCP
(solve / batch_solve / validate / mode_solve / cache_stats / metrics /
health / shutdown) with the same schedule document `netdag schedule
--out` writes; repeated problems hit a fingerprint-keyed solution cache
and structurally similar ones warm-start the solver. With `--shards N`
the daemon runs N shards, each owning an independent cache and worker
pool, and routes every request by its structural fingerprint over a
consistent-hash ring — responses are byte-identical at any shard count.
`batch_solve` carries an array of solve items, fingerprints them once
per structural class, and fans them out to their owning shards in one
round trip. It runs until a client sends {\"op\": \"shutdown\"},
draining accepted work first. The two read-only probes report live
telemetry — `metrics` embeds the current netdag-obs/1 snapshot plus
rolling p50/p90/p99 windows over recent traffic, `health` liveness and
queue pressure — without perturbing any counter. With `--access-log`
every worker-handled request appends one structured JSON line whose
`rid` also tags the request's trace span (write failures are counted,
never fatal); with `--cache-snapshot <s.json>` a gracefully drained
daemon persists its caches atomically and a restarting one reloads
them — re-routed through its own ring, so the shard count may change
between runs; with `--slo-*` flags the shutdown report gains a
pass/fail check per threshold and a violation makes the command exit
non-zero.

`netdag soak` generates a deterministic scenario corpus — topology
families (line/ring/star/grid/mesh), layered applications, soft or
weakly hard contracts, Bernoulli or bursty Gilbert–Elliott loss,
mobility phases, node churn and link-failure events, every scenario a
pure function of (--seed, index) — and streams it through a live
daemon: admission solve, structural checks on the returned schedule,
the daemon's own validate op, LWB bus replay under the scenario's loss
with fault injection and degraded re-admission, and a batch_solve
cache revisit per group. Any invariant violation prints a one-line
replay recipe (`netdag soak --seed S --index I`) that reproduces the
failure bit-identically. By default the command self-hosts a sharded
daemon on a loopback port and gates on its shutdown SLO verdict;
--addr drives an external daemon instead. --out writes the
BENCH_soak.json summary (per-family solve-node histograms joined from
the daemon's access log). NETDAG_SOAK_FAST=1 caps the corpus at 24
scenarios for CI smoke runs.

Every subcommand accepts --metrics <path>, writing a machine-readable
JSON report (schema netdag-obs/1: solver/cache/flood counters plus wall
-time spans scoped to this command) with a summary table on stderr, and
--trace <path>, writing a Chrome Trace Event JSON (open it in Perfetto
or chrome://tracing) of the command's causal events — solver search
nodes with decision/prune instants, LWB rounds/slots/floods, fan-out
worker spans — plus a netdag-trace/1 summary at <path>.summary.json.
Trace timestamps use a deterministic logical clock by default; set
NETDAG_TRACE_CLOCK=wall for real durations.

`netdag trace --app … --schedule …` replays a solved schedule into a
standalone bus-timeline trace (rounds, beacons, slots, floods and
slot→task flow arrows at scheduled microseconds, one track per node);
`netdag trace --check` re-parses an exported trace and verifies span
balance, per-track timestamp order, and flow/parent consistency.
Counter and trace event values are deterministic at any --threads
setting; with --threads 1 traces are byte-identical across runs.
";

/// Handles the reporting flags every subcommand shares (`--metrics`,
/// `--trace`) in one place. Returns `true` when `flag` was consumed.
fn common_flag<I: Iterator<Item = String>>(
    flag: &str,
    cur: &mut Cursor<I>,
    metrics: &mut Option<PathBuf>,
    trace: &mut Option<PathBuf>,
) -> Result<bool, ParseArgsError> {
    match flag {
        "--metrics" => *metrics = Some(PathBuf::from(cur.value("--metrics")?)),
        "--trace" => *trace = Some(PathBuf::from(cur.value("--trace")?)),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_stat(v: &str) -> Result<StatChoice, ParseArgsError> {
    if v == "eq13" {
        return Ok(StatChoice::Eq13);
    }
    if let Some(fss) = v.strip_prefix("eq15:") {
        return fss
            .parse::<f64>()
            .map(StatChoice::Eq15)
            .map_err(|_| ParseArgsError::BadValue("--stat".into(), v.into()));
    }
    Err(ParseArgsError::BadValue("--stat".into(), v.into()))
}

struct Cursor<I: Iterator<Item = String>> {
    inner: std::iter::Peekable<I>,
}

impl<I: Iterator<Item = String>> Cursor<I> {
    fn value(&mut self, flag: &str) -> Result<String, ParseArgsError> {
        self.inner
            .next()
            .ok_or_else(|| ParseArgsError::MissingValue(flag.to_owned()))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ParseArgsError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| ParseArgsError::BadValue(flag.to_owned(), v))
    }
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// See [`ParseArgsError`].
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseArgsError> {
    let mut cur = Cursor {
        inner: args.into_iter().peekable(),
    };
    let command = cur.inner.next().ok_or(ParseArgsError::MissingCommand)?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "inspect" => {
            let mut app = None;
            let mut metrics = None;
            let mut trace = None;
            while let Some(flag) = cur.inner.next() {
                if common_flag(flag.as_str(), &mut cur, &mut metrics, &mut trace)? {
                    continue;
                }
                match flag.as_str() {
                    "--app" => app = Some(PathBuf::from(cur.value("--app")?)),
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Inspect {
                app: app.ok_or(ParseArgsError::MissingFlag("app"))?,
                metrics,
                trace,
            })
        }
        "schedule" => {
            let mut opts = ScheduleOpts {
                app: PathBuf::new(),
                soft: None,
                weakly_hard: None,
                modes: None,
                config: SchedulerConfig::default(),
                stat: StatChoice::Eq13,
                out: None,
                timeline: false,
                metrics: None,
                trace: None,
            };
            let mut have_app = false;
            while let Some(flag) = cur.inner.next() {
                if common_flag(flag.as_str(), &mut cur, &mut opts.metrics, &mut opts.trace)? {
                    continue;
                }
                match flag.as_str() {
                    "--app" => {
                        opts.app = PathBuf::from(cur.value("--app")?);
                        have_app = true;
                    }
                    "--soft" => opts.soft = Some(PathBuf::from(cur.value("--soft")?)),
                    "--weakly-hard" => {
                        opts.weakly_hard = Some(PathBuf::from(cur.value("--weakly-hard")?))
                    }
                    "--modes" => opts.modes = Some(PathBuf::from(cur.value("--modes")?)),
                    "--greedy" => opts.config.backend = Backend::Greedy,
                    "--chi-max" => opts.config.chi_max = cur.parsed("--chi-max")?,
                    "--beacon-chi" => opts.config.beacon_chi = cur.parsed("--beacon-chi")?,
                    "--per-message-rounds" => {
                        opts.config.round_structure = RoundStructure::PerMessage
                    }
                    "--include-beacons" => opts.config.include_beacons = true,
                    "--portfolio" => opts.config.portfolio = cur.parsed("--portfolio")?,
                    "--threads" => opts.config.solver_threads = cur.parsed("--threads")?,
                    "--no-lb" => opts.config.lower_bound = false,
                    "--stat" => opts.stat = parse_stat(&cur.value("--stat")?)?,
                    "--out" => opts.out = Some(PathBuf::from(cur.value("--out")?)),
                    "--timeline" => opts.timeline = true,
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            if opts.modes.is_some() {
                // The modes spec embeds its own application and per-mode
                // constraints.
                if have_app || opts.soft.is_some() || opts.weakly_hard.is_some() {
                    return Err(ParseArgsError::ConflictingModes);
                }
            } else if !have_app {
                return Err(ParseArgsError::MissingFlag("app"));
            }
            if opts.soft.is_some() && opts.weakly_hard.is_some() {
                return Err(ParseArgsError::ConflictingModes);
            }
            Ok(Command::Schedule(opts))
        }
        "validate" => {
            let mut opts = ValidateOpts {
                app: PathBuf::new(),
                schedule: PathBuf::new(),
                soft: None,
                weakly_hard: None,
                stat: StatChoice::Eq13,
                settings: ValidationSettings::default(),
                metrics: None,
                trace: None,
            };
            let (mut have_app, mut have_schedule) = (false, false);
            while let Some(flag) = cur.inner.next() {
                if common_flag(flag.as_str(), &mut cur, &mut opts.metrics, &mut opts.trace)? {
                    continue;
                }
                match flag.as_str() {
                    "--app" => {
                        opts.app = PathBuf::from(cur.value("--app")?);
                        have_app = true;
                    }
                    "--schedule" => {
                        opts.schedule = PathBuf::from(cur.value("--schedule")?);
                        have_schedule = true;
                    }
                    "--soft" => opts.soft = Some(PathBuf::from(cur.value("--soft")?)),
                    "--weakly-hard" => {
                        opts.weakly_hard = Some(PathBuf::from(cur.value("--weakly-hard")?))
                    }
                    "--stat" => opts.stat = parse_stat(&cur.value("--stat")?)?,
                    "--kappa" => {
                        opts.settings.kappa = cur.parsed("--kappa")?;
                        // Zero samples validate nothing; the soft margin divides by κ.
                        if opts.settings.kappa == 0 {
                            return Err(ParseArgsError::BadValue("--kappa".into(), "0".into()));
                        }
                    }
                    "--trials" => opts.settings.trials = cur.parsed("--trials")?,
                    "--seed" => opts.settings.seed = cur.parsed("--seed")?,
                    "--threads" => opts.settings.threads = cur.parsed("--threads")?,
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            if !have_app {
                return Err(ParseArgsError::MissingFlag("app"));
            }
            if !have_schedule {
                return Err(ParseArgsError::MissingFlag("schedule"));
            }
            Ok(Command::Validate(opts))
        }
        "serve" => {
            let mut opts = ServeOpts {
                host: "127.0.0.1".to_owned(),
                port: 0,
                port_file: None,
                config: ServeConfig::default(),
                trace: None,
            };
            let cfg = &mut opts.config;
            while let Some(flag) = cur.inner.next() {
                if common_flag(
                    flag.as_str(),
                    &mut cur,
                    &mut cfg.metrics_path,
                    &mut opts.trace,
                )? {
                    continue;
                }
                match flag.as_str() {
                    "--host" => opts.host = cur.value("--host")?,
                    "--port" => opts.port = cur.parsed("--port")?,
                    "--shards" => cfg.shards = cur.parsed("--shards")?,
                    "--workers" => cfg.workers = cur.parsed("--workers")?,
                    "--queue" => cfg.queue_capacity = cur.parsed("--queue")?,
                    "--cache" => cfg.cache_capacity = cur.parsed("--cache")?,
                    "--step-nodes" => cfg.step_nodes = cur.parsed("--step-nodes")?,
                    "--port-file" => {
                        opts.port_file = Some(PathBuf::from(cur.value("--port-file")?))
                    }
                    "--access-log" => {
                        cfg.access_log = Some(PathBuf::from(cur.value("--access-log")?))
                    }
                    "--cache-snapshot" => {
                        cfg.cache_snapshot = Some(PathBuf::from(cur.value("--cache-snapshot")?))
                    }
                    "--metrics-interval" => {
                        cfg.metrics_interval = cur.parsed("--metrics-interval")?
                    }
                    "--slo-p99-us" => cfg.slo.max_p99_us = Some(cur.parsed("--slo-p99-us")?),
                    "--slo-hit-rate" => cfg.slo.min_hit_rate = Some(cur.parsed("--slo-hit-rate")?),
                    "--slo-max-deadline-expired" => {
                        cfg.slo.max_deadline_expired =
                            Some(cur.parsed("--slo-max-deadline-expired")?)
                    }
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            if cfg.metrics_interval > 0 && cfg.metrics_path.is_none() {
                return Err(ParseArgsError::MissingFlag("metrics"));
            }
            Ok(Command::Serve(opts))
        }
        "soak" => {
            let mut opts = SoakOpts {
                config: SoakConfig::default(),
                index: None,
                daemon: soak_serve_config(2, 2, None),
                addr: None,
                out: None,
                metrics: None,
                trace: None,
            };
            while let Some(flag) = cur.inner.next() {
                if common_flag(flag.as_str(), &mut cur, &mut opts.metrics, &mut opts.trace)? {
                    continue;
                }
                match flag.as_str() {
                    "--seed" => opts.config.master_seed = cur.parsed("--seed")?,
                    "--scenarios" => opts.config.scenarios = cur.parsed("--scenarios")?,
                    "--index" => opts.index = Some(cur.parsed("--index")?),
                    "--shards" => opts.daemon.shards = cur.parsed("--shards")?,
                    "--workers" => opts.daemon.workers = cur.parsed("--workers")?,
                    "--runs" => opts.config.replay_runs = cur.parsed("--runs")?,
                    "--batch" => opts.config.batch = cur.parsed("--batch")?,
                    "--addr" => opts.addr = Some(cur.value("--addr")?),
                    "--out" => opts.out = Some(PathBuf::from(cur.value("--out")?)),
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Soak(opts))
        }
        "trace" => {
            let mut opts = TraceOpts {
                app: None,
                schedule: None,
                out: None,
                check: None,
            };
            while let Some(flag) = cur.inner.next() {
                match flag.as_str() {
                    "--app" => opts.app = Some(PathBuf::from(cur.value("--app")?)),
                    "--schedule" => opts.schedule = Some(PathBuf::from(cur.value("--schedule")?)),
                    "--out" => opts.out = Some(PathBuf::from(cur.value("--out")?)),
                    "--check" => opts.check = Some(PathBuf::from(cur.value("--check")?)),
                    other => return Err(ParseArgsError::UnknownFlag(other.to_owned())),
                }
            }
            if opts.check.is_some() {
                if opts.app.is_some() || opts.schedule.is_some() || opts.out.is_some() {
                    return Err(ParseArgsError::ConflictingModes);
                }
            } else {
                if opts.app.is_none() {
                    return Err(ParseArgsError::MissingFlag("app"));
                }
                if opts.schedule.is_none() {
                    return Err(ParseArgsError::MissingFlag("schedule"));
                }
                if opts.out.is_none() {
                    return Err(ParseArgsError::MissingFlag("out"));
                }
            }
            Ok(Command::Trace(opts))
        }
        other => Err(ParseArgsError::UnknownCommand(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Command, ParseArgsError> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(h).unwrap(), Command::Help);
        }
    }

    #[test]
    fn inspect_needs_app() {
        assert_eq!(
            parse("inspect").unwrap_err(),
            ParseArgsError::MissingFlag("app")
        );
        let Command::Inspect {
            app,
            metrics,
            trace,
        } = parse("inspect --app a.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(app, PathBuf::from("a.json"));
        assert_eq!(metrics, None);
        assert_eq!(trace, None);
    }

    #[test]
    fn metrics_flag_on_every_subcommand() {
        let Command::Inspect { metrics, .. } =
            parse("inspect --app a.json --metrics m.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(metrics, Some(PathBuf::from("m.json")));
        let Command::Schedule(o) = parse("schedule --app a.json --metrics m.json").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.metrics, Some(PathBuf::from("m.json")));
        let Command::Validate(v) =
            parse("validate --app a.json --schedule s.json --metrics m.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(v.metrics, Some(PathBuf::from("m.json")));
        assert!(matches!(
            parse("validate --app a.json --schedule s.json --metrics").unwrap_err(),
            ParseArgsError::MissingValue(_)
        ));
    }

    #[test]
    fn trace_flag_on_every_subcommand() {
        let Command::Inspect { trace, .. } = parse("inspect --app a.json --trace t.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(trace, Some(PathBuf::from("t.json")));
        let Command::Schedule(o) =
            parse("schedule --app a.json --trace t.json --metrics m.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert_eq!(o.metrics, Some(PathBuf::from("m.json")));
        let Command::Validate(v) =
            parse("validate --app a.json --schedule s.json --trace t.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(v.trace, Some(PathBuf::from("t.json")));
        assert!(matches!(
            parse("inspect --app a.json --trace").unwrap_err(),
            ParseArgsError::MissingValue(_)
        ));
    }

    #[test]
    fn trace_subcommand_modes() {
        let Command::Trace(o) = parse("trace --app a.json --schedule s.json --out t.json").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(o.app, Some(PathBuf::from("a.json")));
        assert_eq!(o.schedule, Some(PathBuf::from("s.json")));
        assert_eq!(o.out, Some(PathBuf::from("t.json")));
        assert_eq!(o.check, None);
        let Command::Trace(c) = parse("trace --check t.json").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.check, Some(PathBuf::from("t.json")));
        // Replay mode requires all three flags; check excludes them.
        assert_eq!(
            parse("trace --app a.json --out t.json").unwrap_err(),
            ParseArgsError::MissingFlag("schedule")
        );
        assert_eq!(
            parse("trace --app a.json --schedule s.json").unwrap_err(),
            ParseArgsError::MissingFlag("out")
        );
        assert_eq!(
            parse("trace").unwrap_err(),
            ParseArgsError::MissingFlag("app")
        );
        assert_eq!(
            parse("trace --check t.json --app a.json").unwrap_err(),
            ParseArgsError::ConflictingModes
        );
        assert!(matches!(
            parse("trace --bogus").unwrap_err(),
            ParseArgsError::UnknownFlag(_)
        ));
    }

    #[test]
    fn schedule_full_flags() {
        let cmd = parse(
            "schedule --app a.json --weakly-hard f.json --greedy --chi-max 10 \
             --beacon-chi 3 --per-message-rounds --include-beacons \
             --portfolio 4 --threads 2 --no-lb --stat eq15:1.25 --out s.json --timeline",
        )
        .unwrap();
        let Command::Schedule(o) = cmd else {
            panic!("wrong command");
        };
        assert!(
            o.config.backend == Backend::Greedy
                && o.config.round_structure == RoundStructure::PerMessage
                && o.config.include_beacons
                && o.timeline
        );
        assert_eq!(o.config.chi_max, 10);
        assert_eq!(o.config.beacon_chi, 3);
        assert_eq!(o.config.portfolio, 4);
        assert_eq!(o.config.solver_threads, 2);
        assert!(!o.config.lower_bound);
        assert_eq!(o.stat, StatChoice::Eq15(1.25));
        assert_eq!(o.out, Some(PathBuf::from("s.json")));
    }

    #[test]
    fn schedule_defaults() {
        let Command::Schedule(o) = parse("schedule --app a.json").unwrap() else {
            panic!("wrong command");
        };
        assert!(o.config.backend != Backend::Greedy);
        assert_eq!(o.config.chi_max, 8);
        assert_eq!(o.stat, StatChoice::Eq13);
        assert_eq!(o.soft, None);
        assert_eq!(o.config.portfolio, 0);
        assert_eq!(o.config.solver_threads, 0);
        assert!(o.config.lower_bound);
    }

    #[test]
    fn schedule_mode_conflict() {
        assert_eq!(
            parse("schedule --app a.json --soft s.json --weakly-hard w.json").unwrap_err(),
            ParseArgsError::ConflictingModes
        );
    }

    #[test]
    fn schedule_modes_flag() {
        // --modes stands alone: the spec embeds the application.
        let Command::Schedule(o) = parse("schedule --modes m.json --timeline").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.modes, Some(PathBuf::from("m.json")));
        assert!(o.timeline);
        for conflict in [
            "schedule --modes m.json --app a.json",
            "schedule --modes m.json --soft s.json",
            "schedule --modes m.json --weakly-hard w.json",
        ] {
            assert_eq!(
                parse(conflict).unwrap_err(),
                ParseArgsError::ConflictingModes,
                "{conflict}"
            );
        }
        // Without --modes, --app stays required.
        assert_eq!(
            parse("schedule").unwrap_err(),
            ParseArgsError::MissingFlag("app")
        );
    }

    #[test]
    fn validate_flags() {
        let Command::Validate(o) = parse(
            "validate --app a.json --schedule s.json --weakly-hard w.json \
             --kappa 500 --trials 9 --seed 7 --threads 4",
        )
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.settings.kappa, 500);
        assert_eq!(o.settings.trials, 9);
        assert_eq!(o.settings.seed, 7);
        assert_eq!(o.settings.threads, 4);
        // Threads defaults to serial; 0 (= auto) parses.
        let Command::Validate(d) = parse("validate --app a.json --schedule s.json").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(d.settings.threads, 1);
        let Command::Validate(z) =
            parse("validate --app a.json --schedule s.json --threads 0").unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(z.settings.threads, 0);
        assert_eq!(
            parse("validate --app a.json").unwrap_err(),
            ParseArgsError::MissingFlag("schedule")
        );
    }

    #[test]
    fn serve_defaults_and_flags() {
        let Command::Serve(d) = parse("serve").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(d.host, "127.0.0.1");
        assert_eq!(d.port, 0);
        let c = &d.config;
        assert_eq!(
            (c.shards, c.workers, c.queue_capacity, c.cache_capacity),
            (1, 2, 16, 64)
        );
        assert_eq!(c.step_nodes, 4096);
        assert_eq!(d.port_file, None);
        assert_eq!(c.access_log, None);
        assert_eq!(c.cache_snapshot, None);
        assert_eq!(c.metrics_interval, 0);
        assert_eq!(
            (
                c.slo.max_p99_us,
                c.slo.min_hit_rate,
                c.slo.max_deadline_expired
            ),
            (None, None, None)
        );
        let Command::Serve(o) = parse(
            "serve --host 0.0.0.0 --port 9000 --shards 4 --workers 4 --queue 8 \
             --cache 32 --step-nodes 1024 --port-file p.txt --access-log a.ndjson \
             --cache-snapshot snap.json \
             --metrics-interval 50 --slo-p99-us 250000 --slo-hit-rate 0.5 \
             --slo-max-deadline-expired 0 --metrics m.json --trace t.json",
        )
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.host, "0.0.0.0");
        assert_eq!(o.port, 9000);
        let c = &o.config;
        assert_eq!(
            (c.shards, c.workers, c.queue_capacity, c.cache_capacity),
            (4, 4, 8, 32)
        );
        assert_eq!(c.step_nodes, 1024);
        assert_eq!(o.port_file, Some(PathBuf::from("p.txt")));
        assert_eq!(c.access_log, Some(PathBuf::from("a.ndjson")));
        assert_eq!(c.cache_snapshot, Some(PathBuf::from("snap.json")));
        assert_eq!(c.metrics_interval, 50);
        assert_eq!(c.slo.max_p99_us, Some(250_000));
        assert_eq!(c.slo.min_hit_rate, Some(0.5));
        assert_eq!(c.slo.max_deadline_expired, Some(0));
        assert_eq!(c.metrics_path, Some(PathBuf::from("m.json")));
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert!(matches!(
            parse("serve --bogus").unwrap_err(),
            ParseArgsError::UnknownFlag(_)
        ));
        // The interval writer rewrites the --metrics file; without a
        // target it is a misconfiguration, not a silent no-op.
        assert_eq!(
            parse("serve --metrics-interval 10").unwrap_err(),
            ParseArgsError::MissingFlag("metrics")
        );
    }

    #[test]
    fn soak_defaults_and_flags() {
        let Command::Soak(d) = parse("soak").unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(d.config.master_seed, 2020);
        assert_eq!(d.config.scenarios, 100);
        assert_eq!(d.index, None);
        assert_eq!((d.daemon.shards, d.daemon.workers), (2, 2));
        assert_eq!(d.config.replay_runs, 10);
        assert_eq!(d.config.batch, 8);
        assert_eq!(d.addr, None);
        assert_eq!(d.out, None);
        let Command::Soak(o) = parse(
            "soak --seed 7 --scenarios 500 --index 42 --shards 4 --workers 3 \
             --runs 6 --batch 16 --addr 127.0.0.1:9000 --out soak.json \
             --metrics m.json --trace t.json",
        )
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(o.config.master_seed, 7);
        assert_eq!(o.config.scenarios, 500);
        assert_eq!(o.index, Some(42));
        assert_eq!((o.daemon.shards, o.daemon.workers), (4, 3));
        assert_eq!(o.config.replay_runs, 6);
        assert_eq!(o.config.batch, 16);
        assert_eq!(o.addr, Some("127.0.0.1:9000".to_owned()));
        assert_eq!(o.out, Some(PathBuf::from("soak.json")));
        assert_eq!(o.metrics, Some(PathBuf::from("m.json")));
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert!(matches!(
            parse("soak --bogus").unwrap_err(),
            ParseArgsError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse("soak --seed nope").unwrap_err(),
            ParseArgsError::BadValue(_, _)
        ));
    }

    #[test]
    fn reporting_flags_are_centralized() {
        let cmd = parse("schedule --app a.json --metrics m.json --trace t.json").unwrap();
        let (metrics, trace) = cmd.reporting();
        assert_eq!(metrics, Some(Path::new("m.json")));
        assert_eq!(trace, Some(Path::new("t.json")));
        assert_eq!(parse("help").unwrap().reporting(), (None, None));
        let serve = parse("serve --metrics m.json").unwrap();
        assert_eq!(serve.reporting().0, Some(Path::new("m.json")));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse("").unwrap_err(), ParseArgsError::MissingCommand);
        assert!(matches!(
            parse("frobnicate").unwrap_err(),
            ParseArgsError::UnknownCommand(_)
        ));
        assert!(matches!(
            parse("schedule --app a.json --bogus").unwrap_err(),
            ParseArgsError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse("schedule --app").unwrap_err(),
            ParseArgsError::MissingValue(_)
        ));
        assert!(matches!(
            parse("schedule --app a.json --chi-max nope").unwrap_err(),
            ParseArgsError::BadValue(_, _)
        ));
        assert!(matches!(
            parse("schedule --app a.json --stat eq99").unwrap_err(),
            ParseArgsError::BadValue(_, _)
        ));
        assert!(matches!(
            parse("schedule --app a.json --stat eq15:x").unwrap_err(),
            ParseArgsError::BadValue(_, _)
        ));
        assert_eq!(
            parse("validate --app a.json --schedule s.json --kappa 0").unwrap_err(),
            ParseArgsError::BadValue("--kappa".into(), "0".into())
        );
    }

    #[test]
    fn error_display() {
        assert!(ParseArgsError::MissingFlag("app")
            .to_string()
            .contains("--app"));
        assert!(ParseArgsError::ConflictingModes
            .to_string()
            .contains("mutually exclusive"));
    }
}

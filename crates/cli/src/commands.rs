//! Command implementations.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use netdag_core::app::Application;
use netdag_core::config::ScheduleError;
use netdag_core::constraints::WeaklyHardConstraints;
use netdag_core::modes::{schedule_modes, ModesSpec};
use netdag_core::schedule::FeasibilityError;
use netdag_core::soft::schedule_soft;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::schedule_weakly_hard;
use netdag_obs::keys;
use netdag_validation::validate_contract;

use crate::args::{
    Command, ScheduleOpts, ServeOpts, SoakOpts, StatChoice, TraceOpts, ValidateOpts, USAGE,
};
use crate::replay;
use crate::spec::{AppSpec, SoftSpec, SpecError, WeaklyHardSpec};

/// Result of running a command: the text to print and whether the command
/// semantically succeeded (schedules found, validations passed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Printable report, for stdout.
    pub text: String,
    /// `false` for failed validations or infeasible schedules.
    pub success: bool,
    /// Metrics summary for stderr (present when `--metrics` was given),
    /// keeping stdout clean for machine consumers.
    pub summary: Option<String>,
}

/// Error running a command.
#[derive(Debug)]
pub enum CliError {
    /// File I/O failure.
    Io(String, std::io::Error),
    /// JSON (de)serialization failure.
    Json(String, serde_json::Error),
    /// Spec-to-model failure.
    Spec(SpecError),
    /// Scheduling failure other than infeasibility.
    Schedule(ScheduleError),
    /// The chosen statistic does not fit the constraint mode.
    StatMismatch(&'static str),
    /// Adversarial pattern synthesis failed during validation.
    Synthesis(String),
    /// Validation needs at least one constraints file.
    NothingToValidate,
    /// A trace file could not be parsed (`trace --check`).
    Trace(String),
    /// The schedule file was not made for the application file.
    ScheduleShape(FeasibilityError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "cannot access {path}: {e}"),
            CliError::Json(path, e) => write!(f, "invalid JSON in {path}: {e}"),
            CliError::Spec(e) => write!(f, "invalid spec: {e}"),
            CliError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            CliError::StatMismatch(hint) => write!(f, "{hint}"),
            CliError::Synthesis(msg) => write!(f, "adversarial synthesis failed: {msg}"),
            CliError::NothingToValidate => {
                write!(f, "validate needs --soft and/or --weakly-hard constraints")
            }
            CliError::Trace(msg) => write!(f, "invalid trace: {msg}"),
            CliError::ScheduleShape(e) => write!(f, "schedule does not fit the app: {e}"),
        }
    }
}

impl Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

pub use netdag_core::spec::ScheduleExport;

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::Io(path.display().to_string(), e))?;
    serde_json::from_str(&text).map_err(|e| CliError::Json(path.display().to_string(), e))
}

fn load_app(
    path: &Path,
) -> Result<(Application, Vec<(String, netdag_core::app::TaskId)>), CliError> {
    let spec: AppSpec = read_json(path)?;
    Ok(spec.build()?)
}

/// Reads an exported schedule and checks that it fits `app`
/// (`Schedule::check_shape`).
fn load_schedule(path: &Path, app: &Application) -> Result<ScheduleExport, CliError> {
    let export: ScheduleExport = read_json(path)?;
    export
        .schedule
        .check_shape(app)
        .map_err(CliError::ScheduleShape)?;
    Ok(export)
}

/// Appends a note to the command's stderr summary.
fn push_summary(output: &mut Output, note: String) {
    output.summary = Some(match output.summary.take() {
        Some(prior) => format!("{}\n{note}", prior.trim_end()),
        None => note,
    });
}

/// Runs a parsed command.
///
/// When the command carries a `--metrics <path>` flag, the full
/// pre-registered instrument set (see [`netdag_obs::keys`]) is
/// snapshotted around the command, the delta is written to `path` as a
/// `netdag-obs/1` JSON document, and a human-readable summary table is
/// returned in [`Output::summary`] for stderr. The JSON schema is stable:
/// every known counter/span/histogram key is present, zero-valued when
/// the command never exercised that subsystem.
///
/// When the command carries `--trace <path>`, the [`netdag_trace`]
/// collector records a causal event trace around the command; the
/// Chrome Trace Event JSON is written to `path` and the
/// `netdag-trace/1` summary next to it at `path.summary.json`.
/// Timestamps default to the deterministic logical clock (sequence
/// numbers); set `NETDAG_TRACE_CLOCK=wall` for wall-clock nanoseconds.
///
/// # Errors
///
/// See [`CliError`]; infeasible schedules and failed validations are
/// reported through [`Output::success`], not as errors.
pub fn run(command: &Command) -> Result<Output, CliError> {
    let recorder = netdag_obs::global();
    recorder.preregister(
        keys::ALL_COUNTERS,
        keys::ALL_SPANS,
        keys::ALL_HISTOGRAMS,
        keys::ALL_GAUGES,
    );
    // Each subcommand declares its shared reporting flags once, in
    // `Command::reporting`; only the wall-time span key stays here.
    let (metrics_path, trace_path) = command.reporting();
    let span_key = match command {
        Command::Help | Command::Trace(_) => None,
        Command::Inspect { .. } => Some(keys::SPAN_CLI_INSPECT),
        Command::Schedule(_) => Some(keys::SPAN_CLI_SCHEDULE),
        Command::Validate(_) => Some(keys::SPAN_CLI_VALIDATE),
        Command::Serve(_) => Some(keys::SPAN_CLI_SERVE),
        Command::Soak(_) => Some(keys::SPAN_CLI_SOAK),
    };
    if trace_path.is_some() {
        netdag_trace::reset();
        let wall = std::env::var("NETDAG_TRACE_CLOCK").is_ok_and(|v| v == "wall");
        netdag_trace::set_clock(if wall {
            netdag_trace::ClockMode::Wall
        } else {
            netdag_trace::ClockMode::Logical
        });
        netdag_trace::set_enabled(true);
    }
    let before = metrics_path.map(|_| recorder.snapshot());
    let result = {
        let _span = span_key.map(|key| recorder.span(key));
        dispatch(command)
    };
    // Always disarm the global collector, even when the command failed,
    // so a library caller's next command starts clean.
    if trace_path.is_some() {
        netdag_trace::set_enabled(false);
    }
    let mut output = result?;
    if let (Some(path), Some(before)) = (metrics_path, before) {
        let mut delta = recorder.snapshot().delta(&before);
        delta
            .meta
            .insert("command".into(), command_name(command).into());
        if let Command::Validate(opts) = command {
            delta
                .meta
                .insert("threads".into(), opts.settings.threads.to_string());
        }
        fs::write(path, delta.to_json())
            .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        push_summary(
            &mut output,
            format!(
                "metrics written to {}\n{}",
                path.display(),
                delta.summary_table()
            ),
        );
    }
    if let Some(path) = trace_path {
        let trace = netdag_trace::drain();
        fs::write(path, netdag_trace::to_chrome_json(&trace))
            .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        let summary_path = path.with_extension("summary.json");
        fs::write(&summary_path, trace.summary_json())
            .map_err(|e| CliError::Io(summary_path.display().to_string(), e))?;
        push_summary(
            &mut output,
            format!(
                "trace written to {} ({} events, {} dropped), summary to {}\n",
                path.display(),
                trace.events.len(),
                trace.dropped,
                summary_path.display()
            ),
        );
    }
    Ok(output)
}

fn command_name(command: &Command) -> &'static str {
    match command {
        Command::Help => "help",
        Command::Inspect { .. } => "inspect",
        Command::Schedule(_) => "schedule",
        Command::Validate(_) => "validate",
        Command::Serve(_) => "serve",
        Command::Soak(_) => "soak",
        Command::Trace(_) => "trace",
    }
}

fn dispatch(command: &Command) -> Result<Output, CliError> {
    match command {
        Command::Help => Ok(Output {
            text: USAGE.to_owned(),
            success: true,
            summary: None,
        }),
        Command::Inspect { app, .. } => inspect(app),
        Command::Schedule(opts) => schedule(opts),
        Command::Validate(opts) => validate(opts),
        Command::Serve(opts) => serve_daemon(opts),
        Command::Soak(opts) => soak(opts),
        Command::Trace(opts) => trace_command(opts),
    }
}

/// `netdag serve`: bind, announce the address, and run the daemon until
/// a client sends a `shutdown` request. The listening line goes to
/// stdout immediately (before [`run`] returns) so scripts binding port
/// 0 can discover the port; `--port-file` additionally writes it to a
/// file.
fn serve_daemon(opts: &ServeOpts) -> Result<Output, CliError> {
    let listener = std::net::TcpListener::bind((opts.host.as_str(), opts.port))
        .map_err(|e| CliError::Io(format!("{}:{}", opts.host, opts.port), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Io("local_addr".into(), e))?;
    println!("netdag-serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = &opts.port_file {
        fs::write(path, addr.port().to_string())
            .map_err(|e| CliError::Io(path.display().to_string(), e))?;
    }
    let report = netdag_serve::serve(listener, &opts.config)
        .map_err(|e| CliError::Io(addr.to_string(), e))?;
    let mut text = format!(
        "served {} requests ({} rejected, {} cache hits, {} warm starts, {} cold solves, \
         {} deadline expiries, {} restored from snapshot)\n",
        report.requests,
        report.rejected,
        report.cache_hits,
        report.warm_starts,
        report.cache_misses,
        report.deadline_expired,
        report.restored
    );
    // A configured SLO gate turns the shutdown report into a verdict:
    // one line per check, and any violation fails the command.
    let success = match report.slo.as_ref() {
        Some(slo) => {
            text.push_str(&slo.summary());
            slo.passed()
        }
        None => true,
    };
    Ok(Output {
        text,
        success,
        summary: None,
    })
}

/// `netdag soak`: generate a deterministic scenario corpus and stream
/// it through a live daemon — self-hosted on a loopback port by
/// default, or an external one via `--addr`. The command succeeds only
/// when every end-to-end invariant held and (when self-hosting) the
/// daemon's shutdown SLO verdict passed.
fn soak(opts: &SoakOpts) -> Result<Output, CliError> {
    use netdag_scenario::{run_soak, spawn_daemon};

    let fast = std::env::var("NETDAG_SOAK_FAST").is_ok_and(|v| v != "0");
    let mut cfg = opts.config.clone();
    if let Some(index) = opts.index {
        // Violation-recipe replay: exactly the named scenario.
        cfg.start_index = index;
        cfg.scenarios = 1;
    } else if fast {
        cfg.scenarios = cfg.scenarios.min(24);
    }

    let started = std::time::Instant::now();
    let (mut report, slo) = match &opts.addr {
        Some(addr) => {
            use std::net::ToSocketAddrs as _;
            let sockaddr = addr
                .to_socket_addrs()
                .map_err(|e| CliError::Io(addr.clone(), e))?
                .next()
                .ok_or_else(|| {
                    CliError::Io(
                        addr.clone(),
                        std::io::Error::new(std::io::ErrorKind::NotFound, "resolved to no address"),
                    )
                })?;
            let report = run_soak(sockaddr, &cfg).map_err(|e| CliError::Io(addr.clone(), e))?;
            // An external daemon keeps running; its access log and SLO
            // verdict belong to its own lifecycle.
            (report, None)
        }
        None => {
            let log_path =
                std::env::temp_dir().join(format!("netdag-soak-{}.ndjson", std::process::id()));
            let serve_cfg = netdag_serve::ServeConfig {
                access_log: Some(log_path.clone()),
                ..opts.daemon.clone()
            };
            let (sockaddr, handle) =
                spawn_daemon(serve_cfg).map_err(|e| CliError::Io("127.0.0.1:0".into(), e))?;
            let soak_result = run_soak(sockaddr, &cfg);
            // Always drain the daemon, even when the drive failed.
            let shutdown = netdag_serve::Client::connect(sockaddr)
                .and_then(|mut c| c.send(&netdag_serve::protocol::Request::op("shutdown")));
            let joined = handle.join();
            let mut report = soak_result.map_err(|e| CliError::Io(sockaddr.to_string(), e))?;
            shutdown.map_err(|e| CliError::Io(sockaddr.to_string(), e))?;
            let serve_report = joined
                .map_err(|_| {
                    CliError::Io(
                        sockaddr.to_string(),
                        std::io::Error::other("daemon thread panicked"),
                    )
                })?
                .map_err(|e| CliError::Io(sockaddr.to_string(), e))?;
            report
                .join_access_log(&log_path)
                .map_err(|e| CliError::Io(log_path.display().to_string(), e))?;
            let _ = fs::remove_file(&log_path);
            (report, serve_report.slo)
        }
    };
    report.violations.sort_by_key(|v| v.index);

    let wall = started.elapsed().as_secs_f64();
    let mut text = format!(
        "soak: {} scenario(s) from seed {} in {:.2} s ({:.1}/s)\n",
        report.scenarios,
        report.master_seed,
        wall,
        report.scenarios as f64 / wall.max(1e-9)
    );
    text.push_str(&format!(
        "  solved {}, infeasible {} ({} presolve-rejected, {:.1}% of corpus), validated {}\n",
        report.solved,
        report.infeasible,
        report.presolve_rejects,
        report.presolve_reject_rate() * 100.0,
        report.validated
    ));
    text.push_str(&format!(
        "  replay: {} runs, {} rounds, {} transmissions\n",
        report.replay_runs, report.rounds_executed, report.transmissions
    ));
    text.push_str(&format!(
        "  re-admissions: {} attempted, {} accepted\n",
        report.readmissions, report.readmitted
    ));
    text.push_str(&format!(
        "  cache revisit: {} items, {} hits (hit rate {:.4})\n",
        report.revisits,
        report.revisit_hits,
        report.revisit_hit_rate()
    ));
    text.push_str("  families:\n");
    for f in report.families.iter().filter(|f| f.scenarios > 0) {
        text.push_str(&format!(
            "    {:<5} {} scenarios, {} solved, {} infeasible, \
             solve nodes p50 {} / p99 {}\n",
            f.family,
            f.scenarios,
            f.solved,
            f.infeasible,
            f.nodes_percentile(50),
            f.nodes_percentile(99)
        ));
    }
    for v in &report.violations {
        text.push_str(&format!("violation: {v}\n"));
    }
    text.push_str(&format!(
        "invariant violations: {}\n",
        report.violations.len()
    ));
    if let Some(slo) = &slo {
        text.push_str(&slo.summary());
    }
    if let Some(out_path) = &opts.out {
        let json = report.summary_json(fast, wall, slo.as_ref().map(|s| s.to_json()).as_deref());
        fs::write(out_path, json).map_err(|e| CliError::Io(out_path.display().to_string(), e))?;
        text.push_str(&format!("soak summary written to {}\n", out_path.display()));
    }
    let success = report.violations.is_empty() && slo.as_ref().is_none_or(|s| s.passed());
    Ok(Output {
        text,
        success,
        summary: None,
    })
}

fn inspect(path: &Path) -> Result<Output, CliError> {
    let (app, _) = load_app(path)?;
    let mut text = format!(
        "{} tasks, {} messages over the LWB\n\ntasks:\n",
        app.task_count(),
        app.message_count()
    );
    for t in app.tasks() {
        let task = app.task(t);
        text.push_str(&format!(
            "  {t} {:<16} node {:<4} wcet {:>8} µs\n",
            task.name,
            task.node.to_string(),
            task.wcet_us
        ));
    }
    text.push_str("\nmessages (unique-source set E*):\n");
    let levels = app.message_levels();
    for m in app.messages() {
        let msg = app.message(m);
        let consumers: Vec<String> = msg
            .consumers
            .iter()
            .map(|&c| app.task(c).name.clone())
            .collect();
        text.push_str(&format!(
            "  {m} from {:<16} width {:>3} B, level {}, consumers: {}\n",
            app.task(msg.source).name,
            msg.width,
            levels[m.index()],
            consumers.join(", ")
        ));
    }
    Ok(Output {
        text,
        success: true,
        summary: None,
    })
}

/// Renders the infeasibility variants of [`ScheduleError`] as a failed
/// (but not erroneous) [`Output`]; every other variant stays an error.
fn infeasible_output(err: ScheduleError) -> Result<Output, CliError> {
    match err {
        ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_) => Ok(Output {
            text: "infeasible: no χ assignment within chi-max meets the constraints\n".to_owned(),
            success: false,
            summary: None,
        }),
        ScheduleError::InfeasibleTiming(e) => {
            let mut text = format!(
                "infeasible (proved without search): {} cannot start before slot {} \
                 but must start by slot {}\n",
                e.entity, e.earliest, e.latest
            );
            if !e.forward.is_empty() {
                text.push_str("  earliest-start chain:\n");
                for s in &e.forward {
                    text.push_str(&format!("    {s}\n"));
                }
            }
            if !e.backward.is_empty() {
                text.push_str("  latest-start chain:\n");
                for s in &e.backward {
                    text.push_str(&format!("    {s}\n"));
                }
            }
            Ok(Output {
                text,
                success: false,
                summary: None,
            })
        }
        e => Err(CliError::Schedule(e)),
    }
}

/// `netdag schedule --modes <spec>`: TTW-style multi-mode co-synthesis.
///
/// Solves one coupled model covering every mode in the spec, prints one
/// makespan line per mode plus the shared-prefix summary, and exports a
/// `"modes"`-array document ([`netdag_core::modes::ModeScheduleExport`])
/// when `--out` is given.
fn schedule_multi_mode(opts: &ScheduleOpts, modes_path: &Path) -> Result<Output, CliError> {
    let spec: ModesSpec = read_json(modes_path)?;
    let outcome = match schedule_modes(&spec, &opts.config) {
        Ok(o) => o,
        Err(e) => return infeasible_output(e),
    };
    let mut text = String::new();
    for mode in &outcome.modes {
        text.push_str(&format!(
            "mode {}: makespan {} µs, bus {} µs\n",
            mode.name, mode.makespan_us, mode.bus_us
        ));
        for m in outcome.app.messages() {
            if let Some(round) = mode.schedule.round_of(m) {
                text.push_str(&format!(
                    "  {m}: χ = {}, round {round}\n",
                    mode.schedule.chi(m)
                ));
            }
        }
    }
    text.push_str(&format!(
        "shared prefix: {} round(s), optimal = {}\n",
        outcome.shared_prefix_rounds, outcome.optimal
    ));
    if opts.timeline {
        for mode in &outcome.modes {
            text.push_str(&format!("\ntimeline for mode {}:\n", mode.name));
            text.push_str(&mode.schedule.render_timeline(&outcome.app, 72));
        }
    }
    if let Some(out_path) = &opts.out {
        let json = serde_json::to_string_pretty(&outcome.export())
            .map_err(|e| CliError::Json(out_path.display().to_string(), e))?;
        fs::write(out_path, json).map_err(|e| CliError::Io(out_path.display().to_string(), e))?;
        text.push_str(&format!(
            "mode schedules written to {}\n",
            out_path.display()
        ));
    }
    Ok(Output {
        text,
        success: true,
        summary: None,
    })
}

fn schedule(opts: &ScheduleOpts) -> Result<Output, CliError> {
    if let Some(modes_path) = &opts.modes {
        return schedule_multi_mode(opts, modes_path);
    }
    let (app, names) = load_app(&opts.app)?;
    let cfg = &opts.config;
    let outcome = if let Some(soft_path) = &opts.soft {
        let StatChoice::Eq15(fss) = opts.stat else {
            return Err(CliError::StatMismatch(
                "soft scheduling needs a soft statistic; use --stat eq15:<fss>",
            ));
        };
        let spec: SoftSpec = read_json(soft_path)?;
        let f = spec.build(&names)?;
        schedule_soft(&app, &Eq15Statistic::new(fss, cfg.chi_max), &f, cfg)
    } else {
        let StatChoice::Eq13 = opts.stat else {
            return Err(CliError::StatMismatch(
                "weakly hard scheduling needs a weakly hard statistic; use --stat eq13",
            ));
        };
        let f = match &opts.weakly_hard {
            Some(path) => {
                let spec: WeaklyHardSpec = read_json(path)?;
                spec.build(&names)?
            }
            None => WeaklyHardConstraints::new(),
        };
        schedule_weakly_hard(&app, &Eq13Statistic::new(cfg.chi_max), &f, cfg)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return infeasible_output(e),
    };
    if netdag_trace::enabled() {
        // Merge the solved schedule's bus timeline into the live trace
        // as its own synthetic process.
        netdag_trace::inject(replay::bus_timeline(&app, &outcome.schedule));
    }
    let makespan = outcome.schedule.makespan(&app);
    let bus = outcome.schedule.total_communication_us();
    let mut text = format!(
        "makespan {makespan} µs over {} rounds (bus {bus} µs), optimal = {}\n",
        outcome.schedule.rounds().len(),
        outcome.optimal
    );
    for m in app.messages() {
        text.push_str(&format!(
            "  {m}: χ = {}, round {}\n",
            outcome.schedule.chi(m),
            outcome.schedule.round_of(m).expect("assigned")
        ));
    }
    if opts.timeline {
        text.push('\n');
        text.push_str(&outcome.schedule.render_timeline(&app, 72));
    }
    if let Some(out_path) = &opts.out {
        let export = ScheduleExport {
            schedule: outcome.schedule.clone(),
            makespan_us: makespan,
            bus_us: bus,
            optimal: outcome.optimal,
        };
        let json = serde_json::to_string_pretty(&export)
            .map_err(|e| CliError::Json(out_path.display().to_string(), e))?;
        fs::write(out_path, json).map_err(|e| CliError::Io(out_path.display().to_string(), e))?;
        text.push_str(&format!("schedule written to {}\n", out_path.display()));
    }
    Ok(Output {
        text,
        success: true,
        summary: None,
    })
}

fn validate(opts: &ValidateOpts) -> Result<Output, CliError> {
    if opts.soft.is_none() && opts.weakly_hard.is_none() {
        return Err(CliError::NothingToValidate);
    }
    let (app, names) = load_app(&opts.app)?;
    let export = load_schedule(&opts.schedule, &app)?;
    if netdag_trace::enabled() {
        netdag_trace::inject(replay::bus_timeline(&app, &export.schedule));
    }
    let soft = match &opts.soft {
        Some(path) => {
            let StatChoice::Eq15(fss) = opts.stat else {
                return Err(CliError::StatMismatch(
                    "soft validation needs a soft statistic; use --stat eq15:<fss>",
                ));
            };
            Some((read_json::<SoftSpec>(path)?.build(&names)?, fss))
        }
        None => None,
    };
    let weakly_hard = match &opts.weakly_hard {
        Some(_) if opts.stat != StatChoice::Eq13 && opts.soft.is_none() => {
            return Err(CliError::StatMismatch(
                "weakly hard validation needs a weakly hard statistic; use --stat eq13",
            ));
        }
        Some(path) => Some(read_json::<WeaklyHardSpec>(path)?.build(&names)?),
        None => None,
    };
    let (success, text) = validate_contract(
        &app,
        &export.schedule,
        soft.as_ref().map(|(f, fss)| (f, *fss)),
        weakly_hard.as_ref(),
        &opts.settings,
    )
    .map_err(|e| CliError::Synthesis(e.to_string()))?;
    Ok(Output {
        text,
        success,
        summary: None,
    })
}

/// `netdag trace`: replay a solved schedule into a standalone bus
/// timeline, or structurally re-check an exported trace.
fn trace_command(opts: &TraceOpts) -> Result<Output, CliError> {
    if let Some(path) = &opts.check {
        let text =
            fs::read_to_string(path).map_err(|e| CliError::Io(path.display().to_string(), e))?;
        let trace = replay::parse_chrome_json(&text).map_err(CliError::Trace)?;
        return Ok(match trace.check() {
            Ok(report) => Output {
                text: format!(
                    "trace OK: {} events, {} spans (max depth {}), {} flows\n",
                    report.events, report.spans, report.max_depth, report.flows
                ),
                success: true,
                summary: None,
            },
            Err(e) => Output {
                text: format!("trace check FAILED: {e}\n"),
                success: false,
                summary: None,
            },
        });
    }
    // The parser guarantees replay mode carries all three paths.
    let (Some(app_path), Some(sched_path), Some(out_path)) = (&opts.app, &opts.schedule, &opts.out)
    else {
        unreachable!("parse_args enforces --app/--schedule/--out in replay mode");
    };
    let (app, _) = load_app(app_path)?;
    let export = load_schedule(sched_path, &app)?;
    let trace = replay::bus_timeline(&app, &export.schedule);
    let report = trace
        .check()
        .expect("replayed schedules produce structurally valid traces");
    fs::write(out_path, netdag_trace::to_chrome_json(&trace))
        .map_err(|e| CliError::Io(out_path.display().to_string(), e))?;
    let summary_path = out_path.with_extension("summary.json");
    fs::write(&summary_path, trace.summary_json())
        .map_err(|e| CliError::Io(summary_path.display().to_string(), e))?;
    Ok(Output {
        text: format!(
            "bus timeline written to {} ({} events on {} tracks, {} spans, {} flows), \
             summary to {}\n",
            out_path.display(),
            report.events,
            trace.tracks.len(),
            report.spans,
            report.flows,
            summary_path.display()
        ),
        success: true,
        summary: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use crate::spec::{EdgeSpec, SoftEntry, TaskSpec, WeaklyHardEntry};
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("netdag-cli-test-{tag}-{}", std::process::id()));
            fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }

        fn file(&self, name: &str, contents: &str) -> PathBuf {
            let path = self.0.join(name);
            fs::write(&path, contents).expect("write temp file");
            path
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn app_json() -> String {
        serde_json::to_string(&AppSpec {
            tasks: vec![
                TaskSpec {
                    name: "sense".into(),
                    node: 0,
                    wcet_us: 500,
                },
                TaskSpec {
                    name: "act".into(),
                    node: 1,
                    wcet_us: 300,
                },
            ],
            edges: vec![EdgeSpec {
                from: "sense".into(),
                to: "act".into(),
                width: 8,
            }],
        })
        .expect("serializable")
    }

    fn run_line(line: &str) -> Result<Output, CliError> {
        run(&parse_args(line.split_whitespace().map(str::to_owned)).expect("parsable"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&Command::Help).unwrap();
        assert!(out.text.contains("USAGE"));
        assert!(out.success);
    }

    #[test]
    fn inspect_lists_tasks_and_messages() {
        let dir = TempDir::new("inspect");
        let app = dir.file("app.json", &app_json());
        let out = run_line(&format!("inspect --app {}", app.display())).unwrap();
        assert!(out.text.contains("sense"));
        assert!(out.text.contains("e0"));
        assert!(out.text.contains("level 0"));
    }

    #[test]
    fn schedule_weakly_hard_roundtrip_and_validate() {
        let dir = TempDir::new("wh");
        let app = dir.file("app.json", &app_json());
        let wh = dir.file(
            "wh.json",
            &serde_json::to_string(&WeaklyHardSpec {
                constraints: vec![WeaklyHardEntry {
                    task: "act".into(),
                    m: 10,
                    k: 40,
                }],
            })
            .expect("serializable"),
        );
        let sched = dir.path("sched.json");
        let out = run_line(&format!(
            "schedule --app {} --weakly-hard {} --out {} --timeline",
            app.display(),
            wh.display(),
            sched.display()
        ))
        .unwrap();
        assert!(out.success);
        assert!(out.text.contains("makespan"));
        assert!(out.text.contains("bus |"));
        // The exported schedule validates.
        let out = run_line(&format!(
            "validate --app {} --schedule {} --weakly-hard {} --kappa 300 --trials 20",
            app.display(),
            sched.display(),
            wh.display()
        ))
        .unwrap();
        assert!(out.success, "{}", out.text);
        assert!(out.text.contains("PASS"));
    }

    #[test]
    fn schedule_soft_with_eq15() {
        let dir = TempDir::new("soft");
        let app = dir.file("app.json", &app_json());
        let soft = dir.file(
            "soft.json",
            &serde_json::to_string(&SoftSpec {
                constraints: vec![SoftEntry {
                    task: "act".into(),
                    probability: 0.9,
                }],
            })
            .expect("serializable"),
        );
        let sched = dir.path("s.json");
        let out = run_line(&format!(
            "schedule --app {} --soft {} --stat eq15:1.0 --out {}",
            app.display(),
            soft.display(),
            sched.display()
        ))
        .unwrap();
        assert!(out.success);
        let validated = run_line(&format!(
            "validate --app {} --schedule {} --soft {} --stat eq15:1.0 --kappa 4000",
            app.display(),
            sched.display(),
            soft.display()
        ))
        .unwrap();
        assert!(validated.success, "{}", validated.text);
    }

    #[test]
    fn soft_mode_requires_eq15() {
        let dir = TempDir::new("statmismatch");
        let app = dir.file("app.json", &app_json());
        let soft = dir.file(
            "soft.json",
            r#"{"constraints":[{"task":"act","probability":0.9}]}"#,
        );
        let err = run_line(&format!(
            "schedule --app {} --soft {}",
            app.display(),
            soft.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::StatMismatch(_)));
    }

    #[test]
    fn schedule_flag_combinations_work() {
        let dir = TempDir::new("flags");
        let app = dir.file("app.json", &app_json());
        let wh = dir.file(
            "wh.json",
            r#"{"constraints":[{"task":"act","m":10,"k":40}]}"#,
        );
        let out = run_line(&format!(
            "schedule --app {} --weakly-hard {} --greedy \
             --per-message-rounds --include-beacons --chi-max 10 --beacon-chi 3",
            app.display(),
            wh.display()
        ))
        .unwrap();
        assert!(out.success, "{}", out.text);
        // One message ⇒ one per-message round.
        assert!(out.text.contains("over 1 rounds"));
    }

    #[test]
    fn infeasible_schedule_reports_failure_not_error() {
        let dir = TempDir::new("infeasible");
        let app = dir.file("app.json", &app_json());
        // Window 10 < the eq. (13) minimum window of 20.
        let wh = dir.file(
            "wh.json",
            r#"{"constraints":[{"task":"act","m":1,"k":10}]}"#,
        );
        let out = run_line(&format!(
            "schedule --app {} --weakly-hard {} --greedy",
            app.display(),
            wh.display()
        ))
        .unwrap();
        assert!(!out.success);
        assert!(out.text.contains("infeasible"));
    }

    #[test]
    fn io_and_json_errors() {
        let err = run_line("inspect --app /nonexistent/app.json").unwrap_err();
        assert!(matches!(err, CliError::Io(_, _)));
        let dir = TempDir::new("badjson");
        let bad = dir.file("app.json", "{not json");
        let err = run_line(&format!("inspect --app {}", bad.display())).unwrap_err();
        assert!(matches!(err, CliError::Json(_, _)));
    }

    #[test]
    fn validate_needs_constraints() {
        let dir = TempDir::new("noconstraints");
        let app = dir.file("app.json", &app_json());
        let sched = dir.file("s.json", "{}");
        let err = run_line(&format!(
            "validate --app {} --schedule {}",
            app.display(),
            sched.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::NothingToValidate));
    }
}

//! Multi-mode co-synthesis and mode-set specifications (TTW-style).
//!
//! The source paper synthesizes one static schedule per application. The
//! TTW line of work (*The Time-Triggered Wireless Architecture*; *TTW: A
//! Time-Triggered-Wireless Design for CPS*) extends the same setting to
//! **multi-mode** operation: a set of per-mode schedules (normal /
//! degraded-link / emergency / low-energy) co-synthesized so that the
//! first `shared_prefix_rounds` communication rounds are *identical* in
//! every mode — same start times, same message-to-round assignment, same
//! retransmission counts `χ`. A node can then announce a mode change in
//! any shared round's beacon and switch at that round boundary without
//! re-synchronizing the bus (see `netdag_lwb`'s
//! `run_once_with_switch`).
//!
//! [`schedule_modes`] encodes every mode's full scheduling CSP into one
//! joint model (shared-round equality constraints couple the prefix),
//! minimizes the *sum* of per-mode makespans through the existing exact
//! backend — including the deterministic portfolio race — and reports
//! the per-mode objective split in
//! [`netdag_solver::SearchStats::mode_objectives`]
//! (a [`netdag_solver::ModeObjectives`] value). Per-mode DBM presolves
//! run first, so a mode that is infeasible on its own is rejected with a
//! witness naming that mode before any search.
//!
//! **Activation semantics.** Every mode encodes the *full* task DAG —
//! inactive tasks' messages still occupy their slots, TTW-style
//! bandwidth reservation — so switching never changes the round
//! structure. A mode's `tasks` list gates which tasks may carry
//! constraints and which tasks replay/validation account for, not what
//! is scheduled.

use crate::app::{Application, TaskId};
use crate::config::{Backend, ScheduleError, SchedulerConfig};
use crate::constraints::Deadlines;
use crate::control::SolveControl;
use crate::encode::{solve_multi_mode, ModeProblem, ReliabilitySpec};
use crate::rounds::build_rounds;
use crate::schedule::Schedule;
use crate::spec::{resolve, AppSpec, SoftEntry, SoftSpec, WeaklyHardSpec};
use crate::stat::{validate_soft, validate_weakly_hard, Eq13Statistic, Eq15Statistic};
use netdag_solver::{ModeObjectives, SearchStats};

/// Soft constraint mix of one mode: the profiled `fSS̄` parameterizing
/// the eq. (15) statistic, plus the per-task requirements.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftModeSpec {
    /// Profiled mean `fSS̄` for the mode's link quality (eq. (15)).
    pub fss: f64,
    /// The constrained tasks.
    pub constraints: Vec<SoftEntry>,
}

/// One operating mode of a multi-mode spec.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModeSpec {
    /// Unique mode name.
    pub name: String,
    /// Active task names; `None` activates every task. Inactive tasks
    /// keep their slots (bandwidth reservation) but may not carry
    /// constraints and are skipped by replay accounting.
    pub tasks: Option<Vec<String>>,
    /// Soft constraint mix (exclusive with `weakly_hard`).
    pub soft: Option<SoftModeSpec>,
    /// Weakly hard constraint mix (exclusive with `soft`).
    pub weakly_hard: Option<WeaklyHardSpec>,
    /// Per-flood success probability of the mode's loss model, used by
    /// bus replay (`(0, 1]`; `None` = ideal links).
    pub loss: Option<f64>,
}

/// A complete multi-mode specification (`modes.json`): the application
/// plus 2–[`ModeObjectives::MAX_MODES`] operating modes.
///
/// ```json
/// { "app": { "tasks": [...], "edges": [...] },
///   "shared_prefix_rounds": 1,
///   "modes": [
///     { "name": "normal",
///       "weakly_hard": { "constraints": [{"task": "act", "m": 10, "k": 40}] },
///       "loss": 0.9 },
///     { "name": "degraded",
///       "weakly_hard": { "constraints": [{"task": "act", "m": 5, "k": 60}] },
///       "loss": 0.5 } ] }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModesSpec {
    /// The shared application DAG.
    pub app: AppSpec,
    /// Rounds pinned identical across every mode, counted from the front
    /// of the bus order. Defaults to 1 (the first round); clamped to the
    /// number of rounds the structure produces.
    pub shared_prefix_rounds: Option<usize>,
    /// The operating modes, in declaration order.
    pub modes: Vec<ModeSpec>,
}

/// One mode's synthesized schedule.
#[derive(Debug, Clone)]
pub struct ModeSchedule {
    /// Mode name.
    pub name: String,
    /// The mode's schedule (prefix rounds identical across modes).
    pub schedule: Schedule,
    /// End-to-end latency of this mode, µs.
    pub makespan_us: u64,
    /// Total bus time of this mode, µs.
    pub bus_us: u64,
    /// The mode's active tasks (every task when the spec omitted the
    /// activation list).
    pub active: Vec<TaskId>,
    /// The mode's replay loss model (per-flood success probability).
    pub loss: Option<f64>,
}

/// Result of a multi-mode co-synthesis.
#[derive(Debug, Clone)]
pub struct ModeScheduleOutcome {
    /// The validated application built from the spec.
    pub app: Application,
    /// Task name → id map of the application.
    pub names: Vec<(String, TaskId)>,
    /// One schedule per mode, in declaration order.
    pub modes: Vec<ModeSchedule>,
    /// Rounds actually pinned identical across modes.
    pub shared_prefix_rounds: usize,
    /// Joint search statistics; `mode_objectives` holds the per-mode
    /// makespan split.
    pub stats: SearchStats,
    /// Whether joint optimality was proven.
    pub optimal: bool,
    /// `false` when a controller stopped the joint search
    /// ([`schedule_modes_controlled`]) and the schedules are the best
    /// joint incumbent so far; always `true` from [`schedule_modes`].
    pub complete: bool,
}

/// One mode of the exported multi-mode schedule document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModeExport {
    /// Mode name.
    pub name: String,
    /// The mode's schedule.
    pub schedule: Schedule,
    /// End-to-end latency, µs.
    pub makespan_us: u64,
    /// Total bus time, µs.
    pub bus_us: u64,
}

/// The exported multi-mode schedule document
/// (`netdag schedule --modes … --out`, and the payload of a
/// `netdag-serve` `mode_solve` response).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModeScheduleExport {
    /// One entry per mode, in declaration order.
    pub modes: Vec<ModeExport>,
    /// Rounds pinned identical across modes.
    pub shared_prefix_rounds: usize,
    /// Whether joint optimality was proven.
    pub optimal: bool,
}

impl ModeScheduleOutcome {
    /// The exportable document for this outcome.
    pub fn export(&self) -> ModeScheduleExport {
        ModeScheduleExport {
            modes: self
                .modes
                .iter()
                .map(|m| ModeExport {
                    name: m.name.clone(),
                    schedule: m.schedule.clone(),
                    makespan_us: m.makespan_us,
                    bus_us: m.bus_us,
                })
                .collect(),
            shared_prefix_rounds: self.shared_prefix_rounds,
            optimal: self.optimal,
        }
    }
}

fn bad(msg: impl Into<String>) -> ScheduleError {
    ScheduleError::BadConfig(msg.into())
}

/// Validates the mode set and resolves each mode's activation list.
fn validate_modes(
    spec: &ModesSpec,
    app: &Application,
    names: &[(String, TaskId)],
) -> Result<Vec<Vec<TaskId>>, ScheduleError> {
    let n = spec.modes.len();
    if !(2..=ModeObjectives::MAX_MODES).contains(&n) {
        return Err(bad(format!(
            "modes spec: {n} modes given, need 2..={}",
            ModeObjectives::MAX_MODES
        )));
    }
    let mut active_sets = Vec::with_capacity(n);
    for (i, mode) in spec.modes.iter().enumerate() {
        if mode.name.is_empty() {
            return Err(bad(format!("modes spec: mode {i} has an empty name")));
        }
        if spec.modes[..i].iter().any(|m| m.name == mode.name) {
            return Err(bad(format!("modes spec: duplicate mode '{}'", mode.name)));
        }
        if mode.soft.is_some() == mode.weakly_hard.is_some() {
            return Err(bad(format!(
                "modes spec: mode '{}' must carry exactly one of `soft` or `weakly_hard`",
                mode.name
            )));
        }
        if let Some(loss) = mode.loss {
            if !(loss > 0.0 && loss <= 1.0) {
                return Err(bad(format!(
                    "modes spec: mode '{}' loss {loss} outside (0, 1]",
                    mode.name
                )));
            }
        }
        let active: Vec<TaskId> = match &mode.tasks {
            None => app.tasks().collect(),
            Some(list) => list
                .iter()
                .map(|t| {
                    resolve(names, t)
                        .map_err(|e| bad(format!("modes spec: mode '{}': {e}", mode.name)))
                })
                .collect::<Result<_, _>>()?,
        };
        let constrained: Vec<&str> = match (&mode.soft, &mode.weakly_hard) {
            (Some(s), None) => s.constraints.iter().map(|c| c.task.as_str()).collect(),
            (None, Some(w)) => w.constraints.iter().map(|c| c.task.as_str()).collect(),
            _ => unreachable!("checked above"),
        };
        for task in constrained {
            let id = resolve(names, task)
                .map_err(|e| bad(format!("modes spec: mode '{}': {e}", mode.name)))?;
            if !active.contains(&id) {
                return Err(bad(format!(
                    "modes spec: mode '{}' constrains inactive task '{task}'",
                    mode.name
                )));
            }
        }
        active_sets.push(active);
    }
    Ok(active_sets)
}

/// Co-synthesizes one schedule per mode over a joint CSP whose first
/// [`ModesSpec::shared_prefix_rounds`] rounds are pinned identical
/// across modes, minimizing the sum of per-mode makespans.
///
/// Requires the exact backend: the joint coupling has no greedy
/// counterpart. With `cfg.portfolio ≥ 2` the joint model races through
/// the deterministic portfolio and the winner is bit-identical at any
/// thread count, exactly as for single-mode solves.
///
/// # Errors
///
/// * [`ScheduleError::BadConfig`] for an invalid mode set (count,
///   duplicate names, constraint mix, inactive constrained tasks, bad
///   loss, unknown task names) or the greedy backend;
/// * [`ScheduleError::InfeasibleTiming`] with a mode-labeled witness
///   when one mode's timing subsystem is provably infeasible;
/// * otherwise as [`crate::soft::schedule_soft`] /
///   [`crate::weakly_hard::schedule_weakly_hard`].
pub fn schedule_modes(
    spec: &ModesSpec,
    cfg: &SchedulerConfig,
) -> Result<ModeScheduleOutcome, ScheduleError> {
    co_synthesize(spec, cfg, None)
}

/// As [`schedule_modes`], with the joint exact search steered by a
/// [`SolveControl`]: the warm bound seeds the joint objective (the sum
/// of per-mode makespans) and the search pauses every `step_nodes`
/// nodes to poll `keep_going`, so a deadline stops it with the best
/// joint incumbent ([`ModeScheduleOutcome::complete`] is then `false`).
/// A `portfolio ≥ 2` race is polled at its epoch boundaries and takes
/// no warm bound.
///
/// # Errors
///
/// As [`schedule_modes`], plus [`ScheduleError::Interrupted`] when the
/// controller stopped the search before any joint incumbent existed.
pub fn schedule_modes_controlled(
    spec: &ModesSpec,
    cfg: &SchedulerConfig,
    control: &mut SolveControl<'_>,
) -> Result<ModeScheduleOutcome, ScheduleError> {
    co_synthesize(spec, cfg, Some(control))
}

fn co_synthesize(
    spec: &ModesSpec,
    cfg: &SchedulerConfig,
    control: Option<&mut SolveControl<'_>>,
) -> Result<ModeScheduleOutcome, ScheduleError> {
    cfg.validate()?;
    if matches!(cfg.backend, Backend::Greedy) {
        return Err(bad(
            "multi-mode synthesis requires the exact backend (joint coupling has no greedy counterpart)",
        ));
    }
    let (app, names) = spec
        .app
        .build()
        .map_err(|e| bad(format!("modes spec: {e}")))?;
    let active_sets = validate_modes(spec, &app, &names)?;
    let rounds = build_rounds(&app, cfg.round_structure);
    let shared = spec.shared_prefix_rounds.unwrap_or(1).min(rounds.len());

    // Per-mode reliability encodings, each under its own statistic.
    let mut specs: Vec<ReliabilitySpec> = Vec::with_capacity(spec.modes.len());
    for mode in &spec.modes {
        let rspec = match (&mode.soft, &mode.weakly_hard) {
            (Some(soft), None) => {
                let stat = Eq15Statistic::new(soft.fss, cfg.chi_max);
                validate_soft(&stat)?;
                let f = SoftSpec {
                    constraints: soft.constraints.clone(),
                }
                .build(&names)
                .map_err(|e| bad(format!("modes spec: mode '{}': {e}", mode.name)))?;
                f.validate(&app)?;
                crate::soft::build_spec(&app, &stat, &f, cfg, &rounds)
            }
            (None, Some(wh)) => {
                let stat = Eq13Statistic::new(cfg.chi_max);
                validate_weakly_hard(&stat)?;
                let f = wh
                    .build(&names)
                    .map_err(|e| bad(format!("modes spec: mode '{}': {e}", mode.name)))?;
                f.validate(&app)?;
                crate::weakly_hard::build_spec(&app, &stat, &f, cfg, &rounds)
            }
            _ => unreachable!("validate_modes enforces the mix"),
        };
        specs.push(rspec);
    }

    let deadlines = Deadlines::new();
    let problems: Vec<ModeProblem<'_>> = spec
        .modes
        .iter()
        .zip(&specs)
        .map(|(mode, rspec)| ModeProblem {
            name: &mode.name,
            spec: rspec,
            deadlines: &deadlines,
        })
        .collect();

    let (schedules, stats, complete) =
        solve_multi_mode(&app, cfg, &rounds, &problems, shared, control)?;

    // The coupling constraints make prefix rounds identical by
    // construction; a violated assertion here means the encoder broke.
    let base = &schedules[0];
    for s in &schedules[1..] {
        for r in 0..shared {
            debug_assert_eq!(base.rounds()[r], s.rounds()[r], "shared prefix torn");
            for &m in &base.rounds()[r].messages {
                debug_assert_eq!(base.chi(m), s.chi(m), "shared prefix χ torn");
            }
        }
    }

    netdag_obs::counter!(netdag_obs::keys::CORE_MODES).add(spec.modes.len() as u64);
    let modes = spec
        .modes
        .iter()
        .zip(schedules)
        .zip(active_sets)
        .map(|((mode, schedule), active)| {
            schedule.publish_metrics();
            ModeSchedule {
                name: mode.name.clone(),
                makespan_us: schedule.makespan(&app),
                bus_us: schedule.total_communication_us(),
                schedule,
                active,
                loss: mode.loss,
            }
        })
        .collect();
    Ok(ModeScheduleOutcome {
        app,
        names,
        modes,
        shared_prefix_rounds: shared,
        stats,
        optimal: stats.proven_optimal,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EdgeSpec, TaskSpec, WeaklyHardEntry};

    /// sense → act pipeline on two nodes.
    fn pipeline() -> AppSpec {
        AppSpec {
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
        }
    }

    fn wh_mode(name: &str, m: u32, k: u32, loss: f64) -> ModeSpec {
        ModeSpec {
            name: name.into(),
            tasks: None,
            soft: None,
            weakly_hard: Some(WeaklyHardSpec {
                constraints: vec![WeaklyHardEntry {
                    task: "act".into(),
                    m,
                    k,
                }],
            }),
            loss: Some(loss),
        }
    }

    fn two_mode_spec() -> ModesSpec {
        ModesSpec {
            app: pipeline(),
            shared_prefix_rounds: Some(1),
            modes: vec![
                wh_mode("normal", 10, 40, 0.9),
                wh_mode("degraded", 5, 60, 0.5),
            ],
        }
    }

    #[test]
    fn schedules_two_modes_with_identical_prefix() {
        let spec = two_mode_spec();
        let out = schedule_modes(&spec, &SchedulerConfig::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.modes.len(), 2);
        assert_eq!(out.shared_prefix_rounds, 1);
        assert_eq!(out.stats.mode_objectives.len(), 2);
        let (a, b) = (&out.modes[0], &out.modes[1]);
        assert_eq!(a.schedule.rounds()[0], b.schedule.rounds()[0]);
        for m in out.app.messages() {
            assert_eq!(a.schedule.chi(m), b.schedule.chi(m));
        }
        for mode in &out.modes {
            mode.schedule.check_feasible(&out.app).unwrap();
            assert_eq!(mode.active.len(), out.app.task_count());
        }
        // Export round-trips through serde.
        let export = out.export();
        let json = serde_json::to_string(&export).unwrap();
        let back: ModeScheduleExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let spec = two_mode_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ModesSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Omitted optional fields parse as None.
        let minimal: ModesSpec = serde_json::from_str(
            r#"{ "app": { "tasks": [{"name":"t","node":0,"wcet_us":1}], "edges": [] },
                 "modes": [
                   {"name":"a","weakly_hard":{"constraints":[]}},
                   {"name":"b","weakly_hard":{"constraints":[]}} ] }"#,
        )
        .unwrap();
        assert_eq!(minimal.shared_prefix_rounds, None);
        assert_eq!(minimal.modes[0].tasks, None);
        assert_eq!(minimal.modes[0].loss, None);
    }

    #[test]
    fn rejects_invalid_mode_sets() {
        let cfg = SchedulerConfig::default();
        // Too few modes.
        let mut spec = two_mode_spec();
        spec.modes.truncate(1);
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
        // Duplicate names.
        let mut spec = two_mode_spec();
        spec.modes[1].name = "normal".into();
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
        // Both constraint families at once.
        let mut spec = two_mode_spec();
        spec.modes[0].soft = Some(SoftModeSpec {
            fss: 1.0,
            constraints: vec![],
        });
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
        // Loss outside (0, 1].
        let mut spec = two_mode_spec();
        spec.modes[0].loss = Some(1.5);
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
        // Constraint on an inactive task.
        let mut spec = two_mode_spec();
        spec.modes[0].tasks = Some(vec!["sense".into()]);
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
        // Greedy backend.
        assert!(matches!(
            schedule_modes(&two_mode_spec(), &SchedulerConfig::greedy()),
            Err(ScheduleError::BadConfig(_))
        ));
        // Too many modes.
        let mut spec = two_mode_spec();
        for i in 0..ModeObjectives::MAX_MODES {
            spec.modes.push(wh_mode(&format!("extra{i}"), 5, 60, 0.9));
        }
        assert!(matches!(
            schedule_modes(&spec, &cfg),
            Err(ScheduleError::BadConfig(_))
        ));
    }

    #[test]
    fn mixed_constraint_families_across_modes() {
        let mut spec = two_mode_spec();
        spec.modes[0] = ModeSpec {
            name: "normal".into(),
            tasks: None,
            soft: Some(SoftModeSpec {
                fss: 1.2,
                constraints: vec![SoftEntry {
                    task: "act".into(),
                    probability: 0.9,
                }],
            }),
            weakly_hard: None,
            loss: Some(0.9),
        };
        let out = schedule_modes(&spec, &SchedulerConfig::default()).unwrap();
        assert_eq!(out.modes.len(), 2);
        assert_eq!(
            out.modes[0].schedule.rounds()[0],
            out.modes[1].schedule.rounds()[0]
        );
    }

    #[test]
    fn portfolio_race_matches_single_engine() {
        let spec = two_mode_spec();
        let base = schedule_modes(&spec, &SchedulerConfig::default()).unwrap();
        for threads in [1usize, 2, 8] {
            let cfg = SchedulerConfig {
                portfolio: 4,
                solver_threads: threads,
                ..SchedulerConfig::default()
            };
            let raced = schedule_modes(&spec, &cfg).unwrap();
            assert_eq!(raced.modes.len(), base.modes.len());
            for (r, b) in raced.modes.iter().zip(&base.modes) {
                assert_eq!(r.makespan_us, b.makespan_us, "threads {threads}");
            }
            // Bit-identical winner across thread counts: compare the
            // serialized schedules against the threads=1 run.
            if threads == 1 {
                continue;
            }
            let one = schedule_modes(
                &spec,
                &SchedulerConfig {
                    portfolio: 4,
                    solver_threads: 1,
                    ..SchedulerConfig::default()
                },
            )
            .unwrap();
            for (r, o) in raced.modes.iter().zip(&one.modes) {
                assert_eq!(
                    serde_json::to_string(&r.schedule).unwrap(),
                    serde_json::to_string(&o.schedule).unwrap(),
                    "portfolio winner drifted at {threads} threads"
                );
            }
        }
    }
}

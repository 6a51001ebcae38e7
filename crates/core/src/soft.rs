//! Soft real-time scheduling (paper § III-B, eq. (6)).

use crate::app::{Application, MsgId, TaskId};
use crate::config::{ScheduleError, ScheduleOutcome, SchedulerConfig};
use crate::constraints::Deadlines;
use crate::control::{ControlledOutcome, SolveControl};
use crate::encode::{self, ReliabilitySpec, LOG_SCALE, LOG_ZERO};
use crate::rounds::build_rounds;
use crate::schedule::Schedule;
use crate::stat::{validate_soft, SoftStatistic};

/// Computes a makespan-minimal feasible soft real-time schedule: every
/// constrained task `τ` satisfies
/// `F_s(τ) ≤ Π_{x ∈ pred(τ)} λ_s(χ(x))` (eq. (6)).
///
/// # Errors
///
/// * [`ScheduleError::Stat`] / [`ScheduleError::Constraints`] for invalid
///   inputs;
/// * [`ScheduleError::Infeasible`] /
///   [`ScheduleError::InfeasibleReliability`] when no `χ ≤ chi_max`
///   satisfies the requirements.
///
/// # Example
///
/// ```
/// use netdag_core::{app::Application, config::SchedulerConfig,
///                   constraints::SoftConstraints, soft::schedule_soft,
///                   stat::Eq15Statistic};
/// use netdag_glossy::NodeId;
///
/// let mut b = Application::builder();
/// let s = b.task("sense", NodeId(0), 500);
/// let a = b.task("act", NodeId(1), 300);
/// b.edge(s, a, 8)?;
/// let app = b.build()?;
/// let mut f = SoftConstraints::new();
/// f.set(a, 0.9)?;
/// let stat = Eq15Statistic::new(1.2, 8);
/// let outcome = schedule_soft(&app, &stat, &f, &SchedulerConfig::default())?;
/// assert!(outcome.schedule.check_feasible(&app).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_soft<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    cfg: &SchedulerConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    schedule_soft_with_deadlines(app, stat, constraints, &Deadlines::new(), cfg)
}

/// As [`schedule_soft`], additionally enforcing task-level deadlines
/// `ζ(τ) ≤ D(τ)` (the § IV-D design queries).
///
/// The exact backend searches for any deadline-feasible schedule; the
/// greedy backend only checks its earliest-start placement and reports
/// [`ScheduleError::DeadlineViolated`] when that placement misses one.
///
/// # Errors
///
/// As [`schedule_soft`], plus [`ScheduleError::BadDeadline`] and
/// [`ScheduleError::DeadlineViolated`].
pub fn schedule_soft_with_deadlines<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::solve("soft", app, cfg, &rounds, &spec, deadlines, None).map(|c| c.outcome)
}

/// As [`schedule_soft_with_deadlines`], with the exact solve steered by
/// a [`SolveControl`] (warm-start bound plus pausable search). The
/// greedy backend has no search to steer and ignores the controller;
/// `portfolio ≥ 2` delegates to the batch race.
///
/// # Errors
///
/// As [`schedule_soft_with_deadlines`], plus
/// [`ScheduleError::Interrupted`] when the controller stopped the solve
/// before any incumbent existed.
pub fn schedule_soft_controlled<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
    control: &mut SolveControl<'_>,
) -> Result<ControlledOutcome, ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::solve("soft", app, cfg, &rounds, &spec, deadlines, Some(control))
}

/// Runs only the CPM timing presolve for a soft spec: validates the
/// inputs, builds the CSP encoding, closes its difference-constraint
/// subsystem, and — without exploring a single search node — rejects an
/// over-constrained spec with a named-task
/// [`ScheduleError::InfeasibleTiming`] explanation. With
/// `cfg.lower_bound` set the exact solve runs the same check before
/// searching; this entry point gives the verdict without a solve.
///
/// `Ok(())` only clears the *timing* relaxation; the full problem may
/// still be infeasible for reliability reasons the relaxation cannot
/// see.
///
/// # Errors
///
/// As [`schedule_soft_with_deadlines`] for invalid inputs, plus
/// [`ScheduleError::InfeasibleTiming`] when earliest/latest start
/// windows contradict.
pub fn presolve_soft<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<(), ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::presolve_exact(app, cfg, &rounds, &spec, deadlines)
}

/// Validates the inputs and builds the round order and reliability
/// encoding: everything the soft entry points do before the
/// shared [`encode::solve`] / [`encode::presolve_exact`] path.
fn prepare<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<(Vec<Vec<MsgId>>, ReliabilitySpec), ScheduleError> {
    cfg.validate()?;
    validate_soft(stat)?;
    constraints.validate(app)?;
    deadlines
        .validate(app)
        .map_err(ScheduleError::BadDeadline)?;
    let rounds = build_rounds(app, cfg.round_structure);
    let spec = build_spec(app, stat, constraints, cfg, &rounds);
    Ok((rounds, spec))
}

pub(crate) fn build_spec<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::SoftConstraints,
    cfg: &SchedulerConfig,
    rounds: &[Vec<crate::app::MsgId>],
) -> ReliabilitySpec {
    let scaled_log = |lambda: f64| {
        if lambda <= 0.0 {
            LOG_ZERO
        } else {
            (LOG_SCALE * lambda.ln()).floor() as i64
        }
    };
    // λ_s depends only on χ, so one table serves every message: build it
    // once and hand each message an `Arc` clone (the encoder's `table_fn`
    // propagators then share the single allocation too).
    let log_table: std::sync::Arc<[i64]> = (1..=cfg.chi_max)
        .map(|chi| scaled_log(stat.success_rate(chi)))
        .collect::<Vec<i64>>()
        .into();
    let log_tables: Vec<std::sync::Arc<[i64]>> = app
        .messages()
        .map(|_| std::sync::Arc::clone(&log_table))
        .collect();
    let beacon_log = scaled_log(stat.success_rate(cfg.beacon_chi));
    let groups = constraints
        .iter()
        .filter_map(|(task, p)| {
            let preds = app.message_predecessors(task);
            if preds.is_empty() {
                None
            } else {
                let mut threshold = (LOG_SCALE * p.ln()).ceil() as i64;
                if cfg.include_beacons {
                    // Each distinct round carrying a predecessor message
                    // contributes its beacon flood to pred(τ); with χ(r)
                    // fixed by configuration, fold the beacon terms into
                    // the threshold (they are ≤ 0, so this tightens it).
                    let n_rounds = rounds
                        .iter()
                        .filter(|round| round.iter().any(|m| preds.contains(m)))
                        .count() as i64;
                    threshold -= n_rounds * beacon_log;
                }
                Some(crate::encode::SoftGroup {
                    msgs: preds,
                    threshold,
                    task,
                })
            }
        })
        .collect();
    ReliabilitySpec::Soft { log_tables, groups }
}

/// The success probability a schedule actually achieves for `task` under
/// `stat`: the product of eq. (6) over the task's message predecessors
/// (`1.0` for tasks with no remote inputs). Beacon floods are excluded;
/// see [`achieved_probability_with_beacons`].
pub fn achieved_probability<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
) -> f64 {
    app.message_predecessors(task)
        .into_iter()
        .map(|m| stat.success_rate(schedule.chi(m)))
        .product()
}

/// As [`achieved_probability`], but with the paper's full `pred(τ)`: the
/// beacon flood of every distinct round carrying one of the task's input
/// messages also has to succeed.
pub fn achieved_probability_with_beacons<S: SoftStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
) -> f64 {
    let preds = app.message_predecessors(task);
    let msg_product: f64 = preds
        .iter()
        .map(|&m| stat.success_rate(schedule.chi(m)))
        .product();
    let mut rounds: Vec<usize> = preds.iter().filter_map(|&m| schedule.round_of(m)).collect();
    rounds.sort_unstable();
    rounds.dedup();
    let beacon_product: f64 = rounds
        .into_iter()
        .map(|r| stat.success_rate(schedule.rounds()[r].beacon_chi))
        .product();
    msg_product * beacon_product
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::constraints::SoftConstraints;
    use crate::stat::Eq15Statistic;
    use netdag_glossy::NodeId;

    /// s1, s2 → ctl → a1, a2 on five nodes.
    fn mimo_ish() -> (Application, TaskId, TaskId) {
        let mut b = Application::builder();
        let s1 = b.task("s1", NodeId(0), 400);
        let s2 = b.task("s2", NodeId(1), 700);
        let c = b.task("ctl", NodeId(2), 1500);
        let a1 = b.task("a1", NodeId(3), 300);
        let a2 = b.task("a2", NodeId(4), 300);
        b.edge(s1, c, 4).unwrap();
        b.edge(s2, c, 4).unwrap();
        b.edge(c, a1, 2).unwrap();
        b.edge(c, a2, 2).unwrap();
        (b.build().unwrap(), a1, a2)
    }

    #[test]
    fn exact_and_greedy_both_satisfy_eq6() {
        let (app, a1, a2) = mimo_ish();
        let stat = Eq15Statistic::new(1.0, 8);
        let mut f = SoftConstraints::new();
        f.set(a1, 0.85).unwrap();
        f.set(a2, 0.80).unwrap();
        for cfg in [SchedulerConfig::default(), SchedulerConfig::greedy()] {
            let out = schedule_soft(&app, &stat, &f, &cfg).unwrap();
            out.schedule.check_feasible(&app).unwrap();
            for (task, req) in f.iter() {
                let got = achieved_probability(&app, &stat, &out.schedule, task);
                assert!(got >= req, "task {task}: {got} < {req} ({cfg:?})");
            }
        }
    }

    #[test]
    fn exact_beats_or_matches_greedy_makespan() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq15Statistic::new(0.8, 8);
        let mut f = SoftConstraints::new();
        f.set(a1, 0.9).unwrap();
        let exact = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let greedy = schedule_soft(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        assert!(exact.optimal);
        assert!(exact.schedule.makespan(&app) <= greedy.schedule.makespan(&app));
    }

    #[test]
    fn stricter_requirements_cost_makespan() {
        let (app, a1, a2) = mimo_ish();
        let stat = Eq15Statistic::new(0.7, 10);
        let mut cfg = SchedulerConfig::default();
        cfg.chi_max = 10;
        let makespan_for = |p: f64| {
            let mut f = SoftConstraints::new();
            f.set(a1, p).unwrap();
            f.set(a2, p).unwrap();
            schedule_soft(&app, &stat, &f, &cfg)
                .unwrap()
                .schedule
                .makespan(&app)
        };
        let loose = makespan_for(0.5);
        let tight = makespan_for(0.95);
        assert!(
            tight > loose,
            "tight requirement should cost airtime: {tight} vs {loose}"
        );
    }

    #[test]
    fn unconstrained_app_gets_minimal_chi() {
        let (app, _, _) = mimo_ish();
        let stat = Eq15Statistic::new(1.0, 8);
        let f = SoftConstraints::new();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        for m in app.messages() {
            assert_eq!(out.schedule.chi(m), 1);
        }
    }

    #[test]
    fn beacon_inclusion_tightens_the_requirement() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq15Statistic::new(0.9, 10);
        let mut f = SoftConstraints::new();
        f.set(a1, 0.85).unwrap();
        // Beacons need decent reliability themselves, or accounting for
        // them makes any requirement unreachable.
        let mut with = SchedulerConfig::default();
        with.chi_max = 10;
        with.beacon_chi = 6;
        with.include_beacons = true;
        let mut without = SchedulerConfig::default();
        without.chi_max = 10;
        without.beacon_chi = 6;
        let out_with = schedule_soft(&app, &stat, &f, &with).unwrap();
        let out_without = schedule_soft(&app, &stat, &f, &without).unwrap();
        // The full pred(τ) product must still meet the requirement when
        // beacons were accounted for.
        let full = achieved_probability_with_beacons(&app, &stat, &out_with.schedule, a1);
        assert!(full >= 0.85, "full product {full}");
        // Accounting for beacons can only cost makespan.
        assert!(
            out_with.schedule.makespan(&app) >= out_without.schedule.makespan(&app),
            "{} < {}",
            out_with.schedule.makespan(&app),
            out_without.schedule.makespan(&app)
        );
        // And the beacon-inclusive product is never larger than the
        // message-only product.
        assert!(full <= achieved_probability(&app, &stat, &out_with.schedule, a1) + 1e-12);
    }

    #[test]
    fn impossible_requirement_is_reported() {
        let (app, a1, _) = mimo_ish();
        // Weak radio: even χ = chi_max cannot reach 0.99 over 2 hops.
        let stat = Eq15Statistic::new(0.3, 4);
        let mut f = SoftConstraints::new();
        f.set(a1, 0.99).unwrap();
        let err = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Infeasible
                | ScheduleError::InfeasibleReliability(_)
                | ScheduleError::InfeasibleTiming(_)
        ));
        let err = schedule_soft(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap_err();
        assert_eq!(err, ScheduleError::InfeasibleReliability(a1));
    }

    #[test]
    fn presolve_rejects_impossible_deadline_with_explanation() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq15Statistic::new(1.0, 8);
        let f = SoftConstraints::new();
        let cfg = SchedulerConfig::default();
        // Feasible spec: the presolve stays silent.
        presolve_soft(&app, &stat, &f, &Deadlines::new(), &cfg).unwrap();
        // Deadline longer than the WCET (passes validation) but shorter
        // than the critical path: rejected with a rendered explanation,
        // no search.
        let mut d = Deadlines::new();
        d.set(a1, app.task(a1).wcet_us + 1);
        let err = presolve_soft(&app, &stat, &f, &d, &cfg).unwrap_err();
        let ScheduleError::InfeasibleTiming(e) = err else {
            panic!("expected a timing explanation, got {err:?}");
        };
        assert!(e.earliest > e.latest, "{} ≤ {}", e.earliest, e.latest);
        assert!(!e.forward.is_empty() || !e.backward.is_empty());
        assert!(e.to_string().contains("cannot start before"));
        // The full scheduling entry point rejects it identically.
        let err = schedule_soft_with_deadlines(&app, &stat, &f, &d, &cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasibleTiming(_)));
    }
}

//! Weakly hard real-time scheduling (paper § III-C, eqs. (8)–(10)).

use netdag_weakly_hard::{oplus_fold, Constraint};

use crate::app::{Application, MsgId, TaskId};
use crate::config::{ScheduleError, ScheduleOutcome, SchedulerConfig};
use crate::constraints::Deadlines;
use crate::control::{ControlledOutcome, SolveControl};
use crate::encode::{self, ReliabilitySpec};
use crate::rounds::build_rounds;
use crate::schedule::Schedule;
use crate::stat::{validate_weakly_hard, WeaklyHardStatistic};

/// Computes a makespan-minimal feasible weakly hard real-time schedule:
/// for every constrained task `τ`, the `⊕`-folded network statistic over
/// `pred(τ)` satisfies the abstraction of eq. (10):
///
/// `(⊕_x λ_WH(χ(x))).m ≥ F_WH(τ).m  ∧  (⊕_x λ_WH(χ(x))).K ≤ F_WH(τ).K`
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
///                   constraints::WeaklyHardConstraints,
///                   stat::Eq13Statistic,
///                   weakly_hard::schedule_weakly_hard};
/// use netdag_glossy::NodeId;
/// use netdag_weakly_hard::Constraint;
///
/// let mut b = Application::builder();
/// let s = b.task("sense", NodeId(0), 500);
/// let a = b.task("act", NodeId(1), 300);
/// b.edge(s, a, 8)?;
/// let app = b.build()?;
/// let mut f = WeaklyHardConstraints::new();
/// f.set(a, Constraint::any_hit(10, 40)?)?; // ≥ 10 hits per 40 runs
/// let stat = Eq13Statistic::new(8);
/// let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default())?;
/// assert!(out.schedule.check_feasible(&app).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_weakly_hard<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    cfg: &SchedulerConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    schedule_weakly_hard_with_deadlines(app, stat, constraints, &Deadlines::new(), cfg)
}

/// As [`schedule_weakly_hard`], additionally enforcing task-level
/// deadlines `ζ(τ) ≤ D(τ)`.
///
/// The exact backend searches for any deadline-feasible schedule; the
/// greedy backend only checks its earliest-start placement.
///
/// # Errors
///
/// As [`schedule_weakly_hard`], plus [`ScheduleError::BadDeadline`] and
/// [`ScheduleError::DeadlineViolated`].
pub fn schedule_weakly_hard_with_deadlines<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::solve("weakly_hard", app, cfg, &rounds, &spec, deadlines, None).map(|c| c.outcome)
}

/// As [`schedule_weakly_hard_with_deadlines`], with the exact solve
/// steered by a [`SolveControl`] (warm-start bound plus pausable
/// search). The greedy backend has no search to steer and ignores the
/// controller; `portfolio ≥ 2` delegates to the batch race.
///
/// # Errors
///
/// As [`schedule_weakly_hard_with_deadlines`], plus
/// [`ScheduleError::Interrupted`] when the controller stopped the solve
/// before any incumbent existed.
pub fn schedule_weakly_hard_controlled<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
    control: &mut SolveControl<'_>,
) -> Result<ControlledOutcome, ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::solve(
        "weakly_hard",
        app,
        cfg,
        &rounds,
        &spec,
        deadlines,
        Some(control),
    )
}

/// Runs only the CPM timing presolve for a weakly hard spec — see
/// [`crate::soft::presolve_soft`] for the contract: an over-constrained
/// spec is rejected with a named-task
/// [`ScheduleError::InfeasibleTiming`] explanation and zero search
/// nodes; `Ok(())` clears only the timing relaxation.
///
/// # Errors
///
/// As [`schedule_weakly_hard_with_deadlines`] for invalid inputs, plus
/// [`ScheduleError::InfeasibleTiming`].
pub fn presolve_weakly_hard<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<(), ScheduleError> {
    let (rounds, spec) = prepare(app, stat, constraints, deadlines, cfg)?;
    encode::presolve_exact(app, cfg, &rounds, &spec, deadlines)
}

/// Validates the inputs and builds the round order and reliability
/// encoding: everything the weakly hard entry points do before the
/// shared [`encode::solve`] / [`encode::presolve_exact`] path.
fn prepare<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    deadlines: &Deadlines,
    cfg: &SchedulerConfig,
) -> Result<(Vec<Vec<MsgId>>, ReliabilitySpec), ScheduleError> {
    cfg.validate()?;
    validate_weakly_hard(stat)?;
    constraints.validate(app)?;
    deadlines
        .validate(app)
        .map_err(ScheduleError::BadDeadline)?;
    let rounds = build_rounds(app, cfg.round_structure);
    let spec = build_spec(app, stat, constraints, cfg, &rounds);
    Ok((rounds, spec))
}

pub(crate) fn build_spec<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &crate::constraints::WeaklyHardConstraints,
    cfg: &SchedulerConfig,
    rounds: &[Vec<crate::app::MsgId>],
) -> ReliabilitySpec {
    // λ_WH depends only on χ, so one (miss, window) table pair serves
    // every message: build each once and share `Arc` clones.
    let mut misses = Vec::with_capacity(cfg.chi_max as usize);
    let mut windows = Vec::with_capacity(cfg.chi_max as usize);
    for chi in 1..=cfg.chi_max {
        match stat.miss_constraint(chi) {
            Constraint::AnyMiss { m, k } => {
                misses.push(m as i64);
                windows.push(k as i64);
            }
            // validate_weakly_hard rejects anything else up front.
            other => unreachable!("non-miss statistic {other}"),
        }
    }
    let miss_table: std::sync::Arc<[i64]> = misses.into();
    let window_table: std::sync::Arc<[i64]> = windows.into();
    let miss_tables: Vec<std::sync::Arc<[i64]>> = app
        .messages()
        .map(|_| std::sync::Arc::clone(&miss_table))
        .collect();
    let window_tables: Vec<std::sync::Arc<[i64]>> = app
        .messages()
        .map(|_| std::sync::Arc::clone(&window_table))
        .collect();
    let beacon_bound = match stat.miss_constraint(cfg.beacon_chi) {
        Constraint::AnyMiss { m, k } => (m as i64, k as i64),
        other => unreachable!("non-miss statistic {other}"),
    };
    let groups = constraints
        .iter()
        .filter_map(|(task, c)| {
            let preds = app.message_predecessors(task);
            if preds.is_empty() {
                return None;
            }
            match c {
                Constraint::AnyHit { m, k } => {
                    let (mut min_hits, max_window) = (m as i64, k as i64);
                    let mut beacon_window = None;
                    if cfg.include_beacons {
                        // Each distinct round carrying a predecessor
                        // message adds one beacon flood to pred(τ); with
                        // χ(r) a configuration constant, its misses fold
                        // into the hit requirement and its window joins
                        // the min.
                        let n_rounds = rounds
                            .iter()
                            .filter(|round| round.iter().any(|e| preds.contains(e)))
                            .count() as i64;
                        min_hits += n_rounds * beacon_bound.0;
                        beacon_window = Some(beacon_bound.1);
                    }
                    Some(crate::encode::WhGroup {
                        msgs: preds,
                        min_hits,
                        max_window,
                        beacon_window,
                        task,
                    })
                }
                _ => unreachable!("constraint map enforces hit form"),
            }
        })
        .collect();
    ReliabilitySpec::WeaklyHard {
        miss_tables,
        window_tables,
        groups,
    }
}

/// The `⊕`-folded behavioral bound a schedule implies for `task`:
/// `⊕_{x ∈ pred(τ)} λ_WH(χ(x))` in miss form, or `None` when the task has
/// no message predecessors (it never misses for network reasons).
pub fn derived_bound<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
) -> Option<Constraint> {
    let bounds: Vec<Constraint> = app
        .message_predecessors(task)
        .into_iter()
        .map(|m| stat.miss_constraint(schedule.chi(m)))
        .collect();
    oplus_fold(bounds.iter()).expect("miss-form statistics")
}

/// Whether the schedule's derived bound satisfies `F_WH(task)` under the
/// eq. (10) abstraction. Tasks with no predecessors trivially satisfy.
pub fn satisfies_eq10<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
    requirement: Constraint,
) -> bool {
    netdag_obs::counter!(netdag_obs::keys::CORE_EQ10_TESTS).incr();
    let Some(bound) = derived_bound(app, stat, schedule, task) else {
        return true;
    };
    let (Constraint::AnyMiss { m: misses, k: w }, Constraint::AnyHit { m, k }) =
        (bound, requirement)
    else {
        return false;
    };
    w as i64 - misses as i64 >= m as i64 && w <= k
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::constraints::WeaklyHardConstraints;
    use crate::stat::Eq13Statistic;
    use netdag_glossy::NodeId;

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

    fn hit(m: u32, k: u32) -> Constraint {
        Constraint::any_hit(m, k).unwrap()
    }

    #[test]
    fn both_backends_satisfy_eq10() {
        let (app, a1, a2) = mimo_ish();
        let stat = Eq13Statistic::new(8);
        let mut f = WeaklyHardConstraints::new();
        // a1 depends on 3 floods; eq. (13) at χ=1 gives (8̄, 20) each, so
        // a loose requirement is needed: W − ΣM ≥ m with W ≤ K.
        f.set(a1, hit(5, 60)).unwrap();
        f.set(a2, hit(5, 60)).unwrap();
        for cfg in [SchedulerConfig::default(), SchedulerConfig::greedy()] {
            let out = schedule_weakly_hard(&app, &stat, &f, &cfg).unwrap();
            out.schedule.check_feasible(&app).unwrap();
            for (task, req) in f.iter() {
                assert!(
                    satisfies_eq10(&app, &stat, &out.schedule, task, req),
                    "task {task} under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn derived_bound_folds_predecessors() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq13Statistic::new(8);
        let f = WeaklyHardConstraints::new();
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        // All χ = 1 (unconstrained): each flood is (8̄, 20); a1 has 3 preds
        // → misses add to 24, capped at the window 20 (trivial bound).
        let bound = derived_bound(&app, &stat, &out.schedule, a1).unwrap();
        assert_eq!(bound, Constraint::any_miss(20, 20).unwrap());
        // Sensing tasks have no preds.
        let s1 = app.task_by_name("s1").unwrap();
        assert_eq!(derived_bound(&app, &stat, &out.schedule, s1), None);
    }

    #[test]
    fn stricter_constraints_increase_makespan() {
        let (app, a1, a2) = mimo_ish();
        let stat = Eq13Statistic::new(10);
        let mut cfg = SchedulerConfig::default();
        cfg.chi_max = 10;
        let makespan_for = |c: Constraint, tasks: &[TaskId]| {
            let mut f = WeaklyHardConstraints::new();
            for &t in tasks {
                f.set(t, c).unwrap();
            }
            schedule_weakly_hard(&app, &stat, &f, &cfg).map(|o| o.schedule.makespan(&app))
        };
        let loose = makespan_for(hit(3, 60), &[a1]).unwrap();
        let tight = makespan_for(hit(25, 60), &[a1]).unwrap();
        assert!(tight >= loose, "tight {tight} < loose {loose}");
        // Constraining more actuators can only increase the makespan.
        let one = makespan_for(hit(20, 60), &[a1]).unwrap();
        let two = makespan_for(hit(20, 60), &[a1, a2]).unwrap();
        assert!(two >= one, "two {two} < one {one}");
    }

    #[test]
    fn deadlines_are_enforced_by_both_backends() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq13Statistic::new(8);
        let f = WeaklyHardConstraints::new();
        // Baseline makespan without deadlines.
        let base = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let base_end = base.schedule.task_end(&app, a1);
        // A met deadline leaves the solution feasible…
        let mut d = Deadlines::new();
        d.set(a1, base_end);
        for cfg in [SchedulerConfig::default(), SchedulerConfig::greedy()] {
            let out = schedule_weakly_hard_with_deadlines(&app, &stat, &f, &d, &cfg).unwrap();
            assert!(out.schedule.task_end(&app, a1) <= base_end, "{cfg:?}");
            assert!(d.first_violation(&app, &out.schedule).is_none());
        }
        // …an impossible one (shorter than the critical path but longer
        // than the WCET) is reported.
        let mut d = Deadlines::new();
        d.set(a1, app.task(a1).wcet_us + 1);
        let err =
            schedule_weakly_hard_with_deadlines(&app, &stat, &f, &d, &SchedulerConfig::default())
                .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Infeasible
                | ScheduleError::DeadlineViolated(_)
                | ScheduleError::InfeasibleTiming(_)
        ));
        let err =
            schedule_weakly_hard_with_deadlines(&app, &stat, &f, &d, &SchedulerConfig::greedy())
                .unwrap_err();
        assert_eq!(err, ScheduleError::DeadlineViolated(a1));
        // A deadline below the WCET is rejected up front.
        let mut d = Deadlines::new();
        d.set(a1, 1);
        assert_eq!(
            schedule_weakly_hard_with_deadlines(&app, &stat, &f, &d, &SchedulerConfig::greedy())
                .unwrap_err(),
            ScheduleError::BadDeadline(a1)
        );
    }

    #[test]
    fn beacon_inclusion_is_conservative() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq13Statistic::new(10);
        let mut f = WeaklyHardConstraints::new();
        f.set(a1, hit(5, 60)).unwrap();
        let mut with = SchedulerConfig::greedy();
        with.chi_max = 10;
        with.include_beacons = true;
        let mut without = SchedulerConfig::greedy();
        without.chi_max = 10;
        let out_without = schedule_weakly_hard(&app, &stat, &f, &without).unwrap();
        match schedule_weakly_hard(&app, &stat, &f, &with) {
            Ok(out_with) => {
                out_with.schedule.check_feasible(&app).unwrap();
                assert!(
                    out_with.schedule.makespan(&app) >= out_without.schedule.makespan(&app),
                    "beacons can only cost makespan"
                );
            }
            // Beacon misses can make the requirement genuinely
            // unsatisfiable — also a conservative outcome.
            Err(ScheduleError::InfeasibleReliability(_) | ScheduleError::Infeasible) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn infeasible_window_reported() {
        let (app, a1, _) = mimo_ish();
        let stat = Eq13Statistic::new(8);
        let mut f = WeaklyHardConstraints::new();
        // Window K = 10 < smallest statistic window (20): infeasible.
        f.set(a1, hit(1, 10)).unwrap();
        let err = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_)
        ));
    }

    #[test]
    fn task_without_predecessors_is_trivially_satisfied() {
        let (app, _, _) = mimo_ish();
        let stat = Eq13Statistic::new(8);
        let s1 = app.task_by_name("s1").unwrap();
        let mut f = WeaklyHardConstraints::new();
        f.set(s1, hit(40, 40)).unwrap(); // hard requirement, but no preds
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        assert!(satisfies_eq10(&app, &stat, &out.schedule, s1, hit(40, 40)));
    }
}

//! Cross-mode validation: do guarantees hold *across* a runtime mode
//! switch, not just within each mode?
//!
//! A multi-mode deployment (`netdag_core::modes`) switches schedules at a
//! round boundary. Within each mode the ordinary validators ([`crate::soft`],
//! [`crate::weakly_hard`]) apply; the switch itself introduces a new
//! obligation: hit/miss windows that *span* the boundary see the tail of one
//! mode and the head of the next, and neither mode's per-window analysis
//! covers them. This module splices per-mode simulations at the switch point
//! and checks the spliced behavior.
//!
//! For weakly hard constraints the spliced sequence is checked against the
//! *cross requirement* — the strongest `(m, K)` guarantee that provably
//! survives the splice (see [`cross_requirement`]) — in addition to each
//! half modeling its own mode's requirement. For soft constraints the
//! spliced empirical rate is tested against the weaker of the two modes'
//! required probabilities with a Hoeffding margin.

use rand::Rng;

use netdag_core::app::{Application, TaskId};
use netdag_core::constraints::{SoftConstraints, WeaklyHardConstraints};
use netdag_core::schedule::Schedule;
use netdag_core::stat::{SoftStatistic, WeaklyHardStatistic};
use netdag_weakly_hard::{Constraint, Sequence, SynthesisError};

use crate::soft::{hoeffding_margin, simulate_task};
use crate::weakly_hard::simulate_task_adversarial;

/// The strongest window guarantee that provably holds on every window of a
/// sequence spliced from a half modeling `from` and a half modeling `to`.
///
/// Derivation: write both requirements in miss form, `from ≡ (m̄_a, K_a)`
/// and `to ≡ (m̄_b, K_b)`, and let `K = min(K_a, K_b)`. Any stretch of at
/// most `K` consecutive elements inside the `from` half is contained in
/// some complete `K_a`-window (provided the half is at least `K_a` long),
/// so it carries at most `m̄_a` misses; likewise for the `to` half. A
/// `K`-window spanning the boundary splits into one stretch per half, so
/// it carries at most `m̄_a + m̄_b` misses — i.e. the splice satisfies
/// `AnyHit(K − m̄_a − m̄_b, K)` (clamped at zero, where the guarantee
/// degenerates to trivial).
///
/// Returns `None` when either requirement has no sound `AnyHit` rendering
/// (`RowHit`, `RowMiss`).
pub fn cross_requirement(from: Constraint, to: Constraint) -> Option<Constraint> {
    let (Constraint::AnyHit { m: ma, k: ka }, Constraint::AnyHit { m: mb, k: kb }) =
        (from.to_any_hit(), to.to_any_hit())
    else {
        return None;
    };
    let k = ka.min(kb);
    let miss_budget = (ka - ma) + (kb - mb);
    Constraint::any_hit(k.saturating_sub(miss_budget), k).ok()
}

/// Cross-switch verdict for one weakly hard-constrained task.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeaklyHardSwitchReport {
    /// The validated task (constrained in both modes).
    pub task: TaskId,
    /// The requirement in the mode being left.
    pub from_requirement: Constraint,
    /// The requirement in the mode being entered.
    pub to_requirement: Constraint,
    /// The spanning-window guarantee checked on the splice, when one
    /// exists (see [`cross_requirement`]).
    pub cross_requirement: Option<Constraint>,
    /// Number of spliced adversarial trials run.
    pub trials: usize,
    /// Trials where both halves modeled their mode's requirement and the
    /// splice modeled the cross requirement.
    pub satisfied: usize,
    /// `satisfied == trials`.
    pub passed: bool,
}

/// Validates every task that is weakly hard-constrained in *both* modes of
/// a switch: each trial simulates `kappa_each` adversarial runs under the
/// outgoing schedule and `kappa_each` under the incoming one, splices them
/// at the switch point, and requires that the outgoing half models
/// `from_constraints`' requirement, the incoming half models
/// `to_constraints`', and the full splice models the [`cross_requirement`].
///
/// Tasks constrained in only one mode have no cross-switch obligation and
/// are not reported; validate them with
/// [`crate::weakly_hard::validate_weakly_hard_par`] per mode.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from adversarial pattern synthesis.
#[allow(clippy::too_many_arguments)]
pub fn validate_weakly_hard_switch<S: WeaklyHardStatistic + ?Sized, R: Rng + ?Sized>(
    app: &Application,
    stat: &S,
    from_schedule: &Schedule,
    from_constraints: &WeaklyHardConstraints,
    to_schedule: &Schedule,
    to_constraints: &WeaklyHardConstraints,
    kappa_each: usize,
    trials: usize,
    rng: &mut R,
) -> Result<Vec<WeaklyHardSwitchReport>, SynthesisError> {
    let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_VALIDATION_WEAKLY_HARD);
    let _trace = netdag_trace::span_with(
        "validation.mode_switch",
        &[("kappa_each", kappa_each.into()), ("trials", trials.into())],
    );
    let mut out = Vec::new();
    for (task, from_requirement) in from_constraints.iter() {
        let Some(to_requirement) = to_constraints.get(task) else {
            continue;
        };
        netdag_obs::counter!(netdag_obs::keys::VALIDATION_WEAKLY_HARD_TASKS).incr();
        netdag_obs::counter!(netdag_obs::keys::VALIDATION_WEAKLY_HARD_TRIALS).add(trials as u64);
        let cross = cross_requirement(from_requirement, to_requirement);
        let mut satisfied = 0usize;
        for _ in 0..trials {
            let before =
                simulate_task_adversarial(app, stat, from_schedule, task, kappa_each, rng)?;
            let after = simulate_task_adversarial(app, stat, to_schedule, task, kappa_each, rng)?;
            let mut spliced = before.clone();
            spliced.extend_from(&after);
            let ok = from_requirement.models(&before)
                && to_requirement.models(&after)
                && cross.as_ref().is_none_or(|c| c.models(&spliced));
            if ok {
                satisfied += 1;
            }
        }
        out.push(WeaklyHardSwitchReport {
            task,
            from_requirement,
            to_requirement,
            cross_requirement: cross,
            trials,
            satisfied,
            passed: satisfied == trials,
        });
    }
    Ok(out)
}

/// Cross-switch verdict for one soft-constrained task.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftSwitchReport {
    /// The validated task (constrained in both modes).
    pub task: TaskId,
    /// Required success probability in the mode being left.
    pub from_required: f64,
    /// Required success probability in the mode being entered.
    pub to_required: f64,
    /// The requirement tested on the splice: `min(from, to)` — the
    /// strongest rate a window mixing both modes can be promised.
    pub required: f64,
    /// Observed hit rate of the spliced behavior.
    pub observed: f64,
    /// Hoeffding margin used for the verdict.
    pub margin: f64,
    /// `observed ≥ required − margin`.
    pub passed: bool,
}

/// Validates every task that is soft-constrained in *both* modes of a
/// switch: simulates `kappa_each` eq. (11) runs under each mode's schedule
/// *and statistic* (modes may profile different channels), splices them,
/// and tests the spliced rate against `min` of the two required
/// probabilities with a Hoeffding margin at `confidence`.
///
/// Tasks constrained in only one mode are not reported; validate them with
/// [`crate::soft::validate_soft_par`] per mode.
#[allow(clippy::too_many_arguments)]
pub fn validate_soft_switch<SA, SB, R>(
    app: &Application,
    from_stat: &SA,
    from_schedule: &Schedule,
    from_constraints: &SoftConstraints,
    to_stat: &SB,
    to_schedule: &Schedule,
    to_constraints: &SoftConstraints,
    kappa_each: usize,
    confidence: f64,
    rng: &mut R,
) -> Vec<SoftSwitchReport>
where
    SA: SoftStatistic + ?Sized,
    SB: SoftStatistic + ?Sized,
    R: Rng + ?Sized,
{
    let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_VALIDATION_SOFT);
    let _trace = netdag_trace::span_with(
        "validation.mode_switch",
        &[("kappa_each", kappa_each.into())],
    );
    let margin = hoeffding_margin(2 * kappa_each, confidence);
    let mut out = Vec::new();
    for (task, from_required) in from_constraints.iter() {
        let Some(to_required) = to_constraints.get(task) else {
            continue;
        };
        netdag_obs::counter!(netdag_obs::keys::VALIDATION_SOFT_TASKS).incr();
        let before = simulate_task(app, from_stat, from_schedule, task, kappa_each, rng);
        let after = simulate_task(app, to_stat, to_schedule, task, kappa_each, rng);
        let mut spliced: Sequence = before;
        spliced.extend_from(&after);
        let required = from_required.min(to_required);
        let observed = spliced.hit_rate();
        out.push(SoftSwitchReport {
            task,
            from_required,
            to_required,
            required,
            observed,
            margin,
            passed: observed >= required - margin,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::modes::{schedule_modes, ModeSpec, ModesSpec, SoftModeSpec};
    use netdag_core::soft::schedule_soft;
    use netdag_core::spec::{
        AppSpec, EdgeSpec, SoftEntry, TaskSpec, WeaklyHardEntry, WeaklyHardSpec,
    };
    use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
    use netdag_core::weakly_hard::schedule_weakly_hard;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn app_spec() -> AppSpec {
        let task = |name: &str, node: u32, wcet_us: u64| TaskSpec {
            name: name.to_owned(),
            node,
            wcet_us,
        };
        let edge = |from: &str, to: &str, width: u32| EdgeSpec {
            from: from.to_owned(),
            to: to.to_owned(),
            width,
        };
        AppSpec {
            tasks: vec![
                task("sense", 0, 500),
                task("ctl", 1, 1000),
                task("act", 2, 300),
            ],
            edges: vec![edge("sense", "ctl", 8), edge("ctl", "act", 4)],
        }
    }

    fn wh_mode(name: &str, m: u32, k: u32) -> ModeSpec {
        ModeSpec {
            name: name.to_owned(),
            tasks: None,
            soft: None,
            weakly_hard: Some(WeaklyHardSpec {
                constraints: vec![WeaklyHardEntry {
                    task: "act".to_owned(),
                    m,
                    k,
                }],
            }),
            loss: None,
        }
    }

    #[test]
    fn cross_requirement_combines_miss_budgets() {
        let a = Constraint::any_hit(30, 40).unwrap();
        let b = Constraint::any_hit(35, 40).unwrap();
        assert_eq!(cross_requirement(a, b), Constraint::any_hit(25, 40).ok());
        // Miss form converts before combining.
        let bm = Constraint::any_miss(5, 40).unwrap();
        assert_eq!(cross_requirement(a, bm), Constraint::any_hit(25, 40).ok());
        // Budgets exceeding the window degenerate to the trivial guarantee.
        let loose = Constraint::any_hit(10, 40).unwrap();
        assert_eq!(
            cross_requirement(loose, loose),
            Constraint::any_hit(0, 40).ok()
        );
        // Row-form constraints have no sound rendering.
        assert_eq!(cross_requirement(Constraint::row_miss(2), a), None);
    }

    #[test]
    fn co_synthesized_modes_validate_across_the_switch() {
        let spec = ModesSpec {
            app: app_spec(),
            shared_prefix_rounds: Some(1),
            modes: vec![wh_mode("nominal", 25, 40), wh_mode("degraded", 30, 40)],
        };
        let out = schedule_modes(&spec, &SchedulerConfig::default()).unwrap();
        let stat = Eq13Statistic::new(8);
        let act = out.app.task_by_name("act").unwrap();
        let constraints = |m, k| {
            let mut f = WeaklyHardConstraints::new();
            f.set(act, Constraint::any_hit(m, k).unwrap()).unwrap();
            f
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let reports = validate_weakly_hard_switch(
            &out.app,
            &stat,
            &out.modes[0].schedule,
            &constraints(25, 40),
            &out.modes[1].schedule,
            &constraints(30, 40),
            200,
            30,
            &mut rng,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].cross_requirement,
            Constraint::any_hit(15, 40).ok()
        );
        assert!(reports[0].passed, "{reports:?}");
    }

    #[test]
    fn undersized_incoming_mode_is_caught() {
        let spec = app_spec();
        let (app, _) = spec.build().unwrap();
        let act = app.task_by_name("act").unwrap();
        let stat = Eq13Statistic::new(8);
        let mut strong = WeaklyHardConstraints::new();
        strong
            .set(act, Constraint::any_hit(30, 40).unwrap())
            .unwrap();
        let from = schedule_weakly_hard(&app, &stat, &strong, &SchedulerConfig::default())
            .unwrap()
            .schedule;
        // Incoming schedule was synthesized with no constraints (χ = 1),
        // but the incoming mode demands (35, 40): the to-half must fail.
        let to = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap()
        .schedule;
        let mut weak_demand = WeaklyHardConstraints::new();
        weak_demand
            .set(act, Constraint::any_hit(35, 40).unwrap())
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let reports = validate_weakly_hard_switch(
            &app,
            &stat,
            &from,
            &strong,
            &to,
            &weak_demand,
            200,
            30,
            &mut rng,
        )
        .unwrap();
        assert!(!reports[0].passed, "{reports:?}");
        assert!(reports[0].satisfied < reports[0].trials);
    }

    #[test]
    fn tasks_constrained_in_one_mode_are_skipped() {
        let (app, _) = app_spec().build().unwrap();
        let act = app.task_by_name("act").unwrap();
        let stat = Eq13Statistic::new(8);
        let mut only_from = WeaklyHardConstraints::new();
        only_from
            .set(act, Constraint::any_hit(10, 40).unwrap())
            .unwrap();
        let sched = schedule_weakly_hard(&app, &stat, &only_from, &SchedulerConfig::default())
            .unwrap()
            .schedule;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let reports = validate_weakly_hard_switch(
            &app,
            &stat,
            &sched,
            &only_from,
            &sched,
            &WeaklyHardConstraints::new(),
            100,
            5,
            &mut rng,
        )
        .unwrap();
        assert!(reports.is_empty());
    }

    #[test]
    fn soft_switch_validates_spliced_rate() {
        let spec = ModesSpec {
            app: app_spec(),
            shared_prefix_rounds: Some(1),
            modes: vec![
                ModeSpec {
                    name: "clear".to_owned(),
                    tasks: None,
                    soft: Some(SoftModeSpec {
                        fss: 1.0,
                        constraints: vec![SoftEntry {
                            task: "act".to_owned(),
                            probability: 0.9,
                        }],
                    }),
                    weakly_hard: None,
                    loss: None,
                },
                ModeSpec {
                    name: "noisy".to_owned(),
                    tasks: None,
                    soft: Some(SoftModeSpec {
                        fss: 0.7,
                        constraints: vec![SoftEntry {
                            task: "act".to_owned(),
                            probability: 0.8,
                        }],
                    }),
                    weakly_hard: None,
                    loss: Some(0.9),
                },
            ],
        };
        let out = schedule_modes(&spec, &SchedulerConfig::default()).unwrap();
        let act = out.app.task_by_name("act").unwrap();
        let soft = |p: f64| {
            let mut f = SoftConstraints::new();
            f.set(act, p).unwrap();
            f
        };
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let reports = validate_soft_switch(
            &out.app,
            &Eq15Statistic::new(1.0, 8),
            &out.modes[0].schedule,
            &soft(0.9),
            &Eq15Statistic::new(0.7, 8),
            &out.modes[1].schedule,
            &soft(0.8),
            4_000,
            0.999,
            &mut rng,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].required, 0.8);
        assert!(reports[0].passed, "{reports:?}");
    }

    #[test]
    fn soft_switch_catches_underscheduled_incoming_mode() {
        let (app, _) = app_spec().build().unwrap();
        let act = app.task_by_name("act").unwrap();
        let stat = Eq15Statistic::new(0.6, 8);
        let mut demanding = SoftConstraints::new();
        demanding.set(act, 0.95).unwrap();
        let strong = schedule_soft(&app, &stat, &demanding, &SchedulerConfig::default());
        // (0.6, χ ≤ 8) may not reach 0.95; fall back to any schedule and a
        // weak outgoing schedule built with no constraints.
        let weak = schedule_soft(
            &app,
            &stat,
            &SoftConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap()
        .schedule;
        let from = match &strong {
            Ok(out) => out.schedule.clone(),
            Err(_) => weak.clone(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let reports = validate_soft_switch(
            &app, &stat, &from, &demanding, &stat, &weak, &demanding, 4_000, 0.999, &mut rng,
        );
        assert!(!reports[0].passed, "{reports:?}");
    }
}

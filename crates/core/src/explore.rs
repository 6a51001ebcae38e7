//! Latency queries under constraint sweeps (drives fig. 2 and fig. 4).

use netdag_runtime::{try_run_indexed, ExecPolicy};
use netdag_weakly_hard::Constraint;

use crate::app::{Application, TaskId};
use crate::config::{ScheduleError, SchedulerConfig};
use crate::constraints::WeaklyHardConstraints;
use crate::stat::WeaklyHardStatistic;
use crate::weakly_hard::schedule_weakly_hard;

/// One point of the fig. 2 sweep: the minimum feasible latency of the
/// application with `constrained_tasks` actuators carrying `constraint`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SweepPoint {
    /// How many actuators were constrained.
    pub constrained_tasks: usize,
    /// The constraint applied to each of them.
    pub constraint: Constraint,
    /// Minimum feasible makespan in µs, `None` when infeasible.
    pub makespan_us: Option<u64>,
}

/// Reproduces the fig. 2 experiment: for each candidate weakly hard
/// constraint, incrementally apply it to the actuation tasks (first 1,
/// then 2, …) and query the scheduler for the minimum feasible latency.
///
/// Infeasible combinations yield `makespan_us = None` rather than an
/// error; real errors (invalid statistic, solver failure) are returned.
///
/// Every `(constraint, k)` sweep point is an independent scheduling
/// query, so the grid is fanned out across threads. Points come back in
/// `(constraint, k)` order and are identical for every `policy` —
/// scheduling is deterministic and no RNG is involved.
///
/// # Errors
///
/// Propagates non-infeasibility [`ScheduleError`]s; when several points
/// fail, the error of the earliest sweep point is returned.
pub fn weakly_hard_latency_sweep_par<S: WeaklyHardStatistic + Sync + ?Sized>(
    app: &Application,
    actuators: &[TaskId],
    stat: &S,
    cfg: &SchedulerConfig,
    candidates: &[Constraint],
    policy: ExecPolicy,
) -> Result<Vec<SweepPoint>, ScheduleError> {
    let per_constraint = actuators.len();
    let jobs = candidates.len() * per_constraint;
    try_run_indexed(policy, jobs, |job| -> Result<SweepPoint, ScheduleError> {
        let constraint = candidates[job / per_constraint];
        let k = job % per_constraint + 1;
        let mut f = WeaklyHardConstraints::new();
        for &a in &actuators[..k] {
            f.set(a, constraint)?;
        }
        let makespan = match schedule_weakly_hard(app, stat, &f, cfg) {
            Ok(outcome) => Some(outcome.schedule.makespan(app)),
            Err(ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_)) => None,
            Err(e) => return Err(e),
        };
        Ok(SweepPoint {
            constrained_tasks: k,
            constraint,
            makespan_us: makespan,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::mimo_app;
    use crate::stat::Eq13Statistic;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sweep_shows_fig2_trends() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let (app, actuators) = mimo_app(&mut rng);
        let stat = Eq13Statistic::new(8);
        let cfg = SchedulerConfig::greedy();
        let loose = Constraint::any_hit(3, 60).unwrap();
        let tight = Constraint::any_hit(15, 60).unwrap();
        let points = weakly_hard_latency_sweep_par(
            &app,
            &actuators,
            &stat,
            &cfg,
            &[loose, tight],
            ExecPolicy::Auto,
        )
        .unwrap();
        assert_eq!(points.len(), 2 * actuators.len());
        // Trend 1: more constrained actuators never decreases makespan.
        for w in points.windows(2) {
            if w[0].constraint == w[1].constraint {
                if let (Some(a), Some(b)) = (w[0].makespan_us, w[1].makespan_us) {
                    assert!(b >= a, "makespan decreased when adding constraints");
                }
            }
        }
        // Trend 2: the stricter constraint costs at least as much at every
        // sweep position (when both are feasible).
        for k in 0..actuators.len() {
            let l = &points[k];
            let t = &points[actuators.len() + k];
            if let (Some(a), Some(b)) = (l.makespan_us, t.makespan_us) {
                assert!(b >= a, "stricter constraint was cheaper at k = {}", k + 1);
            }
        }
    }

    #[test]
    fn sweep_marks_infeasible_points_as_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let (app, actuators) = mimo_app(&mut rng);
        let stat = Eq13Statistic::new(8);
        let cfg = SchedulerConfig::greedy();
        // Window 10 is below the statistic's smallest window (20).
        let impossible = Constraint::any_hit(1, 10).unwrap();
        let points = weakly_hard_latency_sweep_par(
            &app,
            &actuators,
            &stat,
            &cfg,
            &[impossible],
            ExecPolicy::Auto,
        )
        .unwrap();
        assert!(points.iter().all(|p| p.makespan_us.is_none()));
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let (app, actuators) = mimo_app(&mut rng);
        let stat = Eq13Statistic::new(8);
        let cfg = SchedulerConfig::greedy();
        let candidates = [
            Constraint::any_hit(3, 60).unwrap(),
            Constraint::any_hit(15, 60).unwrap(),
        ];
        let serial = weakly_hard_latency_sweep_par(
            &app,
            &actuators,
            &stat,
            &cfg,
            &candidates,
            ExecPolicy::Serial,
        )
        .unwrap();
        for threads in [2, 8] {
            let par = weakly_hard_latency_sweep_par(
                &app,
                &actuators,
                &stat,
                &cfg,
                &candidates,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}

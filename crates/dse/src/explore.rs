//! The fig. 4 exploration: latency of an application versus TX power.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netdag_core::app::{Application, TaskId};
use netdag_core::config::{ScheduleError, SchedulerConfig};
use netdag_core::constraints::{Deadlines, SoftConstraints};
use netdag_core::soft::{schedule_soft, schedule_soft_with_deadlines};
use netdag_core::stat::Eq15Statistic;
use netdag_runtime::{derive_seed, try_run_indexed, ExecPolicy};

use crate::mobility::RandomWaypoint;
use crate::profile::{profile_power, PowerProfile};

/// One point of the fig. 4 right-hand plot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig4Point {
    /// The profiled power setting.
    pub profile: PowerProfile,
    /// End-to-end latency of the application at this power, `None` when
    /// the power level is unusable (disconnected network or infeasible
    /// reliability).
    pub latency_us: Option<u64>,
}

/// Runs the full § IV-D workflow for each power setting `Q_i`:
/// profile `fSS̄_i` and `D(N)_i` over mobility, build `λ_i` per eq. (15),
/// adjust the Glossy relay margin to the diameter bound, and query the
/// soft scheduler for the minimum feasible latency.
///
/// Each power setting is profiled and scheduled as its own job. Every
/// power index `i` derives a fresh ChaCha stream from `(master_seed, i)`,
/// so the result depends only on `master_seed` and the inputs — never on
/// the thread count or the order in which power levels finish.
///
/// # Errors
///
/// Propagates non-infeasibility [`ScheduleError`]s; when several power
/// levels fail, the error of the lowest-index power is returned.
#[allow(clippy::too_many_arguments)]
pub fn explore_tx_power_par(
    app: &Application,
    soft: &SoftConstraints,
    base_cfg: &SchedulerConfig,
    mobility_nodes: usize,
    mobility_speed: f64,
    powers: &[f64],
    snapshots: usize,
    master_seed: u64,
    policy: ExecPolicy,
) -> Result<Vec<Fig4Point>, ScheduleError> {
    let _trace = netdag_trace::span_with(
        "dse.explore",
        &[
            ("powers", powers.len().into()),
            ("snapshots", snapshots.into()),
        ],
    );
    try_run_indexed(
        policy,
        powers.len(),
        |i| -> Result<Fig4Point, ScheduleError> {
            let q = powers[i];
            let mut rng = ChaCha8Rng::from_seed(derive_seed(master_seed, i as u64, 0));
            let mut mobility = RandomWaypoint::new(mobility_nodes, mobility_speed, &mut rng);
            let profile = profile_power(&mut mobility, q, snapshots, &mut rng);
            let latency = match profile.diameter {
                None => None,
                Some(d) => {
                    let stat = Eq15Statistic::new(profile.mean_fss, base_cfg.chi_max);
                    let mut cfg = *base_cfg;
                    cfg.timing = cfg.timing.with_diameter(d);
                    match schedule_soft(app, &stat, soft, &cfg) {
                        Ok(outcome) => Some(outcome.schedule.makespan(app)),
                        Err(
                            ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_),
                        ) => None,
                        Err(e) => return Err(e),
                    }
                }
            };
            Ok(Fig4Point {
                profile,
                latency_us: latency,
            })
        },
    )
}

/// The paper's § IV-D design query in its task-level form: walk the power
/// settings in ascending order and return the first `Q_i` for which a
/// schedule exists that meets *every task-level deadline* (not just an
/// end-to-end latency bound). Returns the power and the profile it was
/// established with.
///
/// # Errors
///
/// Propagates non-infeasibility [`ScheduleError`]s.
#[allow(clippy::too_many_arguments)]
pub fn min_power_for_deadlines<R: Rng + ?Sized>(
    app: &Application,
    soft: &SoftConstraints,
    deadlines: &Deadlines,
    base_cfg: &SchedulerConfig,
    mobility_nodes: usize,
    mobility_speed: f64,
    powers: &[f64],
    snapshots: usize,
    rng: &mut R,
) -> Result<Option<PowerProfile>, ScheduleError> {
    let mut sorted: Vec<f64> = powers.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite powers"));
    for q in sorted {
        let mut mobility = RandomWaypoint::new(mobility_nodes, mobility_speed, rng);
        let profile = profile_power(&mut mobility, q, snapshots, rng);
        let Some(d) = profile.diameter else {
            continue;
        };
        let stat = Eq15Statistic::new(profile.mean_fss, base_cfg.chi_max);
        let mut cfg = *base_cfg;
        cfg.timing = cfg.timing.with_diameter(d);
        match schedule_soft_with_deadlines(app, &stat, soft, deadlines, &cfg) {
            Ok(_) => return Ok(Some(profile)),
            Err(
                ScheduleError::Infeasible
                | ScheduleError::InfeasibleReliability(_)
                | ScheduleError::DeadlineViolated(_),
            ) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// The minimum power setting whose latency meets `deadline_us` — the
/// design query the paper's workflow answers.
pub fn min_feasible_power(points: &[Fig4Point], deadline_us: u64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.latency_us.is_some_and(|l| l <= deadline_us))
        .map(|p| p.profile.tx_power)
        .min_by(|a, b| a.partial_cmp(b).expect("finite powers"))
}

/// The Pareto frontier of the fig. 4 trade-off: the points not dominated
/// in (TX power, latency) — lower is better on both axes. Infeasible
/// points never qualify. Returned in ascending power order.
pub fn pareto_frontier(points: &[Fig4Point]) -> Vec<&Fig4Point> {
    let mut feasible: Vec<&Fig4Point> = points.iter().filter(|p| p.latency_us.is_some()).collect();
    feasible.sort_by(|a, b| {
        a.profile
            .tx_power
            .partial_cmp(&b.profile.tx_power)
            .expect("finite powers")
    });
    let mut frontier: Vec<&Fig4Point> = Vec::new();
    let mut best_latency = u64::MAX;
    for p in feasible {
        let l = p.latency_us.expect("filtered");
        if l < best_latency {
            best_latency = l;
            frontier.push(p);
        }
    }
    frontier
}

/// Constrains every sink task (no successors) of `app` to succeed with
/// probability `p` — the canonical requirement for the fig. 4 sweep.
///
/// # Errors
///
/// Returns [`netdag_core::constraints::ConstraintMapError`] for an invalid
/// probability.
pub fn constrain_sinks(
    app: &Application,
    p: f64,
) -> Result<SoftConstraints, netdag_core::constraints::ConstraintMapError> {
    let mut f = SoftConstraints::new();
    let sinks: Vec<TaskId> = app
        .tasks()
        .filter(|&t| app.successors(t).is_empty())
        .collect();
    for t in sinks {
        f.set(t, p)?;
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::generators::mimo_app;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn latency_falls_or_saturates_with_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (app, _) = mimo_app(&mut rng);
        let soft = constrain_sinks(&app, 0.8).unwrap();
        let cfg = SchedulerConfig::greedy();
        let powers = [0.2, 0.5, 1.0];
        let points = explore_tx_power_par(
            &app,
            &soft,
            &cfg,
            13,
            0.02,
            &powers,
            15,
            13,
            ExecPolicy::Auto,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        // Feasible latencies must be non-increasing in power (stronger
        // signal ⇒ fewer retransmissions needed).
        let feasible: Vec<u64> = points.iter().filter_map(|p| p.latency_us).collect();
        for w in feasible.windows(2) {
            assert!(w[1] <= w[0], "latency increased with power: {points:?}");
        }
        // Full power must be usable for this workload.
        assert!(points[2].latency_us.is_some(), "{points:?}");
    }

    #[test]
    fn parallel_power_sweep_invariant_under_thread_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (app, _) = mimo_app(&mut rng);
        let soft = constrain_sinks(&app, 0.8).unwrap();
        let cfg = SchedulerConfig::greedy();
        let powers = [0.2, 0.5, 1.0];
        let serial = explore_tx_power_par(
            &app,
            &soft,
            &cfg,
            13,
            0.02,
            &powers,
            15,
            2020,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert_eq!(serial.len(), powers.len());
        // The same monotone trend as the serial sweep must hold.
        let feasible: Vec<u64> = serial.iter().filter_map(|p| p.latency_us).collect();
        for w in feasible.windows(2) {
            assert!(w[1] <= w[0], "latency increased with power: {serial:?}");
        }
        for threads in [2, 8] {
            let par = explore_tx_power_par(
                &app,
                &soft,
                &cfg,
                13,
                0.02,
                &powers,
                15,
                2020,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn min_power_for_deadlines_finds_a_usable_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (app, actuators) = mimo_app(&mut rng);
        let soft = constrain_sinks(&app, 0.7).unwrap();
        let cfg = SchedulerConfig::greedy();
        // Loose deadlines: every actuator within 100 ms.
        let deadlines: Deadlines = actuators.iter().map(|&a| (a, 100_000u64)).collect();
        let found = min_power_for_deadlines(
            &app,
            &soft,
            &deadlines,
            &cfg,
            13,
            0.02,
            &[0.3, 0.6, 1.0],
            12,
            &mut rng,
        )
        .unwrap();
        assert!(found.is_some(), "some power must satisfy loose deadlines");
        // Impossible deadlines: nothing qualifies.
        let impossible: Deadlines = actuators.iter().map(|&a| (a, 400u64)).collect();
        let none = min_power_for_deadlines(
            &app,
            &soft,
            &impossible,
            &cfg,
            13,
            0.02,
            &[0.6, 1.0],
            8,
            &mut rng,
        )
        .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn min_feasible_power_picks_smallest() {
        let mk = |q: f64, lat: Option<u64>| Fig4Point {
            profile: PowerProfile {
                tx_power: q,
                mean_fss: 1.0,
                diameter: Some(2),
            },
            latency_us: lat,
        };
        let points = vec![
            mk(0.2, None),
            mk(0.5, Some(900)),
            mk(0.8, Some(700)),
            mk(1.0, Some(650)),
        ];
        assert_eq!(min_feasible_power(&points, 800), Some(0.8));
        assert_eq!(min_feasible_power(&points, 1_000), Some(0.5));
        assert_eq!(min_feasible_power(&points, 100), None);
    }

    #[test]
    fn pareto_frontier_keeps_only_improving_points() {
        let mk = |q: f64, lat: Option<u64>| Fig4Point {
            profile: PowerProfile {
                tx_power: q,
                mean_fss: 1.0,
                diameter: Some(2),
            },
            latency_us: lat,
        };
        let points = vec![
            mk(0.2, None),      // infeasible: excluded
            mk(0.4, Some(900)), // frontier
            mk(0.6, Some(950)), // dominated (more power, worse latency)
            mk(0.8, Some(700)), // frontier
            mk(1.0, Some(700)), // dominated (same latency, more power)
        ];
        let frontier = pareto_frontier(&points);
        let qs: Vec<f64> = frontier.iter().map(|p| p.profile.tx_power).collect();
        assert_eq!(qs, vec![0.4, 0.8]);
        assert!(pareto_frontier(&[mk(0.5, None)]).is_empty());
    }

    #[test]
    fn constrain_sinks_targets_leaves_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (app, actuators) = mimo_app(&mut rng);
        let f = constrain_sinks(&app, 0.9).unwrap();
        for &a in &actuators {
            assert_eq!(f.get(a), Some(0.9));
        }
        let s0 = app.task_by_name("sense0").unwrap();
        assert_eq!(f.get(s0), None);
    }
}

//! The standalone CPM presolve and the exact solve agree on timing
//! infeasibility over the seeded corpus, and the batch and controlled
//! entry points share one solve path.
//!
//! The daemon runs no separate timing screen: it relies on the solve
//! itself rejecting a timing-infeasible problem with the same witness
//! [`presolve_soft`] / [`presolve_weakly_hard`] would name, and on the
//! presolve never rejecting a problem the solve answers. This pins both
//! halves on the admission and degraded contracts of the first 64
//! scenarios, under the soak's solver configuration. On the same
//! contracts, the batch `schedule_*_with_deadlines` answer equals the
//! run-to-completion controlled solve: same schedule, optimality flag
//! and node count, or the same error.

use netdag_core::config::{Backend, ScheduleError, ScheduleOutcome, SchedulerConfig};
use netdag_core::constraints::Deadlines;
use netdag_core::control::{ControlledOutcome, SolveControl};
use netdag_core::soft::{presolve_soft, schedule_soft_controlled, schedule_soft_with_deadlines};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::{
    presolve_weakly_hard, schedule_weakly_hard_controlled, schedule_weakly_hard_with_deadlines,
};
use netdag_scenario::{generate, ConstraintSet, ScenarioParams, SoakConfig};

const MASTER_SEED: u64 = 2020;
const SCENARIOS: u64 = 64;

/// Presolve verdict, batch solve and full controlled solve of one
/// contract.
type Verdicts = (
    Result<(), ScheduleError>,
    Result<ScheduleOutcome, ScheduleError>,
    Result<ControlledOutcome, ScheduleError>,
);

fn verdicts(sc: &netdag_scenario::Scenario, degraded: bool, cfg: &SchedulerConfig) -> Verdicts {
    let (app, names) = sc.app.build().expect("generated apps build");
    let none = Deadlines::new();
    let mut keep_going = |_: &_| true;
    let mut control = SolveControl::warm(None, &mut keep_going);
    match &sc.constraints {
        ConstraintSet::Soft {
            spec,
            fss,
            degraded: d,
        } => {
            let f = if degraded { d } else { spec }
                .build(&names)
                .expect("generated soft specs build");
            let stat = Eq15Statistic::new(*fss, cfg.chi_max);
            (
                presolve_soft(&app, &stat, &f, &none, cfg),
                schedule_soft_with_deadlines(&app, &stat, &f, &none, cfg),
                schedule_soft_controlled(&app, &stat, &f, &none, cfg, &mut control),
            )
        }
        ConstraintSet::WeaklyHard { spec, degraded: d } => {
            let f = if degraded { d } else { spec }
                .build(&names)
                .expect("generated weakly hard specs build");
            let stat = Eq13Statistic::new(cfg.chi_max);
            (
                presolve_weakly_hard(&app, &stat, &f, &none, cfg),
                schedule_weakly_hard_with_deadlines(&app, &stat, &f, &none, cfg),
                schedule_weakly_hard_controlled(&app, &stat, &f, &none, cfg, &mut control),
            )
        }
    }
}

#[test]
fn presolve_rejects_exactly_what_the_solve_rejects_on_timing() {
    let cfg = SchedulerConfig {
        chi_max: SoakConfig::default().chi_max,
        backend: Backend::Exact {
            node_limit: Some(400_000),
        },
        ..SchedulerConfig::default()
    };
    let params = ScenarioParams::default();
    let (mut rejected, mut solved) = (0, 0);
    for index in 0..SCENARIOS {
        let sc = generate(MASTER_SEED, index, &params);
        for degraded in [false, true] {
            let at = format!("{} (degraded: {degraded})", sc.name());
            let (presolve, batch, controlled) = verdicts(&sc, degraded, &cfg);
            match (&batch, &controlled) {
                (Ok(b), Ok(c)) => {
                    assert!(
                        c.complete,
                        "{at}: an uncapped controlled solve stopped early"
                    );
                    assert_eq!(b.schedule, c.outcome.schedule, "{at}: schedules differ");
                    assert_eq!(b.optimal, c.outcome.optimal, "{at}: optimal flags differ");
                    assert_eq!(
                        b.stats.map(|s| s.nodes),
                        c.outcome.stats.map(|s| s.nodes),
                        "{at}: node counts differ"
                    );
                }
                (b, c) => assert_eq!(
                    b.as_ref().err(),
                    c.as_ref().err(),
                    "{at}: batch and controlled verdicts differ"
                ),
            }
            match (presolve, controlled) {
                (
                    Err(ScheduleError::InfeasibleTiming(p)),
                    Err(ScheduleError::InfeasibleTiming(s)),
                ) => {
                    assert_eq!(p.to_string(), s.to_string(), "{at}: witnesses differ");
                    rejected += 1;
                }
                (Err(ScheduleError::InfeasibleTiming(p)), other) => {
                    panic!("{at}: presolve rejected ({p}) but the solve gave {other:?}")
                }
                (other, Err(ScheduleError::InfeasibleTiming(s))) => {
                    panic!("{at}: the solve rejected on timing ({s}) but presolve gave {other:?}")
                }
                (presolve, Ok(_)) => {
                    assert!(
                        presolve.is_ok(),
                        "{at}: solved, yet presolve gave {presolve:?}"
                    );
                    solved += 1;
                }
                (_, Err(_)) => {}
            }
        }
    }
    // Both sides of the equivalence must actually be exercised.
    assert!(rejected > 0, "no timing-infeasible contract in the sample");
    assert!(solved > 0, "no solvable contract in the sample");
}

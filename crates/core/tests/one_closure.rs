//! One relaxation closure per exact solve: the cold run, a warm attempt
//! that over-prunes and falls back to cold, and a portfolio race with
//! bounded members all close the model's difference subsystem exactly
//! once, so each adds the same `solver.lb.tightenings` delta.
//!
//! Its own test binary with a single test: the obs recorder is
//! process-global, so a concurrently running solve would pollute the
//! deltas.

use netdag_core::app::Application;
use netdag_core::config::{Backend, SchedulerConfig};
use netdag_core::constraints::{Deadlines, WeaklyHardConstraints};
use netdag_core::control::{ControlledOutcome, SolveControl};
use netdag_core::stat::Eq13Statistic;
use netdag_core::weakly_hard::schedule_weakly_hard_controlled;
use netdag_glossy::NodeId;
use netdag_weakly_hard::Constraint;

/// A fan-in of two sensors into a controller and an actuator.
fn problem() -> (Application, WeaklyHardConstraints) {
    let mut b = Application::builder();
    let s0 = b.task("s0", NodeId(0), 400);
    let s1 = b.task("s1", NodeId(1), 437);
    let ctl = b.task("ctl", NodeId(2), 900);
    let act = b.task("act", NodeId(3), 250);
    b.edge(s0, ctl, 8).unwrap();
    b.edge(s1, ctl, 12).unwrap();
    b.edge(ctl, act, 12).unwrap();
    let app = b.build().unwrap();
    let mut f = WeaklyHardConstraints::new();
    f.set(act, Constraint::any_hit(10, 40).unwrap()).unwrap();
    (app, f)
}

/// Solves under `warm_bound` and returns the outcome with the
/// `solver.lb.tightenings` delta the solve added.
fn solve(cfg: &SchedulerConfig, warm_bound: Option<i64>) -> (ControlledOutcome, u64) {
    let (app, f) = problem();
    let tightenings = netdag_obs::global().counter(netdag_obs::keys::SOLVER_LB_TIGHTENINGS);
    let before = tightenings.get();
    let mut keep_going = |_: &netdag_solver::SearchStats| true;
    let mut control = SolveControl::warm(warm_bound, &mut keep_going);
    let outcome = schedule_weakly_hard_controlled(
        &app,
        &Eq13Statistic::new(cfg.chi_max),
        &f,
        &Deadlines::new(),
        cfg,
        &mut control,
    )
    .expect("feasible");
    (outcome, tightenings.get() - before)
}

#[test]
fn every_solve_closes_its_relaxation_once() {
    let cfg = SchedulerConfig {
        backend: Backend::Exact {
            node_limit: Some(50_000),
        },
        ..SchedulerConfig::default()
    };

    let (cold, cold_closure) = solve(&cfg, None);
    assert!(cold.complete);
    assert!(cold_closure > 0, "the closure must tighten something");

    // A warm bound of 1 admits no schedule: the warm attempt finishes
    // empty and the cold fallback reuses the solve's closure.
    let (fallback, fallback_closure) = solve(&cfg, Some(1));
    assert_eq!(fallback.outcome.schedule, cold.outcome.schedule);
    assert_eq!(fallback_closure, cold_closure, "warm fallback re-closed");

    // Six members: 4 and 5 are bounded and share the one closure.
    let portfolio = SchedulerConfig {
        portfolio: 6,
        ..cfg
    };
    let (raced, raced_closure) = solve(&portfolio, None);
    let stats = raced.outcome.stats.expect("exact backend records stats");
    assert!(stats.portfolio_winner.is_some());
    assert_eq!(raced_closure, cold_closure, "bounded members re-closed");
}

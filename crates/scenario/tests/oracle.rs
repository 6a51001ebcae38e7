//! The corpus-wide optimality and verdict oracle: every solver path the
//! scheduler offers must agree on the seeded corpus.
//!
//! Each admission and degraded contract is solved three ways with the
//! batch `schedule_*_with_deadlines`, under the soak's `chi_max`: the
//! default exact solve, the exact solve with the relaxation lower bound
//! switched off, and the greedy backend. The checks:
//!
//! * the lb-off solve returns the same schedule after the same number
//!   of branching decisions — the relaxation only prunes children that
//!   cannot beat the incumbent, so it may never steer the search;
//! * both exact solves agree on infeasibility (only the lb-on run can
//!   name a timing witness; the lb-off run proves the same by search);
//! * every exact answer is proven optimal, and the greedy makespan is
//!   never below it, nor does greedy find a schedule the exact solve
//!   proved impossible;
//! * every schedule passes [`Schedule::check_feasible`] and the
//!   analytic guarantee of its contract: eq. (10) (`satisfies_eq10`)
//!   for weakly hard tasks, the eq. (6) product for soft ones.
//!
//! The default test covers a prefix of the corpus; the `#[ignore]`d one
//! covers all 1000 indices and is meant for release builds:
//! `cargo test --release -p netdag-scenario --test oracle -- --ignored`.

use netdag_core::app::Application;
use netdag_core::config::{Backend, ScheduleError, ScheduleOutcome, SchedulerConfig};
use netdag_core::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
use netdag_core::schedule::Schedule;
use netdag_core::soft::{achieved_probability, schedule_soft_with_deadlines};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::{satisfies_eq10, schedule_weakly_hard_with_deadlines};
use netdag_scenario::{generate, ConstraintSet, Scenario, ScenarioParams, SoakConfig};

const MASTER_SEED: u64 = 2020;

/// Corpus indices the default (debug) run covers.
const PREFIX: u64 = 300;

/// One built contract: the admission or the degraded one.
enum Contract {
    Soft(SoftConstraints, Eq15Statistic),
    WeaklyHard(WeaklyHardConstraints, Eq13Statistic),
}

impl Contract {
    fn build(sc: &Scenario, degraded: bool, chi_max: u32) -> (Application, Contract) {
        let (app, names) = sc.app.build().expect("generated apps build");
        let contract = match &sc.constraints {
            ConstraintSet::Soft {
                spec,
                fss,
                degraded: d,
            } => Contract::Soft(
                if degraded { d } else { spec }
                    .build(&names)
                    .expect("generated soft specs build"),
                Eq15Statistic::new(*fss, chi_max),
            ),
            ConstraintSet::WeaklyHard { spec, degraded: d } => Contract::WeaklyHard(
                if degraded { d } else { spec }
                    .build(&names)
                    .expect("generated weakly hard specs build"),
                Eq13Statistic::new(chi_max),
            ),
        };
        (app, contract)
    }

    fn solve(
        &self,
        app: &Application,
        cfg: &SchedulerConfig,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let none = Deadlines::new();
        match self {
            Contract::Soft(f, stat) => schedule_soft_with_deadlines(app, stat, f, &none, cfg),
            Contract::WeaklyHard(f, stat) => {
                schedule_weakly_hard_with_deadlines(app, stat, f, &none, cfg)
            }
        }
    }

    /// Panics unless `schedule` fits `app` and meets the contract's
    /// analytic guarantee.
    fn check(&self, at: &str, app: &Application, schedule: &Schedule) {
        if let Err(e) = schedule.check_feasible(app) {
            panic!("{at}: infeasible schedule: {e}");
        }
        match self {
            Contract::Soft(f, stat) => {
                for (task, required) in f.iter() {
                    let achieved = achieved_probability(app, stat, schedule, task);
                    assert!(
                        achieved >= required,
                        "{at}: eq. (6): {task} achieves {achieved} < required {required}"
                    );
                }
            }
            Contract::WeaklyHard(f, stat) => {
                for (task, required) in f.iter() {
                    assert!(
                        satisfies_eq10(app, stat, schedule, task, required),
                        "{at}: eq. (10): {task} misses {required:?}"
                    );
                }
            }
        }
    }
}

/// Answered and refused contracts among the indices checked, and the
/// greedy answers compared against an exact optimum.
#[derive(Debug, Default)]
struct Tally {
    solved: usize,
    refused: usize,
    greedy: usize,
}

impl Tally {
    /// Panics unless every comparison the oracle makes was exercised.
    fn assert_covers_every_check(&self) {
        assert!(self.solved > 0, "no solvable contract: {self:?}");
        assert!(self.refused > 0, "no refused contract: {self:?}");
        assert!(self.greedy > 0, "no greedy answer: {self:?}");
    }
}

fn run_oracle(indices: std::ops::Range<u64>) -> Tally {
    let chi_max = SoakConfig::default().chi_max;
    let exact = SchedulerConfig {
        chi_max,
        backend: Backend::Exact {
            node_limit: Some(400_000),
        },
        ..SchedulerConfig::default()
    };
    let no_lb = SchedulerConfig {
        lower_bound: false,
        ..exact
    };
    let greedy = SchedulerConfig {
        backend: Backend::Greedy,
        ..exact
    };
    let params = ScenarioParams::default();
    let mut tally = Tally::default();
    for index in indices {
        let sc = generate(MASTER_SEED, index, &params);
        for degraded in [false, true] {
            let at = format!("{} (degraded: {degraded})", sc.name());
            let (app, c) = Contract::build(&sc, degraded, chi_max);
            let (on, off) = (c.solve(&app, &exact), c.solve(&app, &no_lb));
            match (&on, &off) {
                (Ok(on), Ok(off)) => {
                    assert!(on.optimal, "{at}: the exact solve was not proven optimal");
                    assert_eq!(on.schedule, off.schedule, "{at}: lb-off schedule differs");
                    assert_eq!(on.optimal, off.optimal, "{at}: optimal flags differ");
                    assert_eq!(
                        on.stats.map(|s| s.decisions),
                        off.stats.map(|s| s.decisions),
                        "{at}: decision counts differ"
                    );
                    c.check(&at, &app, &on.schedule);
                    tally.solved += 1;
                }
                (Err(ScheduleError::InfeasibleTiming(_)), Err(ScheduleError::Infeasible)) => {
                    tally.refused += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{at}: the two exact verdicts differ");
                    tally.refused += 1;
                }
                _ => panic!(
                    "{at}: one exact solve answered and the other refused: \
                     lb on {on:?}, lb off {off:?}"
                ),
            }
            if let Ok(g) = c.solve(&app, &greedy) {
                c.check(&format!("{at} (greedy)"), &app, &g.schedule);
                let Ok(on) = &on else {
                    panic!("{at}: greedy found a schedule the exact solve refused: {on:?}");
                };
                assert!(
                    g.schedule.makespan(&app) >= on.schedule.makespan(&app),
                    "{at}: greedy makespan {} beats the exact optimum {}",
                    g.schedule.makespan(&app),
                    on.schedule.makespan(&app)
                );
                tally.greedy += 1;
            }
        }
    }
    tally
}

#[test]
fn solver_paths_agree_on_a_corpus_prefix() {
    run_oracle(0..PREFIX).assert_covers_every_check();
}

#[test]
#[ignore = "the whole corpus; run it in release with --ignored"]
fn solver_paths_agree_on_the_whole_corpus() {
    run_oracle(0..1000).assert_covers_every_check();
}

//! Fast versions of the paper's experimental trends, asserted as
//! integration tests so regressions in any crate surface here.

use netdag::control::eval::fig3_sweep;
use netdag::control::LinearController;
use netdag::core::explore::weakly_hard_latency_sweep_par;
use netdag::core::generators::mimo_app;
use netdag::core::prelude::*;
use netdag::core::stat::Eq13Statistic;
use netdag::dse::explore::{constrain_sinks, explore_tx_power_par, min_feasible_power};
use netdag::solver::ExecPolicy;
use netdag::weakly_hard::Constraint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn fig2_trend_makespan_grows_with_constraints() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let (app, actuators) = mimo_app(&mut rng);
    let stat = Eq13Statistic::new(8);
    let cfg = SchedulerConfig::greedy();
    let candidates = [
        Constraint::any_hit(3, 60).unwrap(),
        Constraint::any_hit(22, 60).unwrap(),
    ];
    let points =
        weakly_hard_latency_sweep_par(&app, &actuators, &stat, &cfg, &candidates, ExecPolicy::Auto)
            .unwrap();
    // Within one constraint: non-decreasing in the number of actuators.
    for c in &candidates {
        let series: Vec<u64> = points
            .iter()
            .filter(|p| p.constraint == *c)
            .map(|p| p.makespan_us.expect("feasible"))
            .collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0], "series {series:?}");
        }
    }
    // Strictest vs loosest at full coverage.
    let at = |c: &Constraint| {
        points
            .iter()
            .rfind(|p| p.constraint == *c)
            .and_then(|p| p.makespan_us)
            .expect("feasible")
    };
    assert!(at(&candidates[1]) >= at(&candidates[0]));
}

#[test]
fn fig3_trend_misses_hurt_windows_help() {
    let ctl = LinearController::tuned();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let m_sweep = fig3_sweep(&ctl, &[(2, 20), (16, 20)], 25, 400, &mut rng).unwrap();
    assert!(m_sweep[0].mean_steps > m_sweep[1].mean_steps, "{m_sweep:?}");
    let k_sweep = fig3_sweep(&ctl, &[(14, 16), (14, 40)], 25, 400, &mut rng).unwrap();
    assert!(k_sweep[1].mean_steps > k_sweep[0].mean_steps, "{k_sweep:?}");
}

#[test]
fn fig4_trend_latency_improves_with_power() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let (app, _) = mimo_app(&mut rng);
    let soft = constrain_sinks(&app, 0.8).unwrap();
    let cfg = SchedulerConfig::greedy();
    let points = explore_tx_power_par(
        &app,
        &soft,
        &cfg,
        13,
        0.02,
        &[0.15, 0.5, 1.0],
        20,
        13,
        ExecPolicy::Auto,
    )
    .unwrap();
    let feasible: Vec<u64> = points.iter().filter_map(|p| p.latency_us).collect();
    assert!(!feasible.is_empty());
    for w in feasible.windows(2) {
        assert!(w[1] <= w[0], "{points:?}");
    }
    // The design query returns the cheapest feasible power for a loose
    // deadline.
    let loosest = feasible[0] * 2;
    let q = min_feasible_power(&points, loosest).expect("some feasible power");
    let first_feasible = points
        .iter()
        .find(|p| p.latency_us.is_some())
        .expect("nonempty")
        .profile
        .tx_power;
    assert!((q - first_feasible).abs() < 1e-12);
}

#[test]
fn table1_contrast_soft_vs_weakly_hard_guarantees() {
    // The same application admits both constraint styles; Table I's point
    // is the difference in guarantee semantics, which the validators
    // demonstrate: a soft guarantee allows arbitrarily long miss bursts,
    // a weakly hard one does not.
    use netdag::weakly_hard::Sequence;
    let c_soft_equivalent = 0.84; // "succeeds 84% of the time"
    let c_wh = Constraint::any_hit(6, 10).unwrap(); // "6 in every 10"
                                                    // A bursty behavior with an 84% average but a terrible window.
    let mut bursty = Sequence::all_hits(100);
    for i in 0..16 {
        bursty.set(i, false);
    }
    assert!(bursty.hit_rate() >= c_soft_equivalent);
    assert!(!c_wh.models(&bursty), "weakly hard rejects the burst");
    // A well-spread behavior with the same average satisfies both.
    let spread: Sequence = (0..100).map(|i| i % 7 != 0).collect();
    assert!(spread.hit_rate() >= c_soft_equivalent);
    assert!(c_wh.models(&spread));
}

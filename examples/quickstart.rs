//! Quickstart: build an application, schedule it both ways, inspect the
//! timeline, and validate the schedule by simulation.
//!
//! Run with: `cargo run --example quickstart`

use netdag::core::prelude::*;
use netdag::core::stat::{Eq13Statistic, Eq15Statistic};
use netdag::glossy::NodeId;
use netdag::solver::ExecPolicy;
use netdag::validation::soft::validate_soft_par;
use netdag::validation::weakly_hard::validate_weakly_hard_par;
use netdag::weakly_hard::Constraint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny sense → control → actuate pipeline across three nodes.
    let mut b = Application::builder();
    let sense = b.task("sense", NodeId(0), 500);
    let control = b.task("control", NodeId(1), 1_500);
    let actuate = b.task("actuate", NodeId(2), 300);
    b.edge(sense, control, 8)?;
    b.edge(control, actuate, 4)?;
    let app = b.build()?;
    println!(
        "application: {} tasks, {} messages over the LWB\n",
        app.task_count(),
        app.message_count()
    );

    // --- Soft real-time scheduling (eq. (6)). ---
    let soft_stat = Eq15Statistic::new(1.0, 8);
    let mut soft_req = SoftConstraints::new();
    soft_req.set(actuate, 0.9)?;
    let soft_out = schedule_soft(&app, &soft_stat, &soft_req, &SchedulerConfig::default())?;
    println!(
        "soft schedule (actuate must succeed ≥ 90% of runs), optimal = {}:",
        soft_out.optimal
    );
    println!("{}", soft_out.schedule.render_timeline(&app, 64));

    // --- Weakly hard scheduling (eqs. (8)–(10)). ---
    let wh_stat = Eq13Statistic::new(8);
    let mut wh_req = WeaklyHardConstraints::new();
    wh_req.set(actuate, Constraint::any_hit(10, 40)?)?;
    let wh_out = schedule_weakly_hard(&app, &wh_stat, &wh_req, &SchedulerConfig::default())?;
    println!(
        "weakly hard schedule (actuate ⊢ (10, 40)), optimal = {}:",
        wh_out.optimal
    );
    println!("{}", wh_out.schedule.render_timeline(&app, 64));
    for m in app.messages() {
        println!(
            "  message {m}: χ = {} in round {}",
            wh_out.schedule.chi(m),
            wh_out.schedule.round_of(m).expect("assigned")
        );
    }

    // --- Validation (paper § IV-A). ---
    let soft_reports = validate_soft_par(
        &app,
        &soft_stat,
        &soft_req,
        &soft_out.schedule,
        10_000,
        0.999,
        2020,
        ExecPolicy::Auto,
    );
    for r in &soft_reports {
        println!(
            "soft validation: task {} observed {:.4} (required {:.2}) → {}",
            r.task,
            r.observed,
            r.required,
            if r.passed { "PASS" } else { "FAIL" }
        );
    }
    let wh_reports = validate_weakly_hard_par(
        &app,
        &wh_stat,
        &wh_req,
        &wh_out.schedule,
        400,
        50,
        2020,
        ExecPolicy::Auto,
    )?;
    for r in &wh_reports {
        println!(
            "weakly hard validation: task {} held {} under {}/{} adversarial trials → {}",
            r.task,
            r.requirement,
            r.satisfied,
            r.trials,
            if r.passed { "PASS" } else { "FAIL" }
        );
    }
    Ok(())
}

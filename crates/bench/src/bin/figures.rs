//! Regenerates every table and figure of the paper as text.
//!
//! Usage: `cargo run --release -p netdag-bench --bin figures -- [artifact]`
//! where `artifact` is one of `table1 fig1 fig2 fig3 fig4 validation all`
//! (default `all`).

use netdag_bench::{
    exact_config, fig2_constraints, fig3_pairs, fig4_powers, greedy_config, mimo_fixture,
};
use netdag_control::eval::fig3_sweep;
use netdag_control::train::{train_cem, CemConfig};
use netdag_core::explore::weakly_hard_latency_sweep_par;
use netdag_core::prelude::*;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_dse::explore::{constrain_sinks, explore_tx_power_par, min_feasible_power};
use netdag_glossy::NodeId;
use netdag_runtime::ExecPolicy;
use netdag_validation::soft::validate_soft_par;
use netdag_validation::weakly_hard::validate_weakly_hard_par;
use netdag_weakly_hard::Constraint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = what == "all";
    if all || what == "table1" {
        table1()?;
    }
    if all || what == "fig1" {
        fig1()?;
    }
    if all || what == "fig2" {
        fig2()?;
    }
    if all || what == "fig3" {
        fig3()?;
    }
    if all || what == "fig4" {
        fig4()?;
    }
    if all || what == "validation" {
        validation()?;
    }
    Ok(())
}

/// Three-node pipeline used by Table I and fig. 1.
fn pipeline() -> Result<(Application, TaskId), Box<dyn std::error::Error>> {
    let mut b = Application::builder();
    let sense = b.task("sense", NodeId(0), 500);
    let control = b.task("control", NodeId(1), 1_500);
    let actuate = b.task("actuate", NodeId(2), 300);
    b.edge(sense, control, 8)?;
    b.edge(control, actuate, 4)?;
    Ok((b.build()?, actuate))
}

/// Table I: the same task scheduled under a soft and a weakly hard
/// constraint, demonstrating the two guarantee styles side by side.
fn table1() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Table I — soft vs weakly hard constraints on one task ==");
    let (app, actuate) = pipeline()?;
    let cfg = exact_config();

    let soft_stat = Eq15Statistic::new(1.0, 8);
    let mut fs = SoftConstraints::new();
    fs.set(actuate, 0.84)?;
    let soft = schedule_soft(&app, &soft_stat, &fs, &cfg)?;

    let wh_stat = Eq13Statistic::new(8);
    let mut fwh = WeaklyHardConstraints::new();
    fwh.set(actuate, Constraint::any_hit(6, 20)?)?;
    let wh = schedule_weakly_hard(&app, &wh_stat, &fwh, &cfg)?;

    println!(
        "{:<14} {:<28} {:<14} {:<10}",
        "paradigm", "guarantee", "usage", "makespan"
    );
    println!(
        "{:<14} {:<28} {:<14} {:>8} µs",
        "soft",
        "P(success) ≥ 0.84",
        "monitoring",
        soft.schedule.makespan(&app)
    );
    println!(
        "{:<14} {:<28} {:<14} {:>8} µs\n",
        "weakly hard",
        "≥ 6 hits per 20 runs",
        "control",
        wh.schedule.makespan(&app)
    );
    Ok(())
}

/// Fig. 1: the task DAG → LWB schedule picture, as a rendered timeline.
fn fig1() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 1 — application over the LWB: schedule timeline ==");
    let (app, actuate) = pipeline()?;
    let stat = Eq13Statistic::new(8);
    let mut f = WeaklyHardConstraints::new();
    f.set(actuate, Constraint::any_hit(10, 40)?)?;
    let out = schedule_weakly_hard(&app, &stat, &f, &exact_config())?;
    println!("{}", out.schedule.render_timeline(&app, 72));
    for m in app.messages() {
        println!(
            "message {m}: χ(e) = {}, round {}",
            out.schedule.chi(m),
            out.schedule.round_of(m).expect("assigned")
        );
    }
    println!();
    Ok(())
}

/// Fig. 2: A_MIMO makespan vs incrementally applied weakly hard
/// constraints of growing strictness.
fn fig2() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 2 — A_MIMO makespan vs weakly hard constraints ==");
    let (app, actuators) = mimo_fixture();
    let stat = Eq13Statistic::new(8);
    let candidates = fig2_constraints();
    let points = weakly_hard_latency_sweep_par(
        &app,
        &actuators,
        &stat,
        &exact_config(),
        &candidates,
        ExecPolicy::Auto,
    )?;
    print!("{:>12}", "constraint");
    for k in 1..=actuators.len() {
        print!("{k:>10}");
    }
    println!();
    for c in &candidates {
        print!("{:>12}", c.to_string());
        for p in points.iter().filter(|p| p.constraint == *c) {
            match p.makespan_us {
                Some(m) => print!("{m:>10}"),
                None => print!("{:>10}", "infeas"),
            }
        }
        println!();
    }
    println!();
    Ok(())
}

/// Fig. 3: cartpole balance vs injected (m̄, K) faults.
fn fig3() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 3 — cartpole balance under (m̄, K) fault injection ==");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mlp = train_cem(&CemConfig::default(), &mut rng);
    let (fixed_k, fixed_m) = fig3_pairs();
    for (name, pairs) in [("fixed K = 20", fixed_k), ("fixed m̄ = 14", fixed_m)] {
        println!("{name}:");
        println!("{:>8} {:>8} {:>12}", "misses", "window", "mean steps");
        for p in fig3_sweep(&mlp, &pairs, 60, 500, &mut rng)? {
            println!("{:>8} {:>8} {:>12.1}", p.misses, p.window, p.mean_steps);
        }
    }
    println!();
    Ok(())
}

/// Fig. 4: TX power profiling and A_MIMO latency per power setting.
fn fig4() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 4 — TX power design-space exploration ==");
    let (app, _) = mimo_fixture();
    let soft = constrain_sinks(&app, 0.8)?;
    let powers = fig4_powers();
    let points = explore_tx_power_par(
        &app,
        &soft,
        &greedy_config(),
        13,
        0.02,
        &powers,
        25,
        99,
        ExecPolicy::Auto,
    )?;
    println!(
        "{:>6} {:>10} {:>8} {:>14}",
        "Q", "fSS̄", "D(N)", "latency (µs)"
    );
    for p in &points {
        println!(
            "{:>6.1} {:>10.3} {:>8} {:>14}",
            p.profile.tx_power,
            p.profile.mean_fss,
            p.profile
                .diameter
                .map_or("disc".into(), |d: u32| d.to_string()),
            p.latency_us.map_or("infeas".into(), |l: u64| l.to_string()),
        );
    }
    if let Some(best) = points.iter().rev().find_map(|p| p.latency_us) {
        let deadline = best * 6 / 5;
        println!(
            "minimum power meeting {} µs: {:?}",
            deadline,
            min_feasible_power(&points, deadline)
        );
    }
    println!();
    Ok(())
}

/// § IV-A validation for a scheduled pipeline, both paradigms.
fn validation() -> Result<(), Box<dyn std::error::Error>> {
    println!("== § IV-A — simulation-based validation ==");
    let (app, actuate) = pipeline()?;
    let cfg = exact_config();

    let soft_stat = Eq15Statistic::new(1.0, 8);
    let mut fs = SoftConstraints::new();
    fs.set(actuate, 0.9)?;
    let soft = schedule_soft(&app, &soft_stat, &fs, &cfg)?;
    for r in validate_soft_par(
        &app,
        &soft_stat,
        &fs,
        &soft.schedule,
        20_000,
        0.999,
        2020,
        ExecPolicy::Auto,
    ) {
        println!(
            "soft  task {}: v = {:.4} vs F_s = {:.2} (margin {:.4}) → {}",
            r.task,
            r.observed,
            r.required,
            r.margin,
            if r.passed { "PASS" } else { "FAIL" }
        );
    }

    let wh_stat = Eq13Statistic::new(8);
    let mut fwh = WeaklyHardConstraints::new();
    fwh.set(actuate, Constraint::any_hit(10, 40)?)?;
    let wh = schedule_weakly_hard(&app, &wh_stat, &fwh, &cfg)?;
    for r in validate_weakly_hard_par(
        &app,
        &wh_stat,
        &fwh,
        &wh.schedule,
        400,
        100,
        2020,
        ExecPolicy::Auto,
    )? {
        println!(
            "WH    task {}: {} held in {}/{} adversarial trials → {}",
            r.task,
            r.requirement,
            r.satisfied,
            r.trials,
            if r.passed { "PASS" } else { "FAIL" }
        );
    }
    println!();
    Ok(())
}

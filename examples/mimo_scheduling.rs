//! The paper's § IV-B demonstration: schedule the MIMO application
//! `A_MIMO` under incrementally applied weakly hard constraints and watch
//! the makespan grow (fig. 2).
//!
//! Run with: `cargo run --release --example mimo_scheduling`

use netdag::core::explore::weakly_hard_latency_sweep_par;
use netdag::core::generators::mimo_app;
use netdag::core::prelude::*;
use netdag::core::stat::Eq13Statistic;
use netdag::solver::ExecPolicy;
use netdag::weakly_hard::Constraint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let (app, actuators) = mimo_app(&mut rng);
    println!(
        "A_MIMO: {} tasks ({} actuators), {} messages",
        app.task_count(),
        actuators.len(),
        app.message_count()
    );

    // The synthetic weakly hard network statistic of eq. (13).
    let stat = Eq13Statistic::new(8);

    // Candidate task-level constraints, loosest to strictest.
    let candidates = [
        Constraint::any_hit(3, 60)?,
        Constraint::any_hit(8, 60)?,
        Constraint::any_hit(15, 60)?,
        Constraint::any_hit(22, 60)?,
    ];

    let cfg = SchedulerConfig {
        backend: Backend::Exact {
            node_limit: Some(60_000),
        },
        ..SchedulerConfig::default()
    };
    let points = weakly_hard_latency_sweep_par(
        &app,
        &actuators,
        &stat,
        &cfg,
        &candidates,
        ExecPolicy::Auto,
    )?;

    println!("\nfig. 2 — makespan (µs) vs #constrained actuators:");
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
    println!(
        "\nExpected shape (paper fig. 2): rows grow to the right (more\n\
         constrained actuators) and later rows dominate earlier ones\n\
         (stricter constraints)."
    );
    Ok(())
}

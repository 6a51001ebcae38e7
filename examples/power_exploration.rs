//! The paper's § IV-D design-space exploration: latency of `A_MIMO`
//! versus radio transmission power (fig. 4), plus the minimum-power
//! design query.
//!
//! Run with: `cargo run --release --example power_exploration`

use netdag::core::generators::mimo_app;
use netdag::core::prelude::*;
use netdag::dse::explore::{constrain_sinks, explore_tx_power_par, min_feasible_power};
use netdag::lwb::EnergyModel;
use netdag::solver::ExecPolicy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let (app, _) = mimo_app(&mut rng);
    let soft = constrain_sinks(&app, 0.8)?;
    let cfg = SchedulerConfig::greedy();

    let powers: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let points = explore_tx_power_par(
        &app,
        &soft,
        &cfg,
        13,
        0.02,
        &powers,
        25,
        99,
        ExecPolicy::Auto,
    )?;

    println!("fig. 4 — TX power profiling and latency for A_MIMO:");
    println!(
        "{:>6} {:>10} {:>10} {:>14}",
        "Q", "fSS̄", "D(N)", "latency (µs)"
    );
    for p in &points {
        let d = p
            .profile
            .diameter
            .map_or("disc".to_string(), |d| d.to_string());
        let l = p.latency_us.map_or("infeas".to_string(), |l| l.to_string());
        println!(
            "{:>6.1} {:>10.3} {:>10} {:>14}",
            p.profile.tx_power, p.profile.mean_fss, d, l
        );
    }

    // Design query: cheapest power meeting a deadline.
    if let Some(best) = points.iter().rev().find_map(|p| p.latency_us) {
        let deadline = best * 6 / 5; // 20% slack over the best latency
        match min_feasible_power(&points, deadline) {
            Some(q) => println!("\nminimum TX power meeting a {deadline} µs deadline: Q = {q:.1}"),
            None => println!("\nno power setting meets the {deadline} µs deadline"),
        }
    }

    // Energy view of the same trade-off.
    let energy = EnergyModel::cc2420();
    println!("\nper-run communication energy at each feasible power:");
    for p in &points {
        if p.latency_us.is_some() {
            // Rebuild the schedule makespan → bus time is already inside
            // the latency; report the radio-energy proxy per node-run.
            println!(
                "  Q = {:.1}: radio power {} mW over the bus phase",
                p.profile.tx_power, energy.radio_power_mw
            );
        }
    }
    println!(
        "\nExpected shape (paper fig. 4): fSS̄ grows with Q and saturates,\n\
         the diameter falls in steps, and latency falls with Q (weaker\n\
         radios need more retransmissions) until it plateaus."
    );
    Ok(())
}

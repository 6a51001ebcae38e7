//! Fig. 4 bench: the TX-power exploration workflow — profiling plus
//! scheduling per power setting. Prints the profiled `fSS̄`, diameter and
//! latency series, and benches one full workflow pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use netdag_bench::{fig4_powers, greedy_config, mimo_fixture};
use netdag_dse::explore::{constrain_sinks, explore_tx_power_par};
use netdag_runtime::ExecPolicy;

fn bench_fig4(c: &mut Criterion) {
    let (app, _) = mimo_fixture();
    let soft = constrain_sinks(&app, 0.8).expect("valid probability");
    let cfg = greedy_config();
    // Print the series once.
    let points = explore_tx_power_par(
        &app,
        &soft,
        &cfg,
        13,
        0.02,
        &fig4_powers(),
        25,
        99,
        ExecPolicy::Auto,
    )
    .expect("exploration");
    for p in &points {
        println!(
            "fig4 Q={:.1} fss={:.3} diameter={:?} latency={:?}",
            p.profile.tx_power, p.profile.mean_fss, p.profile.diameter, p.latency_us
        );
    }
    let mut group = c.benchmark_group("fig4_dse");
    group.sample_size(10);
    for q in [0.2f64, 0.6, 1.0] {
        group.bench_with_input(BenchmarkId::new("explore_one_power", q), &q, |b, &q| {
            b.iter(|| {
                explore_tx_power_par(&app, &soft, &cfg, 13, 0.02, &[q], 10, 123, ExecPolicy::Auto)
                    .expect("exploration")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);

//! § IV-A bench: the cost of simulation-based schedule validation —
//! Bernoulli soft runs (eq. (11)), adversarial weakly hard runs
//! (eq. (12)), and the full on-bus replay.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use netdag_bench::exact_config;
use netdag_core::prelude::*;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_glossy::link::Bernoulli;
use netdag_glossy::{NodeId, Topology};
use netdag_runtime::ExecPolicy;
use netdag_validation::full_stack::validate_on_bus;
use netdag_validation::soft::validate_soft_par;
use netdag_validation::weakly_hard::validate_weakly_hard_par;
use netdag_weakly_hard::Constraint;

fn pipeline() -> (Application, TaskId) {
    let mut b = Application::builder();
    let s = b.task("sense", NodeId(0), 500);
    let c = b.task("control", NodeId(1), 1_500);
    let a = b.task("actuate", NodeId(2), 300);
    b.edge(s, c, 8).expect("valid");
    b.edge(c, a, 4).expect("valid");
    (b.build().expect("valid app"), a)
}

fn bench_validation(c: &mut Criterion) {
    let (app, actuate) = pipeline();
    let cfg = exact_config();

    let soft_stat = Eq15Statistic::new(1.0, 8);
    let mut fs = SoftConstraints::new();
    fs.set(actuate, 0.9).expect("probability");
    let soft = schedule_soft(&app, &soft_stat, &fs, &cfg).expect("feasible");

    let wh_stat = Eq13Statistic::new(8);
    let mut fwh = WeaklyHardConstraints::new();
    fwh.set(actuate, Constraint::any_hit(10, 40).expect("valid"))
        .expect("hit form");
    let wh = schedule_weakly_hard(&app, &wh_stat, &fwh, &cfg).expect("feasible");

    let mut group = c.benchmark_group("validation");
    group.sample_size(10);
    group.bench_function("soft_eq11_kappa10000", |b| {
        b.iter(|| {
            let r = validate_soft_par(
                &app,
                &soft_stat,
                &fs,
                &soft.schedule,
                10_000,
                0.999,
                1,
                ExecPolicy::Auto,
            );
            assert!(r.iter().all(|x| x.passed));
        })
    });
    group.bench_function("weakly_hard_eq12_40trials", |b| {
        b.iter(|| {
            let r = validate_weakly_hard_par(
                &app,
                &wh_stat,
                &fwh,
                &wh.schedule,
                400,
                40,
                2,
                ExecPolicy::Auto,
            )
            .expect("synthesis");
            assert!(r.iter().all(|x| x.passed));
        })
    });
    group.bench_function("full_stack_500_runs", |b| {
        let topo = Topology::line(3).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| {
            let mut link = Bernoulli::new(0.95).expect("probability");
            validate_on_bus(
                &app,
                &wh.schedule,
                &topo,
                NodeId(0),
                &mut link,
                &SoftConstraints::new(),
                &fwh,
                500,
                &mut rng,
            )
            .expect("replay")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);

//! Tentpole bench: serial vs parallel Monte-Carlo profiling. Besides
//! the criterion timings it writes a
//! `BENCH_parallel.json` summary (wall time, threads, speedup) to the
//! workspace root, plus a `BENCH_parallel_metrics.json` sidecar holding
//! the `netdag-obs/1` counter/span report for the whole run (floods
//! simulated, profiling spans), and a
//! `BENCH_trace.json` measuring `netdag-trace` overhead per event with
//! the collector disabled, enabled, and exporting — the disabled path
//! is asserted under 5 ns/event. Speedup is reported
//! against whatever `available_parallelism` offers — on a single-core
//! runner it is honestly ~1.0; the point of the determinism contract is
//! that the numbers, unlike the wall time, never change with the thread
//! count.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use netdag_glossy::link::Bernoulli;
use netdag_glossy::stats::SoftProfile;
use netdag_glossy::{NodeId, Topology};
use netdag_runtime::ExecPolicy;

const RUNS: u32 = 4_000;
const SEED: u64 = 2020;

fn setup() -> (Topology, Bernoulli) {
    (
        Topology::grid(3, 3).expect("valid"),
        Bernoulli::new(0.8).expect("probability"),
    )
}

/// Median-of-3 wall time of one profiling sweep under `policy`.
fn time_sweep(topo: &Topology, link: &Bernoulli, policy: ExecPolicy) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let p = SoftProfile::measure_par(topo, link, NodeId(0), 1..=6, RUNS, SEED, policy)
                .expect("valid inputs");
            assert!(p.lambda(6) >= p.lambda(1));
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[1]
}

fn write_summary(serial_s: f64, parallel_s: f64) {
    let threads = ExecPolicy::Auto.thread_count();
    let json = format!(
        "{{\n  \"bench\": \"parallel_profiling\",\n  \"runs_per_n_tx\": {RUNS},\n  \
         \"threads\": {threads},\n  \"serial_s\": {serial_s:.6},\n  \
         \"parallel_s\": {parallel_s:.6},\n  \"speedup\": {:.3}\n}}\n",
        serial_s / parallel_s,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    print!("{json}");
}

/// Writes the `netdag-obs/1` report accumulated since `baseline` next to
/// `BENCH_parallel.json`, so a run leaves behind both the timings and the
/// instrumentation that explains them (flood counts, profiling spans).
fn write_metrics_sidecar(baseline: &netdag_obs::MetricsReport) {
    let mut delta = netdag_obs::global().snapshot().delta(baseline);
    delta
        .meta
        .insert("bench".to_owned(), "parallel_profiling".to_owned());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_metrics.json"
    );
    if let Err(e) = std::fs::write(path, delta.to_json()) {
        eprintln!("could not write {path}: {e}");
    }
    eprint!("{}", delta.summary_table());
}

/// Median-of-3 of `f`, which returns nanoseconds per event.
fn median3(mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..3).map(|_| f()).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[1]
}

/// Events per tracing-overhead measurement loop.
const TRACE_EVENTS: usize = 200_000;

/// Measures the cost per event of the `netdag-trace` collector in its
/// three states — disabled (the solver hot-path case: one relaxed
/// atomic load), enabled (ring-buffer push), and exporting (drain +
/// Chrome JSON) — and writes `BENCH_trace.json` next to
/// `BENCH_parallel.json`. The disabled path is the acceptance-critical
/// number: it must stay under 5 ns per would-be event.
fn write_trace_overhead() {
    netdag_trace::reset();
    netdag_trace::set_capacity(TRACE_EVENTS + 1024);
    netdag_trace::set_clock(netdag_trace::ClockMode::Logical);

    netdag_trace::set_enabled(false);
    let disabled_ns = median3(|| {
        let start = Instant::now();
        for i in 0..TRACE_EVENTS {
            netdag_trace::instant(
                "bench.tick",
                &[("i", std::hint::black_box(i as u64).into())],
            );
        }
        start.elapsed().as_nanos() as f64 / TRACE_EVENTS as f64
    });

    netdag_trace::set_enabled(true);
    let enabled_ns = median3(|| {
        netdag_trace::reset();
        netdag_trace::set_enabled(true);
        let start = Instant::now();
        for i in 0..TRACE_EVENTS {
            netdag_trace::instant(
                "bench.tick",
                &[("i", std::hint::black_box(i as u64).into())],
            );
        }
        start.elapsed().as_nanos() as f64 / TRACE_EVENTS as f64
    });
    netdag_trace::set_enabled(false);

    let start = Instant::now();
    let trace = netdag_trace::drain();
    let json = netdag_trace::to_chrome_json(&trace);
    let export_s = start.elapsed().as_secs_f64();
    assert!(
        json.len() > TRACE_EVENTS,
        "export produced {} bytes",
        json.len()
    );
    assert!(
        disabled_ns < 5.0,
        "disabled tracing must cost < 5 ns/event, measured {disabled_ns:.2}"
    );

    let out = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"events\": {TRACE_EVENTS},\n  \
         \"disabled_ns_per_event\": {disabled_ns:.3},\n  \
         \"enabled_ns_per_event\": {enabled_ns:.3},\n  \
         \"export_s\": {export_s:.6},\n  \"dropped\": {}\n}}\n",
        trace.dropped,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("could not write {path}: {e}");
    }
    print!("{out}");
    netdag_trace::reset();
    netdag_trace::set_capacity(netdag_trace::DEFAULT_CAPACITY);
}

fn bench_parallel_profiling(c: &mut Criterion) {
    let (topo, link) = setup();
    let recorder = netdag_obs::global();
    recorder.preregister(
        netdag_obs::keys::ALL_COUNTERS,
        netdag_obs::keys::ALL_SPANS,
        netdag_obs::keys::ALL_HISTOGRAMS,
        netdag_obs::keys::ALL_GAUGES,
    );
    let obs_baseline = recorder.snapshot();

    // Headline numbers for the JSON summary, measured outside criterion
    // so the serial/parallel pair shares identical conditions.
    let serial_s = time_sweep(&topo, &link, ExecPolicy::Serial);
    let parallel_s = time_sweep(&topo, &link, ExecPolicy::Auto);
    write_summary(serial_s, parallel_s);

    let mut group = c.benchmark_group("parallel_profiling");
    group.sample_size(10);
    group.bench_function("soft_measure_serial", |b| {
        b.iter(|| {
            SoftProfile::measure_par(
                &topo,
                &link,
                NodeId(0),
                1..=6,
                RUNS,
                SEED,
                ExecPolicy::Serial,
            )
            .expect("valid inputs")
        })
    });
    group.bench_function("soft_measure_parallel_auto", |b| {
        b.iter(|| {
            SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=6, RUNS, SEED, ExecPolicy::Auto)
                .expect("valid inputs")
        })
    });
    // Tracing overhead (disabled / enabled / exporting) →
    // BENCH_trace.json, with the < 5 ns/event disabled-path assertion.
    write_trace_overhead();
    group.bench_function("trace_disabled_instant", |b| {
        netdag_trace::set_enabled(false);
        b.iter(|| {
            netdag_trace::instant("bench.tick", &[("i", std::hint::black_box(7u64).into())]);
        })
    });
    group.finish();
    write_metrics_sidecar(&obs_baseline);
}

criterion_group!(benches, bench_parallel_profiling);
criterion_main!(benches);

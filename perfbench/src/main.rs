//! `netdag-perfbench` — the NETDAG benchmark.
//!
//! Drives one workload through a live in-process `netdag-serve` daemon
//! over loopback TCP and checks every answer:
//!
//! * `cached-hot` — `nproc` connections cycle a pool of solved corpus
//!   problems, so every timed request is an exact cache hit;
//! * `cold-solve` — one connection streams distinct corpus `solve`
//!   problems, every one a cache miss;
//! * `soak` — `netdag_scenario::run_soak` over a corpus index range.
//!
//! ```text
//! netdag-perfbench --workload <cached-hot|cold-solve|soak> [--seed N]
//!     [--seconds S] [--trace 0|1] [--start-index I]
//! ```
//!
//! `--seed` is the corpus seed (default 2020). With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it runs the workload
//! untraced, again with the access log on, replays the traced request
//! lines in-process layer by layer, writes the per-layer table to
//! `perfbench/out/` and reports the per-layer metrics. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod daemon;
mod layers;
mod legs;
mod stats;
mod workloads;

use std::process::ExitCode;

use crate::layers::Metric;
use crate::stats::OpSummary;
use crate::workloads::{run, RunOpts, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    start_index: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CachedHot,
        seed: 2020,
        seconds: 20.0,
        trace: false,
        start_index: 0,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--start-index" => args.start_index = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netdag-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netdag-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = w.serve_config(nproc, None);
    println!(
        "# workload={} seed={} start_index={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.start_index,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: nproc={nproc} cpu={:?}", cpu_model());
    println!(
        "# daemon: shards={} workers_per_shard={} cache_capacity={} queue={} connections={}",
        cfg.shards,
        cfg.workers,
        cfg.cache_capacity,
        cfg.queue_capacity,
        w.connections(nproc)
    );
    let opts = RunOpts {
        seed: args.seed,
        start_index: args.start_index,
        seconds: args.seconds,
        nproc,
        // Set-up time is the median of several set-ups; the pool fill
        // makes cached-hot's dear, the others' cost about a millisecond.
        setups: match (args.trace, w) {
            (true, _) => 1,
            (false, Workload::CachedHot) => 3,
            (false, _) => 9,
        },
        access_log: None,
        capture: false,
    };
    let mut timed = run(w, &opts)?;
    let s = summarize("timed", w, &mut timed);
    let (attempted, failed, metrics) = if args.trace {
        let traced = layers::traced(w, &opts, s.p50_us)?;
        (
            timed.attempted + traced.attempted,
            timed.failed + traced.failed,
            traced.metrics,
        )
    } else {
        let metrics = vec![
            Metric::new("setup_s", timed.setups_s.median(), "s"),
            Metric::new("ops_per_s", s.ops_per_s, "1/s"),
            Metric::new("latency_p50_us", s.p50_us, "us"),
            Metric::new("latency_tail_us", s.tail_us, "us"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        (timed.attempted, timed.failed, metrics)
    };
    println!("# failed_share={}", failed as f64 / attempted.max(1) as f64);
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed
    );
    Ok(())
}

/// Prints a run's counts, digest and failures as header lines and
/// returns its summary.
pub fn summarize(label: &str, w: Workload, r: &mut workloads::Run) -> OpSummary {
    let s = r.summary(w);
    let p = w.tail_percentile();
    println!(
        "# {label}: ops={} failed={} elapsed_s={:.3} setups={} digest=fnv1a:{} over {} ops",
        r.attempted,
        r.failed,
        r.elapsed_s,
        r.setups_s.len(),
        r.digest.hex(),
        r.digest_ops
    );
    println!(
        "# {label}: ops_per_s={:.3} and p{p}={:.1} us are medians over {} slices of the run \
         (each slice leaves at least {} samples beyond p{p}); p50={:.1} us over {} samples",
        s.ops_per_s,
        s.tail_us,
        w.slices(),
        s.beyond,
        s.p50_us,
        r.ops.len()
    );
    let rates: Vec<String> = s.slice_rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("# {label}: ops_per_s by slice: {}", rates.join(" "));
    for f in &r.failures {
        println!("# {label} failure: {f}");
    }
    s
}

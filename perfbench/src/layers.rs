//! The traced run and its per-layer attribution.
//!
//! Each workload runs a second time with the daemon's access log on.
//! Its request lines are then replayed in-process through the public
//! functions each layer exposes, timing every call from outside; the
//! access log gives the daemon's queue wait and service time. A table
//! splits the operation time across the layers and names the
//! unattributed remainder.

use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::time::Instant;

use netdag_core::config::{Backend, RoundStructure, ScheduleError, SchedulerConfig};
use netdag_core::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
use netdag_core::control::SolveControl;
use netdag_core::soft::{presolve_soft, schedule_soft_controlled};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::{presolve_weakly_hard, schedule_weakly_hard_controlled};
use netdag_runtime::ExecPolicy;
use netdag_scenario::{generate, ScenarioParams};
use netdag_serve::protocol::{ConfigSpec, Request, Response, StatSpec};
use netdag_serve::{fingerprint, Lookup, SolutionCache};
use netdag_solver::SearchStats;
use netdag_validation::soft::validate_soft_par;
use netdag_validation::weakly_hard::validate_weakly_hard_par;

use crate::daemon::{field, micros, secs};
use crate::legs;
use crate::stats::Samples;
use crate::workloads::{
    admission_index, request_id, run, Exchange, RunOpts, Workload, CACHE_CAPACITY,
};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Per-layer samples, keyed by metric base name (`serve.parse_us`, …).
/// `per_op` sums only what the measured operations paid; work done to
/// set a workload up is sampled but not attributed.
#[derive(Default)]
pub struct Recorder {
    pub samples: BTreeMap<&'static str, Samples>,
    pub per_op: BTreeMap<&'static str, f64>,
    pub setup: bool,
}

impl Recorder {
    pub fn add(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
        if !self.setup {
            *self.per_op.entry(key).or_default() += v;
        }
    }

    fn get(&self, key: &str) -> Samples {
        self.samples.get(key).cloned().unwrap_or_default()
    }

    fn count(&self, key: &str) -> usize {
        self.samples.get(key).map_or(0, Samples::len)
    }
}

/// What the traced run reports.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The daemon's mapping from a request's `config` to a
/// [`SchedulerConfig`], with the CLI's defaults.
fn scheduler_config(spec: Option<&ConfigSpec>) -> SchedulerConfig {
    let greedy = spec.and_then(|c| c.greedy).unwrap_or(false);
    SchedulerConfig {
        beacon_chi: spec.and_then(|c| c.beacon_chi).unwrap_or(2),
        chi_max: spec.and_then(|c| c.chi_max).unwrap_or(8),
        backend: if greedy {
            Backend::Greedy
        } else {
            Backend::Exact {
                node_limit: Some(spec.and_then(|c| c.node_limit).unwrap_or(200_000)),
            }
        },
        round_structure: if spec.and_then(|c| c.per_message_rounds).unwrap_or(false) {
            RoundStructure::PerMessage
        } else {
            RoundStructure::PerLevel
        },
        include_beacons: spec.and_then(|c| c.include_beacons).unwrap_or(false),
        portfolio: spec.and_then(|c| c.portfolio).unwrap_or(0),
        solver_threads: spec.and_then(|c| c.threads).unwrap_or(0) as usize,
        lower_bound: !spec.and_then(|c| c.no_lb).unwrap_or(false),
        ..SchedulerConfig::default()
    }
}

fn bad(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

enum Contract {
    Soft(SoftConstraints, f64),
    WeaklyHard(WeaklyHardConstraints),
}

/// Replays request lines in-process, layer by layer, against local
/// caches that mirror one daemon shard.
pub struct Replay<'r> {
    pub rec: &'r mut Recorder,
    cache: SolutionCache,
    seed: u64,
    /// The traced pass already timed the client's own encode and
    /// decode (soak), so the replay does not sample them again.
    client_timed: bool,
    /// Replies whose decoded form re-serializes to different bytes.
    pub mismatches: u64,
    pub presolves: u64,
    pub presolve_rejects: u64,
    nodes: u64,
    backtracks: u64,
    lb_prunes: u64,
    search_ms: f64,
    searches: u64,
}

impl<'r> Replay<'r> {
    pub fn new(rec: &'r mut Recorder, seed: u64, client_timed: bool) -> Replay<'r> {
        Replay {
            rec,
            cache: SolutionCache::new(CACHE_CAPACITY),
            seed,
            client_timed,
            mismatches: 0,
            presolves: 0,
            presolve_rejects: 0,
            nodes: 0,
            backtracks: 0,
            lb_prunes: 0,
            search_ms: 0.0,
            searches: 0,
        }
    }

    /// Replays one request line and, when given, its reply line.
    pub fn exchange(&mut self, line: &str, reply: Option<&str>) -> io::Result<()> {
        let t = Instant::now();
        let req: Request = serde_json::from_str(line).map_err(bad)?;
        self.rec.add("serve.parse_us", micros(t));
        let t = Instant::now();
        let encoded = serde_json::to_string(&req).map_err(bad)?;
        if !self.client_timed {
            self.rec.add("loadgen.encode_us", micros(t));
        }
        if encoded != line {
            self.mismatches += 1;
        }
        match req.op.as_str() {
            "solve" => self.solve(&req)?,
            "validate" => self.validate(&req)?,
            _ => {}
        }
        if let Some(reply) = reply {
            let reply = reply.trim_end();
            let t = Instant::now();
            let resp: Response = serde_json::from_str(reply).map_err(bad)?;
            if !self.client_timed {
                self.rec.add("loadgen.decode_us", micros(t));
            }
            let t = Instant::now();
            let text = serde_json::to_string(&resp).map_err(bad)?;
            self.rec.add("serve.serialize_us", micros(t));
            self.rec.add("serve.response_bytes", reply.len() as f64);
            if text != reply {
                self.mismatches += 1;
            }
        }
        Ok(())
    }

    /// Times regenerating the corpus scenario a request was built from.
    pub fn regenerate(&mut self, index: u64) {
        let t = Instant::now();
        let sc = generate(self.seed, index, &ScenarioParams::default());
        self.rec.add("scenario.generate_us", micros(t));
        std::hint::black_box(sc);
    }

    fn search(&mut self, stats: &SearchStats, search_us: f64) {
        self.nodes += stats.nodes;
        self.backtracks += stats.backtracks;
        self.lb_prunes += stats.lb_prunes;
        self.search_ms += search_us.max(0.0) / 1e3;
        self.searches += 1;
    }

    fn solve(&mut self, req: &Request) -> io::Result<()> {
        let app_spec = req.app.as_ref().ok_or_else(|| bad("solve without app"))?;
        let t = Instant::now();
        let (app, names) = app_spec.build().map_err(bad)?;
        let contract = match (&req.soft, &req.weakly_hard) {
            (Some(s), _) => {
                let fss = req.stat.as_ref().and_then(|s| s.fss).unwrap_or(0.0);
                Contract::Soft(s.build(&names).map_err(bad)?, fss)
            }
            (None, Some(w)) => Contract::WeaklyHard(w.build(&names).map_err(bad)?),
            (None, None) => Contract::WeaklyHard(WeaklyHardConstraints::new()),
        };
        self.rec.add("core.spec_build_us", micros(t));
        let cfg = scheduler_config(req.config.as_ref());
        let none = Deadlines::new();

        let t = Instant::now();
        let pre = match &contract {
            Contract::Soft(f, fss) => {
                presolve_soft(&app, &Eq15Statistic::new(*fss, cfg.chi_max), f, &none, &cfg)
            }
            Contract::WeaklyHard(f) => {
                presolve_weakly_hard(&app, &Eq13Statistic::new(cfg.chi_max), f, &none, &cfg)
            }
        };
        let presolve_us = micros(t);
        self.rec.add("core.presolve_us", presolve_us);
        self.presolves += 1;
        if let Err(ScheduleError::InfeasibleTiming(_)) = pre {
            self.presolve_rejects += 1;
            return Ok(());
        }

        let stat = req.stat.clone().unwrap_or(StatSpec {
            kind: "eq13".into(),
            fss: None,
        });
        let t = Instant::now();
        let fp = fingerprint(
            app_spec,
            req.soft.as_ref(),
            req.weakly_hard.as_ref(),
            &stat,
            &cfg,
        );
        self.rec.add("serve.fingerprint_us", micros(t));
        let t = Instant::now();
        let lookup = self.cache.lookup(&fp);
        self.rec.add("serve.cache_lookup_us", micros(t));
        let warm = match lookup {
            Lookup::Exact(_) => return Ok(()),
            Lookup::Warm(makespan) => Some(makespan as i64 + 1),
            Lookup::Miss => None,
        };

        let mut keep_going = |_: &SearchStats| true;
        let mut control = SolveControl::warm(warm, &mut keep_going);
        let t = Instant::now();
        let solved = match &contract {
            Contract::Soft(f, fss) => schedule_soft_controlled(
                &app,
                &Eq15Statistic::new(*fss, cfg.chi_max),
                f,
                &none,
                &cfg,
                &mut control,
            ),
            Contract::WeaklyHard(f) => schedule_weakly_hard_controlled(
                &app,
                &Eq13Statistic::new(cfg.chi_max),
                f,
                &none,
                &cfg,
                &mut control,
            ),
        };
        let solve_us = micros(t);
        self.rec.add("core.solve_us", solve_us);
        if let Ok(c) = solved {
            if let Some(stats) = &c.outcome.stats {
                self.search(stats, solve_us - presolve_us);
            }
            if c.complete {
                let makespan = c.outcome.schedule.makespan(&app);
                let export = netdag_core::spec::ScheduleExport {
                    bus_us: c.outcome.schedule.total_communication_us(),
                    schedule: c.outcome.schedule,
                    makespan_us: makespan,
                    optimal: c.outcome.optimal,
                };
                self.cache.insert(fp, export, makespan);
            }
        }
        Ok(())
    }

    /// The daemon's `validate` op, single-threaded.
    fn validate(&mut self, req: &Request) -> io::Result<()> {
        let (Some(app_spec), Some(export)) = (req.app.as_ref(), req.schedule.as_ref()) else {
            return Err(bad("validate without app or schedule"));
        };
        let (app, names) = app_spec.build().map_err(bad)?;
        let kappa = req.kappa.unwrap_or(10_000) as usize;
        let seed = req.seed.unwrap_or(2020);
        let policy = ExecPolicy::from_threads(1);
        if let Some(spec) = req.soft.as_ref() {
            let f = spec.build(&names).map_err(bad)?;
            let fss = req.stat.as_ref().and_then(|s| s.fss).unwrap_or(0.0);
            let t = Instant::now();
            let r = validate_soft_par(
                &app,
                &Eq15Statistic::new(fss, 16),
                &f,
                &export.schedule,
                kappa,
                0.999,
                seed,
                policy,
            );
            self.rec.add("validation.validate_us", micros(t));
            std::hint::black_box(r);
        }
        if let Some(spec) = req.weakly_hard.as_ref() {
            let f = spec.build(&names).map_err(bad)?;
            let trials = req.trials.unwrap_or(50) as usize;
            let t = Instant::now();
            let r = validate_weakly_hard_par(
                &app,
                &Eq13Statistic::new(16),
                &f,
                &export.schedule,
                kappa.min(2_000),
                trials,
                seed,
                policy,
            );
            self.rec.add("validation.validate_us", micros(t));
            std::hint::black_box(r.map_err(bad)?);
        }
        Ok(())
    }
}

/// Reads the daemon's access log: queue wait and service time of each
/// `solve` it handled.
fn read_access_log(path: &Path, rec: &mut Recorder) -> io::Result<()> {
    let file = std::fs::File::open(path)?;
    for line in io::BufReader::new(file).lines() {
        let Ok(v) = serde_json::parse(&line?) else {
            continue;
        };
        let op = match field(&v, "op") {
            Some(serde::Value::String(s)) => s.clone(),
            _ => continue,
        };
        if op != "solve" {
            continue;
        }
        for (key, name) in [
            ("queue_us", "serve.queue_wait_us"),
            ("service_us", "serve.service_us"),
        ] {
            if let Some(us) = field(&v, key).and_then(serde::Value::as_u64) {
                rec.add(name, us as f64);
            }
        }
    }
    Ok(())
}

/// The scenario index behind a request line's id, for replaying the
/// generator: `cold-solve` ids are indices, soak admission ids are
/// `index × 8`.
fn scenario_index(w: Workload, ex: &Exchange) -> Option<u64> {
    match w {
        Workload::ColdSolve => request_id(&ex.line),
        Workload::Soak => admission_index(&ex.line),
        Workload::CachedHot => None,
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Runs the traced pass of `w` and returns its per-layer metrics.
pub fn traced(w: Workload, o: &RunOpts, timed_p50: f64) -> io::Result<Traced> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let log = dir.join(format!("access-{}-{}.ndjson", w.name(), std::process::id()));
    let mut rec = Recorder::default();
    let opts = RunOpts {
        seed: o.seed,
        start_index: o.start_index,
        seconds: o.seconds,
        nproc: o.nproc,
        setups: 1,
        access_log: Some(log.clone()),
        capture: true,
    };
    let mut t = match w {
        Workload::Soak => legs::run(&opts, &mut rec)?,
        _ => run(w, &opts)?,
    };
    let logged = read_access_log(&log, &mut rec);
    let _ = std::fs::remove_file(&log);
    logged?;
    let summary = crate::summarize("traced", w, &mut t);

    // Replay the traced request lines in-process, for at most the run
    // length. On cached-hot the pool is solved first, as in set-up.
    let mut replay = Replay::new(&mut rec, o.seed, w == Workload::Soak);
    if w == Workload::CachedHot {
        replay.rec.setup = true;
        let mut seen = Vec::new();
        for ex in &t.exchanges {
            if !seen.contains(&ex.line) {
                seen.push(ex.line.clone());
                replay.exchange(&ex.line, None)?;
            }
        }
        replay.rec.setup = false;
    }
    let started = Instant::now();
    let mut replayed = 0u64;
    let mut replayed_ops = 0u64;
    let mut rtt = Samples::default();
    for ex in &t.exchanges {
        if secs(started) >= o.seconds {
            break;
        }
        let index = scenario_index(w, ex);
        // The soak pass timed its own generator calls.
        if let (Some(i), Workload::ColdSolve) = (index, w) {
            replay.regenerate(i);
        }
        replay.exchange(&ex.line, Some(&ex.reply))?;
        replayed += 1;
        // Soak exchanges are admissions and validations; a scenario is
        // one operation, counted at its admission.
        if w != Workload::Soak || index.is_some() {
            replayed_ops += 1;
        }
        if ex.line.starts_with(r#"{"op":"solve""#) {
            rtt.push(ex.rtt_us);
        }
    }
    if replay.mismatches > 0 {
        t.fail(format!(
            "{} replayed lines re-serialized to different bytes",
            replay.mismatches
        ));
    }
    println!("# replayed {replayed} request lines in-process ({replayed_ops} operations)");

    let traced_p50 = summary.p50_us;
    let table = Table::build(w, &replay, &t, summary.mean_us, replayed_ops, &rtt);
    let path = dir.join(format!("layers-{}.txt", w.name()));
    std::fs::write(&path, table.render(w, timed_p50, traced_p50))?;
    eprint!("{}", table.render(w, timed_p50, traced_p50));
    println!("# per-layer table: {}", path.display());

    let mut metrics = Vec::new();
    for key in TIMED_KEYS {
        let s = replay.rec.get(key);
        let base = key.trim_end_matches("_us");
        metrics.push(Metric::new(key, s.median(), "us"));
        metrics.push(Metric::new(&format!("{base}_tail_us"), s.tail().1, "us"));
    }
    let r = &replay;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    metrics.extend([
        Metric::new("serve.transport_us", table.transport_us, "us"),
        Metric::new(
            "serve.response_bytes",
            r.rec.get("serve.response_bytes").median(),
            "bytes",
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            ratio(t.cache_hits as f64, t.cache_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "serve.warm_start_ratio",
            ratio(t.cache_warm as f64, t.cache_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "core.presolve_reject_ratio",
            ratio(r.presolve_rejects as f64, r.presolves as f64),
            "ratio",
        ),
        Metric::new(
            "solver.nodes",
            ratio(r.nodes as f64, r.searches as f64),
            "count",
        ),
        Metric::new(
            "solver.backtracks",
            ratio(r.backtracks as f64, r.searches as f64),
            "count",
        ),
        Metric::new(
            "solver.lb_prune_ratio",
            ratio(r.lb_prunes as f64, r.nodes as f64),
            "ratio",
        ),
        Metric::new(
            "solver.nodes_per_ms",
            ratio(r.nodes as f64, r.search_ms),
            "1/ms",
        ),
        Metric::new(
            "lwb.tx_per_run",
            r.rec.get("lwb.tx_per_run").mean(),
            "count",
        ),
        Metric::new("trace.overhead_p50_us", traced_p50 - timed_p50, "us"),
        Metric::new(
            "layers.unattributed_share",
            table.unattributed_share,
            "ratio",
        ),
    ]);
    Ok(Traced {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    })
}

/// Per-layer times reported as a median plus a tail.
pub const TIMED_KEYS: [&str; 21] = [
    "serve.parse_us",
    "serve.fingerprint_us",
    "serve.cache_lookup_us",
    "serve.serialize_us",
    "serve.queue_wait_us",
    "serve.service_us",
    "core.spec_build_us",
    "core.presolve_us",
    "core.solve_us",
    "validation.validate_us",
    "lwb.executor_new_us",
    "lwb.run_once_us",
    "soak.admit_us",
    "soak.check_us",
    "soak.validate_us",
    "soak.replay_us",
    "soak.readmit_us",
    "soak.revisit_us",
    "scenario.generate_us",
    "loadgen.encode_us",
    "loadgen.decode_us",
];

/// One row of the per-layer table.
struct Row {
    key: &'static str,
    depth: usize,
    samples: usize,
    per_op_us: f64,
}

/// The per-layer table of one workload.
struct Table {
    op_label: &'static str,
    op_us: f64,
    rows: Vec<Row>,
    unattributed_share: f64,
    transport_us: f64,
}

impl Table {
    fn build(
        w: Workload,
        r: &Replay<'_>,
        t: &crate::workloads::Run,
        traced_mean_us: f64,
        replayed_ops: u64,
        rtt: &Samples,
    ) -> Table {
        let rec = &*r.rec;
        let ops_tcp = t.attempted.max(1) as f64;
        let ops_replay = replayed_ops.max(1) as f64;
        // (key, depth, per-op divisor): depth 0 rows are disjoint parts
        // of the operation; deeper rows break down the row above them.
        let layout: Vec<(&'static str, usize, f64)> = match w {
            Workload::Soak => vec![
                ("scenario.generate_us", 0, ops_tcp),
                ("soak.admit_us", 0, ops_tcp),
                ("loadgen.encode_us", 1, ops_tcp),
                ("serve.queue_wait_us", 1, ops_tcp),
                ("serve.service_us", 1, ops_tcp),
                ("core.solve_us", 2, ops_replay),
                ("core.presolve_us", 1, ops_replay),
                ("loadgen.decode_us", 1, ops_tcp),
                ("soak.check_us", 0, ops_tcp),
                ("soak.validate_us", 0, ops_tcp),
                ("validation.validate_us", 1, ops_replay),
                ("soak.replay_us", 0, ops_tcp),
                ("lwb.executor_new_us", 1, ops_tcp),
                ("lwb.run_once_us", 1, ops_tcp),
                ("soak.readmit_us", 0, ops_tcp),
                ("soak.revisit_us", 0, ops_tcp),
            ],
            _ => vec![
                ("serve.parse_us", 0, ops_replay),
                ("core.spec_build_us", 0, ops_replay),
                ("core.presolve_us", 0, ops_replay),
                ("serve.fingerprint_us", 0, ops_replay),
                ("serve.queue_wait_us", 0, ops_tcp),
                ("serve.service_us", 0, ops_tcp),
                ("serve.cache_lookup_us", 1, ops_replay),
                ("core.solve_us", 1, ops_replay),
                ("serve.serialize_us", 0, ops_replay),
            ],
        };
        let op_us = match w {
            Workload::Soak => traced_mean_us,
            _ => rtt.mean(),
        };
        let rows: Vec<Row> = layout
            .into_iter()
            .map(|(key, depth, ops)| Row {
                key,
                depth,
                samples: rec.count(key),
                per_op_us: rec.per_op.get(key).copied().unwrap_or(0.0) / ops,
            })
            .collect();
        let attributed: f64 = rows
            .iter()
            .filter(|r| r.depth == 0)
            .map(|r| r.per_op_us)
            .sum();
        let transport_us = rtt.median()
            - rec.get("serve.queue_wait_us").median()
            - rec.get("serve.service_us").median();
        Table {
            op_label: if w == Workload::Soak {
                "scenario"
            } else {
                "request round trip"
            },
            op_us,
            rows,
            unattributed_share: if op_us > 0.0 {
                (op_us - attributed) / op_us
            } else {
                0.0
            },
            transport_us,
        }
    }

    fn render(&self, w: Workload, timed_p50: f64, traced_p50: f64) -> String {
        let mut out = format!(
            "per-layer attribution: workload {} — mean {} {:.1} µs\n\
             {:<30} {:>9} {:>14} {:>9}\n",
            w.name(),
            self.op_label,
            self.op_us,
            "layer",
            "samples",
            "µs per op",
            "share"
        );
        let share = |us: f64| {
            if self.op_us > 0.0 {
                100.0 * us / self.op_us
            } else {
                0.0
            }
        };
        for r in &self.rows {
            out.push_str(&format!(
                "{:<30} {:>9} {:>14.2} {:>8.2}%\n",
                format!("{}{}", "  ".repeat(r.depth), r.key),
                r.samples,
                r.per_op_us,
                share(r.per_op_us)
            ));
        }
        let un = self.unattributed_share * self.op_us;
        out.push_str(&format!(
            "{:<30} {:>9} {:>14.2} {:>8.2}%\n",
            "unattributed",
            "",
            un,
            share(un)
        ));
        out.push_str(&format!(
            "transport (median rtt − queue − service): {:.1} µs\n\
             tracing overhead: timed p50 {:.1} µs, traced p50 {:.1} µs, difference {:.1} µs\n",
            self.transport_us,
            timed_p50,
            traced_p50,
            traced_p50 - timed_p50
        ));
        out
    }
}

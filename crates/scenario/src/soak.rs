//! The soak driver: streams a generated corpus through a live
//! `netdag serve` daemon and checks end-to-end invariants.
//!
//! Per scenario the driver exercises the full production path:
//!
//! 1. **Admission + solve** — a `solve` request (the scenario's
//!    contract, the shared soak config). `ok` and `infeasible` are both
//!    legitimate corpus outcomes; `rejected`, `error` and `incomplete`
//!    are invariant violations (the driver is a single sequential
//!    connection, so the daemon has no load excuse).
//! 2. **Structural checks** — the returned schedule's makespan and bus
//!    time must re-derive from the schedule itself, and the schedule
//!    must be executable on the scenario's topology
//!    ([`LwbExecutor::new`] accepts it, which also requires every
//!    message to be placed in exactly one round).
//! 3. **Promise check** — the daemon's own `validate` op replays the
//!    schedule under the contract's statistic with a seed derived from
//!    `(master_seed, index)`; the report must pass.
//! 4. **Bus replay + fault injection** — the schedule runs over the
//!    [`netdag_lwb`] bus under the scenario's loss process, switching
//!    mobility phases and applying churn / link-failure events on
//!    schedule. Transmission counts must stay within the physical
//!    bound `nodes × (Σ beacon χ + Σ message χ)` per run.
//! 5. **Online re-admission** — a link failure triggers a solve of the
//!    scenario's *degraded* contract; an accepted re-admission swaps
//!    the schedule for the remaining runs.
//! 6. **Cache revisit** — after every group of scenarios, one
//!    `batch_solve` resubmits the group verbatim; previously solved
//!    members must come back `cached` and byte-identical.
//!
//! Every violation carries the scenario's `(master_seed, index)` and a
//! ready-to-run `netdag soak --seed … --index …` replay recipe —
//! generation is pure, so the failure reproduces bit-identically.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};

use netdag_core::spec::ScheduleExport;
use netdag_glossy::NodeId;
use netdag_lwb::LwbExecutor;
use netdag_obs::SloGate;
use netdag_serve::protocol::{
    BatchItem, ConfigSpec, Request, Response, StatSpec, STATUS_INFEASIBLE, STATUS_OK,
};
use netdag_serve::{serve, Client, ServeConfig, ServeReport};

use crate::gen::{generate, ConstraintSet, EventKind, Scenario, ScenarioParams, TopologyFamily};

/// Reason prefix the daemon uses for CPM-presolve infeasibility.
const PRESOLVE_REASON: &str = "timing presolve:";

/// Request-id stride per scenario: `index × 8` is the admission solve,
/// `+1` the validate op, `+2` the re-admission solve. Batch-revisit
/// envelopes live in a disjoint id space above [`REVISIT_ID_BASE`].
const ID_STRIDE: u64 = 8;
/// Base id for batch-revisit envelopes.
const REVISIT_ID_BASE: u64 = 1 << 62;

/// Soak run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Corpus seed.
    pub master_seed: u64,
    /// First scenario index (`--index` replays set this).
    pub start_index: u64,
    /// How many scenarios to stream.
    pub scenarios: u64,
    /// Generator knobs.
    pub params: ScenarioParams,
    /// Replay runs for scenarios without a mobility schedule (mobility
    /// phases bring their own durations).
    pub replay_runs: u32,
    /// Batch-revisit group size (0 disables the batch leg).
    pub batch: usize,
    /// `χ` domain bound for every solve.
    pub chi_max: u32,
    /// Samples per task for the `validate` op.
    pub validate_kappa: u64,
    /// Adversarial trials for weakly-hard validation.
    pub validate_trials: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            master_seed: 2020,
            start_index: 0,
            scenarios: 100,
            params: ScenarioParams::default(),
            replay_runs: 10,
            batch: 8,
            chi_max: 6,
            validate_kappa: 300,
            validate_trials: 8,
        }
    }
}

/// One invariant violation, replayable from its seed.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Corpus seed of the failing scenario.
    pub master_seed: u64,
    /// Index of the failing scenario.
    pub index: u64,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario {}: {} (replay: netdag soak --seed {} --index {})",
            self.index, self.detail, self.master_seed, self.index
        )
    }
}

/// Per-topology-family outcome tallies and solve-node samples.
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// Family name (`line`, `ring`, `star`, `grid`, `mesh`).
    pub family: &'static str,
    /// Scenarios generated in this family.
    pub scenarios: u64,
    /// Admission solves answered `ok`.
    pub solved: u64,
    /// Admission solves answered `infeasible`.
    pub infeasible: u64,
    /// Solver search nodes per admission solve (joined from the
    /// daemon's access log; empty when no log was available).
    pub solve_nodes: Vec<u64>,
}

impl FamilyStats {
    /// `p`-th percentile of the solve-node samples (0 when empty).
    pub fn nodes_percentile(&self, p: usize) -> u64 {
        if self.solve_nodes.is_empty() {
            return 0;
        }
        let mut sorted = self.solve_nodes.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
    }
}

/// Aggregate outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration's corpus seed (stamped into replay recipes).
    pub master_seed: u64,
    /// Scenarios streamed.
    pub scenarios: u64,
    /// Admission solves answered `ok`.
    pub solved: u64,
    /// Admission solves answered `infeasible` (tight contracts are a
    /// legitimate corpus outcome, not a failure).
    pub infeasible: u64,
    /// The subset of `infeasible` rejected by the CPM presolve.
    pub presolve_rejects: u64,
    /// Solved scenarios whose `validate` report passed.
    pub validated: u64,
    /// Bus replay runs executed.
    pub replay_runs: u64,
    /// LWB rounds executed across all replay runs.
    pub rounds_executed: u64,
    /// Packet transmissions across all replay runs.
    pub transmissions: u64,
    /// Link failures that triggered a degraded re-admission solve.
    pub readmissions: u64,
    /// Re-admissions the daemon accepted.
    pub readmitted: u64,
    /// Batch-revisit items sent.
    pub revisits: u64,
    /// Revisited items answered from cache.
    pub revisit_hits: u64,
    /// Per-family tallies, in fixed family order.
    pub families: Vec<FamilyStats>,
    /// Invariant violations (must be empty for a passing run).
    pub violations: Vec<Violation>,
    /// Admission-solve request id → family slot, for the access-log
    /// join.
    id_family: HashMap<u64, usize>,
}

impl SoakReport {
    fn new(master_seed: u64) -> SoakReport {
        let families = [
            TopologyFamily::Line,
            TopologyFamily::Ring,
            TopologyFamily::Star,
            TopologyFamily::Grid,
            TopologyFamily::Mesh,
        ]
        .iter()
        .map(|f| FamilyStats {
            family: f.name(),
            scenarios: 0,
            solved: 0,
            infeasible: 0,
            solve_nodes: Vec::new(),
        })
        .collect();
        SoakReport {
            master_seed,
            scenarios: 0,
            solved: 0,
            infeasible: 0,
            presolve_rejects: 0,
            validated: 0,
            replay_runs: 0,
            rounds_executed: 0,
            transmissions: 0,
            readmissions: 0,
            readmitted: 0,
            revisits: 0,
            revisit_hits: 0,
            families,
            violations: Vec::new(),
            id_family: HashMap::new(),
        }
    }

    /// Cache hit rate over the batch-revisit leg.
    pub fn revisit_hit_rate(&self) -> f64 {
        if self.revisits == 0 {
            return 1.0;
        }
        self.revisit_hits as f64 / self.revisits as f64
    }

    /// Fraction of admission solves the CPM presolve rejected.
    pub fn presolve_reject_rate(&self) -> f64 {
        if self.scenarios == 0 {
            return 0.0;
        }
        self.presolve_rejects as f64 / self.scenarios as f64
    }

    fn violation(&mut self, index: u64, detail: String) {
        self.violations.push(Violation {
            master_seed: self.master_seed,
            index,
            detail,
        });
    }

    /// Joins the daemon's structured access log back into per-family
    /// solve-node samples: each admission solve's `nodes` count is
    /// attributed to its scenario's topology family via the request id.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the log; malformed lines are
    /// skipped (the log is best-effort by design).
    pub fn join_access_log(&mut self, path: &Path) -> io::Result<()> {
        fn field<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
            match value {
                serde::Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        let file = std::fs::File::open(path)?;
        for line in io::BufReader::new(file).lines() {
            let line = line?;
            let Ok(value) = serde_json::parse(&line) else {
                continue;
            };
            let Some(id) = field(&value, "id").and_then(serde::Value::as_u64) else {
                continue;
            };
            let Some(nodes) = field(&value, "nodes").and_then(serde::Value::as_u64) else {
                continue;
            };
            let is_cold = matches!(
                field(&value, "cache"),
                Some(serde::Value::String(s)) if s == "cold"
            );
            if let Some(&slot) = self.id_family.get(&id) {
                if is_cold {
                    self.families[slot].solve_nodes.push(nodes);
                }
            }
        }
        Ok(())
    }

    /// Renders the `BENCH_soak.json` document (`netdag soak --out`).
    /// `slo_json` is the daemon's shutdown SLO verdict, when a gate was
    /// configured.
    pub fn summary_json(&self, fast: bool, wall_s: f64, slo_json: Option<&str>) -> String {
        let details = self
            .violations
            .iter()
            .take(20)
            .map(|v| {
                format!(
                    "    {}",
                    serde_json::to_string(&v.to_string()).expect("string")
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let details = if details.is_empty() {
            String::new()
        } else {
            format!("\n{details}\n  ")
        };
        let families = self
            .families
            .iter()
            .map(|f| {
                format!(
                    "    {{\"family\": \"{}\", \"scenarios\": {}, \"solved\": {}, \
                     \"infeasible\": {}, \"solves_logged\": {}, \"nodes_p50\": {}, \
                     \"nodes_p99\": {}, \"nodes_max\": {}}}",
                    f.family,
                    f.scenarios,
                    f.solved,
                    f.infeasible,
                    f.solve_nodes.len(),
                    f.nodes_percentile(50),
                    f.nodes_percentile(99),
                    f.solve_nodes.iter().max().copied().unwrap_or(0),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"bench\": \"soak\",\n  \"fast\": {fast},\n  \
             \"master_seed\": {},\n  \"scenarios\": {},\n  \
             \"wall_s\": {:.6},\n  \"scenarios_per_sec\": {:.1},\n  \
             \"violations\": {},\n  \"violation_details\": [{details}],\n  \
             \"solved\": {},\n  \"infeasible\": {},\n  \
             \"presolve_rejects\": {},\n  \"presolve_reject_rate\": {:.4},\n  \
             \"validated\": {},\n  \
             \"replay\": {{\n    \"runs\": {},\n    \"rounds\": {},\n    \
             \"transmissions\": {}\n  }},\n  \
             \"readmissions\": {{\n    \"attempted\": {},\n    \
             \"accepted\": {}\n  }},\n  \
             \"cache\": {{\n    \"revisits\": {},\n    \"revisit_hits\": {},\n    \
             \"hit_rate\": {:.4}\n  }},\n  \
             \"families\": [\n{families}\n  ],\n  \"slo\": {}\n}}\n",
            self.master_seed,
            self.scenarios,
            wall_s,
            self.scenarios as f64 / wall_s.max(1e-9),
            self.violations.len(),
            self.solved,
            self.infeasible,
            self.presolve_rejects,
            self.presolve_reject_rate(),
            self.validated,
            self.replay_runs,
            self.rounds_executed,
            self.transmissions,
            self.readmissions,
            self.readmitted,
            self.revisits,
            self.revisit_hits,
            self.revisit_hit_rate(),
            slo_json.unwrap_or("null"),
        )
    }
}

/// The daemon configuration the soak harness drives by default: the
/// requested shard fleet, a cache deep enough that a group's revisit
/// cannot be evicted between solve and resubmit, and the PR 8 SLO gate
/// arming latency, hit-rate-floor and deadline checks at shutdown.
pub fn soak_serve_config(
    shards: usize,
    workers: usize,
    access_log: Option<PathBuf>,
) -> ServeConfig {
    ServeConfig {
        shards,
        workers,
        queue_capacity: 64,
        cache_capacity: 512,
        access_log,
        slo: SloGate {
            // Generous wall-clock ceiling: loopback TCP plus a cold
            // branch-and-bound solve on a shared CI runner.
            max_p99_us: Some(30_000_000),
            // Every solved scenario is revisited once via batch_solve,
            // so a healthy run is at least one-quarter cache-served.
            min_hit_rate: Some(0.25),
            max_deadline_expired: Some(0),
        },
        ..ServeConfig::default()
    }
}

/// Binds a loopback daemon and serves it on a background thread.
///
/// Shutting the daemon down (and harvesting its [`ServeReport`]) is
/// the caller's job: send a `shutdown` op, then join the handle.
///
/// # Errors
///
/// Propagates bind errors.
#[allow(clippy::type_complexity)]
pub fn spawn_daemon(
    cfg: ServeConfig,
) -> io::Result<(SocketAddr, std::thread::JoinHandle<io::Result<ServeReport>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || serve(listener, &cfg));
    Ok((addr, handle))
}

/// Streams `cfg.scenarios` generated scenarios through the daemon at
/// `addr` over one sequential connection.
///
/// # Errors
///
/// Propagates transport failures (connect, send, daemon hangup);
/// *protocol-level* failures are recorded as violations instead.
pub fn run_soak(addr: SocketAddr, cfg: &SoakConfig) -> io::Result<SoakReport> {
    let mut client = Client::connect(addr)?;
    let mut report = SoakReport::new(cfg.master_seed);
    let mut group: Vec<(Scenario, Option<ScheduleExport>)> = Vec::new();
    let mut group_no = 0u64;
    for i in 0..cfg.scenarios {
        let index = cfg.start_index + i;
        let sc = generate(cfg.master_seed, index, &cfg.params);
        let export = run_one(&mut client, &sc, cfg, &mut report)?;
        group.push((sc, export));
        if cfg.batch > 0 && group.len() >= cfg.batch {
            revisit_group(&mut client, &group, group_no, cfg, &mut report)?;
            group_no += 1;
            group.clear();
        }
    }
    if cfg.batch > 0 && !group.is_empty() {
        revisit_group(&mut client, &group, group_no, cfg, &mut report)?;
    }
    Ok(report)
}

/// The shared solver configuration. Must be identical across the
/// admission solve and the batch revisit — the cache fingerprint
/// covers configuration keys, and the revisit invariant relies on an
/// exact hit.
fn solve_config(cfg: &SoakConfig) -> ConfigSpec {
    ConfigSpec {
        chi_max: Some(cfg.chi_max),
        node_limit: Some(400_000),
        ..ConfigSpec::default()
    }
}

/// Builds the admission (or degraded re-admission) solve request.
fn solve_request(sc: &Scenario, id: u64, degraded: bool, cfg: &SoakConfig) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(sc.app.clone());
    attach_constraints(&mut req, sc, degraded);
    req.config = Some(solve_config(cfg));
    req
}

/// Copies the scenario's contract (or its degraded variant) into a
/// request, including the statistic selector for the soft family.
fn attach_constraints(req: &mut Request, sc: &Scenario, degraded: bool) {
    match &sc.constraints {
        ConstraintSet::WeaklyHard { spec, degraded: d } => {
            req.weakly_hard = Some(if degraded { d.clone() } else { spec.clone() });
        }
        ConstraintSet::Soft {
            spec,
            fss,
            degraded: d,
        } => {
            req.soft = Some(if degraded { d.clone() } else { spec.clone() });
            req.stat = Some(StatSpec {
                kind: "eq15".to_owned(),
                fss: Some(*fss),
            });
        }
    }
}

/// One scenario end to end. Returns the admitted schedule (possibly
/// the re-admitted one after a link failure) when the daemon solved it.
fn run_one(
    client: &mut Client,
    sc: &Scenario,
    cfg: &SoakConfig,
    report: &mut SoakReport,
) -> io::Result<Option<ScheduleExport>> {
    report.scenarios += 1;
    let slot = sc.family as usize;
    report.families[slot].scenarios += 1;
    let base = sc
        .index
        .checked_mul(ID_STRIDE)
        .filter(|&b| b < REVISIT_ID_BASE)
        .expect("scenario index within id space");
    report.id_family.insert(base, slot);

    let resp = client.send(&solve_request(sc, base, false, cfg))?;
    match resp.status.as_str() {
        STATUS_OK => {
            report.solved += 1;
            report.families[slot].solved += 1;
        }
        STATUS_INFEASIBLE => {
            report.infeasible += 1;
            report.families[slot].infeasible += 1;
            if resp
                .reason
                .as_deref()
                .is_some_and(|r| r.starts_with(PRESOLVE_REASON))
            {
                report.presolve_rejects += 1;
            }
            return Ok(None);
        }
        other => {
            report.violation(
                sc.index,
                format!(
                    "admission solve answered \"{other}\" ({})",
                    resp.reason.as_deref().unwrap_or("no reason")
                ),
            );
            return Ok(None);
        }
    }
    let Some(export) = resp.result else {
        report.violation(sc.index, "ok solve without a schedule document".into());
        return Ok(None);
    };

    // Structural invariants of the returned schedule.
    let (app, _names) = match sc.app.build() {
        Ok(pair) => pair,
        Err(e) => {
            report.violation(sc.index, format!("generated spec failed to build: {e}"));
            return Ok(None);
        }
    };
    if export.schedule.makespan(&app) != export.makespan_us {
        report.violation(
            sc.index,
            format!(
                "makespan drift: schedule re-derives {} µs, daemon reported {} µs",
                export.schedule.makespan(&app),
                export.makespan_us
            ),
        );
    }
    if export.schedule.total_communication_us() != export.bus_us {
        report.violation(
            sc.index,
            "bus-time drift between schedule and export".into(),
        );
    }
    let topo = match sc.topology() {
        Ok(t) => t,
        Err(e) => {
            report.violation(sc.index, format!("topology failed to build: {e}"));
            return Ok(Some(export));
        }
    };
    if let Err(e) = LwbExecutor::new(&app, &export.schedule, &topo, NodeId(0)) {
        report.violation(
            sc.index,
            format!("admitted schedule not executable on the scenario topology: {e}"),
        );
        return Ok(Some(export));
    }

    // Promise check: the daemon's own validate op, deterministic seed.
    let mut vreq = Request::op("validate");
    vreq.id = Some(base + 1);
    vreq.app = Some(sc.app.clone());
    vreq.schedule = Some(export.clone());
    attach_constraints(&mut vreq, sc, false);
    vreq.kappa = Some(cfg.validate_kappa);
    vreq.trials = Some(cfg.validate_trials);
    vreq.seed = Some(sc.validate_seed());
    vreq.threads = Some(1);
    let vresp = client.send(&vreq)?;
    match (vresp.status.as_str(), vresp.validation) {
        (STATUS_OK, Some(v)) if v.passed => report.validated += 1,
        (STATUS_OK, Some(v)) => report.violation(
            sc.index,
            format!("schedule broke its admitted contract:\n{}", v.report),
        ),
        (status, _) => report.violation(
            sc.index,
            format!(
                "validate answered \"{status}\" ({})",
                vresp.reason.as_deref().unwrap_or("no reason")
            ),
        ),
    }

    // The revisit leg resubmits the *original* contract, so it must be
    // answered with the original admission schedule even when a link
    // failure re-admitted a degraded one mid-replay.
    replay(client, sc, cfg, report, &app, &topo, export.clone())?;
    Ok(Some(export))
}

/// Replays the schedule on the bus under the scenario's loss process,
/// firing mobility phases and fault events, re-admitting after link
/// failures. Returns the schedule that was live at the end.
#[allow(clippy::too_many_arguments)]
fn replay(
    client: &mut Client,
    sc: &Scenario,
    cfg: &SoakConfig,
    report: &mut SoakReport,
    app: &netdag_core::prelude::Application,
    topo: &netdag_glossy::Topology,
    mut export: ScheduleExport,
) -> io::Result<()> {
    // Phase boundaries: with mobility, phases cover the whole replay;
    // otherwise one implicit phase of `replay_runs`.
    let mut phase_starts: Vec<(u32, usize)> = Vec::new();
    let mut total_runs = if sc.mobility.is_empty() {
        cfg.replay_runs
    } else {
        let mut at = 0u32;
        for (p, phase) in sc.mobility.iter().enumerate() {
            phase_starts.push((at, p));
            at += phase.runs;
        }
        at
    };
    // Every event must actually fire: extend the replay past the last.
    if let Some(last) = sc.events.last() {
        total_runs = total_runs.max(last.at_run + 2);
    }

    let mut channel = sc.channel();
    let mut rng = sc.replay_rng();
    let mut max_tx = per_run_tx_bound(app, &export, sc.nodes);
    for run in 0..total_runs {
        if let Some(&(_, p)) = phase_starts.iter().find(|&&(start, _)| start == run) {
            channel.set_phase(&sc.mobility[p].loss);
        }
        for event in sc.events.iter().filter(|e| e.at_run == run) {
            channel.apply(&event.kind);
            if let EventKind::LinkFail { .. } = event.kind {
                // Online re-admission under the degraded contract.
                report.readmissions += 1;
                let resp = client.send(&solve_request(sc, sc.index * ID_STRIDE + 2, true, cfg))?;
                match resp.status.as_str() {
                    STATUS_OK => match resp.result {
                        Some(next) => {
                            if let Err(e) = LwbExecutor::new(app, &next.schedule, topo, NodeId(0)) {
                                report.violation(
                                    sc.index,
                                    format!("re-admitted schedule not executable: {e}"),
                                );
                            } else {
                                report.readmitted += 1;
                                export = next;
                                max_tx = per_run_tx_bound(app, &export, sc.nodes);
                            }
                        }
                        None => report.violation(
                            sc.index,
                            "ok re-admission without a schedule document".into(),
                        ),
                    },
                    STATUS_INFEASIBLE => {}
                    other => report.violation(
                        sc.index,
                        format!(
                            "re-admission answered \"{other}\" ({})",
                            resp.reason.as_deref().unwrap_or("no reason")
                        ),
                    ),
                }
            }
        }

        // Rebuilt per run because the executor borrows the schedule and
        // a re-admission swaps it mid-replay; construction is a cheap
        // validation pass at these instance sizes.
        let executor = match LwbExecutor::new(app, &export.schedule, topo, NodeId(0)) {
            Ok(e) => e,
            Err(e) => {
                report.violation(sc.index, format!("schedule stopped being executable: {e}"));
                return Ok(());
            }
        };
        let out = executor.run_once(&mut channel, &mut rng);
        report.replay_runs += 1;
        report.rounds_executed += export.schedule.rounds().len() as u64;
        report.transmissions += out.transmissions;
        if out.transmissions == 0 {
            report.violation(sc.index, format!("run {run} produced zero transmissions"));
        }
        if out.transmissions > max_tx {
            report.violation(
                sc.index,
                format!(
                    "run {run} transmitted {} packets, above the physical bound {max_tx}",
                    out.transmissions
                ),
            );
        }
        if let Some(m) = out
            .message_ok
            .iter()
            .zip(&out.flood_ok)
            .position(|(&valid, &flooded)| valid && !flooded)
        {
            report.violation(
                sc.index,
                format!("run {run}: message {m} valid without its flood arriving"),
            );
        }
    }
    Ok(())
}

/// Physical per-run transmission ceiling: every node transmits at most
/// `N_TX` times per flood, so one run can never exceed
/// `nodes × (Σ beacon χ + Σ message χ)`.
fn per_run_tx_bound(
    app: &netdag_core::prelude::Application,
    export: &ScheduleExport,
    nodes: u32,
) -> u64 {
    let beacon_chi: u64 = export
        .schedule
        .rounds()
        .iter()
        .map(|r| u64::from(r.beacon_chi))
        .sum();
    let message_chi: u64 = app
        .messages()
        .map(|m| u64::from(export.schedule.chi(m)))
        .sum();
    u64::from(nodes) * (beacon_chi + message_chi)
}

/// Resubmits a group of scenarios verbatim as one `batch_solve`
/// envelope: previously solved members must be answered from cache,
/// byte-identical; previously infeasible members must stay infeasible.
fn revisit_group(
    client: &mut Client,
    group: &[(Scenario, Option<ScheduleExport>)],
    group_no: u64,
    cfg: &SoakConfig,
    report: &mut SoakReport,
) -> io::Result<()> {
    let mut req = Request::op("batch_solve");
    req.id = Some(REVISIT_ID_BASE + group_no);
    req.config = Some(solve_config(cfg));
    req.batch = Some(
        group
            .iter()
            .map(|(sc, _)| {
                let mut item = Request::op("solve");
                attach_constraints(&mut item, sc, false);
                BatchItem {
                    app: Some(sc.app.clone()),
                    soft: item.soft,
                    weakly_hard: item.weakly_hard,
                    stat: item.stat,
                }
            })
            .collect(),
    );
    let envelope = client.send(&req)?;
    if envelope.status != STATUS_OK {
        report.violation(
            group[0].0.index,
            format!(
                "batch revisit envelope answered \"{}\" ({})",
                envelope.status,
                envelope.reason.as_deref().unwrap_or("no reason")
            ),
        );
        return Ok(());
    }
    let subs: Vec<Response> = envelope.batch.unwrap_or_default();
    if subs.len() != group.len() {
        report.violation(
            group[0].0.index,
            format!(
                "batch revisit returned {} answers for {} items",
                subs.len(),
                group.len()
            ),
        );
        return Ok(());
    }
    for ((sc, original), sub) in group.iter().zip(&subs) {
        match original {
            Some(export) => {
                report.revisits += 1;
                if sub.status != STATUS_OK {
                    report.violation(
                        sc.index,
                        format!(
                            "revisit of a solved scenario answered \"{}\" ({})",
                            sub.status,
                            sub.reason.as_deref().unwrap_or("no reason")
                        ),
                    );
                    continue;
                }
                if sub.cached == Some(true) {
                    report.revisit_hits += 1;
                }
                // A solved scenario that was *re-admitted* later cached
                // its degraded contract under a different fingerprint,
                // so the original must still answer identically.
                if sub.result.as_ref() != Some(export) {
                    report.violation(
                        sc.index,
                        "revisit returned a different schedule than admission".into(),
                    );
                }
            }
            None => {
                // Originally infeasible or already a violation; the
                // revisit must at least not *solve* what admission
                // rejected (determinism across solve and batch paths).
                if sub.status == STATUS_OK && report.violations.iter().all(|v| v.index != sc.index)
                {
                    report.violation(
                        sc.index,
                        "batch revisit solved a scenario admission rejected".into(),
                    );
                }
            }
        }
    }
    Ok(())
}

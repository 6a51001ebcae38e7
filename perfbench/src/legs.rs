//! The traced soak pass: the soak driver's legs, timed one by one.
//!
//! For each scenario this makes the same calls `run_soak` makes, in the
//! same order and over the same client, and times each leg from the
//! client's side: admission solve, structural checks, the daemon's
//! `validate`, lossy bus replay (with re-admission after a link
//! failure timed on its own) and the per-group `batch_solve` revisit.

use std::io;
use std::time::Instant;

use netdag_core::spec::ScheduleExport;
use netdag_glossy::NodeId;
use netdag_lwb::LwbExecutor;
use netdag_scenario::{generate, EventKind, Scenario, ScenarioParams, SoakConfig};
use netdag_serve::protocol::{BatchItem, Request, Response, STATUS_INFEASIBLE, STATUS_OK};
use netdag_serve::{CacheStatsBody, Client};

use crate::daemon::{attach_constraints, micros, secs, solve_config, solve_request, Daemon};
use crate::layers::Recorder;
use crate::workloads::{Exchange, Run, RunOpts, Workload, SOAK_CHUNK};

/// Batch-revisit envelope ids, disjoint from scenario ids.
const REVISIT_ID_BASE: u64 = 1 << 62;

/// Sends one request, timing the client's own encode and decode, and
/// keeps the exchange for the in-process replay.
fn send(
    client: &mut Client,
    req: &Request,
    rec: &mut Recorder,
    keep: Option<&mut Vec<Exchange>>,
) -> io::Result<Response> {
    let t = Instant::now();
    let line = serde_json::to_string(req).map_err(io::Error::other)?;
    rec.add("loadgen.encode_us", micros(t));
    let t = Instant::now();
    let reply = client.send_line(&line)?;
    let rtt_us = micros(t);
    let t = Instant::now();
    let resp = serde_json::from_str(&reply).map_err(io::Error::other)?;
    rec.add("loadgen.decode_us", micros(t));
    if let Some(keep) = keep {
        keep.push(Exchange {
            line,
            reply,
            rtt_us,
        });
    }
    Ok(resp)
}

fn cache_stats(client: &mut Client) -> io::Result<CacheStatsBody> {
    client
        .send(&Request::op("cache_stats"))?
        .cache
        .ok_or_else(|| io::Error::other("cache_stats without body"))
}

/// Runs the traced soak pass for the run length, in revisit groups.
pub fn run(o: &RunOpts, rec: &mut Recorder) -> io::Result<Run> {
    let mut run = Run::new(Workload::Soak, o);
    let cfg = SoakConfig {
        master_seed: o.seed,
        ..SoakConfig::default()
    };
    let daemon = Daemon::start(
        Workload::Soak.serve_config(o.nproc, o.access_log.clone()),
        0,
    )?;
    let mut client = Client::connect(daemon.addr)?;
    client.send_line(r#"{"op":"health"}"#)?;
    let before = cache_stats(&mut client)?;
    let start = Instant::now();
    let mut index = o.start_index;
    while secs(start) < o.seconds {
        let mut group = Vec::new();
        let mut times = Vec::new();
        for _ in 0..SOAK_CHUNK {
            let began = Instant::now();
            let t = Instant::now();
            let sc = generate(o.seed, index, &ScenarioParams::default());
            rec.add("scenario.generate_us", micros(t));
            let export = scenario(&mut client, &sc, &cfg, rec, &mut run)?;
            times.push(micros(began));
            group.push((sc, export));
            index += 1;
        }
        let t = Instant::now();
        revisit(&mut client, &group, index, rec, &mut run)?;
        let revisit_us = micros(t);
        rec.add("soak.revisit_us", revisit_us);
        // The revisit closes the group; it is charged to its last
        // scenario, as the per-scenario timing of the soak workload does.
        *times.last_mut().expect("non-empty group") += revisit_us;
        for us in times {
            run.record(secs(start), us);
        }
        run.attempted += SOAK_CHUNK;
    }
    run.elapsed_s = secs(start);
    let after = cache_stats(&mut client)?;
    run.cache_hits = after.hits - before.hits;
    run.cache_warm = after.warm_starts - before.warm_starts;
    run.cache_lookups = run.cache_hits + run.cache_warm + after.misses - before.misses;
    drop(client);
    daemon.stop()?;
    Ok(run)
}

/// One scenario's admission, checks, validation and replay. Returns the
/// admitted schedule.
fn scenario(
    client: &mut Client,
    sc: &Scenario,
    cfg: &SoakConfig,
    rec: &mut Recorder,
    run: &mut Run,
) -> io::Result<Option<ScheduleExport>> {
    let t = Instant::now();
    let resp = send(
        client,
        &solve_request(sc, sc.index * 8, false),
        rec,
        Some(&mut run.exchanges),
    )?;
    rec.add("soak.admit_us", micros(t));
    let export = match (resp.status.as_str(), resp.result) {
        (STATUS_OK, Some(export)) => export,
        (STATUS_INFEASIBLE, _) => return Ok(None),
        (status, _) => {
            run.fail(format!(
                "scenario {}: admission answered {status:?}",
                sc.index
            ));
            return Ok(None);
        }
    };

    let t = Instant::now();
    let built = sc
        .app
        .build()
        .map_err(|e| e.to_string())
        .and_then(|(app, _)| {
            sc.topology()
                .map(|topo| (app, topo))
                .map_err(|e| e.to_string())
        });
    let (app, topo) = match built {
        Ok(pair) => pair,
        Err(e) => {
            run.fail(format!("scenario {}: {e}", sc.index));
            return Ok(None);
        }
    };
    let sched = &export.schedule;
    if sched.makespan(&app) != export.makespan_us
        || sched.total_communication_us() != export.bus_us
        || app.messages().any(|m| sched.round_of(m).is_none())
        || LwbExecutor::new(&app, sched, &topo, NodeId(0)).is_err()
    {
        run.fail(format!(
            "scenario {}: admitted schedule fails its checks",
            sc.index
        ));
        return Ok(Some(export));
    }
    rec.add("soak.check_us", micros(t));

    let t = Instant::now();
    let mut vreq = Request::op("validate");
    vreq.id = Some(sc.index * 8 + 1);
    vreq.app = Some(sc.app.clone());
    vreq.schedule = Some(export.clone());
    attach_constraints(&mut vreq, sc, false);
    vreq.kappa = Some(cfg.validate_kappa);
    vreq.trials = Some(cfg.validate_trials);
    vreq.seed = Some(sc.validate_seed());
    vreq.threads = Some(1);
    let vresp = send(client, &vreq, rec, Some(&mut run.exchanges))?;
    if !(vresp.status == STATUS_OK && vresp.validation.is_some_and(|v| v.passed)) {
        run.fail(format!("scenario {}: validation did not pass", sc.index));
    }
    rec.add("soak.validate_us", micros(t));

    replay(client, sc, cfg, rec, run, &app, &topo, export.clone())?;
    Ok(Some(export))
}

/// The soak driver's bus replay: mobility phases, fault events and
/// re-admission after a link failure, with its physical checks.
#[allow(clippy::too_many_arguments)]
fn replay(
    client: &mut Client,
    sc: &Scenario,
    cfg: &SoakConfig,
    rec: &mut Recorder,
    run: &mut Run,
    app: &netdag_core::prelude::Application,
    topo: &netdag_glossy::Topology,
    mut export: ScheduleExport,
) -> io::Result<()> {
    let leg = Instant::now();
    let mut readmit_us = 0.0;
    let mut phase_starts = Vec::new();
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
    if let Some(last) = sc.events.last() {
        total_runs = total_runs.max(last.at_run + 2);
    }
    let mut channel = sc.channel();
    let mut rng = sc.replay_rng();
    let mut max_tx = tx_bound(app, &export, sc.nodes);
    for r in 0..total_runs {
        if let Some(&(_, p)) = phase_starts.iter().find(|&&(start, _)| start == r) {
            channel.set_phase(&sc.mobility[p].loss);
        }
        for event in sc.events.iter().filter(|e| e.at_run == r) {
            channel.apply(&event.kind);
            if let EventKind::LinkFail { .. } = event.kind {
                let t = Instant::now();
                let resp = send(
                    client,
                    &solve_request(sc, sc.index * 8 + 2, true),
                    rec,
                    None,
                )?;
                match (resp.status.as_str(), resp.result) {
                    (STATUS_OK, Some(next)) => {
                        if LwbExecutor::new(app, &next.schedule, topo, NodeId(0)).is_ok() {
                            export = next;
                            max_tx = tx_bound(app, &export, sc.nodes);
                        } else {
                            run.fail(format!(
                                "scenario {}: re-admission not executable",
                                sc.index
                            ));
                        }
                    }
                    (STATUS_INFEASIBLE, _) => {}
                    (status, _) => {
                        run.fail(format!(
                            "scenario {}: re-admission answered {status:?}",
                            sc.index
                        ));
                    }
                }
                let us = micros(t);
                rec.add("soak.readmit_us", us);
                readmit_us += us;
            }
        }
        let t = Instant::now();
        let executor = match LwbExecutor::new(app, &export.schedule, topo, NodeId(0)) {
            Ok(e) => e,
            Err(e) => {
                run.fail(format!("scenario {}: not executable: {e}", sc.index));
                return Ok(());
            }
        };
        rec.add("lwb.executor_new_us", micros(t));
        let t = Instant::now();
        let out = executor.run_once(&mut channel, &mut rng);
        rec.add("lwb.run_once_us", micros(t));
        rec.add("lwb.tx_per_run", out.transmissions as f64);
        let orphan = out
            .message_ok
            .iter()
            .zip(&out.flood_ok)
            .any(|(&valid, &flooded)| valid && !flooded);
        if out.transmissions == 0 || out.transmissions > max_tx || orphan {
            run.fail(format!(
                "scenario {}: run {r} broke a replay invariant",
                sc.index
            ));
        }
    }
    rec.add("soak.replay_us", micros(leg) - readmit_us);
    Ok(())
}

/// `nodes × (Σ beacon χ + Σ message χ)`: no run can transmit more.
fn tx_bound(app: &netdag_core::prelude::Application, export: &ScheduleExport, nodes: u32) -> u64 {
    let beacons: u64 = export
        .schedule
        .rounds()
        .iter()
        .map(|r| u64::from(r.beacon_chi))
        .sum();
    let messages: u64 = app
        .messages()
        .map(|m| u64::from(export.schedule.chi(m)))
        .sum();
    u64::from(nodes) * (beacons + messages)
}

/// Resubmits a group as one `batch_solve`: solved members must come
/// back cached and byte-identical, infeasible ones must stay unsolved.
fn revisit(
    client: &mut Client,
    group: &[(Scenario, Option<ScheduleExport>)],
    next_index: u64,
    rec: &mut Recorder,
    run: &mut Run,
) -> io::Result<()> {
    let mut req = Request::op("batch_solve");
    req.id = Some(REVISIT_ID_BASE + next_index / SOAK_CHUNK);
    req.config = Some(solve_config());
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
    let envelope = send(client, &req, rec, None)?;
    let subs = envelope.batch.unwrap_or_default();
    if envelope.status != STATUS_OK || subs.len() != group.len() {
        run.fail(format!("revisit before {next_index}: bad envelope"));
        return Ok(());
    }
    for ((sc, original), sub) in group.iter().zip(&subs) {
        let ok = match original {
            Some(export) => sub.cached == Some(true) && sub.result.as_ref() == Some(export),
            None => sub.status != STATUS_OK,
        };
        if !ok {
            run.fail(format!(
                "scenario {}: revisit answered differently",
                sc.index
            ));
        }
    }
    Ok(())
}

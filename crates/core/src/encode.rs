//! Exact scheduling backend: CSP encoding + branch-and-bound.
//!
//! This is the stand-in for the paper's SMT (Z3) and MILP (Gurobi)
//! encodings. Decision variables are the retransmission parameters `χ(e)`
//! and the start times `ζ`; round durations follow eq. (3) through table
//! constraints, reliability requirements become linear constraints over
//! table-mapped `χ` (logarithms for eq. (6), miss/window sums for
//! eq. (10)), and the makespan is minimized by branch-and-bound.

use std::collections::BTreeMap;
use std::sync::Arc;

use netdag_solver::{
    Model, PresolveStep, PresolveWitness, Relaxation, SearchConfig, SearchStats, Solution, VarId,
};

use crate::app::{Application, MsgId, TaskId};
use crate::config::{
    Backend, InfeasibilityExplanation, ScheduleError, ScheduleOutcome, SchedulerConfig,
};
use crate::constraints::Deadlines;
use crate::control::{ControlledOutcome, SolveControl};
use crate::heuristic::solve_greedy;
use crate::schedule::{Round, Schedule};

/// Fixed-point scale for `ln λ` values in the soft encoding.
pub(crate) const LOG_SCALE: f64 = 1e6;
/// Stand-in for `ln 0` (makes a zero-probability flood unusable).
pub(crate) const LOG_ZERO: i64 = -1_000_000_000_000;

/// One soft reliability requirement (eq. (6)) after preprocessing:
/// `Σ_{e ∈ msgs} ln λ_s(χ_e) ≥ threshold` (fixed-point scaled). Beacon
/// floods, whose `χ` is a configuration constant, are folded into the
/// threshold up front.
#[derive(Debug, Clone)]
pub(crate) struct SoftGroup {
    pub msgs: Vec<MsgId>,
    pub threshold: i64,
    pub task: TaskId,
}

/// One weakly hard requirement (eq. (10)) after preprocessing:
/// `min(K(χ_e), beacon_window) − Σ m̄(χ_e) ≥ min_hits` and
/// `min(K(χ_e), beacon_window) ≤ max_window`. Beacon misses are already
/// added into `min_hits`.
#[derive(Debug, Clone)]
pub(crate) struct WhGroup {
    pub msgs: Vec<MsgId>,
    pub min_hits: i64,
    pub max_window: i64,
    /// Window of the beacon statistic when beacons count as predecessors.
    pub beacon_window: Option<i64>,
    pub task: TaskId,
}

/// Reliability side of the encoding, precomputed as integer tables indexed
/// by `χ − 1`.
#[derive(Debug, Clone)]
pub(crate) enum ReliabilitySpec {
    /// Eq. (6): `Σ_e ln λ_s(χ_e) ≥ ln F(τ)`, fixed-point scaled. The table
    /// values are rounded *down* and thresholds *up*, so any solution's
    /// true product meets the requirement.
    Soft {
        /// Per message: scaled `⌊LOG_SCALE · ln λ_s(χ)⌋`. Shared: every
        /// message references the same statistic table, so the per-spec
        /// builders allocate it once and hand out `Arc` clones.
        log_tables: Vec<Arc<[i64]>>,
        /// Per constrained task.
        groups: Vec<SoftGroup>,
    },
    /// Eq. (10) via the `⊕` abstraction: total misses `M = Σ m̄(χ_e)`,
    /// window `W = min K(χ_e)`; require `W − M ≥ m` and `W ≤ K`.
    WeaklyHard {
        /// Per message: `m̄(χ)` (shared, see `Soft::log_tables`).
        miss_tables: Vec<Arc<[i64]>>,
        /// Per message: `K(χ)` (shared, see `Soft::log_tables`).
        window_tables: Vec<Arc<[i64]>>,
        /// Per constrained task.
        groups: Vec<WhGroup>,
    },
}

impl ReliabilitySpec {
    /// The groups' message lists (used for symmetry breaking).
    fn group_memberships(&self, msg_count: usize) -> Vec<Vec<usize>> {
        let mut member: Vec<Vec<usize>> = vec![Vec::new(); msg_count];
        let lists: Vec<&Vec<MsgId>> = match self {
            ReliabilitySpec::Soft { groups, .. } => groups.iter().map(|g| &g.msgs).collect(),
            ReliabilitySpec::WeaklyHard { groups, .. } => groups.iter().map(|g| &g.msgs).collect(),
        };
        for (gi, msgs) in lists.into_iter().enumerate() {
            for m in msgs {
                member[m.index()].push(gi);
            }
        }
        member
    }
}

/// Variable handles of one mode's copy of the scheduling encoding —
/// everything needed to drive a search and read a schedule back out.
/// A single-mode problem has exactly one (unprefixed) copy; a joint
/// multi-mode problem has one per mode, all in the same [`Model`].
pub(crate) struct ModeVars {
    chi_vars: Vec<VarId>,
    task_start: Vec<VarId>,
    round_start: Vec<VarId>,
    round_dur_vars: Vec<VarId>,
    makespan: VarId,
    /// Upper bound on this copy's makespan (everything serialized at
    /// maximum χ), used to bound joint objectives.
    horizon: i64,
}

/// The CSP encoding of one scheduling problem.
pub(crate) struct EncodedModel {
    model: Model,
    vars: ModeVars,
}

/// Encodes one copy of the scheduling problem (variables + constraints)
/// into `model`, naming every variable with the given `prefix` so that a
/// joint multi-mode model can hold several copies side by side. The
/// single-mode path uses an empty prefix, which reproduces the historic
/// variable names (`chi_0`, `S_0`, …) byte for byte.
fn encode_into(
    model: &mut Model,
    prefix: &str,
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
) -> Result<ModeVars, ScheduleError> {
    let chi_max = cfg.chi_max as i64;
    let msg_count = app.message_count();

    // Slot duration tables per message, interned by width: eq. (3)'s
    // slot duration depends only on (χ, width), so messages of equal
    // width share one table allocation instead of deep-copying it into
    // every `table_fn` propagator.
    let mut slot_by_width: BTreeMap<u32, Arc<[i64]>> = BTreeMap::new();
    let slot_table: Vec<Arc<[i64]>> = app
        .messages()
        .map(|m| {
            let width = app.message(m).width;
            Arc::clone(slot_by_width.entry(width).or_insert_with(|| {
                (1..=cfg.chi_max)
                    .map(|chi| cfg.timing.slot_duration(chi, width) as i64)
                    .collect::<Vec<i64>>()
                    .into()
            }))
        })
        .collect();
    let beacon_cost = cfg.timing.beacon_duration(cfg.beacon_chi) as i64;

    // Horizon: everything serialized at maximum χ.
    let total_wcet: i64 = app.tasks().map(|t| app.task(t).wcet_us as i64).sum();
    let max_round_total: i64 = rounds
        .iter()
        .map(|msgs| {
            beacon_cost
                + msgs
                    .iter()
                    .map(|m| slot_table[m.index()][cfg.chi_max as usize - 1])
                    .sum::<i64>()
        })
        .sum();
    let horizon = total_wcet + max_round_total + 1;

    // --- Decision variables: χ first (branched first). ---
    let chi_vars: Vec<VarId> = app
        .messages()
        .map(|m| model.new_var(&format!("{prefix}chi_{m}"), 1, chi_max))
        .collect::<Result<_, _>>()?;

    // Reliability constraints over χ.
    match spec {
        ReliabilitySpec::Soft { log_tables, groups } => {
            let mut log_vars = Vec::with_capacity(msg_count);
            for m in app.messages() {
                let table = &log_tables[m.index()];
                let (lo, hi) = (
                    *table.iter().min().expect("non-empty"),
                    *table.iter().max().expect("non-empty"),
                );
                let v = model.new_var(&format!("{prefix}log_{m}"), lo, hi)?;
                model.table_fn(chi_vars[m.index()], v, Arc::clone(table))?;
                log_vars.push(v);
            }
            for group in groups {
                let terms: Vec<(i64, VarId)> = group
                    .msgs
                    .iter()
                    .map(|m| (1i64, log_vars[m.index()]))
                    .collect();
                model.linear_ge(&terms, group.threshold)?;
            }
        }
        ReliabilitySpec::WeaklyHard {
            miss_tables,
            window_tables,
            groups,
        } => {
            let mut miss_vars = Vec::with_capacity(msg_count);
            let mut window_vars = Vec::with_capacity(msg_count);
            for m in app.messages() {
                let mt = &miss_tables[m.index()];
                let wt = &window_tables[m.index()];
                let mv = model.new_var(
                    &format!("{prefix}miss_{m}"),
                    *mt.iter().min().expect("non-empty"),
                    *mt.iter().max().expect("non-empty"),
                )?;
                let wv = model.new_var(
                    &format!("{prefix}win_{m}"),
                    *wt.iter().min().expect("non-empty"),
                    *wt.iter().max().expect("non-empty"),
                )?;
                model.table_fn(chi_vars[m.index()], mv, Arc::clone(mt))?;
                model.table_fn(chi_vars[m.index()], wv, Arc::clone(wt))?;
                miss_vars.push(mv);
                window_vars.push(wv);
            }
            for group in groups {
                let w_group =
                    model.new_var(&format!("{prefix}W_{}", group.task), 0, i64::MAX / 4)?;
                let mut group_windows: Vec<VarId> =
                    group.msgs.iter().map(|m| window_vars[m.index()]).collect();
                if let Some(bw) = group.beacon_window {
                    group_windows.push(model.constant(&format!("{prefix}bw_{}", group.task), bw));
                }
                model.min_of(&group_windows, w_group)?;
                // W ≤ K.
                model.linear_le(&[(1, w_group)], group.max_window)?;
                // W − Σ misses ≥ m (beacon misses already in min_hits).
                let mut terms: Vec<(i64, VarId)> = vec![(1, w_group)];
                for m in &group.msgs {
                    terms.push((-1, miss_vars[m.index()]));
                }
                model.linear_ge(&terms, group.min_hits)?;
            }
        }
    }

    // Symmetry breaking: messages in the same round with identical width
    // and identical group membership are interchangeable; order their χ.
    let membership = spec.group_memberships(msg_count);
    for round in rounds {
        for (i, &a) in round.iter().enumerate() {
            for &b in round.iter().skip(i + 1) {
                if app.message(a).width == app.message(b).width
                    && membership[a.index()] == membership[b.index()]
                {
                    // χ_a ≤ χ_b.
                    model.linear_le(&[(1, chi_vars[a.index()]), (-1, chi_vars[b.index()])], 0)?;
                }
            }
        }
    }

    // Slot and round durations.
    let mut round_dur_vars = Vec::with_capacity(rounds.len());
    for (r, msgs) in rounds.iter().enumerate() {
        let mut terms: Vec<(i64, VarId)> = Vec::new();
        let mut max_dur = beacon_cost;
        for &m in msgs {
            let table = &slot_table[m.index()];
            let sd = model.new_var(
                &format!("{prefix}slot_{m}"),
                table[0],
                table[cfg.chi_max as usize - 1],
            )?;
            model.table_fn(chi_vars[m.index()], sd, Arc::clone(table))?;
            terms.push((1, sd));
            max_dur += table[cfg.chi_max as usize - 1];
        }
        let dur = model.new_var(&format!("{prefix}rdur_{r}"), 0, max_dur)?;
        terms.push((-1, dur));
        // Σ slots − dur = −beacon.
        model.linear_eq(&terms, -beacon_cost)?;
        round_dur_vars.push(dur);
    }

    // Start variables in topological item order (tasks interleaved with
    // rounds makes the first DFS dive an earliest-start schedule).
    let task_start: Vec<VarId> = app
        .tasks()
        .map(|t| model.new_var(&format!("{prefix}S_{t}"), 0, horizon))
        .collect::<Result<_, _>>()?;
    let round_start: Vec<VarId> = (0..rounds.len())
        .map(|r| model.new_var(&format!("{prefix}SR_{r}"), 0, horizon))
        .collect::<Result<_, _>>()?;

    // Task-level deadlines: S_t + wcet_t ≤ D_t.
    for (t, deadline) in deadlines.iter() {
        let wcet = app.task(t).wcet_us as i64;
        model.linear_le(&[(1, task_start[t.index()])], deadline as i64 - wcet)?;
    }
    // Task precedence: S_s ≥ S_t + wcet_t.
    for t in app.tasks() {
        let wcet = app.task(t).wcet_us as i64;
        for &s in app.successors(t) {
            model.linear_ge(
                &[(1, task_start[s.index()]), (-1, task_start[t.index()])],
                wcet,
            )?;
        }
    }
    // Rounds sequential: SR_{r+1} ≥ SR_r + dur_r.
    for r in 1..rounds.len() {
        model.linear_ge(
            &[
                (1, round_start[r]),
                (-1, round_start[r - 1]),
                (-1, round_dur_vars[r - 1]),
            ],
            0,
        )?;
    }
    // Producer before round, round before consumers.
    for (r, msgs) in rounds.iter().enumerate() {
        for &m in msgs {
            let msg = app.message(m);
            model.linear_ge(
                &[(1, round_start[r]), (-1, task_start[msg.source.index()])],
                app.task(msg.source).wcet_us as i64,
            )?;
            for &c in &msg.consumers {
                model.linear_ge(
                    &[
                        (1, task_start[c.index()]),
                        (-1, round_start[r]),
                        (-1, round_dur_vars[r]),
                    ],
                    0,
                )?;
            }
        }
    }
    // Condition (5): no task during any round.
    let task_dur_vars: Vec<VarId> = app
        .tasks()
        .map(|t| model.constant(&format!("{prefix}d_{t}"), app.task(t).wcet_us as i64))
        .collect();
    for t in app.tasks() {
        if app.task(t).wcet_us == 0 {
            continue;
        }
        for r in 0..rounds.len() {
            model.no_overlap(
                task_start[t.index()],
                task_dur_vars[t.index()],
                round_start[r],
                round_dur_vars[r],
            )?;
        }
    }

    // Makespan.
    let mut end_vars = Vec::new();
    for t in app.tasks() {
        let e = model.new_var(&format!("{prefix}E_{t}"), 0, horizon + 1)?;
        model.linear_eq(
            &[(1, e), (-1, task_start[t.index()])],
            app.task(t).wcet_us as i64,
        )?;
        end_vars.push(e);
    }
    for r in 0..rounds.len() {
        let e = model.new_var(&format!("{prefix}ER_{r}"), 0, horizon + 1)?;
        model.linear_eq(&[(1, e), (-1, round_start[r]), (-1, round_dur_vars[r])], 0)?;
        end_vars.push(e);
    }
    let makespan = model.new_var(&format!("{prefix}makespan"), 0, horizon + 1)?;
    if end_vars.is_empty() {
        model.linear_eq(&[(1, makespan)], 0)?;
    } else {
        model.max_of(&end_vars, makespan)?;
    }

    Ok(ModeVars {
        chi_vars,
        task_start,
        round_start,
        round_dur_vars,
        makespan,
        horizon,
    })
}

/// Builds the full single-mode CSP encoding (variables + constraints)
/// without solving it, for the presolve ([`presolve_exact`]) and the
/// solve ([`solve_exact`]).
fn build_model(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
) -> Result<EncodedModel, ScheduleError> {
    let mut model = Model::new();
    let vars = encode_into(&mut model, "", app, cfg, rounds, spec, deadlines)?;
    Ok(EncodedModel { model, vars })
}

/// Reads one mode's schedule out of a complete solver assignment.
fn extract_schedule(
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    vars: &ModeVars,
    best: &Solution,
) -> Schedule {
    let chi: Vec<u32> = vars
        .chi_vars
        .iter()
        .map(|&v| best.value(v) as u32)
        .collect();
    let built_rounds: Vec<Round> = rounds
        .iter()
        .enumerate()
        .map(|(r, msgs)| Round {
            messages: msgs.clone(),
            beacon_chi: cfg.beacon_chi,
            start_us: best.value(vars.round_start[r]) as u64,
            duration_us: best.value(vars.round_dur_vars[r]) as u64,
        })
        .collect();
    let starts: Vec<u64> = vars
        .task_start
        .iter()
        .map(|&v| best.value(v) as u64)
        .collect();
    Schedule::new(built_rounds, chi, starts, cfg.timing)
}

/// Human name for a solver variable in one mode's copy of the encoding:
/// task and round starts get their spec-level names; other variables are
/// not this copy's to name (`None` lets the caller fall back or try the
/// next mode).
fn entity_in_mode(app: &Application, vars: &ModeVars, v: VarId) -> Option<String> {
    if let Some(t) = vars.task_start.iter().position(|&s| s == v) {
        Some(format!("task '{}'", app.task(TaskId(t as u32)).name))
    } else {
        vars.round_start
            .iter()
            .position(|&s| s == v)
            .map(|r| format!("round {r}"))
    }
}

/// Renders one witness hop (`from − to ≤ weight`) against the spec's
/// names, in whichever direction reads as a forcing statement.
fn render_step(name_of: &dyn Fn(VarId) -> String, step: &PresolveStep) -> String {
    let name = |v: Option<VarId>| match v {
        Some(v) => name_of(v),
        None => "0".to_owned(),
    };
    let rendered = match (step.from, step.to) {
        (Some(x), None) => format!("{} ≤ {}", name_of(x), step.weight),
        (None, Some(y)) => format!("{} ≥ {}", name_of(y), -step.weight),
        _ if step.weight <= 0 => {
            format!("{} ≥ {} + {}", name(step.to), name(step.from), -step.weight)
        }
        _ => format!("{} ≤ {} + {}", name(step.from), name(step.to), step.weight),
    };
    format!("{rendered} [{}]", step.kind)
}

/// Renders a witness chain, collapsing repeats: a negative cycle is
/// traversed many times by the shortest pumped walk, but each distinct
/// constraint only needs to be cited once.
fn render_chain(name_of: &dyn Fn(VarId) -> String, steps: &[PresolveStep]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for s in steps {
        let line = render_step(name_of, s);
        if !out.contains(&line) {
            out.push(line);
        }
    }
    out
}

/// The named explanation of a presolve witness: the entity whose
/// earliest slot exceeds its latest one, with both forcing chains.
fn timing_error(w: &PresolveWitness, name_of: &dyn Fn(VarId) -> String) -> ScheduleError {
    ScheduleError::InfeasibleTiming(Box::new(InfeasibilityExplanation {
        entity: name_of(w.var),
        earliest: w.earliest,
        latest: w.latest,
        forward: render_chain(name_of, &w.forward),
        backward: render_chain(name_of, &w.backward),
    }))
}

/// Names a variable of a single-mode encoding: its spec-level name, or
/// the solver's variable name.
fn single_mode_name<'a>(
    app: &'a Application,
    enc: &'a EncodedModel,
) -> impl Fn(VarId) -> String + 'a {
    move |v| entity_in_mode(app, &enc.vars, v).unwrap_or_else(|| enc.model.var_name(v).to_owned())
}

/// CPM presolve over a single-mode encoding: closes the
/// difference-constraint subsystem and, when some start's earliest slot
/// exceeds its latest slot, rejects the spec with a named explanation —
/// zero search nodes.
fn check_presolve(enc: &EncodedModel, app: &Application) -> Result<(), ScheduleError> {
    match Relaxation::build(&enc.model, None).witness() {
        Some(w) => Err(timing_error(w, &single_mode_name(app, enc))),
        None => Ok(()),
    }
}

/// Builds the encoding and runs only the CPM presolve: an
/// over-constrained spec is rejected without a single search node.
///
/// # Errors
///
/// [`ScheduleError::InfeasibleTiming`] with the named explanation when
/// the timing subsystem is provably infeasible; encoding errors as
/// [`solve_exact`]. `Ok(())` only means the *relaxation* is feasible —
/// the full problem may still be infeasible (reliability constraints are
/// not part of the difference subsystem).
pub(crate) fn presolve_exact(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
) -> Result<(), ScheduleError> {
    let enc = build_model(app, cfg, rounds, spec, deadlines)?;
    check_presolve(&enc, app)
}

/// Opens the `core.solve` span pair (obs aggregate and trace span) that
/// every solve, single- or multi-mode, runs under.
fn solve_span(args: &[netdag_trace::Arg]) -> impl Sized {
    let obs = netdag_obs::global().span(netdag_obs::keys::SPAN_CORE_SOLVE);
    let trace = netdag_trace::span_with(netdag_obs::keys::SPAN_CORE_SOLVE, args);
    // Tuple fields drop in order: the trace span closes first, inside
    // the obs span, exactly as two stacked guards would.
    (trace, obs)
}

/// Runs a prepared spec through the configured backend — the one solve
/// path behind every soft and weakly hard entry point. `mode` labels the
/// `core.solve` trace span (`"soft"` or `"weakly_hard"`); `control`
/// steers the exact search (see [`solve_exact`]) and is ignored by the
/// greedy backend, which has no search to steer.
///
/// # Errors
///
/// As [`solve_exact`], plus the greedy backend's placement errors.
pub(crate) fn solve(
    mode: &'static str,
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
    control: Option<&mut SolveControl<'_>>,
) -> Result<ControlledOutcome, ScheduleError> {
    let _span = solve_span(&[
        ("mode", mode.into()),
        ("tasks", app.task_count().into()),
        ("messages", app.message_count().into()),
    ]);
    let (outcome, complete) = match cfg.backend {
        Backend::Exact { .. } => {
            let (schedule, stats, complete) =
                solve_exact(app, cfg, rounds, spec, deadlines, control)?;
            (
                ScheduleOutcome {
                    schedule,
                    stats: Some(stats),
                    optimal: stats.proven_optimal,
                },
                complete,
            )
        }
        Backend::Greedy => {
            let schedule = solve_greedy(app, cfg, rounds, spec, deadlines)?;
            (
                ScheduleOutcome {
                    schedule,
                    stats: None,
                    optimal: false,
                },
                true,
            )
        }
    };
    outcome.schedule.publish_metrics();
    Ok(ControlledOutcome { outcome, complete })
}

/// The one exact-search driver behind every exact solve, single- or
/// multi-mode. Returns the best solution, the search effort (summed
/// over engine runs, `proven_optimal` from the last) and whether the
/// search ran to its natural end.
///
/// With `cfg.lower_bound` the relaxation is closed exactly once: a
/// witness rejects the model with zero search nodes, named through
/// `name_of`; otherwise the closure is lent to every engine below.
/// `portfolio ≥ 2` races that many configurations (bit-identical at any
/// thread count) and ignores `control`, since the race exchanges bounds
/// on its own schedule. Otherwise one engine runs under `control`, or
/// cold and unpaused without one (the tree `Model::minimize_with_stats`
/// explores). The warm bound is a strict-improvement bound: a cached
/// makespan `B` passed as `B + 1` keeps every schedule `≤ B` reachable,
/// so the search returns the same first optimal leaf as a cold one.
/// When it over-prunes (finished with no solution), one cold run
/// follows.
///
/// # Errors
///
/// [`ScheduleError::InfeasibleTiming`] from the presolve,
/// [`ScheduleError::Infeasible`] when no feasible assignment exists,
/// solver errors on malformed input, and [`ScheduleError::Interrupted`]
/// when the controller stopped the search before any incumbent.
fn search(
    model: &Model,
    objective: VarId,
    cfg: &SchedulerConfig,
    name_of: &dyn Fn(VarId) -> String,
    control: Option<&mut SolveControl<'_>>,
) -> Result<(Solution, SearchStats, bool), ScheduleError> {
    let relax = cfg
        .lower_bound
        .then(|| Relaxation::build(model, Some(objective)));
    if let Some(w) = relax.as_ref().and_then(Relaxation::witness) {
        return Err(timing_error(w, name_of));
    }
    let node_limit = match cfg.backend {
        Backend::Exact { node_limit } => node_limit,
        Backend::Greedy => None,
    };
    if cfg.portfolio >= 2 {
        let mut configs = netdag_solver::portfolio_configs(cfg.portfolio as usize, node_limit);
        if !cfg.lower_bound {
            // `--no-lb` A/B runs: strip the family's bounded members.
            for c in &mut configs {
                c.lower_bound = false;
            }
        }
        let outcome = model.minimize_portfolio(
            objective,
            &configs,
            relax.as_ref(),
            netdag_runtime::ExecPolicy::from_threads(cfg.solver_threads),
        )?;
        let best = outcome.best.ok_or(ScheduleError::Infeasible)?;
        return Ok((best, outcome.stats, true));
    }
    let search_cfg = SearchConfig {
        node_limit,
        lower_bound: cfg.lower_bound,
        ..SearchConfig::default()
    };
    let mut run_to_end = |_: &SearchStats| true;
    let (mut bound, step_nodes, keep_going): (_, _, &mut dyn FnMut(&SearchStats) -> bool) =
        match control {
            Some(c) => (c.warm_bound, c.step_nodes, &mut *c.keep_going),
            None => (None, u64::MAX, &mut run_to_end),
        };
    let mut total = SearchStats::default();
    loop {
        let _search = netdag_trace::span_with(
            "solver.search",
            &[
                ("vars", model.var_count().into()),
                ("props", model.constraint_count().into()),
                ("optimize", true.into()),
            ],
        );
        let mut engine = model.engine(Some(objective), &search_cfg, relax.as_ref());
        if let Some(b) = bound {
            engine.inject_bound(b);
        }
        let finished = loop {
            if engine.step(step_nodes) {
                break true;
            }
            if !keep_going(engine.stats()) {
                break false;
            }
        };
        let outcome = engine.into_outcome();
        netdag_solver::publish_stats(&outcome.stats);
        total.add_effort(&outcome.stats);
        total.proven_optimal = outcome.stats.proven_optimal;
        match outcome.best {
            Some(best) => return Ok((best, total, finished)),
            // The warm bound may have pruned a worse-than-cached optimum
            // (perturbed constraints); distinguish that from true
            // infeasibility with a cold run.
            None if finished && bound.take().is_some() => {}
            None if finished => return Err(ScheduleError::Infeasible),
            None => return Err(ScheduleError::Interrupted),
        }
    }
}

/// Solves the full scheduling problem exactly through [`search`].
/// Returns `(schedule, stats, complete)`, where `complete` is `false`
/// iff a controller stopped the search and the schedule is merely the
/// best incumbent so far.
///
/// # Errors
///
/// As [`search`], plus encoding errors.
pub(crate) fn solve_exact(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
    control: Option<&mut SolveControl<'_>>,
) -> Result<(Schedule, SearchStats, bool), ScheduleError> {
    let enc = build_model(app, cfg, rounds, spec, deadlines)?;
    let name_of = single_mode_name(app, &enc);
    let (best, stats, complete) = search(&enc.model, enc.vars.makespan, cfg, &name_of, control)?;
    let schedule = extract_schedule(cfg, rounds, &enc.vars, &best);
    Ok((schedule, stats, complete))
}

/// One mode of a joint multi-mode problem, after preprocessing: the
/// reliability spec already reflects the mode's statistic and constraint
/// mix.
pub(crate) struct ModeProblem<'a> {
    /// Mode name (used to label per-mode infeasibility witnesses).
    pub name: &'a str,
    /// The mode's reliability encoding.
    pub spec: &'a ReliabilitySpec,
    /// The mode's task-level deadlines.
    pub deadlines: &'a Deadlines,
}

/// The joint CSP over all modes: one full copy of the scheduling
/// encoding per mode (prefixed `m{i}_`), shared-round equality coupling
/// over the common prefix, and a total objective `Σ_i makespan_i`.
struct MultiModeEncoded {
    model: Model,
    per_mode: Vec<ModeVars>,
    total: VarId,
}

/// Encodes the joint multi-mode CSP: each mode gets an independent copy
/// of the full encoding, then the first `shared` rounds are pinned
/// equal across modes — same start time and the same `χ` for every
/// message in them (slot and round durations follow through the shared
/// tables) — so the bus can announce a mode change in any shared round's
/// beacon and switch at that round boundary without re-synchronizing.
fn build_multi_mode(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    modes: &[ModeProblem<'_>],
    shared: usize,
) -> Result<MultiModeEncoded, ScheduleError> {
    let mut model = Model::new();
    let mut per_mode = Vec::with_capacity(modes.len());
    for (i, m) in modes.iter().enumerate() {
        let prefix = format!("m{i}_");
        per_mode.push(encode_into(
            &mut model,
            &prefix,
            app,
            cfg,
            rounds,
            m.spec,
            m.deadlines,
        )?);
    }
    for (r, round) in rounds.iter().enumerate().take(shared) {
        for mv in per_mode.iter().skip(1) {
            model.linear_eq(
                &[(1, per_mode[0].round_start[r]), (-1, mv.round_start[r])],
                0,
            )?;
            for &m in round {
                model.linear_eq(
                    &[
                        (1, per_mode[0].chi_vars[m.index()]),
                        (-1, mv.chi_vars[m.index()]),
                    ],
                    0,
                )?;
            }
        }
    }
    netdag_obs::counter!(netdag_obs::keys::SOLVER_MODE_SHARED_ROUNDS).add(shared as u64);

    // Joint objective: minimize the sum of per-mode makespans. Each mode
    // still gets its individually optimal prefix-compatible schedule
    // reported via `SearchStats::mode_objectives`.
    let total_hi: i64 = per_mode.iter().map(|v| v.horizon + 1).sum();
    let total = model.new_var("mm_total", 0, total_hi)?;
    let mut terms: Vec<(i64, VarId)> = per_mode.iter().map(|v| (1i64, v.makespan)).collect();
    terms.push((-1, total));
    model.linear_eq(&terms, 0)?;
    Ok(MultiModeEncoded {
        model,
        per_mode,
        total,
    })
}

/// Solves the joint multi-mode problem exactly through [`search`].
/// Returns one schedule per mode (declaration order), the joint search
/// statistics with the per-mode objective split in
/// [`SearchStats::mode_objectives`](netdag_solver::SearchStats), and
/// whether the search ran to its natural end (`false` when `control`
/// stopped it; the schedules are then the best joint incumbent).
///
/// When the lower bound is enabled, each mode's *own* encoding is
/// presolved first: a mode that is infeasible on its own yields a
/// witness labeled with that mode's name (`mode 'degraded': task 'ctrl'
/// cannot start …`) instead of an anonymous joint-model explanation; the
/// joint closure then catches cross-mode conflicts introduced by the
/// shared-prefix coupling.
///
/// # Errors
///
/// As [`search`], with [`ScheduleError::InfeasibleTiming`] witnesses
/// labeled per mode.
pub(crate) fn solve_multi_mode(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    modes: &[ModeProblem<'_>],
    shared_prefix: usize,
    control: Option<&mut SolveControl<'_>>,
) -> Result<(Vec<Schedule>, SearchStats, bool), ScheduleError> {
    let shared = shared_prefix.min(rounds.len());
    let _span = solve_span(&[
        ("mode", "multi_mode".into()),
        ("modes", modes.len().into()),
        ("shared_prefix", shared.into()),
        ("tasks", app.task_count().into()),
        ("messages", app.message_count().into()),
    ]);
    if cfg.lower_bound {
        for m in modes {
            let enc = build_model(app, cfg, rounds, m.spec, m.deadlines)?;
            check_presolve(&enc, app).map_err(|e| match e {
                ScheduleError::InfeasibleTiming(mut explanation) => {
                    explanation.entity = format!("mode '{}': {}", m.name, explanation.entity);
                    ScheduleError::InfeasibleTiming(explanation)
                }
                other => other,
            })?;
        }
    }
    let enc = build_multi_mode(app, cfg, rounds, modes, shared)?;
    let name_of = |v: VarId| {
        for (mv, m) in enc.per_mode.iter().zip(modes) {
            if let Some(entity) = entity_in_mode(app, mv, v) {
                return format!("mode '{}': {entity}", m.name);
            }
        }
        enc.model.var_name(v).to_owned()
    };
    let (best, mut stats, complete) = search(&enc.model, enc.total, cfg, &name_of, control)?;
    let schedules: Vec<Schedule> = enc
        .per_mode
        .iter()
        .map(|mv| extract_schedule(cfg, rounds, mv, &best))
        .collect();
    for mv in &enc.per_mode {
        stats.mode_objectives.push(best.value(mv.makespan));
    }
    Ok((schedules, stats, complete))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoundStructure;
    use crate::rounds::build_rounds;
    use netdag_glossy::NodeId;

    fn two_task_app() -> Application {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 100);
        let a = b.task("a", NodeId(1), 50);
        b.edge(s, a, 8).unwrap();
        b.build().unwrap()
    }

    fn soft_spec(app: &Application, table: Vec<i64>, threshold: i64) -> ReliabilitySpec {
        let table: Arc<[i64]> = table.into();
        ReliabilitySpec::Soft {
            log_tables: app.messages().map(|_| Arc::clone(&table)).collect(),
            groups: vec![SoftGroup {
                msgs: app.messages().collect(),
                threshold,
                task: TaskId(app.task_count() as u32 - 1),
            }],
        }
    }

    #[test]
    fn exact_minimizes_chi_when_reliability_is_loose() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        // ln λ table: all zero (perfect floods); threshold 0 ⇒ any χ works.
        let spec = soft_spec(&app, vec![0; cfg.chi_max as usize], 0);
        let (schedule, stats, _) =
            solve_exact(&app, &cfg, &rounds, &spec, &Deadlines::new(), None).unwrap();
        assert!(stats.proven_optimal);
        schedule.check_feasible(&app).unwrap();
        // Minimal χ wins: smaller rounds, smaller makespan.
        assert_eq!(schedule.chi(MsgId(0)), 1);
    }

    #[test]
    fn exact_raises_chi_to_meet_reliability() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        // log table improving with χ: needs χ ≥ 4 to reach −2000.
        let table: Vec<i64> = (1..=cfg.chi_max as i64).map(|chi| -10_000 / chi).collect();
        let spec = soft_spec(&app, table, -2_500);
        let (schedule, stats, _) =
            solve_exact(&app, &cfg, &rounds, &spec, &Deadlines::new(), None).unwrap();
        assert!(stats.proven_optimal);
        schedule.check_feasible(&app).unwrap();
        assert_eq!(schedule.chi(MsgId(0)), 4);
    }

    #[test]
    fn exact_detects_infeasible_reliability() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let spec = soft_spec(&app, vec![-100; cfg.chi_max as usize], -50);
        // The reliability row is unary here, so it lands in the
        // difference subsystem and the presolve proves infeasibility
        // before any search (with an explanation); `--no-lb` falls back
        // to the search proof.
        assert!(matches!(
            solve_exact(&app, &cfg, &rounds, &spec, &Deadlines::new(), None).unwrap_err(),
            ScheduleError::InfeasibleTiming(_)
        ));
        let no_lb = SchedulerConfig {
            lower_bound: false,
            ..cfg
        };
        assert_eq!(
            solve_exact(&app, &no_lb, &rounds, &spec, &Deadlines::new(), None).unwrap_err(),
            ScheduleError::Infeasible
        );
    }

    #[test]
    fn exact_weakly_hard_balances_window_and_misses() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        // Eq. (13)-like: misses fall with χ, window grows 20·χ.
        let miss: Vec<i64> = (1..=cfg.chi_max as i64)
            .map(|n| ((10.0 * (-0.5 * n as f64).exp()).ceil() as i64) + 1)
            .collect();
        let window: Vec<i64> = (1..=cfg.chi_max as i64).map(|n| 20 * n).collect();
        // Require (m, K) = (10, 40): window ≤ 40 limits χ ≤ 2; W − M ≥ 10.
        let miss: Arc<[i64]> = miss.into();
        let window: Arc<[i64]> = window.into();
        let spec = ReliabilitySpec::WeaklyHard {
            miss_tables: app.messages().map(|_| Arc::clone(&miss)).collect(),
            window_tables: app.messages().map(|_| Arc::clone(&window)).collect(),
            groups: vec![WhGroup {
                msgs: app.messages().collect(),
                min_hits: 10,
                max_window: 40,
                beacon_window: None,
                task: TaskId(1),
            }],
        };
        let (schedule, stats, _) =
            solve_exact(&app, &cfg, &rounds, &spec, &Deadlines::new(), None).unwrap();
        assert!(stats.proven_optimal);
        schedule.check_feasible(&app).unwrap();
        let chi = schedule.chi(MsgId(0));
        // χ = 1: W = 20, M = 8, W − M = 12 ≥ 10 and W ≤ 40 — feasible and
        // cheapest.
        assert_eq!(chi, 1);
    }

    #[test]
    fn multi_mode_shared_prefix_couples_chi() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        // Mode 'loose' would pick χ = 1 on its own; mode 'tight' needs
        // χ ≥ 4. The app has one round, so a shared prefix of 1 pins the
        // whole schedule: both modes must agree on χ = 4.
        let loose = soft_spec(&app, vec![0; cfg.chi_max as usize], 0);
        let table: Vec<i64> = (1..=cfg.chi_max as i64).map(|chi| -10_000 / chi).collect();
        let tight = soft_spec(&app, table, -2_500);
        let dl = Deadlines::new();
        let modes = [
            ModeProblem {
                name: "loose",
                spec: &loose,
                deadlines: &dl,
            },
            ModeProblem {
                name: "tight",
                spec: &tight,
                deadlines: &dl,
            },
        ];
        let (schedules, stats, _) = solve_multi_mode(&app, &cfg, &rounds, &modes, 1, None).unwrap();
        assert!(stats.proven_optimal);
        assert_eq!(schedules.len(), 2);
        assert_eq!(stats.mode_objectives.len(), 2);
        assert_eq!(schedules[0].chi(MsgId(0)), 4);
        assert_eq!(schedules[1].chi(MsgId(0)), 4);
        assert_eq!(schedules[0].rounds()[0], schedules[1].rounds()[0]);
        for (i, s) in schedules.iter().enumerate() {
            s.check_feasible(&app).unwrap();
            assert_eq!(stats.mode_objectives.get(i), Some(s.makespan(&app) as i64));
        }
    }

    #[test]
    fn multi_mode_without_shared_prefix_solves_modes_independently() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let loose = soft_spec(&app, vec![0; cfg.chi_max as usize], 0);
        let table: Vec<i64> = (1..=cfg.chi_max as i64).map(|chi| -10_000 / chi).collect();
        let tight = soft_spec(&app, table, -2_500);
        let dl = Deadlines::new();
        let modes = [
            ModeProblem {
                name: "loose",
                spec: &loose,
                deadlines: &dl,
            },
            ModeProblem {
                name: "tight",
                spec: &tight,
                deadlines: &dl,
            },
        ];
        let (schedules, stats, _) = solve_multi_mode(&app, &cfg, &rounds, &modes, 0, None).unwrap();
        assert!(stats.proven_optimal);
        // Decoupled: each mode reaches its individual optimum.
        assert_eq!(schedules[0].chi(MsgId(0)), 1);
        assert_eq!(schedules[1].chi(MsgId(0)), 4);
    }

    #[test]
    fn multi_mode_presolve_labels_the_infeasible_mode() {
        let app = two_task_app();
        let cfg = SchedulerConfig::default();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let ok = soft_spec(&app, vec![0; cfg.chi_max as usize], 0);
        // Unary reliability row that no χ can satisfy: the per-mode
        // presolve proves it and names the mode.
        let bad = soft_spec(&app, vec![-100; cfg.chi_max as usize], -50);
        let dl = Deadlines::new();
        let modes = [
            ModeProblem {
                name: "normal",
                spec: &ok,
                deadlines: &dl,
            },
            ModeProblem {
                name: "degraded",
                spec: &bad,
                deadlines: &dl,
            },
        ];
        let err = solve_multi_mode(&app, &cfg, &rounds, &modes, 1, None).unwrap_err();
        match err {
            ScheduleError::InfeasibleTiming(explanation) => {
                assert!(
                    explanation.entity.starts_with("mode 'degraded':"),
                    "witness must name the infeasible mode, got {:?}",
                    explanation.entity
                );
            }
            other => panic!("expected a labeled timing witness, got {other:?}"),
        }
    }
}

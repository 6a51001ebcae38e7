//! Time-triggered execution of a NETDAG schedule over Glossy floods.

use std::error::Error;
use std::fmt;

use rand::Rng;

use netdag_core::app::{Application, MsgId, TaskId};
use netdag_core::schedule::Schedule;
use netdag_glossy::flood::{simulate_flood, FloodParams};
use netdag_glossy::link::LossModel;
use netdag_glossy::topology::{NodeId, Topology};

use crate::trace::ExecutionTrace;

/// Error returned when an executor cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LwbError {
    /// A task is mapped to a node outside the topology.
    NodeOutOfRange(TaskId, NodeId),
    /// The host (beacon initiator) is outside the topology.
    HostOutOfRange(NodeId),
    /// The schedule does not fit the application
    /// ([`Schedule::check_shape`] refused it), or a mode switch would
    /// tear the rounds before its boundary.
    ScheduleMismatch(String),
}

impl fmt::Display for LwbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LwbError::NodeOutOfRange(t, n) => {
                write!(f, "task {t} is mapped to {n}, outside the topology")
            }
            LwbError::HostOutOfRange(n) => write!(f, "host {n} is outside the topology"),
            LwbError::ScheduleMismatch(m) => write!(f, "schedule mismatch: {m}"),
        }
    }
}

impl Error for LwbError {}

/// Outcome of a single application run over the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Per task: did the task run on complete, fresh inputs?
    pub task_ok: Vec<bool>,
    /// Per message: was the flood delivered to every consumer's node with
    /// valid (producer-succeeded) contents?
    pub message_ok: Vec<bool>,
    /// Per message: did the flood physically reach all consumer nodes
    /// (regardless of upstream validity)?
    pub flood_ok: Vec<bool>,
    /// Whether every beacon of the run reached all nodes.
    pub beacons_ok: bool,
    /// Total packet transmissions across all floods of this run.
    pub transmissions: u64,
}

/// The flood results one run accumulates round by round.
struct RunState {
    flood_ok: Vec<bool>,
    /// Flow-arrow ids per message, tying each sending slot to the
    /// consumer tasks it feeds (the precedence of eq. (4)).
    flow_ids: Vec<u64>,
    beacons_ok: bool,
    transmissions: u64,
}

/// Executes a schedule's rounds over a topology, one application run at a
/// time.
///
/// Success semantics per run: a *flood* succeeds when it reaches every
/// consumer node; a *message* is valid when its flood succeeded and its
/// producer task succeeded; a *task* succeeds when every same-node
/// predecessor succeeded and every remote input message was valid.
#[derive(Debug)]
pub struct LwbExecutor<'a> {
    app: &'a Application,
    schedule: &'a Schedule,
    topo: &'a Topology,
    host: NodeId,
}

impl<'a> LwbExecutor<'a> {
    /// Creates an executor after checking that the host and every task's
    /// node lie in the topology and that the schedule fits the
    /// application ([`Schedule::check_shape`]: every message sent in
    /// exactly one round, every slot and beacon flooded with `N_TX ≥ 1`),
    /// so that [`Self::run_once`] can flood every round it holds.
    ///
    /// # Errors
    ///
    /// See [`LwbError`].
    pub fn new(
        app: &'a Application,
        schedule: &'a Schedule,
        topo: &'a Topology,
        host: NodeId,
    ) -> Result<Self, LwbError> {
        if host.index() >= topo.node_count() {
            return Err(LwbError::HostOutOfRange(host));
        }
        for t in app.tasks() {
            let node = app.task(t).node;
            if node.index() >= topo.node_count() {
                return Err(LwbError::NodeOutOfRange(t, node));
            }
        }
        schedule
            .check_shape(app)
            .map_err(|e| LwbError::ScheduleMismatch(e.to_string()))?;
        Ok(LwbExecutor {
            app,
            schedule,
            topo,
            host,
        })
    }

    /// Executes round `r` of the schedule — beacon flood then one
    /// contention-free slot per message — accumulating flood results into
    /// `state`.
    fn execute_round<L: LossModel, R: Rng + ?Sized>(
        &self,
        r: usize,
        state: &mut RunState,
        link: &mut L,
        rng: &mut R,
    ) {
        let round = &self.schedule.rounds()[r];
        netdag_obs::counter!(netdag_obs::keys::LWB_ROUNDS_EXECUTED).incr();
        netdag_obs::counter!(netdag_obs::keys::LWB_BEACONS_SENT).incr();
        netdag_obs::counter!(netdag_obs::keys::LWB_SLOTS_EXECUTED).add(round.messages.len() as u64);
        let _round = netdag_trace::span_with(
            "lwb.round",
            &[
                ("round", r.into()),
                ("start_us", round.start_us.into()),
                ("beacon_chi", round.beacon_chi.into()),
            ],
        );
        // Beacon flood from the host.
        let beacon = {
            let _beacon = netdag_trace::span_with("lwb.beacon", &[("round", r.into())]);
            simulate_flood(
                self.topo,
                link,
                &FloodParams {
                    initiator: self.host,
                    n_tx: round.beacon_chi,
                },
                rng,
            )
            .expect("validated parameters")
        };
        state.transmissions += beacon.transmissions();
        state.beacons_ok &= beacon.all_reached();
        // One contention-free slot per message.
        for &m in &round.messages {
            let msg = self.app.message(m);
            let initiator = self.app.task(msg.source).node;
            let _slot = netdag_trace::span_with(
                "lwb.slot",
                &[
                    ("msg", m.index().into()),
                    ("chi", self.schedule.chi(m).into()),
                    ("width", msg.width.into()),
                ],
            );
            let flood = simulate_flood(
                self.topo,
                link,
                &FloodParams {
                    initiator,
                    n_tx: self.schedule.chi(m),
                },
                rng,
            )
            .expect("validated parameters");
            state.transmissions += flood.transmissions();
            state.flood_ok[m.index()] = msg
                .consumers
                .iter()
                .all(|&c| flood.reached(self.app.task(c).node));
            state.flow_ids[m.index()] = netdag_trace::flow_start("lwb.msg");
        }
    }

    /// Executes one application run: every round in bus order, announcing
    /// a mode switch before round `switch_round` when one is given (after
    /// the last round when it equals the round count), then propagates
    /// success through the task DAG.
    fn run<L: LossModel, R: Rng + ?Sized>(
        &self,
        switch_round: Option<usize>,
        link: &mut L,
        rng: &mut R,
    ) -> RunOutcome {
        let msg_count = self.app.message_count();
        let mut state = RunState {
            flood_ok: vec![false; msg_count],
            flow_ids: vec![0; msg_count],
            beacons_ok: true,
            transmissions: 0,
        };
        let rounds = self.schedule.rounds().len();
        for r in 0..=rounds {
            if switch_round == Some(r) {
                netdag_obs::counter!(netdag_obs::keys::LWB_MODE_SWITCHES).incr();
                netdag_trace::instant("lwb.mode_switch", &[("round", r.into())]);
            }
            if r < rounds {
                self.execute_round(r, &mut state, link, rng);
            }
        }
        self.propagate(state)
    }

    /// Executes one application run: every round in bus order, beacon then
    /// slots, then propagates success through the task DAG.
    pub fn run_once<L: LossModel, R: Rng + ?Sized>(&self, link: &mut L, rng: &mut R) -> RunOutcome {
        self.run(None, link, rng)
    }

    /// Propagates flood validity through the task DAG in topological order
    /// and assembles the run outcome.
    fn propagate(&self, state: RunState) -> RunOutcome {
        let RunState {
            flood_ok,
            flow_ids,
            beacons_ok,
            transmissions,
        } = state;
        let msg_count = self.app.message_count();
        let mut task_ok = vec![true; self.app.task_count()];
        let mut message_ok = vec![false; msg_count];
        for t in self.app.topological_tasks() {
            let mut ok = true;
            for &p in self.app.predecessors(t) {
                let same_node = self.app.task(p).node == self.app.task(t).node;
                if same_node {
                    ok &= task_ok[p.index()];
                } else {
                    let m = self.app.message_of(p).expect("remote edge has a message");
                    ok &= task_ok[p.index()] && flood_ok[m.index()];
                    // Close the slot→task arrow of eq. (4): this task
                    // consumes the message that flew in slot m.
                    netdag_trace::flow_end("lwb.msg", flow_ids[m.index()]);
                }
            }
            task_ok[t.index()] = ok;
            netdag_trace::instant("lwb.task", &[("task", t.index().into()), ("ok", ok.into())]);
            if let Some(m) = self.app.message_of(t) {
                message_ok[m.index()] = ok && flood_ok[m.index()];
            }
        }
        RunOutcome {
            task_ok,
            message_ok,
            flood_ok,
            beacons_ok,
            transmissions,
        }
    }

    /// Executes `runs` independent application runs, letting the channel
    /// evolve between runs, and collects the hit/miss trace.
    pub fn run_many<L: LossModel, R: Rng + ?Sized>(
        &self,
        link: &mut L,
        runs: usize,
        rng: &mut R,
    ) -> ExecutionTrace {
        let mut trace = ExecutionTrace::new(self.app.task_count(), self.app.message_count());
        for _ in 0..runs {
            let outcome = self.run_once(link, rng);
            trace.record(&outcome);
            link.advance_between_floods(rng);
        }
        trace
    }

    /// Checks that a mode switch from the current schedule to `to` at the
    /// boundary of `switch_round` is tear-free, and returns the executor
    /// of `to`: `to` must fit the application ([`Schedule::check_shape`]),
    /// the boundary must lie within both schedules, and the rounds before
    /// it must be identical (same slots, same start, same beacon and
    /// per-message `χ`) so that nodes already executing the old plan
    /// agree with the new one up to the announcement.
    fn check_switch<'b>(
        &self,
        to: &'b Schedule,
        switch_round: usize,
    ) -> Result<LwbExecutor<'b>, LwbError>
    where
        'a: 'b,
    {
        to.check_shape(self.app)
            .map_err(|e| LwbError::ScheduleMismatch(format!("target schedule: {e}")))?;
        let old = self.schedule.rounds();
        let new = to.rounds();
        if switch_round > old.len() || switch_round > new.len() {
            return Err(LwbError::ScheduleMismatch(format!(
                "switch at round {switch_round} is beyond the schedules \
                 ({} and {} rounds)",
                old.len(),
                new.len()
            )));
        }
        for r in 0..switch_round {
            if old[r] != new[r] {
                return Err(LwbError::ScheduleMismatch(format!(
                    "round {r} differs between the schedules; a switch at \
                     round {switch_round} would tear the shared prefix"
                )));
            }
            for &m in &old[r].messages {
                if self.schedule.chi(m) != to.chi(m) {
                    return Err(LwbError::ScheduleMismatch(format!(
                        "message {m} in shared round {r} has different χ \
                         across the schedules"
                    )));
                }
            }
        }
        Ok(LwbExecutor {
            schedule: to,
            ..*self
        })
    }

    /// Executes one run that switches modes at a round boundary: rounds
    /// `0..switch_round` follow the executor's current schedule, the rest
    /// follow `to`.
    ///
    /// The switch is *beacon-announced*: the first post-switch round opens,
    /// as every round does, with a beacon flood from the host carrying the
    /// round layout, so all nodes learn the new plan before any of its
    /// slots fire. No round is re-laid-out midway (no mid-round tearing):
    /// the call first checks that both schedules agree on every round
    /// before the boundary, which is exactly what the scheduler's
    /// shared-prefix coupling (`netdag_core::modes::schedule_modes`)
    /// guarantees for boundaries inside the shared prefix. So the switched
    /// run is a run of `to`: it floods what `to`'s own executor would, in
    /// the same order, and returns the same [`RunOutcome`] from the same
    /// channel and RNG state.
    ///
    /// Emits the `lwb.mode_switch` trace instant and bumps the
    /// `lwb.mode_switches` counter at the boundary.
    ///
    /// # Errors
    ///
    /// [`LwbError::ScheduleMismatch`] when `to` does not fit the
    /// application, the boundary lies beyond either schedule, or a
    /// pre-boundary round differs between the two schedules.
    pub fn run_once_with_switch<L: LossModel, R: Rng + ?Sized>(
        &self,
        to: &Schedule,
        switch_round: usize,
        link: &mut L,
        rng: &mut R,
    ) -> Result<RunOutcome, LwbError> {
        Ok(self
            .check_switch(to, switch_round)?
            .run(Some(switch_round), link, rng))
    }

    /// Replays a mode change: `runs_before` runs under the current
    /// schedule, one transition run switching to `to` at the boundary of
    /// `switch_round` (see [`Self::run_once_with_switch`]), then
    /// `runs_after` runs under `to`, all against the same evolving channel.
    /// The trace therefore records `runs_before + 1 + runs_after` runs.
    ///
    /// # Errors
    ///
    /// See [`Self::run_once_with_switch`].
    pub fn run_many_with_switch<L: LossModel, R: Rng + ?Sized>(
        &self,
        to: &Schedule,
        switch_round: usize,
        runs_before: usize,
        runs_after: usize,
        link: &mut L,
        rng: &mut R,
    ) -> Result<ExecutionTrace, LwbError> {
        let after = self.check_switch(to, switch_round)?;
        let mut trace = ExecutionTrace::new(self.app.task_count(), self.app.message_count());
        for _ in 0..runs_before {
            trace.record(&self.run_once(link, rng));
            link.advance_between_floods(rng);
        }
        trace.record(&after.run(Some(switch_round), link, rng));
        link.advance_between_floods(rng);
        for _ in 0..runs_after {
            trace.record(&after.run_once(link, rng));
            link.advance_between_floods(rng);
        }
        Ok(trace)
    }

    /// The message ids in bus order (round by round, slot by slot).
    pub fn bus_order(&self) -> Vec<MsgId> {
        self.schedule
            .rounds()
            .iter()
            .flat_map(|r| r.messages.iter().copied())
            .collect()
    }

    /// Checks that every round's beacon announcement fits the beacon width
    /// `γ` used by the schedule's eq. (3) timing — i.e. the duration
    /// estimate actually budgeted enough airtime to disseminate the round
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`LwbError::ScheduleMismatch`] naming the first round whose
    /// encoded beacon exceeds `γ`.
    pub fn verify_beacon_budget(&self) -> Result<(), LwbError> {
        let gamma = self.schedule.timing().beacon_width as usize;
        for r in 0..self.schedule.rounds().len() {
            let payload = crate::codec::BeaconPayload::for_round(self.app, self.schedule, r)
                .map_err(|e| LwbError::ScheduleMismatch(e.to_string()))?;
            if !payload.fits(gamma) {
                return Err(LwbError::ScheduleMismatch(format!(
                    "round {r} beacon needs {} bytes but γ = {gamma}",
                    payload.encoded_len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::constraints::WeaklyHardConstraints;
    use netdag_core::stat::Eq13Statistic;
    use netdag_core::weakly_hard::schedule_weakly_hard;
    use netdag_glossy::link::{Bernoulli, Perfect};
    use netdag_glossy::Topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn three_node_app() -> Application {
        let mut b = Application::builder();
        let s = b.task("sense", NodeId(0), 500);
        let c = b.task("ctl", NodeId(1), 1000);
        let a = b.task("act", NodeId(2), 300);
        b.edge(s, c, 8).unwrap();
        b.edge(c, a, 4).unwrap();
        b.build().unwrap()
    }

    fn schedule_for(app: &Application) -> Schedule {
        schedule_weakly_hard(
            app,
            &Eq13Statistic::new(8),
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap()
        .schedule
    }

    #[test]
    fn perfect_channel_all_tasks_succeed() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = exec.run_once(&mut Perfect::new(), &mut rng);
        assert!(out.task_ok.iter().all(|&b| b));
        assert!(out.message_ok.iter().all(|&b| b));
        assert!(out.beacons_ok);
        assert!(out.transmissions > 0);
    }

    #[test]
    fn dead_channel_fails_downstream_tasks_only() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = exec.run_once(&mut Bernoulli::new(0.0).unwrap(), &mut rng);
        // The source has no inputs, so it still succeeds.
        assert!(out.task_ok[0]);
        assert!(!out.task_ok[1]);
        assert!(!out.task_ok[2]);
        assert!(out.flood_ok.iter().all(|&b| !b));
        assert!(!out.beacons_ok);
    }

    #[test]
    fn failure_propagates_through_valid_floods() {
        // Even if the second flood physically succeeds, the message is
        // invalid because its producer consumed a failed input. Simulate by
        // running on a channel that's dead only at first: easiest proxy is
        // semantic: flood_ok true but upstream false cannot happen with a
        // uniform dead channel, so check trace statistics instead.
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut link = Bernoulli::new(0.6).unwrap();
        let trace = exec.run_many(&mut link, 300, &mut rng);
        // Downstream hit rates are monotonically non-increasing along the
        // chain.
        let hr = |t: u32| trace.task_sequence(TaskId(t)).hit_rate();
        assert_eq!(hr(0), 1.0);
        assert!(hr(1) >= hr(2));
        assert!(hr(1) < 1.0);
    }

    #[test]
    fn run_many_counts_runs() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let trace = exec.run_many(&mut Perfect::new(), 25, &mut rng);
        assert_eq!(trace.runs(), 25);
        assert_eq!(trace.task_sequence(TaskId(2)).len(), 25);
    }

    #[test]
    fn bus_order_lists_every_message_once() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut order = exec.bus_order();
        order.sort_unstable();
        let mut expect: Vec<MsgId> = app.messages().collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
    }

    #[test]
    fn beacon_budget_check() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        // The default γ = 8 bytes cannot carry even the 5-byte header plus
        // one 7-byte slot: the check must fire.
        let err = exec.verify_beacon_budget().unwrap_err();
        assert!(matches!(err, LwbError::ScheduleMismatch(_)));
        assert!(err.to_string().contains("γ = 8"));
        // A generously sized beacon passes.
        let mut cfg = SchedulerConfig::greedy();
        cfg.timing.beacon_width = 64;
        let out = schedule_weakly_hard(
            &app,
            &Eq13Statistic::new(8),
            &WeaklyHardConstraints::new(),
            &cfg,
        )
        .unwrap();
        let exec = LwbExecutor::new(&app, &out.schedule, &topo, NodeId(0)).unwrap();
        exec.verify_beacon_budget().unwrap();
    }

    fn two_mode_outcome() -> netdag_core::modes::ModeScheduleOutcome {
        use netdag_core::modes::{schedule_modes, ModeSpec, ModesSpec};
        use netdag_core::spec::{AppSpec, EdgeSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec};
        let task = |name: &str, node: u32, wcet_us: u64| TaskSpec {
            name: name.to_owned(),
            node,
            wcet_us,
        };
        let edge = |from: &str, to: &str, width: u32| EdgeSpec {
            from: from.to_owned(),
            to: to.to_owned(),
            width,
        };
        let wh = |m: u32, k: u32| {
            Some(WeaklyHardSpec {
                constraints: vec![WeaklyHardEntry {
                    task: "act".to_owned(),
                    m,
                    k,
                }],
            })
        };
        let spec = ModesSpec {
            app: AppSpec {
                tasks: vec![
                    task("sense", 0, 500),
                    task("ctl", 1, 1000),
                    task("act", 2, 300),
                ],
                edges: vec![edge("sense", "ctl", 8), edge("ctl", "act", 4)],
            },
            shared_prefix_rounds: Some(1),
            modes: vec![
                ModeSpec {
                    name: "nominal".to_owned(),
                    tasks: None,
                    soft: None,
                    weakly_hard: wh(10, 40),
                    loss: None,
                },
                ModeSpec {
                    name: "degraded".to_owned(),
                    tasks: None,
                    soft: None,
                    weakly_hard: wh(30, 40),
                    loss: Some(0.9),
                },
            ],
        };
        schedule_modes(&spec, &SchedulerConfig::default()).unwrap()
    }

    #[test]
    fn mode_switch_at_shared_boundary_runs_clean() {
        let out = two_mode_outcome();
        let (nominal, degraded) = (&out.modes[0].schedule, &out.modes[1].schedule);
        // The co-synthesized schedules share their first round verbatim.
        assert_eq!(nominal.rounds()[0], degraded.rounds()[0]);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&out.app, nominal, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let run = exec
            .run_once_with_switch(
                degraded,
                out.shared_prefix_rounds,
                &mut Perfect::new(),
                &mut rng,
            )
            .unwrap();
        assert!(run.task_ok.iter().all(|&b| b));
        assert!(run.message_ok.iter().all(|&b| b));
        assert!(run.beacons_ok);
    }

    #[test]
    fn run_many_with_switch_records_all_runs() {
        let out = two_mode_outcome();
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&out.app, &out.modes[0].schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut link = Bernoulli::new(0.9).unwrap();
        let trace = exec
            .run_many_with_switch(&out.modes[1].schedule, 1, 5, 6, &mut link, &mut rng)
            .unwrap();
        assert_eq!(trace.runs(), 5 + 1 + 6);
    }

    #[test]
    fn switch_rejects_torn_prefixes() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&app, &schedule, &topo, NodeId(0)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let chi: Vec<u32> = app.messages().map(|m| schedule.chi(m)).collect();
        let starts: Vec<u64> = app.tasks().map(|t| schedule.task_start(t)).collect();
        // Boundary beyond either schedule.
        let n = schedule.rounds().len();
        let err = exec
            .run_once_with_switch(&schedule, n + 1, &mut Perfect::new(), &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("beyond"));
        // A pre-boundary round that differs (different beacon χ).
        let mut rounds = schedule.rounds().to_vec();
        rounds[0].beacon_chi += 1;
        let torn = Schedule::new(rounds, chi.clone(), starts.clone(), *schedule.timing());
        let err = exec
            .run_once_with_switch(&torn, 1, &mut Perfect::new(), &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("round 0 differs"));
        // Identical rounds but a different slot χ in the shared prefix.
        let mut chi2 = chi;
        chi2[schedule.rounds()[0].messages[0].index()] += 1;
        let torn = Schedule::new(schedule.rounds().to_vec(), chi2, starts, *schedule.timing());
        let err = exec
            .run_once_with_switch(&torn, 1, &mut Perfect::new(), &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("different χ"));
    }

    #[test]
    fn constructor_validation() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        // Topology too small for the app's nodes.
        let tiny = Topology::line(2).unwrap();
        assert!(matches!(
            LwbExecutor::new(&app, &schedule, &tiny, NodeId(0)),
            Err(LwbError::NodeOutOfRange(_, _))
        ));
        let topo = Topology::line(3).unwrap();
        assert!(matches!(
            LwbExecutor::new(&app, &schedule, &topo, NodeId(9)),
            Err(LwbError::HostOutOfRange(_))
        ));
        // Schedule with no rounds does not cover the messages.
        let empty = Schedule::new(
            vec![],
            vec![1; app.message_count()],
            vec![0; 3],
            *schedule.timing(),
        );
        assert!(matches!(
            LwbExecutor::new(&app, &empty, &topo, NodeId(0)),
            Err(LwbError::ScheduleMismatch(_))
        ));
    }

    /// Schedules that cover every message but that `run_once` could not
    /// execute (a short χ table, a slot or a beacon with `N_TX = 0`) are
    /// refused up front.
    #[test]
    fn constructor_refuses_what_run_once_cannot_flood() {
        let app = three_node_app();
        let schedule = schedule_for(&app);
        let topo = Topology::line(3).unwrap();
        let chi: Vec<u32> = app.messages().map(|m| schedule.chi(m)).collect();
        let starts: Vec<u64> = app.tasks().map(|t| schedule.task_start(t)).collect();
        let rebuilt = |rounds: Vec<netdag_core::schedule::Round>, chi: Vec<u32>| {
            Schedule::new(rounds, chi, starts.clone(), *schedule.timing())
        };
        let mut zero_slot = chi.clone();
        zero_slot[1] = 0;
        let mut zero_beacon = schedule.rounds().to_vec();
        zero_beacon[0].beacon_chi = 0;
        for (bad, reason) in [
            (
                rebuilt(schedule.rounds().to_vec(), chi[..1].to_vec()),
                "1 chi entries for 2 messages",
            ),
            (
                rebuilt(schedule.rounds().to_vec(), zero_slot),
                "message e1 has N_TX = 0",
            ),
            (rebuilt(zero_beacon, chi), "round 0 has beacon N_TX = 0"),
        ] {
            match LwbExecutor::new(&app, &bad, &topo, NodeId(0)) {
                Err(LwbError::ScheduleMismatch(m)) => assert!(m.contains(reason), "{m}"),
                other => panic!("{reason}: {other:?}"),
            }
        }
    }

    /// A switched run is a run of the target schedule: from one seed it
    /// draws the same floods and returns the same outcome as the target
    /// executor's `run_once`, and it announces the switch between round
    /// `k − 1` and round `k` (after the last round when `k` is the round
    /// count).
    #[test]
    fn switched_run_is_a_run_of_the_target_schedule() {
        use netdag_trace::EventKind;
        let out = two_mode_outcome();
        let (nominal, degraded) = (&out.modes[0].schedule, &out.modes[1].schedule);
        let topo = Topology::line(3).unwrap();
        let exec = LwbExecutor::new(&out.app, nominal, &topo, NodeId(0)).unwrap();
        let target = LwbExecutor::new(&out.app, degraded, &topo, NodeId(0)).unwrap();
        let mut cases: Vec<(&Schedule, &LwbExecutor, usize)> = (0..=out.shared_prefix_rounds)
            .map(|k| (degraded, &target, k))
            .collect();
        cases.push((nominal, &exec, nominal.rounds().len()));
        for (to, to_exec, k) in cases {
            let seed = 40 + k as u64;
            let plain = to_exec.run_once(
                &mut Bernoulli::new(0.7).unwrap(),
                &mut ChaCha8Rng::seed_from_u64(seed),
            );
            netdag_trace::set_enabled(true);
            let switched = {
                // Other tests of this binary may record on their own
                // threads; this span marks the track to read.
                let _scope = netdag_trace::span("test.switched_run");
                exec.run_once_with_switch(
                    to,
                    k,
                    &mut Bernoulli::new(0.7).unwrap(),
                    &mut ChaCha8Rng::seed_from_u64(seed),
                )
                .unwrap()
            };
            netdag_trace::set_enabled(false);
            assert_eq!(switched, plain, "switch at round {k}");

            let events = netdag_trace::drain().events;
            let tid = events
                .iter()
                .find(|e| e.name == "test.switched_run")
                .expect("scope span recorded")
                .tid;
            let events: Vec<_> = events.into_iter().filter(|e| e.tid == tid).collect();
            let switch = events
                .iter()
                .filter(|e| e.kind == EventKind::Instant && e.name == "lwb.mode_switch")
                .map(|e| e.seq)
                .collect::<Vec<_>>();
            assert_eq!(switch.len(), 1, "one announcement at round {k}");
            let rounds: Vec<(u64, u64)> = events
                .iter()
                .filter(|e| e.kind == EventKind::Begin && e.name == "lwb.round")
                .map(|b| {
                    let end = events
                        .iter()
                        .find(|e| e.kind == EventKind::End && e.id == b.id)
                        .expect("round span closed");
                    (b.seq, end.seq)
                })
                .collect();
            assert_eq!(rounds.len(), to.rounds().len());
            for (r, &(begin, end)) in rounds.iter().enumerate() {
                if r < k {
                    assert!(end < switch[0], "round {r} ends before the switch at {k}");
                } else {
                    assert!(begin > switch[0], "round {r} opens after the switch at {k}");
                }
            }
        }
    }
}

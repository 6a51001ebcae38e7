//! Seeded scenario generation: every scenario is a pure function of
//! `(master_seed, scenario_index)`.
//!
//! Each *aspect* of a scenario — topology shape, application DAG,
//! constraint set, loss process, event schedule — draws from its own
//! [`netdag_runtime::derive_seed`] stream, so adjacent indices and
//! unrelated aspects never share generator state: changing how many
//! random draws the app generator makes cannot shift the loss process
//! of the same scenario, and scenario `i` cannot influence scenario
//! `i + 1`. That is what makes a failure replayable bit-identically
//! from nothing but `(master_seed, index)`.

use netdag_core::spec::{
    AppSpec, EdgeSpec, SoftEntry, SoftSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec,
};
use netdag_glossy::link::{Bernoulli, GilbertElliott, LossModel, NodeChurn};
use netdag_glossy::{NodeId, Topology, TopologyError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-aspect SplitMix64 stream tags (arbitrary distinct constants;
/// part of the corpus definition — changing one changes every
/// generated scenario).
const STREAM_SHAPE: u64 = 0x6e64_5301;
const STREAM_APP: u64 = 0x6e64_5302;
const STREAM_CONSTRAINTS: u64 = 0x6e64_5303;
const STREAM_LOSS: u64 = 0x6e64_5304;
const STREAM_EVENTS: u64 = 0x6e64_5305;
const STREAM_TOPOLOGY: u64 = 0x6e64_5306;
const STREAM_REPLAY: u64 = 0x6e64_5307;
const STREAM_VALIDATE: u64 = 0x6e64_5308;

/// One aspect's deterministic generator.
fn stream_rng(master_seed: u64, stream: u64, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::from_seed(netdag_runtime::derive_seed(master_seed, stream, index))
}

/// A derived `u64` (for protocol fields that take a scalar seed).
fn stream_u64(master_seed: u64, stream: u64, index: u64) -> u64 {
    let bytes = netdag_runtime::derive_seed(master_seed, stream, index);
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Topology family of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TopologyFamily {
    /// Chain `0 — 1 — … — n-1`.
    Line,
    /// Cycle over `n ≥ 3` nodes.
    Ring,
    /// Hub `0` with `n - 1` leaves.
    Star,
    /// `w × h` lattice.
    Grid,
    /// Random geometric graph in the unit square (density via the
    /// connection range).
    Mesh,
}

impl TopologyFamily {
    /// Stable lowercase name (JSON reports, histogram rows).
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Line => "line",
            TopologyFamily::Ring => "ring",
            TopologyFamily::Star => "star",
            TopologyFamily::Grid => "grid",
            TopologyFamily::Mesh => "mesh",
        }
    }
}

/// Serializable description of a link-loss process.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LossSpec {
    /// I.i.d. per-transmission loss.
    Bernoulli {
        /// Per-transmission reception probability.
        success: f64,
    },
    /// Two-state bursty channel (Gilbert–Elliott).
    GilbertElliott {
        /// Good → bad switch probability per transmission.
        p_good_to_bad: f64,
        /// Bad → good switch probability per transmission.
        p_bad_to_good: f64,
        /// Reception probability in the good state.
        success_good: f64,
        /// Reception probability in the bad state.
        success_bad: f64,
    },
}

impl LossSpec {
    /// Instantiates the loss model. Generated parameters are always in
    /// `[0, 1]`, so construction cannot fail for generator output.
    pub fn build(&self) -> ScenarioLink {
        match *self {
            LossSpec::Bernoulli { success } => ScenarioLink::Bernoulli(
                Bernoulli::new(success).expect("generated probability in range"),
            ),
            LossSpec::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                success_good,
                success_bad,
            } => ScenarioLink::GilbertElliott(
                GilbertElliott::new(p_good_to_bad, p_bad_to_good, success_good, success_bad)
                    .expect("generated probability in range"),
            ),
        }
    }
}

/// A concrete loss model built from a [`LossSpec`].
#[derive(Debug, Clone)]
pub enum ScenarioLink {
    /// I.i.d. channel.
    Bernoulli(Bernoulli),
    /// Bursty channel.
    GilbertElliott(GilbertElliott),
}

impl LossModel for ScenarioLink {
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        match self {
            ScenarioLink::Bernoulli(m) => m.receive(from, to, rng),
            ScenarioLink::GilbertElliott(m) => m.receive(from, to, rng),
        }
    }

    fn advance_between_floods<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        match self {
            ScenarioLink::Bernoulli(m) => m.advance_between_floods(rng),
            ScenarioLink::GilbertElliott(m) => m.advance_between_floods(rng),
        }
    }
}

/// One phase of time-varying link quality (mobility modeled as
/// piecewise-constant channel parameters over consecutive replay runs).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MobilityPhase {
    /// How many replay runs this phase lasts.
    pub runs: u32,
    /// The channel during the phase.
    pub loss: LossSpec,
}

/// What happens at a scheduled fault-injection point.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    /// Nodes start churning (independent down spells on every node).
    Churn {
        /// Per state-advance probability an up node goes down.
        p_fail: f64,
        /// Per state-advance probability a down node recovers.
        p_recover: f64,
    },
    /// One non-host node's radio dies for the rest of the scenario:
    /// every link through it blackholes. Triggers online re-admission
    /// with the scenario's degraded constraint set.
    LinkFail {
        /// The failing node (never the host, node 0).
        node: u32,
    },
}

/// One fault-injection point in a scenario's replay.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioEvent {
    /// Replay run (0-based) at whose start the event fires.
    pub at_run: u32,
    /// The injected fault.
    pub kind: EventKind,
}

/// Constraint family of a scenario, with the relaxed variant used for
/// online re-admission after a link failure.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConstraintSet {
    /// Weakly-hard `(m, k)` constraints on the sink tasks.
    WeaklyHard {
        /// The admission contract.
        spec: WeaklyHardSpec,
        /// Relaxed contract for re-admission after a failure.
        degraded: WeaklyHardSpec,
    },
    /// Soft per-task success probabilities on the sink tasks.
    Soft {
        /// The admission contract.
        spec: SoftSpec,
        /// Filtered signal strength driving the eq. (15) statistic.
        fss: f64,
        /// Relaxed contract for re-admission after a failure.
        degraded: SoftSpec,
    },
}

/// A fully specified, replayable workload: application, constraints,
/// channel, mobility and fault schedule. Pure data — building the
/// topology or the channel is a method, so the struct stays
/// serializable and byte-comparable.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// The corpus seed this scenario derives from.
    pub master_seed: u64,
    /// Position in the corpus; `(master_seed, index)` is the scenario's
    /// complete identity.
    pub index: u64,
    /// Topology family.
    pub family: TopologyFamily,
    /// Node count (host is always node 0).
    pub nodes: u32,
    /// Lattice dimensions, [`TopologyFamily::Grid`] only.
    pub grid: Option<(u32, u32)>,
    /// Connection range (density knob), [`TopologyFamily::Mesh`] only.
    pub mesh_range: Option<f64>,
    /// The application DAG, in the CLI's wire format.
    pub app: AppSpec,
    /// Admission contract (and its degraded re-admission variant).
    pub constraints: ConstraintSet,
    /// Baseline channel (phase 0 when mobility is present).
    pub loss: LossSpec,
    /// Piecewise-constant channel phases; empty = static channel.
    pub mobility: Vec<MobilityPhase>,
    /// Fault injections, sorted by `at_run`.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Rebuilds the scenario's topology. Mesh layouts redraw from the
    /// scenario's own topology stream, so the same `(seed, index)`
    /// always yields the same geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`]; practically unreachable for
    /// generated parameters (mesh ranges are chosen dense enough that
    /// 1000 connectivity retries cannot plausibly all fail).
    pub fn topology(&self) -> Result<Topology, TopologyError> {
        let n = self.nodes as usize;
        match self.family {
            TopologyFamily::Line => Topology::line(n),
            TopologyFamily::Ring => Topology::ring(n),
            TopologyFamily::Star => Topology::star(n),
            TopologyFamily::Grid => {
                let (w, h) = self.grid.expect("grid scenarios carry dimensions");
                Topology::grid(w as usize, h as usize)
            }
            TopologyFamily::Mesh => {
                let range = self.mesh_range.expect("mesh scenarios carry a range");
                let mut rng = stream_rng(self.master_seed, STREAM_TOPOLOGY, self.index);
                Topology::random_geometric(n, range, &mut rng)
            }
        }
    }

    /// A fresh channel in the scenario's baseline phase.
    pub fn channel(&self) -> ScenarioChannel {
        ScenarioChannel::new(&self.loss)
    }

    /// Deterministic RNG for replaying this scenario's floods.
    pub fn replay_rng(&self) -> ChaCha8Rng {
        stream_rng(self.master_seed, STREAM_REPLAY, self.index)
    }

    /// Deterministic scalar seed for the daemon's `validate` op.
    pub fn validate_seed(&self) -> u64 {
        stream_u64(self.master_seed, STREAM_VALIDATE, self.index)
    }

    /// Stable display name, e.g. `s00042-mesh`.
    pub fn name(&self) -> String {
        format!("s{:05}-{}", self.index, self.family.name())
    }
}

/// The scenario's channel as replayed by the soak driver: the phase's
/// loss process, optionally wrapped in node churn once a
/// [`EventKind::Churn`] fires, with a blackhole list fed by
/// [`EventKind::LinkFail`].
#[derive(Debug, Clone)]
pub struct ScenarioChannel {
    inner: ChannelInner,
    /// Churn parameters, kept so phase switches re-wrap the new base.
    churn: Option<(f64, f64)>,
    dead: Vec<NodeId>,
}

#[derive(Debug, Clone)]
enum ChannelInner {
    Plain(ScenarioLink),
    Churned(Box<NodeChurn<ScenarioLink>>),
}

impl ScenarioChannel {
    /// A fresh channel in the given phase, no churn, no dead nodes.
    pub fn new(loss: &LossSpec) -> ScenarioChannel {
        ScenarioChannel {
            inner: ChannelInner::Plain(loss.build()),
            churn: None,
            dead: Vec::new(),
        }
    }

    /// Switches to a new mobility phase. The channel re-associates:
    /// burst and churn state reset (the node moved; its old link states
    /// are meaningless), dead radios stay dead.
    pub fn set_phase(&mut self, loss: &LossSpec) {
        let base = loss.build();
        self.inner = match self.churn {
            Some((p_fail, p_recover)) => ChannelInner::Churned(Box::new(
                NodeChurn::new(base, p_fail, p_recover).expect("generated probability in range"),
            )),
            None => ChannelInner::Plain(base),
        };
    }

    /// Applies one scheduled event. [`EventKind::Churn`] starts node
    /// churn; if churn is already running the parameters are recorded
    /// for the next phase switch but the live model keeps its state
    /// (down nodes do not spontaneously heal). [`EventKind::LinkFail`]
    /// permanently blackholes every link through the node.
    pub fn apply(&mut self, event: &EventKind) {
        match *event {
            EventKind::Churn { p_fail, p_recover } => {
                self.churn = Some((p_fail, p_recover));
                if let ChannelInner::Plain(link) = &self.inner {
                    self.inner = ChannelInner::Churned(Box::new(
                        NodeChurn::new(link.clone(), p_fail, p_recover)
                            .expect("generated probability in range"),
                    ));
                }
            }
            EventKind::LinkFail { node } => {
                let id = NodeId(node);
                if !self.dead.contains(&id) {
                    self.dead.push(id);
                }
            }
        }
    }
}

impl LossModel for ScenarioChannel {
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        let alive = !self.dead.contains(&from) && !self.dead.contains(&to);
        // Always advance the underlying channel so burst/churn state
        // evolves with time even across a dead link.
        let received = match &mut self.inner {
            ChannelInner::Plain(m) => m.receive(from, to, rng),
            ChannelInner::Churned(m) => m.receive(from, to, rng),
        };
        alive && received
    }

    fn advance_between_floods<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        match &mut self.inner {
            ChannelInner::Plain(m) => m.advance_between_floods(rng),
            ChannelInner::Churned(m) => m.advance_between_floods(rng),
        }
    }
}

/// Corpus-level knobs. The defaults keep single-scenario solve cost
/// small enough that thousands of scenarios stream through a daemon in
/// seconds, while still covering every family and constraint kind.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioParams {
    /// Upper bound on node count (≥ 5; grids are capped at 3 × 3).
    pub max_nodes: u32,
    /// Upper bound on task count per application.
    pub max_tasks: u32,
    /// Probability a scenario has a mobility schedule.
    pub mobility_prob: f64,
    /// Probability of each fault-injection event kind.
    pub event_prob: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            max_nodes: 10,
            max_tasks: 7,
            mobility_prob: 0.3,
            event_prob: 0.35,
        }
    }
}

/// Generates scenario `index` of the corpus seeded by `master_seed`.
/// Pure: equal arguments yield byte-identical scenarios on every call,
/// in every thread, in every process.
pub fn generate(master_seed: u64, index: u64, params: &ScenarioParams) -> Scenario {
    let max_nodes = params.max_nodes.max(5);
    let mut shape = stream_rng(master_seed, STREAM_SHAPE, index);
    let family = match shape.gen_range(0u32..5) {
        0 => TopologyFamily::Line,
        1 => TopologyFamily::Ring,
        2 => TopologyFamily::Star,
        3 => TopologyFamily::Grid,
        _ => TopologyFamily::Mesh,
    };
    let (nodes, grid, mesh_range) = match family {
        TopologyFamily::Line | TopologyFamily::Ring | TopologyFamily::Star => {
            (shape.gen_range(4..=max_nodes), None, None)
        }
        TopologyFamily::Grid => {
            let w = shape.gen_range(2u32..=3);
            let h = shape.gen_range(2u32..=3);
            (w * h, Some((w, h)), None)
        }
        TopologyFamily::Mesh => {
            // Density knob: tighter range = sparser mesh. Kept ≥ 0.55
            // so 1000 connectivity retries practically never fail.
            let n = shape.gen_range(5..=max_nodes);
            (n, None, Some(shape.gen_range(0.55..0.9)))
        }
    };

    let mut app_rng = stream_rng(master_seed, STREAM_APP, index);
    let app = generate_app(&mut app_rng, nodes, params.max_tasks.max(3));

    let mut con_rng = stream_rng(master_seed, STREAM_CONSTRAINTS, index);
    let constraints = generate_constraints(&mut con_rng, &app);

    let mut loss_rng = stream_rng(master_seed, STREAM_LOSS, index);
    let loss = generate_loss(&mut loss_rng);
    let mobility = if loss_rng.gen::<f64>() < params.mobility_prob {
        let phases = loss_rng.gen_range(2u32..=3);
        (0..phases)
            .map(|_| MobilityPhase {
                runs: loss_rng.gen_range(2..=5),
                loss: generate_loss(&mut loss_rng),
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut ev_rng = stream_rng(master_seed, STREAM_EVENTS, index);
    let mut events = Vec::new();
    if ev_rng.gen::<f64>() < params.event_prob {
        events.push(ScenarioEvent {
            at_run: ev_rng.gen_range(2..=5),
            kind: EventKind::Churn {
                p_fail: ev_rng.gen_range(0.01..0.08),
                p_recover: ev_rng.gen_range(0.25..0.6),
            },
        });
    }
    if ev_rng.gen::<f64>() < params.event_prob {
        events.push(ScenarioEvent {
            at_run: ev_rng.gen_range(4..=8),
            kind: EventKind::LinkFail {
                node: ev_rng.gen_range(1..nodes),
            },
        });
    }
    events.sort_by_key(|e| e.at_run);

    Scenario {
        master_seed,
        index,
        family,
        nodes,
        grid,
        mesh_range,
        app,
        constraints,
        loss,
        mobility,
        events,
    }
}

/// Layered DAG: 2–3 layers, tasks pinned to random nodes, every
/// non-source task consuming 1–2 predecessors from the previous layer.
/// The first cross-layer edge is forced remote so every application has
/// at least one bus message.
fn generate_app<R: Rng + ?Sized>(rng: &mut R, nodes: u32, max_tasks: u32) -> AppSpec {
    // Same-node tasks must be dependency-ordered (eq. (1)), so tasks
    // only ever share a node along a predecessor chain. Capping the
    // task count at the node count keeps a free node available whenever
    // a task must not co-locate.
    let max_tasks = max_tasks.min(nodes);
    let layers = rng.gen_range(2u32..=3).min(max_tasks);
    let mut widths = Vec::new();
    let mut total = 0u32;
    for l in 0..layers {
        let reserve = layers - l - 1; // one task for each later layer
        let w = rng
            .gen_range(1u32..=2)
            .min((max_tasks - total - reserve).max(1));
        widths.push(w);
        total += w;
    }

    let mut tasks: Vec<TaskSpec> = Vec::new();
    let mut msg_widths: Vec<u32> = Vec::new();
    let mut preds: Vec<Vec<usize>> = Vec::new();
    let mut layer_tasks: Vec<Vec<usize>> = Vec::new();
    for (l, &w) in widths.iter().enumerate() {
        let mut layer = Vec::new();
        for _ in 0..w {
            let i = tasks.len();
            tasks.push(TaskSpec {
                name: format!("t{i}"),
                node: 0, // placed below, once predecessors are known
                wcet_us: rng.gen_range(100u64..=900),
            });
            // Every edge out of a task rides the same flood, so the
            // message width is a per-producer draw, not a per-edge one.
            msg_widths.push(rng.gen_range(2u32..=12));
            let mut p = Vec::new();
            if l > 0 {
                let prev = &layer_tasks[l - 1];
                let n = rng.gen_range(1..=prev.len().min(2));
                let first = rng.gen_range(0..prev.len());
                for k in 0..n {
                    p.push(prev[(first + k) % prev.len()]);
                }
            }
            preds.push(p);
            layer.push(i);
        }
        layer_tasks.push(layer);
    }

    // Placement: `tail[node]` is the newest occupant, and a task may
    // join a node only when that tail is one of its direct
    // predecessors — every node's occupants then form a dependency
    // chain, which is exactly what eq. (1) admits.
    let mut tail: Vec<Option<usize>> = vec![None; nodes as usize];
    let mut remote_edges = 0usize;
    for i in 0..tasks.len() {
        let chain = preds[i]
            .iter()
            .copied()
            .find(|&p| tail[tasks[p].node as usize] == Some(p));
        let node = match chain {
            Some(p) if rng.gen::<f64>() < 0.3 => tasks[p].node,
            _ => {
                let free: Vec<u32> = (0..nodes).filter(|&n| tail[n as usize].is_none()).collect();
                free[rng.gen_range(0..free.len())]
            }
        };
        remote_edges += preds[i].iter().filter(|&&p| tasks[p].node != node).count();
        tasks[i].node = node;
        tail[node as usize] = Some(i);
    }
    // Guarantee at least one remote edge (= one real bus message): move
    // the first consumer to a free node. Its old node keeps a chain and
    // anything stacked above it stays transitively ordered through it.
    if remote_edges == 0 {
        if let Some(i) = (0..tasks.len()).find(|&i| !preds[i].is_empty()) {
            let free = (0..nodes)
                .find(|&n| tail[n as usize].is_none())
                .expect("tasks are capped at the node count");
            tasks[i].node = free;
        }
    }

    let mut edges: Vec<EdgeSpec> = Vec::new();
    for i in 0..tasks.len() {
        for &p in &preds[i] {
            edges.push(EdgeSpec {
                from: tasks[p].name.clone(),
                to: tasks[i].name.clone(),
                width: msg_widths[p],
            });
        }
    }
    AppSpec { tasks, edges }
}

/// Constraint sets target the sink tasks (capped at 3). Roughly 45%
/// soft / 55% weakly-hard across a corpus — the "mixed" axis lives at
/// the corpus level, each scenario being one family so solve and
/// validate requests stay well-formed.
fn generate_constraints<R: Rng + ?Sized>(rng: &mut R, app: &AppSpec) -> ConstraintSet {
    let sinks: Vec<&TaskSpec> = app
        .tasks
        .iter()
        .filter(|t| !app.edges.iter().any(|e| e.from == t.name))
        .take(3)
        .collect();
    if rng.gen::<f64>() < 0.45 {
        let fss = rng.gen_range(0.35..0.9);
        let mut spec = SoftSpec {
            constraints: Vec::new(),
        };
        let mut degraded = SoftSpec {
            constraints: Vec::new(),
        };
        for sink in &sinks {
            let p: f64 = rng.gen_range(0.60..0.90);
            spec.constraints.push(SoftEntry {
                task: sink.name.clone(),
                probability: p,
            });
            degraded.constraints.push(SoftEntry {
                task: sink.name.clone(),
                probability: (p * 0.8).max(0.5),
            });
        }
        ConstraintSet::Soft {
            spec,
            fss,
            degraded,
        }
    } else {
        let mut spec = WeaklyHardSpec {
            constraints: Vec::new(),
        };
        let mut degraded = WeaklyHardSpec {
            constraints: Vec::new(),
        };
        for sink in &sinks {
            let k = [20u32, 30, 40, 60][rng.gen_range(0usize..4)];
            // Mostly comfortably feasible windows, with a tail of tight
            // ones so the corpus also exercises infeasibility answers.
            let m = if rng.gen::<f64>() < 0.2 {
                rng.gen_range(k / 3..=k / 2)
            } else {
                rng.gen_range(1..=k / 6)
            };
            spec.constraints.push(WeaklyHardEntry {
                task: sink.name.clone(),
                m,
                k,
            });
            degraded.constraints.push(WeaklyHardEntry {
                task: sink.name.clone(),
                m: (m / 2).max(1),
                k,
            });
        }
        ConstraintSet::WeaklyHard { spec, degraded }
    }
}

/// Bernoulli and Gilbert–Elliott channels in equal measure.
fn generate_loss<R: Rng + ?Sized>(rng: &mut R) -> LossSpec {
    if rng.gen::<f64>() < 0.5 {
        LossSpec::Bernoulli {
            success: rng.gen_range(0.55..0.98),
        }
    } else {
        LossSpec::GilbertElliott {
            p_good_to_bad: rng.gen_range(0.02..0.15),
            p_bad_to_good: rng.gen_range(0.15..0.5),
            success_good: rng.gen_range(0.92..1.0),
            success_bad: rng.gen_range(0.05..0.5),
        }
    }
}

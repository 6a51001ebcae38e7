//! Trail-based depth-first search with event-driven propagation and
//! branch-and-bound.
//!
//! The engine keeps a **single mutable** [`DomainStore`] and rewinds it
//! through an undo trail (chronological backtracking over
//! `(var, old_lo, old_hi)` entries with per-node trail marks) instead of
//! cloning the store at every branch the way the retired
//! [`crate::reference`] engine does. The search itself is an iterative
//! loop over an explicit frame stack — no recursion, no per-node
//! allocation (frames are plain `Copy` structs reused in place).
//!
//! Propagation is **event-driven**: a var→propagator watch graph is
//! built once per search from [`crate::propagator::Propagator::vars`],
//! and the fixpoint queue is seeded only by the variables that actually
//! changed (the branching decision, the objective bound, and whatever
//! propagators tighten). Fixpoint cost therefore scales with the
//! affected constraint subgraph instead of `O(constraints)` per pass;
//! because propagators are sound and monotone, the reached fixpoint —
//! and hence the explored tree — is identical to the full-pass engine's.
//!
//! Two search-quality layers sit on top, both deterministic and
//! replayable:
//!
//! * [`VarOrder::DomWdeg`] — conflict-weighted variable selection:
//!   every propagator carries a weight, bumped each time it wipes out a
//!   domain, and the branching variable minimizes
//!   `width / Σ weights of watching propagators`. Weights survive
//!   restarts, so restarts steer later trees toward the conflict core.
//! * [`RestartPolicy`] — Luby-sequence restarts counted in failures
//!   (`scale · luby(i)`); the unbounded growth of the sequence
//!   guarantees completeness on finite models.

use std::collections::VecDeque;

use crate::domain::{DomainStore, VarId};
use crate::model::Model;
use crate::relax::Relaxation;

/// Order in which unfixed variables are selected for branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// First unfixed variable in creation order (good when the model is
    /// built "decisions first").
    #[default]
    Input,
    /// Smallest remaining domain first (fail-first).
    SmallestDomain,
    /// dom/wdeg: smallest `width / Σ conflict weights` first. Propagator
    /// weights start at 1 and are bumped on every domain wipe-out, so
    /// branching gravitates toward the variables entangled in the most
    /// failures. Ties break toward the lowest variable index, keeping
    /// the heuristic fully deterministic.
    DomWdeg,
}

/// Order in which values are tried for the selected variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueOrder {
    /// Try small values first (good for minimization).
    #[default]
    MinFirst,
    /// Try large values first.
    MaxFirst,
}

/// Deterministic Luby restart schedule, counted in failures.
///
/// The `i`-th run is cut off after `scale · luby(i)` failures
/// (dead ends), where `luby` is the 1, 1, 2, 1, 1, 2, 4, … sequence.
/// Restarts rewind to the root but keep dom/wdeg conflict weights, so
/// each run branches differently; because the cutoffs grow without
/// bound, the search still terminates with a proof on finite models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Failures per Luby unit (a typical value is 32–128).
    pub scale: u64,
}

/// The `i`-th element (1-based) of the Luby sequence
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
pub(crate) fn luby(i: u64) -> u64 {
    debug_assert!(i >= 1);
    let mut i = i;
    loop {
        // Smallest k with 2^k ≥ i + 1.
        let mut k = 1u32;
        while (1u64 << k) < i + 1 {
            k += 1;
        }
        if (1u64 << k) == i + 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Variable selection strategy.
    pub var_order: VarOrder,
    /// Value selection strategy.
    pub value_order: ValueOrder,
    /// Abort after this many search nodes (`None` = unlimited). When the
    /// limit is hit the best solution so far is returned and
    /// [`SearchStats::proven_optimal`] is `false`.
    pub node_limit: Option<u64>,
    /// Luby restart schedule (`None` = never restart).
    pub restarts: Option<RestartPolicy>,
    /// Relaxation lower bounds ([`crate::relax`]): close the model's
    /// difference-constraint subsystem once at the root, shave root
    /// domains to their CPM `[ES, LS]` windows, and prune any freshly
    /// decided child whose admissible objective bound already reaches
    /// the incumbent — without opening it. Sound and *solution-
    /// preserving*: a pruned child is one the unbounded engine opens
    /// only to kill in propagation, so both engines record the same
    /// incumbent sequence (see `tests/lower_bound.rs`). Only affects
    /// minimization (ignored without an objective). The `minimize*`
    /// entry points close the relaxation themselves; an engine from
    /// [`Model::engine`] or [`Model::minimize_portfolio`] borrows its
    /// caller's and searches unbounded without one.
    pub lower_bound: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            var_order: VarOrder::Input,
            value_order: ValueOrder::MinFirst,
            node_limit: None,
            restarts: None,
            lower_bound: false,
        }
    }
}

/// A deterministic family of `n` diverse [`SearchConfig`]s for the
/// portfolio race: config 0 is the plain input-order dive (the strongest
/// single strategy on scheduling-shaped models), later indices mix
/// dom/wdeg and fail-first orders with differently scaled Luby restarts.
/// The family depends only on `(n, node_limit)`, so a portfolio run is
/// replayable from its size alone.
pub fn portfolio_configs(n: usize, node_limit: Option<u64>) -> Vec<SearchConfig> {
    (0..n)
        .map(|i| {
            let (var_order, value_order, restarts, lower_bound) = match i {
                0 => (VarOrder::Input, ValueOrder::MinFirst, None, false),
                1 => (
                    VarOrder::DomWdeg,
                    ValueOrder::MinFirst,
                    Some(RestartPolicy { scale: 64 }),
                    false,
                ),
                2 => (
                    VarOrder::SmallestDomain,
                    ValueOrder::MinFirst,
                    Some(RestartPolicy { scale: 128 }),
                    false,
                ),
                3 => (
                    VarOrder::DomWdeg,
                    ValueOrder::MaxFirst,
                    Some(RestartPolicy { scale: 32 }),
                    false,
                ),
                // The relaxation-bounded members: the plain dive and the
                // conflict-guided order, each racing its unbounded twin.
                4 => (VarOrder::Input, ValueOrder::MinFirst, None, true),
                5 => (
                    VarOrder::DomWdeg,
                    ValueOrder::MinFirst,
                    Some(RestartPolicy { scale: 64 }),
                    true,
                ),
                i => {
                    let var_order = match i % 3 {
                        0 => VarOrder::Input,
                        1 => VarOrder::DomWdeg,
                        _ => VarOrder::SmallestDomain,
                    };
                    let value_order = if (i / 3) % 2 == 0 {
                        ValueOrder::MinFirst
                    } else {
                        ValueOrder::MaxFirst
                    };
                    let scale = 16u64 << (i % 4) as u64;
                    (
                        var_order,
                        value_order,
                        Some(RestartPolicy { scale }),
                        i % 2 == 0,
                    )
                }
            };
            SearchConfig {
                var_order,
                value_order,
                node_limit,
                restarts,
                lower_bound,
            }
        })
        .collect()
}

/// A complete feasible assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    pub(crate) values: Vec<i64>,
}

impl Solution {
    /// Value assigned to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> i64 {
        self.values[v.index()]
    }

    /// All values, in variable creation order.
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

/// Per-mode objective values of a multi-mode solve.
///
/// A joint multi-mode model minimizes the *sum* of the per-mode
/// makespans, so the single `best` objective hides how the optimum is
/// split across modes. The scheduler records the split here after
/// extracting the joint solution. Fixed-capacity ([`Self::MAX_MODES`])
/// so [`SearchStats`] stays `Copy`; single-mode searches leave it empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeObjectives {
    values: [i64; Self::MAX_MODES],
    len: u8,
}

impl ModeObjectives {
    /// Capacity bound: joint models may carry at most this many modes.
    pub const MAX_MODES: usize = 8;

    /// Appends one mode's objective value. Returns `false` (and records
    /// nothing) once [`Self::MAX_MODES`] values are held.
    pub fn push(&mut self, value: i64) -> bool {
        if (self.len as usize) < Self::MAX_MODES {
            self.values[self.len as usize] = value;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Number of recorded modes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no mode objectives were recorded (every single-mode
    /// search).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th mode's objective value, if recorded.
    pub fn get(&self, i: usize) -> Option<i64> {
        self.as_slice().get(i).copied()
    }

    /// The recorded objective values, in mode declaration order.
    pub fn as_slice(&self) -> &[i64] {
        &self.values[..self.len as usize]
    }

    /// Iterates over the recorded objective values.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.as_slice().iter().copied()
    }
}

/// Statistics gathered during search.
///
/// Every completed search also publishes these totals to the global
/// [`netdag_obs`] recorder under the `solver.*` keys, so CLI runs can
/// export them via `--metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Search nodes explored.
    pub nodes: u64,
    /// Branching decisions: child subproblems (value or half-interval
    /// choices) attempted at branch points.
    pub decisions: u64,
    /// Dead ends: subproblems abandoned by bound pruning, propagation
    /// failure, or an inconsistent branching choice.
    pub backtracks: u64,
    /// Propagator invocations.
    pub propagations: u64,
    /// Propagator invocations that pruned at least one domain.
    pub prunings: u64,
    /// Feasible solutions encountered.
    pub solutions: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Children pruned by the relaxation lower bound before they became
    /// nodes ([`SearchConfig::lower_bound`]).
    pub lb_prunes: u64,
    /// Root domain endpoints shaved by the CPM `[ES, LS]` presolve.
    pub presolve_shaved: u64,
    /// High-water mark of the undo trail (zero for the clone-based
    /// reference engine, which keeps no trail).
    pub trail_len_max: u64,
    /// Index of the winning configuration when the search ran as a
    /// portfolio race ([`Model::minimize_portfolio`]); `None` for
    /// single-engine searches or when no solution was found.
    pub portfolio_winner: Option<u32>,
    /// Per-mode objective split of a joint multi-mode solve; empty for
    /// single-mode searches. Filled by the scheduler after extraction,
    /// not by the engine itself.
    pub mode_objectives: ModeObjectives,
    /// Whether the search space was exhausted (optimum proven for
    /// minimization, infeasibility proven when no solution).
    pub proven_optimal: bool,
}

impl SearchStats {
    /// Adds `other`'s effort into `self`: every counter is summed and
    /// `trail_len_max` takes the maximum. `proven_optimal`,
    /// `portfolio_winner` and `mode_objectives` describe one search's
    /// result, not its effort, and are left to the caller.
    pub fn add_effort(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.decisions += other.decisions;
        self.backtracks += other.backtracks;
        self.propagations += other.propagations;
        self.prunings += other.prunings;
        self.solutions += other.solutions;
        self.restarts += other.restarts;
        self.lb_prunes += other.lb_prunes;
        self.presolve_shaved += other.presolve_shaved;
        self.trail_len_max = self.trail_len_max.max(other.trail_len_max);
    }
}

/// Result of a search: best solution (if any) and statistics.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best (or first, for satisfaction) solution found.
    pub best: Option<Solution>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Width at or below which values are enumerated instead of bisected.
pub(crate) const ENUMERATE_WIDTH: i64 = 4;

/// One open branch point on the explicit search stack.
///
/// Alternatives are derived from the stored interval on demand, so a
/// frame is a fixed-size `Copy` value: pushing a node allocates nothing
/// (the stack `Vec` reuses its capacity across the whole search).
#[derive(Debug, Clone, Copy)]
struct Frame {
    var: u32,
    /// Trail length when the node was opened; undoing to it rewinds
    /// every tightening made below this branch point.
    mark: usize,
    /// Branching interval at node-open time.
    lo: i64,
    hi: i64,
    /// Next alternative to try.
    next_alt: u8,
    /// Total alternatives (`width + 1` values, or 2 halves).
    n_alts: u8,
    /// Bisect (`true`) vs enumerate (`false`).
    split: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineState {
    /// Root node not yet propagated.
    Init,
    Running,
    Done,
}

/// Why the current node failed; carries the propagator index when a
/// propagator wiped out a domain (for dom/wdeg weight bumps), or the
/// relaxation bound value when the lower bound pruned the child.
enum Fail {
    Branch,
    Bound,
    Prop(u32),
    Lb(i64),
}

/// The trail-based branch-and-bound engine.
///
/// Pausable: [`Engine::step`] explores up to a node budget and returns,
/// preserving the full search state, so the portfolio race can
/// interleave engines in deterministic epochs and exchange objective
/// bounds only at epoch boundaries.
pub struct Engine<'a> {
    model: &'a Model,
    cfg: SearchConfig,
    objective: Option<VarId>,
    dom: DomainStore,
    stack: Vec<Frame>,
    /// var index → indices of propagators watching it.
    watches: Vec<Vec<u32>>,
    /// dom/wdeg conflict weights, one per propagator. Survive restarts.
    weights: Vec<u64>,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Scratch buffer for draining the store's dirty set.
    dirty: Vec<u32>,
    best: Option<Solution>,
    best_obj: i64,
    /// Incumbent objective injected by the portfolio race
    /// (`i64::MAX` = none). Pruning uses `min(best_obj, external)`.
    external_bound: i64,
    stats: SearchStats,
    failures_since_restart: u64,
    luby_index: u64,
    /// Current restart cutoff in failures (`u64::MAX` = never).
    cutoff: u64,
    /// Root DBM closure for lower-bound pruning and CPM presolve
    /// ([`SearchConfig::lower_bound`], minimization only), lent by the
    /// caller so one closure serves every engine of a solve.
    relax: Option<&'a Relaxation>,
    /// Whether the root shave has been counted into
    /// [`SearchStats::presolve_shaved`] (restarts re-shave but the
    /// tightenings are the same trail entries rewound, not new work).
    presolve_counted: bool,
    state: EngineState,
}

impl<'a> Engine<'a> {
    /// An engine over `model`. `relax` is used only when
    /// `cfg.lower_bound` is set and there is an objective; the engine
    /// never closes the relaxation itself.
    pub(crate) fn new(
        model: &'a Model,
        objective: Option<VarId>,
        cfg: SearchConfig,
        relax: Option<&'a Relaxation>,
    ) -> Self {
        let nvars = model.bounds.len();
        let mut watches: Vec<Vec<u32>> = vec![Vec::new(); nvars];
        for (pi, p) in model.props.iter().enumerate() {
            let mut vars = p.vars();
            vars.sort_unstable();
            vars.dedup();
            for v in vars {
                watches[v.index()].push(pi as u32);
            }
        }
        let cutoff = match cfg.restarts {
            Some(r) => r.scale.max(1).saturating_mul(luby(1)),
            None => u64::MAX,
        };
        let relax = relax.filter(|_| cfg.lower_bound && objective.is_some());
        Engine {
            model,
            objective,
            dom: DomainStore::new(&model.bounds),
            stack: Vec::new(),
            watches,
            weights: vec![1; model.props.len()],
            queue: VecDeque::new(),
            queued: vec![false; model.props.len()],
            dirty: Vec::new(),
            best: None,
            best_obj: i64::MAX,
            external_bound: i64::MAX,
            stats: SearchStats::default(),
            failures_since_restart: 0,
            luby_index: 1,
            cutoff,
            relax,
            presolve_counted: false,
            state: EngineState::Init,
            cfg,
        }
    }

    /// Whether the search has finished (space exhausted, satisfaction
    /// hit, or node limit reached).
    pub fn is_done(&self) -> bool {
        self.state == EngineState::Done
    }

    /// Best objective value found by *this* engine (not the injected
    /// external bound).
    pub fn best_objective(&self) -> Option<i64> {
        self.best.as_ref().map(|_| self.best_obj)
    }

    /// Search-effort counters accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Lowers the external incumbent bound (portfolio sharing). Takes
    /// effect at the next node this engine opens; sound because the
    /// bound always corresponds to a solution some engine recorded.
    pub fn inject_bound(&mut self, bound: i64) {
        self.external_bound = self.external_bound.min(bound);
    }

    /// Consumes the engine, yielding the best solution found and the
    /// accumulated [`SearchStats`]. `stats.proven_optimal` is only set
    /// when the space was exhausted (see [`Engine::step`]).
    pub fn into_outcome(self) -> SearchOutcome {
        SearchOutcome {
            best: self.best,
            stats: self.stats,
        }
    }

    /// Effective strict-improvement bound: the search only wants
    /// solutions with `objective < incumbent`.
    fn incumbent(&self) -> i64 {
        self.best_obj.min(self.external_bound)
    }

    /// Explores up to `budget` more search nodes. Returns `true` when
    /// the search has finished (space exhausted, satisfaction hit, or
    /// node limit reached) and `false` when merely paused.
    pub fn step(&mut self, budget: u64) -> bool {
        if self.state == EngineState::Done {
            return true;
        }
        let target = self.stats.nodes.saturating_add(budget.max(1));

        if self.state == EngineState::Init {
            self.state = EngineState::Running;
            self.dom.set_recording(true);
            self.stats.nodes += 1;
            self.trace_node();
            if self.over_node_limit() {
                return self.finish(false);
            }
            match self.open_root() {
                Ok(()) => match self.descend() {
                    Descend::Pushed => {}
                    Descend::Recorded => {}
                    Descend::Finished => return true,
                },
                // An infeasible root is a dead end *and* a proof.
                Err(fail) => {
                    self.note_failure(fail);
                    return self.finish(true);
                }
            }
        }

        loop {
            if self.stats.nodes >= target {
                return false;
            }
            // Pick the next alternative, unwinding exhausted frames.
            let Some(&frame) = self.stack.last() else {
                // Root exhausted: optimum (or infeasibility) proven.
                return self.finish(true);
            };
            if frame.next_alt == frame.n_alts {
                self.dom.undo_to(frame.mark);
                self.stack.pop();
                continue;
            }
            self.stack.last_mut().expect("checked above").next_alt += 1;
            self.dom.undo_to(frame.mark);
            self.dom.clear_dirty();
            self.stats.decisions += 1;
            match self.apply_alternative(&frame, frame.next_alt) {
                Err(fail) => {
                    if self.register_failure(fail) {
                        return true;
                    }
                    continue;
                }
                Ok(()) => {
                    // Relaxation pruning: the decided child's admissible
                    // objective bound already matches the incumbent, so
                    // every completion below it is a non-improvement —
                    // the unbounded engine would open this node only to
                    // have propagation wipe it out. Skip it *before* it
                    // counts as a node.
                    if let (Some(relax), bound) = (self.relax, self.incumbent()) {
                        if bound < i64::MAX {
                            let lb = relax.node_lower_bound(&self.dom);
                            if lb >= bound {
                                if self.register_failure(Fail::Lb(lb)) {
                                    return true;
                                }
                                continue;
                            }
                        }
                    }
                    self.stats.nodes += 1;
                    self.trace_node();
                    if self.over_node_limit() {
                        return self.finish(false);
                    }
                    match self.settle_node() {
                        Err(fail) => {
                            if self.register_failure(fail) {
                                return true;
                            }
                            continue;
                        }
                        Ok(()) => match self.descend() {
                            Descend::Pushed | Descend::Recorded => {}
                            Descend::Finished => return true,
                        },
                    }
                }
            }
        }
    }

    fn over_node_limit(&self) -> bool {
        self.cfg
            .node_limit
            .is_some_and(|limit| self.stats.nodes > limit)
    }

    /// One instant per search node. The old recursive engine opened a
    /// `solver.node` span per call frame; the iterative engine keeps the
    /// event name but records depth explicitly instead of by nesting.
    fn trace_node(&self) {
        netdag_trace::instant(
            "solver.node",
            &[
                ("node", self.stats.nodes.into()),
                ("depth", (self.stack.len() as u64).into()),
            ],
        );
    }

    fn finish(&mut self, proven: bool) -> bool {
        self.state = EngineState::Done;
        self.stats.proven_optimal = proven;
        true
    }

    /// Propagates the root node: every propagator runs at least once,
    /// plus the current incumbent bound. With
    /// [`SearchConfig::lower_bound`], the CPM presolve runs first: an
    /// `ES > LS` witness fails the root outright (an infeasibility
    /// proof without a single propagation), otherwise every domain is
    /// shaved to its `[ES, LS]` window before the fixpoint — which
    /// would re-derive the same window anyway, so the shave trims
    /// propagation work without changing the tree.
    fn open_root(&mut self) -> Result<(), Fail> {
        if let Some(relax) = self.relax {
            if relax.witness().is_some() {
                return Err(Fail::Lb(i64::MAX));
            }
            match relax.shave(&mut self.dom) {
                Err(_) => return Err(Fail::Lb(i64::MAX)),
                Ok(shaved) => {
                    if !self.presolve_counted {
                        self.presolve_counted = true;
                        self.stats.presolve_shaved = shaved;
                    }
                }
            }
        }
        self.apply_bound()?;
        for pi in 0..self.model.props.len() {
            if !self.queued[pi] {
                self.queued[pi] = true;
                self.queue.push_back(pi as u32);
            }
        }
        self.fixpoint()
    }

    /// Applies the strict-improvement objective bound at the current
    /// node.
    fn apply_bound(&mut self) -> Result<(), Fail> {
        let bound = self.incumbent();
        if let (Some(obj), true) = (self.objective, bound < i64::MAX) {
            if self.dom.set_hi(obj, bound.saturating_sub(1)).is_err() {
                return Err(Fail::Bound);
            }
        }
        Ok(())
    }

    /// Applies alternative `alt` of `frame` (a value or half-interval).
    fn apply_alternative(&mut self, frame: &Frame, alt: u8) -> Result<(), Fail> {
        let alt = alt as i64;
        let v = VarId(frame.var);
        if frame.split {
            let mid = (frame.lo as i128 + (frame.hi as i128 - frame.lo as i128) / 2) as i64;
            let low_half = match self.cfg.value_order {
                ValueOrder::MinFirst => alt == 0,
                ValueOrder::MaxFirst => alt == 1,
            };
            let (a, b) = if low_half {
                (frame.lo, mid)
            } else {
                (mid + 1, frame.hi)
            };
            netdag_trace::instant(
                "solver.decision",
                &[
                    ("var", u64::from(frame.var).into()),
                    ("lo", a.into()),
                    ("hi", b.into()),
                ],
            );
            if self.dom.set_lo(v, a).is_err() || self.dom.set_hi(v, b).is_err() {
                return Err(Fail::Branch);
            }
        } else {
            let val = match self.cfg.value_order {
                ValueOrder::MinFirst => frame.lo + alt,
                ValueOrder::MaxFirst => frame.hi - alt,
            };
            netdag_trace::instant(
                "solver.decision",
                &[("var", u64::from(frame.var).into()), ("value", val.into())],
            );
            if self.dom.fix(v, val).is_err() {
                return Err(Fail::Branch);
            }
        }
        Ok(())
    }

    /// Propagates the freshly opened node: re-applies the incumbent
    /// bound, then runs the event-driven fixpoint seeded by whatever the
    /// branching decision (and the bound) changed.
    fn settle_node(&mut self) -> Result<(), Fail> {
        self.apply_bound()?;
        self.wake_watchers();
        self.fixpoint()
    }

    /// Enqueues the watchers of every variable dirtied since the last
    /// drain.
    fn wake_watchers(&mut self) {
        self.dom.take_dirty(&mut self.dirty);
        for v in self.dirty.drain(..) {
            for &pi in &self.watches[v as usize] {
                if !self.queued[pi as usize] {
                    self.queued[pi as usize] = true;
                    self.queue.push_back(pi);
                }
            }
        }
    }

    /// Runs queued propagators to fixpoint. Propagators are not assumed
    /// idempotent: a propagator that tightens its own watched variables
    /// is simply re-enqueued (the rerun is a no-op at fixpoint, and
    /// termination holds because domains only ever shrink).
    fn fixpoint(&mut self) -> Result<(), Fail> {
        while let Some(pi) = self.queue.pop_front() {
            self.queued[pi as usize] = false;
            self.stats.propagations += 1;
            match self.model.props[pi as usize].propagate(&mut self.dom) {
                Ok(changed) => {
                    if changed {
                        self.stats.prunings += 1;
                        self.wake_watchers();
                    }
                }
                Err(_) => {
                    self.dom.clear_dirty();
                    for q in self.queue.drain(..) {
                        self.queued[q as usize] = false;
                    }
                    return Err(Fail::Prop(pi));
                }
            }
        }
        self.stats.trail_len_max = self.stats.trail_len_max.max(self.dom.mark() as u64);
        Ok(())
    }

    /// Bookkeeping common to every dead end: backtrack count, prune
    /// instant, dom/wdeg weight bump.
    fn note_failure(&mut self, fail: Fail) {
        self.stats.backtracks += 1;
        self.failures_since_restart += 1;
        let kind = match fail {
            Fail::Branch => "branch",
            Fail::Bound => "bound",
            Fail::Prop(pi) => {
                self.weights[pi as usize] += 1;
                self.model.props[pi as usize].kind()
            }
            Fail::Lb(lb) => {
                self.stats.lb_prunes += 1;
                netdag_trace::instant(
                    "solver.lb.prune",
                    &[("bound", lb.into()), ("incumbent", self.incumbent().into())],
                );
                "lb"
            }
        };
        netdag_trace::instant("solver.prune", &[("constraint", kind.into())]);
    }

    /// Records a dead end and checks the restart schedule. Returns
    /// `true` when the failure finished the search (a post-restart root
    /// contradiction is an optimality proof).
    fn register_failure(&mut self, fail: Fail) -> bool {
        self.note_failure(fail);
        if self.failures_since_restart >= self.cutoff {
            return self.restart();
        }
        false
    }

    /// Rewinds to the root, advances the Luby schedule, and re-opens the
    /// root under the current incumbent bound. Conflict weights survive.
    fn restart(&mut self) -> bool {
        self.stats.restarts += 1;
        self.luby_index += 1;
        let scale = self.cfg.restarts.expect("cutoff is finite").scale.max(1);
        self.cutoff = scale.saturating_mul(luby(self.luby_index));
        self.failures_since_restart = 0;
        netdag_trace::instant(
            "solver.restart",
            &[
                ("restart", self.stats.restarts.into()),
                ("cutoff", self.cutoff.into()),
            ],
        );
        self.stack.clear();
        self.dom.undo_to(0);
        self.dom.clear_dirty();
        self.stats.nodes += 1;
        self.trace_node();
        if self.over_node_limit() {
            return self.finish(false);
        }
        match self.open_root() {
            // Root now contradicts the incumbent bound: optimum proven.
            Err(fail) => {
                self.note_failure(fail);
                self.finish(true)
            }
            Ok(()) => match self.descend() {
                Descend::Pushed | Descend::Recorded => false,
                Descend::Finished => true,
            },
        }
    }

    /// After a consistent propagation: either push a branch frame for
    /// the selected variable or record the solution at this leaf.
    fn descend(&mut self) -> Descend {
        match self.select() {
            Some(v) => {
                let (lo, hi) = (self.dom.lo(v), self.dom.hi(v));
                let width = hi as i128 - lo as i128;
                let (n_alts, split) = if width <= ENUMERATE_WIDTH as i128 {
                    (width as u8 + 1, false)
                } else {
                    (2, true)
                };
                self.stack.push(Frame {
                    var: v.0,
                    mark: self.dom.mark(),
                    lo,
                    hi,
                    next_alt: 0,
                    n_alts,
                    split,
                });
                Descend::Pushed
            }
            None => self.record(),
        }
    }

    /// Selects the next branching variable, or `None` at a leaf.
    fn select(&self) -> Option<VarId> {
        let unfixed = (0..self.dom.len() as u32)
            .map(VarId)
            .filter(|&v| !self.dom.is_fixed(v));
        match self.cfg.var_order {
            VarOrder::Input => unfixed.into_iter().next(),
            VarOrder::SmallestDomain => {
                unfixed.min_by_key(|&v| self.dom.hi(v) as i128 - self.dom.lo(v) as i128)
            }
            VarOrder::DomWdeg => {
                let mut best: Option<(VarId, u128, u128)> = None;
                for v in unfixed {
                    let width = (self.dom.hi(v) as i128 - self.dom.lo(v) as i128) as u128;
                    let wsum: u64 = self.watches[v.index()]
                        .iter()
                        .map(|&pi| self.weights[pi as usize])
                        .sum();
                    let wsum = u128::from(wsum.max(1));
                    // width_a / wsum_a < width_b / wsum_b, cross-multiplied
                    // (widths fit 64 bits, weight sums likewise; the
                    // products fit u128 exactly).
                    let better = match best {
                        None => true,
                        Some((_, bw, bs)) => width * bs < bw * wsum,
                    };
                    if better {
                        best = Some((v, width, wsum));
                    }
                }
                best.map(|(v, _, _)| v)
            }
        }
    }

    /// Records the solution at a fully fixed node. For satisfaction
    /// searches this is a clean stop; for minimization the incumbent is
    /// updated (strict improvement is guaranteed by the bound) and the
    /// search continues with the tightened bound.
    fn record(&mut self) -> Descend {
        debug_assert!(
            self.model.props.iter().all(|p| p.is_satisfied(&self.dom)),
            "propagation fixpoint accepted an infeasible assignment"
        );
        self.stats.solutions += 1;
        netdag_trace::instant(
            "solver.solution",
            &[(
                "objective",
                match self.objective {
                    Some(obj) => self.dom.value(obj).into(),
                    None => "satisfaction".into(),
                },
            )],
        );
        let values: Vec<i64> = (0..self.dom.len() as u32)
            .map(|i| self.dom.value(VarId(i)))
            .collect();
        match self.objective {
            None => {
                self.best = Some(Solution { values });
                // Satisfaction search: stop cleanly at the first solution.
                self.finish(true);
                Descend::Finished
            }
            Some(obj) => {
                let val = self.dom.value(obj);
                debug_assert!(val < self.incumbent(), "bound admitted a non-improvement");
                if val < self.best_obj {
                    self.best_obj = val;
                    self.best = Some(Solution { values });
                }
                Descend::Recorded
            }
        }
    }
}

enum Descend {
    /// A branch frame was pushed; the main loop applies its first
    /// alternative next.
    Pushed,
    /// A leaf solution was recorded; the main loop backtracks.
    Recorded,
    /// The search ended (satisfaction hit).
    Finished,
}

/// Runs DFS (+ branch-and-bound when `objective` is set) to completion,
/// closing the relaxation first when the configuration is bounded.
pub(crate) fn run(model: &Model, objective: Option<VarId>, cfg: &SearchConfig) -> SearchOutcome {
    let _search = netdag_trace::span_with(
        "solver.search",
        &[
            ("vars", model.bounds.len().into()),
            ("props", model.props.len().into()),
            ("optimize", objective.is_some().into()),
        ],
    );
    let relax =
        (cfg.lower_bound && objective.is_some()).then(|| Relaxation::build(model, objective));
    let mut engine = Engine::new(model, objective, cfg.clone(), relax.as_ref());
    while !engine.step(u64::MAX) {}
    let outcome = engine.into_outcome();
    publish_stats(&outcome.stats);
    outcome
}

/// Mirrors a finished search's totals into the global metrics recorder.
///
/// [`Model::solve`]-family entry points call this automatically; callers
/// driving an [`Engine`] by hand (e.g. a serving loop pausing via
/// [`Engine::step`]) should call it exactly once per search so the
/// `solver.*` counters stay consistent with batch solves.
pub fn publish_stats(stats: &SearchStats) {
    use netdag_obs::{counter, keys};
    counter!(keys::SOLVER_SEARCHES).incr();
    counter!(keys::SOLVER_NODES).add(stats.nodes);
    counter!(keys::SOLVER_DECISIONS).add(stats.decisions);
    counter!(keys::SOLVER_BACKTRACKS).add(stats.backtracks);
    counter!(keys::SOLVER_PROPAGATIONS).add(stats.propagations);
    counter!(keys::SOLVER_PRUNINGS).add(stats.prunings);
    counter!(keys::SOLVER_SOLUTIONS).add(stats.solutions);
    counter!(keys::SOLVER_RESTARTS).add(stats.restarts);
    counter!(keys::SOLVER_LB_PRUNES).add(stats.lb_prunes);
    counter!(keys::SOLVER_PRESOLVE_SHAVED).add(stats.presolve_shaved);
    netdag_obs::global().observe(keys::HIST_SOLVER_NODES_PER_SEARCH, stats.nodes);
    netdag_obs::global().observe(keys::HIST_SOLVER_TRAIL_LEN, stats.trail_len_max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn satisfaction_finds_a_solution() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 9).unwrap();
        let y = m.new_var("y", 0, 9).unwrap();
        m.linear_eq(&[(1, x), (1, y)], 9).unwrap();
        m.diff_ge(x, y, 1).unwrap();
        let sol = m.solve(&SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.value(x) + sol.value(y), 9);
        assert!(sol.value(x) - sol.value(y) >= 1);
    }

    #[test]
    fn infeasible_model_returns_none() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        m.linear_ge(&[(1, x)], 10).unwrap();
        assert!(m.solve(&SearchConfig::default()).unwrap().is_none());
    }

    #[test]
    fn minimize_proves_optimality() {
        // minimize x + noise: x ∈ [0,100], x ≥ 37 via two constraints.
        let mut m = Model::new();
        let x = m.new_var("x", 0, 100).unwrap();
        let y = m.new_var("y", 0, 100).unwrap();
        m.linear_ge(&[(1, x), (1, y)], 50).unwrap();
        m.linear_le(&[(1, y)], 13).unwrap();
        let out = m.minimize_with_stats(x, &SearchConfig::default()).unwrap();
        let sol = out.best.unwrap();
        assert_eq!(sol.value(x), 37);
        assert!(out.stats.proven_optimal);
        assert!(out.stats.solutions >= 1);
        assert!(out.stats.trail_len_max >= 1);
        assert_eq!(out.stats.portfolio_winner, None);
    }

    #[test]
    fn minimize_with_tables_and_min() {
        // χ-style model: two inputs in [1,5]; cost table grows, quality
        // table grows; require min quality ≥ 30 and minimize total cost.
        let mut m = Model::new();
        let chi1 = m.new_var("chi1", 1, 5).unwrap();
        let chi2 = m.new_var("chi2", 1, 5).unwrap();
        let q1 = m.new_var("q1", 0, 100).unwrap();
        let q2 = m.new_var("q2", 0, 100).unwrap();
        let qmin = m.new_var("qmin", 0, 100).unwrap();
        let cost = m.new_var("cost", 0, 1000).unwrap();
        let quality = vec![10, 20, 30, 40, 50];
        let prices = vec![3, 5, 9, 17, 33];
        m.table_fn(chi1, q1, quality.clone()).unwrap();
        m.table_fn(chi2, q2, quality).unwrap();
        m.min_of(&[q1, q2], qmin).unwrap();
        m.linear_ge(&[(1, qmin)], 30).unwrap();
        let c1 = m.new_var("c1", 0, 100).unwrap();
        let c2 = m.new_var("c2", 0, 100).unwrap();
        m.table_fn(chi1, c1, prices.clone()).unwrap();
        m.table_fn(chi2, c2, prices).unwrap();
        m.linear_eq(&[(1, c1), (1, c2), (-1, cost)], 0).unwrap();
        let sol = m.minimize(cost, &SearchConfig::default()).unwrap().unwrap();
        // Optimal: both χ = 3 (quality 30, price 9 each).
        assert_eq!(sol.value(chi1), 3);
        assert_eq!(sol.value(chi2), 3);
        assert_eq!(sol.value(cost), 18);
    }

    #[test]
    fn no_overlap_scheduling() {
        // Two unit jobs and one 2-slot job on a single machine; minimize
        // makespan.
        let mut m = Model::new();
        let s1 = m.new_var("s1", 0, 10).unwrap();
        let s2 = m.new_var("s2", 0, 10).unwrap();
        let s3 = m.new_var("s3", 0, 10).unwrap();
        let d1 = m.constant("d1", 1);
        let d2 = m.constant("d2", 1);
        let d3 = m.constant("d3", 2);
        m.no_overlap(s1, d1, s2, d2).unwrap();
        m.no_overlap(s1, d1, s3, d3).unwrap();
        m.no_overlap(s2, d2, s3, d3).unwrap();
        let mk = m.new_var("makespan", 0, 20).unwrap();
        let e1 = m.new_var("e1", 0, 20).unwrap();
        let e2 = m.new_var("e2", 0, 20).unwrap();
        let e3 = m.new_var("e3", 0, 20).unwrap();
        m.linear_eq(&[(1, e1), (-1, s1)], 1).unwrap();
        m.linear_eq(&[(1, e2), (-1, s2)], 1).unwrap();
        m.linear_eq(&[(1, e3), (-1, s3)], 2).unwrap();
        m.max_of(&[e1, e2, e3], mk).unwrap();
        let sol = m.minimize(mk, &SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.value(mk), 4);
    }

    #[test]
    fn node_limit_aborts_cleanly() {
        let mut m = Model::new();
        // A loose model with a big search space.
        let vars: Vec<_> = (0..8)
            .map(|i| m.new_var(&format!("v{i}"), 0, 50).unwrap())
            .collect();
        let obj = m.new_var("obj", 0, 400).unwrap();
        let mut terms: Vec<(i64, VarId)> = vars.iter().map(|&v| (1i64, v)).collect();
        terms.push((-1, obj));
        m.linear_eq(&terms, 0).unwrap();
        m.linear_ge(&[(1, vars[0]), (1, vars[1])], 30).unwrap();
        let cfg = SearchConfig {
            node_limit: Some(5),
            ..SearchConfig::default()
        };
        let out = m.minimize_with_stats(obj, &cfg).unwrap();
        assert!(!out.stats.proven_optimal);
        assert!(out.stats.nodes <= 6);
    }

    #[test]
    fn max_first_value_order() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        let cfg = SearchConfig {
            value_order: ValueOrder::MaxFirst,
            ..SearchConfig::default()
        };
        let sol = m.solve(&cfg).unwrap().unwrap();
        assert_eq!(sol.value(x), 3);
    }

    #[test]
    fn smallest_domain_var_order_solves() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 100).unwrap();
        let y = m.new_var("y", 0, 2).unwrap();
        m.linear_eq(&[(1, x), (-10, y)], 0).unwrap();
        let cfg = SearchConfig {
            var_order: VarOrder::SmallestDomain,
            ..SearchConfig::default()
        };
        let sol = m.minimize(x, &cfg).unwrap();
        assert_eq!(sol.unwrap().value(x), 0);
    }

    #[test]
    fn if_then_le_in_search() {
        // cond chooses an ordering; minimizing end forces cond consistent.
        let mut m = Model::new();
        let cond = m.new_var("cond", 0, 1).unwrap();
        let x = m.new_var("x", 5, 5).unwrap();
        let y = m.new_var("y", 0, 20).unwrap();
        m.if_then_le(cond, x, 3, y).unwrap();
        m.linear_ge(&[(1, cond)], 1).unwrap();
        let sol = m.minimize(y, &SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.value(y), 8);
    }

    #[test]
    fn solution_values_in_creation_order() {
        let mut m = Model::new();
        let a = m.constant("a", 1);
        let b = m.constant("b", 2);
        let sol = m.solve(&SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.values(), &[1, 2]);
        assert_eq!(sol.value(a), 1);
        assert_eq!(sol.value(b), 2);
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    /// A model whose first dive fails a lot: x + y = 50 with a table
    /// forcing y to specific residues.
    fn conflict_heavy() -> (Model, VarId) {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 60).unwrap();
        let y = m.new_var("y", 0, 60).unwrap();
        let z = m.new_var("z", 0, 6).unwrap();
        let obj = m.new_var("obj", 0, 200).unwrap();
        m.linear_eq(&[(1, x), (1, y)], 50).unwrap();
        // y = 7·z + 3: few feasible y values.
        m.linear_eq(&[(1, y), (-7, z)], 3).unwrap();
        m.linear_eq(&[(1, x), (2, y), (-1, obj)], 0).unwrap();
        (m, obj)
    }

    #[test]
    fn dom_wdeg_finds_the_same_optimum() {
        let (m, obj) = conflict_heavy();
        let base = m
            .minimize_with_stats(obj, &SearchConfig::default())
            .unwrap();
        let wdeg = m
            .minimize_with_stats(
                obj,
                &SearchConfig {
                    var_order: VarOrder::DomWdeg,
                    ..SearchConfig::default()
                },
            )
            .unwrap();
        assert!(base.stats.proven_optimal && wdeg.stats.proven_optimal);
        let (a, b) = (base.best.unwrap(), wdeg.best.unwrap());
        assert_eq!(a.value(obj), b.value(obj));
    }

    #[test]
    fn restarts_fire_and_preserve_optimality() {
        let (m, obj) = conflict_heavy();
        let cfg = SearchConfig {
            var_order: VarOrder::DomWdeg,
            restarts: Some(RestartPolicy { scale: 1 }),
            ..SearchConfig::default()
        };
        let out = m.minimize_with_stats(obj, &cfg).unwrap();
        assert!(out.stats.proven_optimal);
        assert!(out.stats.restarts >= 1, "scale-1 Luby must restart");
        let base = m.minimize(obj, &SearchConfig::default()).unwrap().unwrap();
        assert_eq!(out.best.unwrap().value(obj), base.value(obj));
    }

    #[test]
    fn restarts_are_replayable() {
        let (m, obj) = conflict_heavy();
        let cfg = SearchConfig {
            var_order: VarOrder::DomWdeg,
            restarts: Some(RestartPolicy { scale: 2 }),
            ..SearchConfig::default()
        };
        let a = m.minimize_with_stats(obj, &cfg).unwrap();
        let b = m.minimize_with_stats(obj, &cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.best.unwrap(), b.best.unwrap());
    }

    #[test]
    fn paused_engine_resumes_to_the_same_answer() {
        let (m, obj) = conflict_heavy();
        let full = m
            .minimize_with_stats(obj, &SearchConfig::default())
            .unwrap();
        let mut engine = Engine::new(&m, Some(obj), SearchConfig::default(), None);
        let mut steps = 0;
        while !engine.step(3) {
            steps += 1;
            assert!(steps < 1_000_000, "runaway");
        }
        let out = engine.into_outcome();
        assert!(steps >= 1, "budget 3 must pause at least once");
        assert_eq!(out.stats.nodes, full.stats.nodes);
        assert_eq!(out.best.unwrap(), full.best.unwrap());
    }

    #[test]
    fn portfolio_config_family_is_deterministic() {
        let a = portfolio_configs(6, Some(1000));
        let b = portfolio_configs(6, Some(1000));
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.var_order, y.var_order);
            assert_eq!(x.value_order, y.value_order);
            assert_eq!(x.node_limit, y.node_limit);
            assert_eq!(x.restarts, y.restarts);
        }
        assert_eq!(a[0].var_order, VarOrder::Input);
        assert!(a[0].restarts.is_none());
        assert!(a[1].restarts.is_some());
    }
}

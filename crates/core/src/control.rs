//! Externally steered exact solves — the serving layer's entry points.
//!
//! A long-running scheduler daemon needs two things the batch entry
//! points ([`crate::soft::schedule_soft`],
//! [`crate::weakly_hard::schedule_weakly_hard`]) don't offer:
//!
//! * **warm starts** — when a cached solution for a structurally
//!   identical problem is known, its makespan seeds branch-and-bound
//!   pruning via the trail engine's `inject_bound` hook, and
//! * **pausable search** — a per-request deadline is enforced by
//!   stepping the engine in bounded node budgets and polling a
//!   controller between steps, returning the best incumbent so far
//!   when the controller says stop.
//!
//! Both knobs are bundled in [`SolveControl`], which
//! [`crate::soft::schedule_soft_controlled`],
//! [`crate::weakly_hard::schedule_weakly_hard_controlled`] and the joint
//! [`crate::modes::schedule_modes_controlled`] all accept; results carry
//! a `complete` flag ([`ControlledOutcome::complete`],
//! [`crate::modes::ModeScheduleOutcome::complete`]) so callers can mark
//! truncated answers. Batch and controlled entry points share one
//! exact-search driver: a batch solve is a controlled one with no warm
//! bound and no pause. That driver closes the relaxation once per solve
//! and lends it to the warm attempt and to the cold fallback, so a
//! fallback never re-runs the presolve. Determinism is preserved: with
//! the default single-engine configuration, a warm-started solve returns
//! the bit-identical schedule the cold solve would (see
//! [`SolveControl::warm_bound`]).

use netdag_solver::SearchStats;

use crate::config::ScheduleOutcome;

/// External steering for one exact solve.
pub struct SolveControl<'a> {
    /// Strict-improvement bound to inject before the search starts.
    ///
    /// Callers holding a cached solution with makespan `B` for a
    /// structurally identical problem must pass `B + 1`: the engine
    /// only accepts solutions *strictly below* the injected bound, so
    /// `B + 1` keeps every schedule with makespan `≤ B` reachable.
    /// With the default static search order the warm solve then finds
    /// exactly the same lexicographically first optimal leaf as a cold
    /// solve — bit-identical output — while pruning everything worse
    /// than the cached makespan from the start. If the bound
    /// over-prunes (the new problem's optimum is worse than `B`), the
    /// solve falls back to one cold run automatically.
    pub warm_bound: Option<i64>,
    /// Node budget per engine step between `keep_going` polls. Small
    /// values poll the deadline more often at slightly higher
    /// overhead; a few thousand is a good default.
    pub step_nodes: u64,
    /// Polled between steps with the engine's live [`SearchStats`];
    /// return `false` to stop the search and keep the best incumbent.
    pub keep_going: &'a mut dyn FnMut(&SearchStats) -> bool,
}

impl<'a> SolveControl<'a> {
    /// A controller that lets the search run to completion but still
    /// injects `warm_bound` (pass `None` for a plain cold solve).
    pub fn warm(
        warm_bound: Option<i64>,
        keep_going: &'a mut dyn FnMut(&SearchStats) -> bool,
    ) -> Self {
        SolveControl {
            warm_bound,
            step_nodes: 4096,
            keep_going,
        }
    }
}

/// Result of a controlled solve.
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The schedule plus provenance, exactly as the batch entry points
    /// return it.
    pub outcome: ScheduleOutcome,
    /// `true` when the search ran to its natural end (space exhausted
    /// or node limit); `false` when the controller stopped it and
    /// `outcome` holds the best incumbent found so far.
    pub complete: bool,
}

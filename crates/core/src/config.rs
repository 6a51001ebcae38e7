//! Scheduler configuration and result types.

use std::error::Error;
use std::fmt;

use netdag_glossy::GlossyTiming;
use netdag_solver::{SearchStats, SolverError};

use crate::app::TaskId;
use crate::constraints::ConstraintMapError;
use crate::schedule::Schedule;
use crate::stat::StatError;

/// Which optimization engine computes the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Branch-and-bound over the full decision space (the stand-in for the
    /// paper's SMT/MILP encodings). Returns makespan-optimal schedules,
    /// with an optimality proof unless the node limit is hit.
    Exact {
        /// Node budget; `None` = search to completion.
        node_limit: Option<u64>,
    },
    /// Fast greedy heuristic: minimal retransmission counts repaired
    /// upward, then list scheduling. The baseline the `ablation_solver`
    /// bench compares against.
    Greedy,
}

/// How messages are grouped into communication rounds (the shape of the
/// topological partial order `l`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundStructure {
    /// One round per level of the message-precedence DAG: independent
    /// messages share a round (and its beacon).
    #[default]
    PerLevel,
    /// One round per message: maximal interleaving of computation and
    /// communication at the cost of one beacon per message.
    PerMessage,
}

/// Scheduler configuration shared by the soft and weakly hard backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Hardware timing constants of eq. (3).
    pub timing: GlossyTiming,
    /// `χ(r)` for round beacons (a policy constant: beacons carry the
    /// round layout and are not covered by task-level constraints).
    pub beacon_chi: u32,
    /// Largest admissible `χ(e)` — the `N_TX` domain bound.
    pub chi_max: u32,
    /// Optimization engine.
    pub backend: Backend,
    /// Round grouping policy.
    pub round_structure: RoundStructure,
    /// Whether `pred(τ)` includes the beacons of the rounds that carry the
    /// task's input messages, as in the paper's definition (a round's data
    /// is lost if its beacon flood fails). When `false`, only message
    /// floods count — the common simplification when beacons are
    /// provisioned separately.
    pub include_beacons: bool,
    /// Number of solver configurations to race for the exact backend
    /// (`netdag_solver`'s deterministic portfolio). `0` or `1` keeps the
    /// classic single-engine search; `N ≥ 2` races `N` diverse configs
    /// sharing the incumbent makespan, returning bit-identical results
    /// at any `solver_threads`. A controlled solve polls a race at its
    /// 2048-node epoch boundaries, so a deadline stops it there.
    pub portfolio: u32,
    /// Worker threads for the portfolio race (`0` = one per core,
    /// `1` = serial). Never affects results, only wall time.
    pub solver_threads: usize,
    /// Whether the exact backend builds a relaxation of the temporal
    /// subsystem (difference-bound-matrix closure) before searching: a
    /// CPM `[ES, LS]` presolve rejects over-constrained specs with a
    /// named-task explanation and zero search nodes, and the closed
    /// matrix prunes bound-dead children during search. Never changes
    /// the optimum; `--no-lb` on the CLI disables it for A/B runs.
    pub lower_bound: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            timing: GlossyTiming::telosb(),
            beacon_chi: 2,
            chi_max: 8,
            backend: Backend::Exact {
                node_limit: Some(200_000),
            },
            round_structure: RoundStructure::PerLevel,
            include_beacons: false,
            portfolio: 0,
            solver_threads: 0,
            lower_bound: true,
        }
    }
}

impl SchedulerConfig {
    /// A configuration using the greedy backend.
    pub fn greedy() -> Self {
        SchedulerConfig {
            backend: Backend::Greedy,
            ..SchedulerConfig::default()
        }
    }
}

/// A computed schedule plus provenance.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The feasible schedule.
    pub schedule: Schedule,
    /// Search statistics (exact backend only).
    pub stats: Option<SearchStats>,
    /// Whether the makespan is proven optimal for the configured round
    /// structure.
    pub optimal: bool,
}

/// A named, per-constraint proof that the timing subsystem is
/// over-constrained: some quantity's forced earliest value exceeds its
/// forced latest value. Produced by the CPM presolve (no search needed)
/// and rendered against the spec's task and round names, so a rejected
/// spec reads "task X must start by slot L but cannot start before slot
/// E, because …" instead of "search timed out".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibilityExplanation {
    /// The over-constrained quantity (e.g. `start(ctrl)`, `round 2`).
    pub entity: String,
    /// Earliest value the constraints allow, in slots.
    pub earliest: i64,
    /// Latest value the constraints allow, in slots
    /// (`latest < earliest` — that is the contradiction).
    pub latest: i64,
    /// Rendered constraint chain forcing `entity ≥ earliest`.
    pub forward: Vec<String>,
    /// Rendered constraint chain capping `entity ≤ latest`.
    pub backward: Vec<String>,
}

impl fmt::Display for InfeasibilityExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cannot start before slot {} but must start by slot {}",
            self.entity, self.earliest, self.latest
        )?;
        if !self.forward.is_empty() {
            write!(f, "; forced late by: {}", self.forward.join(", "))?;
        }
        if !self.backward.is_empty() {
            write!(f, "; capped early by: {}", self.backward.join(", "))?;
        }
        Ok(())
    }
}

/// Error returned by the scheduling entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The constraint map is structurally invalid.
    Constraints(ConstraintMapError),
    /// The network statistic violates its monotonicity contract.
    Stat(StatError),
    /// No assignment of `χ ≤ chi_max` satisfies the reliability
    /// requirement of this task.
    InfeasibleReliability(TaskId),
    /// The exact backend proved the whole problem infeasible.
    Infeasible,
    /// The CPM presolve proved the timing subsystem infeasible before
    /// any search, with a named-task explanation (`solver.nodes == 0`).
    InfeasibleTiming(Box<InfeasibilityExplanation>),
    /// A task-level deadline cannot be met by any schedule the backend
    /// explores (for the greedy backend: by the earliest-start placement).
    DeadlineViolated(TaskId),
    /// A deadline is shorter than the task's own WCET.
    BadDeadline(TaskId),
    /// Configuration rejected (e.g. `chi_max` or `beacon_chi` zero).
    BadConfig(String),
    /// A controlled solve was stopped by its controller (deadline) before
    /// any feasible incumbent was found, so there is nothing to return —
    /// and nothing was proven about feasibility either.
    Interrupted,
    /// Internal solver error.
    Solver(SolverError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Constraints(e) => write!(f, "invalid constraints: {e}"),
            ScheduleError::Stat(e) => write!(f, "invalid network statistic: {e}"),
            ScheduleError::InfeasibleReliability(t) => write!(
                f,
                "no retransmission assignment within chi_max satisfies the requirement on {t}"
            ),
            ScheduleError::Infeasible => write!(f, "the scheduling problem is infeasible"),
            ScheduleError::InfeasibleTiming(e) => {
                write!(f, "the timing constraints are infeasible: {e}")
            }
            ScheduleError::DeadlineViolated(t) => {
                write!(f, "task {t} cannot meet its deadline")
            }
            ScheduleError::BadDeadline(t) => {
                write!(f, "deadline of {t} is shorter than its WCET")
            }
            ScheduleError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            ScheduleError::Interrupted => {
                write!(
                    f,
                    "solve interrupted before any feasible schedule was found"
                )
            }
            ScheduleError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Constraints(e) => Some(e),
            ScheduleError::Stat(e) => Some(e),
            ScheduleError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstraintMapError> for ScheduleError {
    fn from(e: ConstraintMapError) -> Self {
        ScheduleError::Constraints(e)
    }
}

impl From<StatError> for ScheduleError {
    fn from(e: StatError) -> Self {
        ScheduleError::Stat(e)
    }
}

impl From<SolverError> for ScheduleError {
    fn from(e: SolverError) -> Self {
        ScheduleError::Solver(e)
    }
}

impl SchedulerConfig {
    /// Validates the configuration.
    ///
    /// `beacon_chi` may exceed `chi_max`. The statistics clamp every
    /// `n_tx` to their own domain, so such a beacon's reliability is
    /// read at the statistic's bound, while its airtime still uses
    /// `beacon_chi`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BadConfig`] when `chi_max` or `beacon_chi`
    /// is zero.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.chi_max == 0 {
            return Err(ScheduleError::BadConfig("chi_max must be positive".into()));
        }
        if self.beacon_chi == 0 {
            return Err(ScheduleError::BadConfig(
                "beacon_chi must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SchedulerConfig::default().validate().unwrap();
        SchedulerConfig::greedy().validate().unwrap();
        assert_eq!(SchedulerConfig::greedy().backend, Backend::Greedy);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn bad_configs_rejected() {
        let mut c = SchedulerConfig::default();
        c.chi_max = 0;
        assert!(matches!(c.validate(), Err(ScheduleError::BadConfig(_))));
        let mut c = SchedulerConfig::default();
        c.beacon_chi = 0;
        assert!(matches!(c.validate(), Err(ScheduleError::BadConfig(_))));
    }

    #[test]
    fn error_conversions_and_display() {
        let e: ScheduleError = SolverError::EmptyTable.into();
        assert!(matches!(e, ScheduleError::Solver(_)));
        assert!(e.to_string().contains("solver"));
        assert!(ScheduleError::InfeasibleReliability(TaskId(3))
            .to_string()
            .contains("t3"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ScheduleError::Infeasible).is_none());
    }
}

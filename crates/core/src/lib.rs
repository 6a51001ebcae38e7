//! The NETDAG application-aware scheduler.
//!
//! Reproduction of *"Application-Aware Scheduling of Networked
//! Applications over the Low-Power Wireless Bus"* (Wardega & Li,
//! DATE 2020). NETDAG schedules a task-dependency DAG whose tasks are
//! pinned to physical nodes communicating over the Low-Power Wireless Bus:
//! it jointly chooses
//!
//! * the assignment of messages to communication rounds (the topological
//!   partial order `l`, [`rounds`]),
//! * the Glossy retransmission parameter `χ = N_TX` per message slot, and
//! * start times `ζ` for every task and round,
//!
//! minimizing the makespan subject to task-level **soft** ([`soft`],
//! eq. (6)) or **weakly hard** ([`weakly_hard`], eqs. (8)–(10))
//! real-time constraints.
//!
//! Two backends are provided ([`config::Backend`]): an exact
//! branch-and-bound over a CSP encoding (the stand-in for the paper's
//! Z3/Gurobi backends) and a greedy baseline.
//!
//! # Paper map
//!
//! Where each piece of the paper's formalism lives:
//!
//! | Paper | Module |
//! |---|---|
//! | `G_A = (T, E)`, placement `ρ`, unique-source set `E*` (§ II) | [`app`] |
//! | feasibility, eqs. (4)–(5) | [`schedule`] |
//! | flood/round durations, eq. (3) | `netdag_glossy::timing` |
//! | soft constraints `F_s`, eq. (6) | [`soft`], [`constraints`] |
//! | soft statistic `λ_s`, eqs. (11)/(15) | [`stat`], `netdag_glossy::stats` |
//! | weakly hard constraints `F_WH`, eqs. (8)–(10) | [`weakly_hard`] |
//! | `⊕` composition behind eq. (10) | `netdag_weakly_hard::conjunction` |
//! | weakly hard statistic `λ_WH`, eqs. (12)/(13) | [`stat`] |
//! | makespan objective, start times `ζ` | [`makespan`] |
//! | round orders `l` (per-level / per-message) | [`rounds`] |
//! | multi-application composition (§ IV) | [`compose`] |
//! | constraint/latency sweeps (figs. 2 and 4) | [`explore`] |
//! | multi-mode co-synthesis (TTW, beyond the paper) | [`modes`] |
//!
//! Solver decisions, schedule shapes, and eq. (10) evaluations are
//! counted in the process-global `netdag_obs` recorder; any CLI command
//! exports them via `--metrics <path.json>`.
//!
//! # Example
//!
//! ```
//! use netdag_core::prelude::*;
//! use netdag_glossy::NodeId;
//! use netdag_weakly_hard::Constraint;
//!
//! // sense --(flood)--> actuate, on two nodes.
//! let mut b = Application::builder();
//! let sense = b.task("sense", NodeId(0), 500);
//! let act = b.task("act", NodeId(1), 300);
//! b.edge(sense, act, 8)?;
//! let app = b.build()?;
//!
//! // Weakly hard requirement: ≥ 10 successes per 40 runs.
//! let mut f = WeaklyHardConstraints::new();
//! f.set(act, Constraint::any_hit(10, 40)?)?;
//!
//! let stat = Eq13Statistic::new(8);
//! let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default())?;
//! out.schedule.check_feasible(&app)?;
//! println!("{}", out.schedule.render_timeline(&app, 60));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod compose;
pub mod config;
pub mod constraints;
pub mod control;
mod encode;
pub mod explore;
pub mod generators;
pub mod graph;
mod heuristic;
pub mod makespan;
pub mod modes;
pub mod rounds;
pub mod schedule;
pub mod soft;
pub mod spec;
pub mod stat;
pub mod weakly_hard;

/// Convenience re-exports of the main entry points.
pub mod prelude {
    pub use crate::app::{Application, MsgId, TaskId};
    pub use crate::config::{
        Backend, InfeasibilityExplanation, RoundStructure, ScheduleError, ScheduleOutcome,
        SchedulerConfig,
    };
    pub use crate::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
    pub use crate::control::{ControlledOutcome, SolveControl};
    pub use crate::modes::{
        schedule_modes, schedule_modes_controlled, ModeSchedule, ModeScheduleExport,
        ModeScheduleOutcome, ModeSpec, ModesSpec,
    };
    pub use crate::schedule::{Round, Schedule};
    pub use crate::soft::{
        presolve_soft, schedule_soft, schedule_soft_controlled, schedule_soft_with_deadlines,
    };
    pub use crate::stat::{
        Eq13Statistic, Eq15Statistic, SoftStatistic, TableSoftStatistic, TableWeaklyHardStatistic,
        WeaklyHardStatistic,
    };
    pub use crate::weakly_hard::{
        presolve_weakly_hard, schedule_weakly_hard, schedule_weakly_hard_controlled,
        schedule_weakly_hard_with_deadlines,
    };
}

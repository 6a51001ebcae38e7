//! `netdag-scenario` — seeded scenario corpus and long-horizon soak
//! harness.
//!
//! The reproduction's built-in workloads are the paper's three figures;
//! this crate generates everything the figures don't: diverse topology
//! families (line / ring / star / grid / mesh with a density knob),
//! Bernoulli and bursty Gilbert–Elliott channels, soft and weakly-hard
//! contracts with deliberate infeasible tails, mobility as
//! piecewise-constant link quality, and fault schedules (node churn,
//! mid-run link failure with online re-admission).
//!
//! Two properties make the corpus a *regression instrument* rather
//! than a fuzzer:
//!
//! * **Pure seeding** ([`gen`]) — every scenario is a pure function of
//!   `(master_seed, index)`, each generation aspect on its own
//!   [`netdag_runtime::derive_seed`] stream. A failing scenario
//!   replays bit-identically from two integers; adjacent indices share
//!   no generator state.
//! * **End-to-end invariants** ([`soak`]) — the driver streams the
//!   corpus through a live (optionally sharded) `netdag serve` daemon
//!   and checks what the stack *promised*: schedules re-derive their
//!   own makespan, execute on the scenario topology, pass the daemon's
//!   `validate` op under a derived seed, stay within physical
//!   transmission bounds on bus replay, and come back cached and
//!   byte-identical on revisit — with the daemon's own SLO gate
//!   ruling on latency, hit-rate floor and deadline losses at
//!   shutdown.
//!
//! The `netdag soak` CLI subcommand is a thin shell over
//! [`soak::run_soak`]; see DESIGN.md § 15 for the
//! scenario model and the exact invariant list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod soak;

pub use gen::{
    generate, ConstraintSet, EventKind, LossSpec, MobilityPhase, Scenario, ScenarioChannel,
    ScenarioEvent, ScenarioLink, ScenarioParams, TopologyFamily,
};
pub use soak::{
    run_soak, soak_serve_config, spawn_daemon, FamilyStats, SoakConfig, SoakReport, Violation,
};

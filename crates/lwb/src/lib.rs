//! The Low-Power Wireless Bus (LWB).
//!
//! The LWB (Ferrari et al., SenSys 2012) lets wireless nodes communicate
//! as if attached to a shared wired bus: time is divided into
//! *communication rounds*, each opened by a *beacon* flood from the host
//! that announces the round layout, followed by contention-free *slots*,
//! one Glossy flood per message. NETDAG schedules applications directly in
//! terms of these rounds.
//!
//! This crate executes a [`netdag_core::schedule::Schedule`] over the
//! [`netdag_glossy`] simulator:
//!
//! * [`bus`] — the time-triggered executor: beacons, slots, per-run
//!   task/message success propagation through the application DAG;
//! * [`trace`] — hit/miss sequences per task and message across repeated
//!   application runs (the inputs to `netdag-validation`);
//! * [`energy`] — radio-on time and energy accounting per node.
//!
//! # Example
//!
//! ```
//! use netdag_core::prelude::*;
//! use netdag_core::stat::Eq13Statistic;
//! use netdag_glossy::{link::Bernoulli, NodeId, Topology};
//! use netdag_lwb::bus::LwbExecutor;
//! use netdag_weakly_hard::Constraint;
//! use rand::SeedableRng;
//!
//! let mut b = Application::builder();
//! let sense = b.task("sense", NodeId(0), 500);
//! let act = b.task("act", NodeId(1), 300);
//! b.edge(sense, act, 8)?;
//! let app = b.build()?;
//! let out = schedule_weakly_hard(
//!     &app,
//!     &Eq13Statistic::new(8),
//!     &WeaklyHardConstraints::new(),
//!     &SchedulerConfig::greedy(),
//! )?;
//!
//! let topo = Topology::line(2)?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let exec = LwbExecutor::new(&app, &out.schedule, &topo, NodeId(0))?;
//! let trace = exec.run_many(&mut Bernoulli::new(0.9)?, 50, &mut rng);
//! assert_eq!(trace.runs(), 50);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod codec;
pub mod energy;
pub mod trace;

pub use bus::{LwbError, LwbExecutor, RunOutcome};
pub use codec::{required_beacon_width, BeaconPayload, CodecError, SlotInfo};
pub use energy::EnergyModel;
pub use trace::ExecutionTrace;

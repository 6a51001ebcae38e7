//! `netdag-serve` — the long-running NETDAG scheduling daemon.
//!
//! The batch CLI pays the full branch-and-bound cost on every
//! invocation. This crate turns the scheduler into a service: clients
//! connect over TCP, write one JSON request per line ([`protocol`]),
//! and receive the same [`ScheduleExport`](netdag_core::spec::ScheduleExport)
//! document `netdag schedule --out` writes — byte-for-byte identical,
//! whether the answer was solved cold, warm-started, or served from
//! cache.
//!
//! What makes it a *scheduling* daemon rather than a generic RPC shim:
//!
//! * **Canonical fingerprints** ([`mod@fingerprint`]) — a stable structural
//!   hash over the application DAG, pinning, constraint set and
//!   configuration keys a bounded LRU [`cache`]. A repeated problem is
//!   answered with zero solver nodes; a *near miss* (same structure,
//!   perturbed constraint bounds) warm-starts branch-and-bound by
//!   injecting the cached makespan as a pruning bound through the trail
//!   engine — sound and bit-identical to the cold solve (see
//!   [`netdag_core::control::SolveControl`]). Multi-mode `mode_solve`
//!   requests hash the whole mode set ([`mode_fingerprint`]) into the
//!   same cache, exact-only, and answer with the
//!   [`ModeScheduleExport`](netdag_core::modes::ModeScheduleExport)
//!   document `netdag schedule --modes --out` writes.
//! * **Robust serving semantics** ([`server`]) — a bounded admission
//!   queue with explicit structured rejection under overload, a
//!   per-request deadline that pauses the engine and returns the best
//!   incumbent so far marked incomplete, and graceful shutdown that
//!   drains every accepted request before exiting.
//! * **Full observability** — `serve.*` counters, latency and
//!   queue-depth histograms in [`netdag_obs`], and a `serve.request`
//!   trace span per request in [`netdag_trace`], exported by the CLI's
//!   standard `--metrics` / `--trace` flags.
//!
//! The `netdag serve` subcommand binds a listener and runs [`serve`];
//! see the repository's DESIGN.md § 10 for the wire protocol and the
//! cache/warm-start policy in detail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod snapshot;

pub use cache::{Answer, Lookup, SolutionCache};
pub use client::Client;
pub use fingerprint::{fingerprint, mode_fingerprint, Fingerprint};
pub use protocol::{BatchItem, CacheStatsBody, Request, Response, ValidationReport};
pub use ring::Ring;
#[doc(hidden)]
pub use server::WorkerHook;
pub use server::{serve, ServeConfig, ServeReport};
pub use snapshot::{CacheSnapshot, SNAPSHOT_SCHEMA};

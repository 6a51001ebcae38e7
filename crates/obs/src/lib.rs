//! Structured observability for the NETDAG workspace.
//!
//! The paper's evaluation hinges on scheduler-internal quantities —
//! solver effort behind the Z3/Gurobi substitution, per-flood success
//! statistics feeding eq. (6), the `(m, K)` satisfaction tests of
//! eq. (10) — that used to be invisible without ad-hoc prints. This
//! crate is the workspace's measurement substrate: a zero-dependency
//! (std-only, vendor-shim-compatible) event/metrics layer that the hot
//! crates (`netdag-solver`, `netdag-glossy`, `netdag-core`,
//! `netdag-lwb`, `netdag-validation`) emit into and the CLI exports as
//! JSON via `netdag <cmd> --metrics <path.json>`.
//!
//! Four instrument kinds, all aggregated by a thread-safe
//! [`Recorder`]:
//!
//! * [`Counter`] — a named monotonic `u64`. Increments are relaxed
//!   atomics, so worker threads of `netdag-runtime` fan-outs can emit
//!   concurrently; because addition commutes, counter **totals are
//!   bit-identical at every thread count** whenever the underlying work
//!   is (which the runtime layer guarantees).
//! * [`Gauge`] — a named point-in-time level (queue depth, in-flight
//!   requests, cache occupancy). Reported verbatim, never subtracted.
//! * spans — named wall-clock sections with monotonic
//!   ([`std::time::Instant`]) timing, recorded via the RAII
//!   [`SpanGuard`]. Durations are *not* deterministic; the report
//!   schema keeps them separate from counters for exactly that reason.
//! * histograms — named power-of-two-bucketed distributions of `u64`
//!   observations (e.g. search nodes per solver invocation). Bucket
//!   counts inherit the determinism of the observations.
//!
//! For long-running daemons two further pieces build on these:
//! [`WindowedHist`], a ring of time-bucketed histograms yielding
//! rolling p50/p90/p99/max over the recent past in bounded memory, and
//! [`SloGate`], declarative thresholds evaluated against windowed data
//! into an [`SloReport`] (the `"slo"` section of the soak summary
//! and the serve daemon's shutdown verdict).
//!
//! Snapshots ([`Recorder::snapshot`]) produce a [`MetricsReport`]:
//! subtractable ([`MetricsReport::delta`]), printable as a
//! human-readable summary table ([`MetricsReport::summary_table`], the
//! CLI sends it to stderr so stdout stays machine-consumable), and
//! serializable to a stable JSON document ([`MetricsReport::to_json`],
//! schema documented on that method and golden-tested in
//! `netdag-cli`).
//!
//! Instrumented crates use the process-global recorder ([`global`])
//! through the [`counter!`] macro, which caches the registry lookup in
//! a per-call-site static:
//!
//! ```
//! use netdag_obs::{counter, keys};
//!
//! counter!(keys::WEAKLY_HARD_MODELS_CHECKS).incr();
//! let report = netdag_obs::global().snapshot();
//! assert!(report.counters[keys::WEAKLY_HARD_MODELS_CHECKS] >= 1);
//! ```
//!
//! The canonical metric names live in [`keys`]; pre-registering them
//! ([`Recorder::preregister`]) pins the report schema even when a
//! command never touches a subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
pub mod keys;
mod recorder;
mod report;
mod slo;
mod windowed;

pub use recorder::{global, Counter, Gauge, Recorder, SpanGuard};
pub use report::{HistStats, MetricsReport, SpanStats};
pub use slo::{SloCheck, SloGate, SloInputs, SloReport};
pub use windowed::{WindowStats, WindowedHist};

/// Returns the cached [`Counter`] for `name` on the [`global`]
/// recorder, registering it on first use.
///
/// Expands to a per-call-site `static`, so repeated executions skip the
/// registry lock entirely — the increment itself is one relaxed atomic
/// add, cheap enough for per-event instrumentation on hot paths.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __NETDAG_OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        __NETDAG_OBS_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

//! Deterministic parallel execution for the NETDAG workspace.
//!
//! Two pieces, all std-only:
//!
//! * [`pool`] — scoped-thread fan-out over an indexed job list. One
//!   claim loop, [`try_run_indexed`], does all the work: threads claim
//!   indices from a shared counter and results are merged by job index,
//!   so the output is identical at any thread count; only wall-clock
//!   time changes. [`run_indexed`] and [`for_each_indexed_mut`] are thin
//!   calls into it.
//! * [`seed`] — fixed `(master, stream, chunk) -> [u8; 32]` seed
//!   derivation. Work is split into *fixed-size* chunks whose RNG streams
//!   depend only on their index, never on which thread runs them.
//!
//! Together these give the "same bits at `--threads 1` and
//! `--threads 8`" guarantee the profiling and validation layers rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod seed;

pub use pool::{for_each_indexed_mut, run_indexed, try_run_indexed, ExecPolicy};
pub use seed::derive_seed;

//! Transmission-power design-space exploration (paper § IV-D, fig. 4).
//!
//! Low-power deployments trade radio transmission power against real-time
//! performance: lower power shrinks the communication range, stretching
//! the network diameter and weakening the per-flood statistic, which
//! forces more retransmissions and a longer makespan. This crate
//! implements the paper's three-stage workflow:
//!
//! 1. **mobility** ([`mobility`]) — nodes move in the unit square
//!    (random-waypoint);
//! 2. **profiling** ([`profile`]) — for each TX power `Q_i`, measure the
//!    worst-case mean filtered signal strength `fSS̄_i` and the worst-case
//!    network diameter `D(N)_i` over mobility snapshots (fig. 4, left two
//!    plots);
//! 3. **exploration** ([`explore`]) — build the soft statistic `λ_i` of
//!    eq. (15) from `fSS̄_i`, hand `λ_i` and `D(N)_i` to NETDAG, and read
//!    off the end-to-end latency per `Q_i` (fig. 4, right plot), plus the
//!    minimum power meeting a deadline.
//!
//! # Example
//!
//! ```
//! use netdag_dse::mobility::RandomWaypoint;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let mut mob = RandomWaypoint::new(8, 0.05, &mut rng);
//! let before = mob.positions().to_vec();
//! mob.step(&mut rng);
//! assert_eq!(mob.positions().len(), 8);
//! assert_ne!(before, mob.positions());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod mobility;
pub mod profile;

pub use explore::{
    explore_tx_power_par, min_feasible_power, min_power_for_deadlines, pareto_frontier, Fig4Point,
};
pub use mobility::RandomWaypoint;
pub use profile::{profile_power, PowerProfile};

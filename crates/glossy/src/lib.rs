//! Discrete-event simulator for Glossy floods.
//!
//! Glossy (Ferrari et al., IPSN 2011) floods a packet through a multi-hop
//! low-power wireless network using synchronized concurrent retransmissions.
//! The Low-Power Wireless Bus and the NETDAG scheduler treat one flood as
//! the primitive communication step; its two externally visible properties
//! are
//!
//! 1. **duration** — estimated by the closed form of NETDAG's eq. (3) from
//!    hardware constants and the retransmission parameter `N_TX`
//!    ([`timing`]), and
//! 2. **reliability** — the probability (soft) or bounded miss behavior
//!    (weakly hard) of flood success as a function of `N_TX`, which this
//!    crate measures empirically by Monte-Carlo simulation ([`stats`]).
//!
//! The paper relied on testbed measurements for (2); here a slot-level
//! simulation of the flood ([`flood`]) over pluggable per-link loss models
//! ([`link`]) — including a bursty Gilbert–Elliott channel that motivates
//! the weakly hard viewpoint — plays that role.
//!
//! # Example
//!
//! ```
//! use netdag_glossy::{flood::{simulate_flood, FloodParams}, link::Bernoulli,
//!                     topology::Topology, NodeId};
//! use rand::SeedableRng;
//!
//! let topo = Topology::line(5)?;
//! let mut link = Bernoulli::new(0.9)?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let outcome = simulate_flood(
//!     &topo,
//!     &mut link,
//!     &FloodParams { initiator: NodeId(0), n_tx: 3 },
//!     &mut rng,
//! )?;
//! assert!(outcome.reached(NodeId(0)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood;
pub mod link;
pub mod stats;
pub mod timing;
pub mod topology;

pub use flood::{simulate_flood, FloodOutcome, FloodParams};
pub use link::{Bernoulli, GilbertElliott, LossModel, NodeChurn, Perfect};
pub use stats::{ProfileError, SoftProfile, WeaklyHardProfile};
pub use timing::GlossyTiming;
pub use topology::{NodeId, Topology, TopologyError};

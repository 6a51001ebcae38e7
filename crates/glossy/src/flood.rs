//! Slot-level simulation of a single Glossy flood.
//!
//! Glossy is *event-triggered*: a node that first receives the packet in
//! slot `t` immediately retransmits in slot `t + 1`, then alternates
//! RX/TX slots until it has transmitted `N_TX` times. The initiator starts
//! by transmitting in slot 0. Concurrent transmissions interfere
//! constructively, so a reception fails only through per-link channel loss
//! (see [`crate::link`]).

use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::link::LossModel;
use crate::topology::{NodeId, Topology};

/// Parameters of one flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FloodParams {
    /// The node that owns the message (the paper's flood source).
    pub initiator: NodeId,
    /// The retransmission parameter `N_TX`: how many times each node
    /// transmits the packet.
    pub n_tx: u32,
}

/// Error returned by [`simulate_flood`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloodError {
    /// The initiator is not a node of the topology.
    BadInitiator(NodeId),
    /// `N_TX` must be at least 1.
    ZeroNtx,
}

impl fmt::Display for FloodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloodError::BadInitiator(n) => write!(f, "initiator {n} is not in the topology"),
            FloodError::ZeroNtx => write!(f, "N_TX must be at least 1"),
        }
    }
}

impl Error for FloodError {}

/// Result of one flood.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FloodOutcome {
    first_rx_slot: Vec<Option<u32>>,
    transmissions: u64,
}

impl FloodOutcome {
    /// Whether `node` received the packet (the initiator trivially did).
    pub fn reached(&self, node: NodeId) -> bool {
        self.first_rx_slot[node.index()].is_some()
    }

    /// Whether every node in the network received the packet — the
    /// *flood success* event whose statistics the scheduler consumes.
    pub fn all_reached(&self) -> bool {
        self.first_rx_slot.iter().all(Option::is_some)
    }

    /// Slot of first reception per node (`Some(0)` for the initiator).
    pub fn first_rx_slots(&self) -> &[Option<u32>] {
        &self.first_rx_slot
    }

    /// Total number of packet transmissions — a proxy for radio energy.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Fraction of nodes reached.
    pub fn coverage(&self) -> f64 {
        let n = self.first_rx_slot.len();
        self.first_rx_slot.iter().flatten().count() as f64 / n as f64
    }
}

/// Simulates one Glossy flood over `topo` with per-link losses drawn from
/// `link`.
///
/// # Errors
///
/// * [`FloodError::BadInitiator`] when the initiator is out of range;
/// * [`FloodError::ZeroNtx`] when `n_tx == 0`.
///
/// # Example
///
/// ```
/// use netdag_glossy::{flood::{simulate_flood, FloodParams}, link::Perfect,
///                     topology::Topology, NodeId};
/// use rand::SeedableRng;
///
/// let topo = Topology::line(4)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let out = simulate_flood(
///     &topo,
///     &mut Perfect::new(),
///     &FloodParams { initiator: NodeId(0), n_tx: 2 },
///     &mut rng,
/// )?;
/// assert!(out.all_reached());
/// // On a lossless line, node i first receives in slot i − 1... i.e. hop
/// // distance matters: node 3 hears it in slot 2 (tx in 0,1,2).
/// assert_eq!(out.first_rx_slots()[3], Some(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_flood<L: LossModel, R: Rng + ?Sized>(
    topo: &Topology,
    link: &mut L,
    params: &FloodParams,
    rng: &mut R,
) -> Result<FloodOutcome, FloodError> {
    if params.initiator.index() >= topo.node_count() {
        return Err(FloodError::BadInitiator(params.initiator));
    }
    if params.n_tx == 0 {
        return Err(FloodError::ZeroNtx);
    }
    netdag_obs::counter!(netdag_obs::keys::GLOSSY_FLOODS_SIMULATED).incr();
    let n = topo.node_count();
    // The initiator behaves as if it received in "slot −1" and transmits in
    // slots 0, 2, 4, …; a node first receiving in slot t transmits in
    // t + 1, t + 3, ….
    let mut first_rx: Vec<Option<i64>> = vec![None; n];
    first_rx[params.initiator.index()] = Some(-1);
    let mut transmissions = 0u64;

    let last_tx_slot = |rx: i64| rx + 1 + 2 * (params.n_tx as i64 - 1);
    let mut horizon = last_tx_slot(-1);
    let mut slot: i64 = 0;
    while slot <= horizon {
        // Who transmits in this slot?
        let transmitters: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|node| {
                first_rx[node.index()].is_some_and(|rx| {
                    slot > rx && (slot - rx - 1) % 2 == 0 && slot <= last_tx_slot(rx)
                })
            })
            .collect();
        transmissions += transmitters.len() as u64;
        // Receptions: any not-yet-covered node with a transmitting neighbor.
        for node in 0..n as u32 {
            let node = NodeId(node);
            if first_rx[node.index()].is_some() {
                continue;
            }
            let mut got_it = false;
            for &tx in &transmitters {
                if topo.neighbors(node).contains(&tx) && link.receive(tx, node, rng) {
                    got_it = true;
                    // Keep sampling the remaining transmitters so that the
                    // channel state (e.g. Gilbert–Elliott) advances
                    // uniformly regardless of who succeeded first.
                }
            }
            if got_it {
                first_rx[node.index()] = Some(slot);
                horizon = horizon.max(last_tx_slot(slot));
            }
        }
        slot += 1;
    }

    let outcome = FloodOutcome {
        first_rx_slot: first_rx
            .into_iter()
            .map(|rx| rx.map(|s| s.max(0) as u32))
            .collect(),
        transmissions,
    };
    // Guarded explicitly: this is the Monte-Carlo hot path, and building
    // the args slice is not free even though `instant` itself bails.
    if netdag_trace::enabled() {
        netdag_trace::instant(
            "glossy.flood",
            &[
                ("initiator", params.initiator.index().into()),
                ("n_tx", params.n_tx.into()),
                ("transmissions", outcome.transmissions.into()),
                ("reached_all", outcome.all_reached().into()),
            ],
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Bernoulli, Perfect};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1234)
    }

    #[test]
    fn perfect_flood_covers_everything() {
        let topo = Topology::grid(4, 4).unwrap();
        let out = simulate_flood(
            &topo,
            &mut Perfect::new(),
            &FloodParams {
                initiator: NodeId(0),
                n_tx: 1,
            },
            &mut rng(),
        )
        .unwrap();
        assert!(out.all_reached());
        assert_eq!(out.coverage(), 1.0);
    }

    #[test]
    fn perfect_flood_respects_hop_distance() {
        let topo = Topology::line(6).unwrap();
        let out = simulate_flood(
            &topo,
            &mut Perfect::new(),
            &FloodParams {
                initiator: NodeId(0),
                n_tx: 1,
            },
            &mut rng(),
        )
        .unwrap();
        // Node i (hop distance i) first receives in slot i − 1.
        for i in 1..6 {
            assert_eq!(out.first_rx_slots()[i], Some(i as u32 - 1), "node {i}");
        }
    }

    #[test]
    fn transmissions_counted() {
        let topo = Topology::line(3).unwrap();
        let out = simulate_flood(
            &topo,
            &mut Perfect::new(),
            &FloodParams {
                initiator: NodeId(0),
                n_tx: 2,
            },
            &mut rng(),
        )
        .unwrap();
        // Every node transmits exactly n_tx times on a lossless network.
        assert_eq!(out.transmissions(), 3 * 2);
    }

    #[test]
    fn zero_success_channel_reaches_nobody_else() {
        let topo = Topology::line(4).unwrap();
        let mut dead = Bernoulli::new(0.0).unwrap();
        let out = simulate_flood(
            &topo,
            &mut dead,
            &FloodParams {
                initiator: NodeId(1),
                n_tx: 3,
            },
            &mut rng(),
        )
        .unwrap();
        assert!(out.reached(NodeId(1)));
        assert!(!out.all_reached());
        assert_eq!(out.coverage(), 0.25);
        // Only the initiator transmits.
        assert_eq!(out.transmissions(), 3);
    }

    #[test]
    fn more_retransmissions_help_on_lossy_channel() {
        let topo = Topology::line(5).unwrap();
        let runs = 400;
        let rate = |n_tx: u32| {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let mut ok = 0;
            for _ in 0..runs {
                let mut link = Bernoulli::new(0.6).unwrap();
                let out = simulate_flood(
                    &topo,
                    &mut link,
                    &FloodParams {
                        initiator: NodeId(0),
                        n_tx,
                    },
                    &mut rng,
                )
                .unwrap();
                if out.all_reached() {
                    ok += 1;
                }
            }
            ok as f64 / runs as f64
        };
        let r1 = rate(1);
        let r4 = rate(4);
        assert!(
            r4 > r1 + 0.1,
            "N_TX = 4 should clearly beat N_TX = 1: {r4} vs {r1}"
        );
    }

    #[test]
    fn parameter_validation() {
        let topo = Topology::line(2).unwrap();
        assert_eq!(
            simulate_flood(
                &topo,
                &mut Perfect::new(),
                &FloodParams {
                    initiator: NodeId(9),
                    n_tx: 1
                },
                &mut rng(),
            ),
            Err(FloodError::BadInitiator(NodeId(9)))
        );
        assert_eq!(
            simulate_flood(
                &topo,
                &mut Perfect::new(),
                &FloodParams {
                    initiator: NodeId(0),
                    n_tx: 0
                },
                &mut rng(),
            ),
            Err(FloodError::ZeroNtx)
        );
    }

    #[test]
    fn single_node_flood() {
        let topo = Topology::from_edges(1, &[]).unwrap();
        let out = simulate_flood(
            &topo,
            &mut Perfect::new(),
            &FloodParams {
                initiator: NodeId(0),
                n_tx: 2,
            },
            &mut rng(),
        )
        .unwrap();
        assert!(out.all_reached());
        assert_eq!(out.transmissions(), 2);
    }
}

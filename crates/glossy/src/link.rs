//! Per-link packet loss models.
//!
//! A [`LossModel`] decides, per transmission attempt, whether a receiver
//! successfully decodes a neighbor's packet. Glossy's constructive
//! interference means concurrent transmitters do not collide; a reception
//! fails only through channel loss, so the loss model fully determines the
//! stochastic behavior of a flood.
//!
//! The Gilbert–Elliott model matters for NETDAG: bursty channels make
//! per-flood failures *correlated*, which is exactly the regime where a
//! probabilistic (soft) statistic under-represents risk and the weakly hard
//! miss-form statistic `(m̄, K)` is the honest abstraction.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::topology::NodeId;

/// Error returned when a probability parameter is out of `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityError {
    /// Parameter name.
    pub name: &'static str,
    /// Offending value.
    pub value: f64,
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} is not a probability in [0, 1]",
            self.name, self.value
        )
    }
}

impl Error for ProbabilityError {}

fn check_prob(name: &'static str, value: f64) -> Result<f64, ProbabilityError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ProbabilityError { name, value })
    }
}

/// Decides the fate of individual link transmissions.
///
/// Implementations may keep per-link state (e.g. burst channels); state
/// evolves with every call, so a model instance represents one realization
/// of the channel over time.
pub trait LossModel {
    /// Whether a packet sent `from → to` in this slot is received.
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool;

    /// Advances time between floods (lets burst channels mix between
    /// rounds). The default does nothing.
    fn advance_between_floods<R: Rng + ?Sized>(&mut self, _rng: &mut R) {}
}

/// Lossless channel: every transmission is received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Perfect;

impl Perfect {
    /// Creates the lossless channel.
    pub fn new() -> Self {
        Perfect
    }
}

impl LossModel for Perfect {
    fn receive<R: Rng + ?Sized>(&mut self, _: NodeId, _: NodeId, _: &mut R) -> bool {
        true
    }
}

/// Independent per-transmission losses: each reception succeeds with a
/// fixed probability (the model under which Glossy floods behave as
/// i.i.d. Bernoulli trials — Zimmerling et al., MASCOTS 2013).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    success: f64,
}

impl Bernoulli {
    /// Creates a channel with the given per-transmission success
    /// probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when `success ∉ [0, 1]`.
    pub fn new(success: f64) -> Result<Self, ProbabilityError> {
        Ok(Bernoulli {
            success: check_prob("success", success)?,
        })
    }
}

impl LossModel for Bernoulli {
    fn receive<R: Rng + ?Sized>(&mut self, _: NodeId, _: NodeId, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.success
    }
}

/// Two-state bursty channel (Gilbert–Elliott): each directed link is in a
/// *good* or *bad* state with distinct success probabilities, switching
/// with the given transition probabilities per transmission.
///
/// # Example
///
/// ```
/// use netdag_glossy::{GilbertElliott, LossModel, NodeId};
/// use rand::SeedableRng;
///
/// let mut ge = GilbertElliott::new(0.05, 0.3, 0.99, 0.2)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let ok = ge.receive(NodeId(0), NodeId(1), &mut rng);
/// # let _ = ok;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    p_good_to_bad: f64,
    p_bad_to_good: f64,
    success_good: f64,
    success_bad: f64,
    /// `true` = bad state, per directed link.
    state: HashMap<(NodeId, NodeId), bool>,
}

impl GilbertElliott {
    /// Creates a bursty channel.
    ///
    /// * `p_good_to_bad` / `p_bad_to_good` — state switch probabilities per
    ///   transmission;
    /// * `success_good` / `success_bad` — reception probabilities in each
    ///   state.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when any parameter is out of `[0, 1]`.
    pub fn new(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        success_good: f64,
        success_bad: f64,
    ) -> Result<Self, ProbabilityError> {
        Ok(GilbertElliott {
            p_good_to_bad: check_prob("p_good_to_bad", p_good_to_bad)?,
            p_bad_to_good: check_prob("p_bad_to_good", p_bad_to_good)?,
            success_good: check_prob("success_good", success_good)?,
            success_bad: check_prob("success_bad", success_bad)?,
            state: HashMap::new(),
        })
    }

    /// Stationary probability of the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    fn step_state<R: Rng + ?Sized>(&mut self, link: (NodeId, NodeId), rng: &mut R) -> bool {
        let bad = self.state.entry(link).or_insert(false);
        let flip = if *bad {
            rng.gen::<f64>() < self.p_bad_to_good
        } else {
            rng.gen::<f64>() < self.p_good_to_bad
        };
        if flip {
            *bad = !*bad;
        }
        *bad
    }
}

impl LossModel for GilbertElliott {
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        let bad = self.step_state((from, to), rng);
        let p = if bad {
            self.success_bad
        } else {
            self.success_good
        };
        rng.gen::<f64>() < p
    }

    fn advance_between_floods<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Let every link state take one extra transition between floods.
        let links: Vec<_> = self.state.keys().copied().collect();
        for link in links {
            self.step_state(link, rng);
        }
    }
}

/// Node churn on top of any base channel: nodes independently go down for
/// stretches of time (reboot, battery brown-out, obstruction) during which
/// they neither relay nor receive. Churn produces exactly the correlated,
/// bursty application-level failures that motivate the weakly hard
/// viewpoint — while a node is down, *every* flood through it degrades.
///
/// State advances per transmission and between floods; down spells last
/// `1 / p_recover` transmissions on average.
#[derive(Debug, Clone)]
pub struct NodeChurn<L> {
    base: L,
    p_fail: f64,
    p_recover: f64,
    /// `true` = node currently down, keyed lazily.
    down: HashMap<NodeId, bool>,
}

impl<L: LossModel> NodeChurn<L> {
    /// Wraps `base` with churn: per state-advance, an up node goes down
    /// with probability `p_fail` and a down node recovers with
    /// `p_recover`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when either parameter is out of
    /// `[0, 1]`.
    pub fn new(base: L, p_fail: f64, p_recover: f64) -> Result<Self, ProbabilityError> {
        Ok(NodeChurn {
            base,
            p_fail: check_prob("p_fail", p_fail)?,
            p_recover: check_prob("p_recover", p_recover)?,
            down: HashMap::new(),
        })
    }

    fn step_node<R: Rng + ?Sized>(&mut self, node: NodeId, rng: &mut R) -> bool {
        let down = self.down.entry(node).or_insert(false);
        let flip = if *down {
            rng.gen::<f64>() < self.p_recover
        } else {
            rng.gen::<f64>() < self.p_fail
        };
        if flip {
            *down = !*down;
        }
        *down
    }
}

impl<L: LossModel> LossModel for NodeChurn<L> {
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        let from_down = self.step_node(from, rng);
        let to_down = self.step_node(to, rng);
        if from_down || to_down {
            // Still advance the base channel so its burst state evolves
            // consistently with time.
            let _ = self.base.receive(from, to, rng);
            return false;
        }
        self.base.receive(from, to, rng)
    }

    fn advance_between_floods<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let nodes: Vec<NodeId> = self.down.keys().copied().collect();
        for node in nodes {
            self.step_node(node, rng);
        }
        self.base.advance_between_floods(rng);
    }
}

/// Distance-attenuated channel for the fig. 4 design-space exploration:
/// reception succeeds with probability proportional to the *filtered
/// signal strength* `fSS = clamp(Q / r², ·)` mapped into `[0, 1]`.
///
/// Signal strength saturates at [`SignalLoss::SATURATION`]; links at or
/// below [`SignalLoss::CUTOFF`] never receive.
#[derive(Debug, Clone)]
pub struct SignalLoss {
    /// Transmission power `Q ∈ (0, 1]`.
    pub tx_power: f64,
    positions: Vec<(f64, f64)>,
}

impl SignalLoss {
    /// Signal strength saturates here (paper § IV-D).
    pub const SATURATION: f64 = 2.0;
    /// Signal strength at or below this is out of range (paper § IV-D).
    pub const CUTOFF: f64 = 0.5;

    /// Creates the model from node positions and a TX power `Q`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when `tx_power ∉ (0, 1]` (reported with
    /// the `tx_power` parameter name).
    pub fn new(positions: Vec<(f64, f64)>, tx_power: f64) -> Result<Self, ProbabilityError> {
        if !(tx_power > 0.0 && tx_power <= 1.0) {
            return Err(ProbabilityError {
                name: "tx_power",
                value: tx_power,
            });
        }
        Ok(SignalLoss {
            tx_power,
            positions,
        })
    }

    /// Raw pairwise signal strength `SS = Q / r²` with saturation.
    pub fn signal_strength(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.positions[a.index()];
        let (bx, by) = self.positions[b.index()];
        let r2 = (ax - bx).powi(2) + (ay - by).powi(2);
        if r2 == 0.0 {
            return Self::SATURATION;
        }
        (self.tx_power / r2).min(Self::SATURATION)
    }

    /// Whether the pair is within radio range.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.signal_strength(a, b) > Self::CUTOFF
    }

    /// Per-transmission reception probability: filtered signal strength
    /// rescaled linearly from `(CUTOFF, SATURATION]` onto `(0, 1]`.
    pub fn reception_probability(&self, a: NodeId, b: NodeId) -> f64 {
        let ss = self.signal_strength(a, b);
        if ss <= Self::CUTOFF {
            0.0
        } else {
            (ss - Self::CUTOFF) / (Self::SATURATION - Self::CUTOFF)
        }
    }
}

impl LossModel for SignalLoss {
    fn receive<R: Rng + ?Sized>(&mut self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.reception_probability(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl<L> NodeChurn<L> {
        /// Long-run fraction of time a node spends down.
        fn stationary_down(&self) -> f64 {
            let denom = self.p_fail + self.p_recover;
            if denom == 0.0 {
                0.0
            } else {
                self.p_fail / denom
            }
        }
    }

    #[test]
    fn probability_validation() {
        assert!(Bernoulli::new(1.5).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(0.0).is_ok());
        assert!(GilbertElliott::new(0.1, 0.1, 0.9, 1.2).is_err());
        let err = Bernoulli::new(2.0).unwrap_err();
        assert!(err.to_string().contains("success = 2"));
    }

    #[test]
    fn perfect_always_receives() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut p = Perfect::new();
        for _ in 0..10 {
            assert!(p.receive(NodeId(0), NodeId(1), &mut rng));
        }
    }

    #[test]
    fn bernoulli_empirical_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut b = Bernoulli::new(0.7).unwrap();
        let n = 20_000;
        let ok = (0..n)
            .filter(|_| b.receive(NodeId(0), NodeId(1), &mut rng))
            .count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_bernoulli() {
        // Same long-run loss rate, but GE losses must cluster: compare the
        // longest loss run against an equally lossy Bernoulli channel.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ge = GilbertElliott::new(0.02, 0.2, 1.0, 0.0).unwrap();
        let loss_rate = ge.stationary_bad(); // ≈ 0.0909
        let mut bern = Bernoulli::new(1.0 - loss_rate).unwrap();
        let n = 30_000;
        let run = |ok: Vec<bool>| {
            let (mut best, mut cur) = (0, 0);
            for o in ok {
                if o {
                    cur = 0;
                } else {
                    cur += 1;
                    best = best.max(cur);
                }
            }
            best
        };
        let ge_run = run((0..n)
            .map(|_| ge.receive(NodeId(0), NodeId(1), &mut rng))
            .collect());
        let bern_run = run((0..n)
            .map(|_| bern.receive(NodeId(0), NodeId(1), &mut rng))
            .collect());
        assert!(
            ge_run > bern_run,
            "GE run {ge_run} should exceed Bernoulli run {bern_run}"
        );
    }

    #[test]
    fn gilbert_elliott_stationary() {
        let ge = GilbertElliott::new(0.1, 0.3, 0.9, 0.1).unwrap();
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        let never_bad = GilbertElliott::new(0.0, 0.0, 0.9, 0.1).unwrap();
        assert_eq!(never_bad.stationary_bad(), 0.0);
    }

    #[test]
    fn advance_between_floods_mixes_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ge = GilbertElliott::new(0.5, 0.5, 1.0, 0.0).unwrap();
        // Touch a link to create state, then advance a few times.
        ge.receive(NodeId(0), NodeId(1), &mut rng);
        for _ in 0..10 {
            ge.advance_between_floods(&mut rng);
        }
        // No panic and state still tracked.
        assert_eq!(ge.state.len(), 1);
    }

    #[test]
    fn node_churn_validation_and_stationary() {
        assert!(NodeChurn::new(Perfect::new(), 1.5, 0.1).is_err());
        assert!(NodeChurn::new(Perfect::new(), 0.1, -0.1).is_err());
        let churn = NodeChurn::new(Perfect::new(), 0.1, 0.3).unwrap();
        assert!((churn.stationary_down() - 0.25).abs() < 1e-12);
        assert_eq!(
            NodeChurn::new(Perfect::new(), 0.0, 0.0)
                .unwrap()
                .stationary_down(),
            0.0
        );
    }

    #[test]
    fn node_churn_blocks_down_nodes() {
        // Permanent failure: p_fail = 1, p_recover = 0 ⇒ after the first
        // touch every node is down forever.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut churn = NodeChurn::new(Perfect::new(), 1.0, 0.0).unwrap();
        for _ in 0..10 {
            assert!(!churn.receive(NodeId(0), NodeId(1), &mut rng));
        }
        // No churn at all: behaves like the base channel.
        let mut none = NodeChurn::new(Perfect::new(), 0.0, 0.0).unwrap();
        for _ in 0..10 {
            assert!(none.receive(NodeId(0), NodeId(1), &mut rng));
        }
    }

    #[test]
    fn node_churn_makes_failures_bursty() {
        // Compare application-level loss runs: churned perfect channel vs
        // an i.i.d. Bernoulli channel with the same average loss.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut churn = NodeChurn::new(Perfect::new(), 0.02, 0.2).unwrap();
        let loss = churn.stationary_down(); // per-node down fraction
                                            // Receiving needs both endpoints up: success ≈ (1 − loss)².
        let mut bern = Bernoulli::new((1.0 - loss) * (1.0 - loss)).unwrap();
        let n = 30_000;
        let run = |ok: Vec<bool>| {
            let (mut best, mut cur) = (0, 0);
            for o in ok {
                if o {
                    cur = 0;
                } else {
                    cur += 1;
                    best = best.max(cur);
                }
            }
            best
        };
        let churn_run = run((0..n)
            .map(|_| churn.receive(NodeId(0), NodeId(1), &mut rng))
            .collect());
        let bern_run = run((0..n)
            .map(|_| bern.receive(NodeId(0), NodeId(1), &mut rng))
            .collect());
        assert!(
            churn_run > bern_run,
            "churn run {churn_run} should exceed Bernoulli run {bern_run}"
        );
    }

    #[test]
    fn signal_loss_geometry() {
        let positions = vec![(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)];
        let s = SignalLoss::new(positions, 1.0).unwrap();
        // r = 0.5 ⇒ SS = 1/0.25 = 4, saturated to 2.
        assert_eq!(s.signal_strength(NodeId(0), NodeId(1)), 2.0);
        // r = 1 ⇒ SS = 1.
        assert!((s.signal_strength(NodeId(0), NodeId(2)) - 1.0).abs() < 1e-12);
        assert!(s.in_range(NodeId(0), NodeId(2)));
        // Reception probability rescaled: (1 − 0.5) / 1.5 = 1/3.
        assert!((s.reception_probability(NodeId(0), NodeId(2)) - 1.0 / 3.0).abs() < 1e-12);
        assert!(SignalLoss::new(vec![], 0.0).is_err());
        assert!(SignalLoss::new(vec![], 1.5).is_err());
    }

    #[test]
    fn signal_loss_out_of_range_never_receives() {
        let positions = vec![(0.0, 0.0), (0.0, 2.0)];
        let mut s = SignalLoss::new(positions, 0.5).unwrap();
        // SS = 0.5/4 = 0.125 ≤ cutoff.
        assert!(!s.in_range(NodeId(0), NodeId(1)));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            assert!(!s.receive(NodeId(0), NodeId(1), &mut rng));
        }
    }
}

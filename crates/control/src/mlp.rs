//! A small multi-layer perceptron policy.

use rand::Rng;

use crate::cartpole::State;
use crate::controller::Controller;

/// A fixed-architecture MLP `4 → H → 1` with `tanh` activations; the
/// output is scaled to a force command. Trained by the cross-entropy
/// method in [`crate::train`] — the stand-in for the paper's
/// "state-of-the-art neural network controller".
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    hidden: usize,
    /// `hidden × 4` input weights, row-major.
    w1: Vec<f64>,
    /// `hidden` biases.
    b1: Vec<f64>,
    /// `hidden` output weights.
    w2: Vec<f64>,
    /// Output bias.
    b2: f64,
    /// Force scale applied to the tanh output.
    force_scale: f64,
}

impl Mlp {
    /// Number of scalar parameters for a given hidden width.
    pub fn param_count(hidden: usize) -> usize {
        hidden * 4 + hidden + hidden + 1
    }

    /// Creates an MLP from a flat parameter vector (the CEM genome).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != Self::param_count(hidden)` or
    /// `hidden == 0`.
    pub fn from_flat(hidden: usize, params: &[f64], force_scale: f64) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        assert_eq!(params.len(), Self::param_count(hidden), "parameter count");
        let (w1, rest) = params.split_at(hidden * 4);
        let (b1, rest) = rest.split_at(hidden);
        let (w2, rest) = rest.split_at(hidden);
        Mlp {
            hidden,
            w1: w1.to_vec(),
            b1: b1.to_vec(),
            w2: w2.to_vec(),
            b2: rest[0],
            force_scale,
        }
    }

    /// Random initialization with weights in `[-1, 1]`.
    pub fn random<R: Rng + ?Sized>(hidden: usize, force_scale: f64, rng: &mut R) -> Self {
        let params: Vec<f64> = (0..Self::param_count(hidden))
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();
        Self::from_flat(hidden, &params, force_scale)
    }

    /// Flattens the parameters back into a genome.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = self.w1.clone();
        out.extend_from_slice(&self.b1);
        out.extend_from_slice(&self.w2);
        out.push(self.b2);
        out
    }

    /// Raw network output in `[-1, 1]` before force scaling.
    pub fn forward(&self, features: &[f64; 4]) -> f64 {
        let mut acc = self.b2;
        for h in 0..self.hidden {
            let mut z = self.b1[h];
            for (i, x) in features.iter().enumerate() {
                z += self.w1[h * 4 + i] * x;
            }
            acc += self.w2[h] * z.tanh();
        }
        acc.tanh()
    }
}

impl Controller for Mlp {
    fn act(&self, state: &State) -> f64 {
        self.force_scale * self.forward(&state.features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn param_count_matches_layout() {
        assert_eq!(Mlp::param_count(16), 16 * 4 + 16 + 16 + 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::random(8, 10.0, &mut rng);
        assert_eq!(mlp.to_flat().len(), Mlp::param_count(8));
        assert_eq!(mlp.hidden, 8);
    }

    #[test]
    fn flat_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mlp = Mlp::random(6, 10.0, &mut rng);
        let flat = mlp.to_flat();
        let back = Mlp::from_flat(6, &flat, 10.0);
        assert_eq!(mlp, back);
    }

    #[test]
    fn output_is_bounded_by_force_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mlp = Mlp::random(16, 10.0, &mut rng);
        for _ in 0..50 {
            let s = State {
                x: rng.gen_range(-2.0..2.0),
                x_dot: rng.gen_range(-5.0..5.0),
                theta: rng.gen_range(-0.3..0.3),
                theta_dot: rng.gen_range(-5.0..5.0),
            };
            assert!(mlp.act(&s).abs() <= 10.0 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn wrong_param_count_panics() {
        Mlp::from_flat(4, &[0.0; 3], 10.0);
    }
}

//! Adversarial miss-pattern synthesis (paper eq. (12)).
//!
//! To validate a weakly hard schedule, the paper stresses each flood with
//! "interesting" miss patterns: sequences that satisfy the flood's network
//! statistic `λ_WH(χ(x)) = (m̄_x, K_x)` but *no strictly weaker variant*,
//! i.e. elements of
//!
//! `S^κ((m, K)) − S^κ((m−1, K)) − S^κ((m, K+1))`   (miss form)
//!
//! — patterns with a window of exactly `m` misses, and with `m + 1` misses
//! inside some `K + 1` window. These are the worst behaviors the statistic
//! permits.
//!
//! Two generators are provided:
//!
//! * [`worst_case_pattern`] — a deterministic periodic burst pattern, the
//!   canonical witness;
//! * [`AdversarialSampler`] — uniform random sampling from the *exact* set,
//!   via a [`Dfa`] difference construction.

use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::automaton::Dfa;
use crate::constraint::Constraint;
use crate::sequence::Sequence;

/// Error returned by the synthesis generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// `m = 0` leaves no room for adversarial misses: the target set is
    /// empty (an all-hit statistic cannot be stressed).
    ZeroMisses,
    /// The requested sequence is too short to contain the witness windows;
    /// at least `K + m` slots are needed.
    KappaTooSmall {
        /// Requested length.
        kappa: usize,
        /// Minimum length required.
        needed: usize,
    },
    /// The constraint window is too large to compile to a DFA.
    WindowTooLarge,
    /// Only `AnyMiss`/`AnyHit` statistics can be stressed.
    UnsupportedClass(Constraint),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::ZeroMisses => {
                write!(f, "cannot synthesize adversarial misses for m = 0")
            }
            SynthesisError::KappaTooSmall { kappa, needed } => {
                write!(f, "kappa = {kappa} too small, need at least {needed}")
            }
            SynthesisError::WindowTooLarge => {
                write!(f, "constraint window too large for synthesis automaton")
            }
            SynthesisError::UnsupportedClass(c) => {
                write!(f, "synthesis is defined for windowed constraints, got {c}")
            }
        }
    }
}

impl Error for SynthesisError {}

/// The deterministic worst-case pattern for a miss statistic `(m̄, K)`:
/// bursts of `m` misses separated by `K − m` hits, repeated to length
/// `kappa`.
///
/// The pattern satisfies `(m̄, K)` with equality and violates both
/// `(m̄−1, K)` and `(m̄, K+1)`, exactly as eq. (12) requires.
///
/// # Errors
///
/// * [`SynthesisError::ZeroMisses`] if `m = 0`;
/// * [`SynthesisError::KappaTooSmall`] if `kappa < K + m` (no room for the
///   witness windows).
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{worst_case_pattern, Constraint};
///
/// let w = worst_case_pattern(2, 5, 12)?;
/// assert_eq!(w.to_string(), "001110011100");
/// assert!(Constraint::any_miss(2, 5)?.models(&w));
/// assert!(!Constraint::any_miss(1, 5)?.models(&w));
/// assert!(!Constraint::any_miss(2, 6)?.models(&w));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn worst_case_pattern(m: u32, k: u32, kappa: usize) -> Result<Sequence, SynthesisError> {
    if m == 0 {
        return Err(SynthesisError::ZeroMisses);
    }
    let needed = (k + m) as usize;
    if kappa < needed {
        return Err(SynthesisError::KappaTooSmall { kappa, needed });
    }
    let period = k as usize;
    let m = m as usize;
    Ok((0..kappa).map(|i| i % period >= m).collect())
}

/// A randomized member of the eq. (12) adversarial family: one burst of
/// exactly `m` misses per `K`-aligned period, at per-period offsets that
/// are *non-decreasing* (which keeps every `K`-window at ≤ `m` misses),
/// with at least one pair of bursts exactly `K` apart (which yields the
/// `m + 1` misses in a `K + 1` window that eq. (12) demands).
///
/// These are the "interesting miss-patterns" fig. 3 injects: burst-shaped
/// worst cases, randomized across episodes.
///
/// # Errors
///
/// As [`worst_case_pattern`].
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{synthesis::random_burst_pattern, Constraint};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let w = random_burst_pattern(3, 8, 40, &mut rng)?;
/// assert!(Constraint::any_miss(3, 8)?.models(&w));
/// assert!(!Constraint::any_miss(2, 8)?.models(&w));
/// assert!(!Constraint::any_miss(3, 9)?.models(&w));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn random_burst_pattern<R: Rng + ?Sized>(
    m: u32,
    k: u32,
    kappa: usize,
    rng: &mut R,
) -> Result<Sequence, SynthesisError> {
    if m == 0 {
        return Err(SynthesisError::ZeroMisses);
    }
    let needed = (k + m) as usize;
    if kappa < needed {
        return Err(SynthesisError::KappaTooSmall { kappa, needed });
    }
    let (m, k) = (m as usize, k as usize);
    let periods = kappa.div_ceil(k);
    let slack = k - m;
    // Non-decreasing offsets in [0, slack]; force one adjacent equal pair
    // so two bursts sit exactly K apart (the eq. (12) witness).
    let mut offsets = Vec::with_capacity(periods);
    let mut cur = 0usize;
    for _ in 0..periods {
        cur = (cur + rng.gen_range(0..=slack.min(3))).min(slack);
        offsets.push(cur);
    }
    if periods >= 2 {
        let witness = rng.gen_range(0..periods - 1);
        // Equalize the pair and keep monotonicity by flattening the left
        // side down to the right value... simpler: copy left into right.
        let v = offsets[witness];
        offsets[witness + 1] = v;
        for o in offsets.iter_mut().skip(witness + 2) {
            *o = (*o).max(v);
        }
        // Re-sort to restore monotonicity after the splice.
        offsets.sort_unstable();
    }
    let mut seq = Sequence::all_hits(kappa);
    for (j, &off) in offsets.iter().enumerate() {
        for i in 0..m {
            let pos = j * k + off + i;
            if pos < kappa {
                seq.set(pos, false);
            }
        }
    }
    // The construction guarantees membership whenever the witness pair is
    // fully inside the sequence; verify and fall back to the deterministic
    // worst case otherwise.
    let target = Constraint::AnyMiss {
        m: m as u32,
        k: k as u32,
    };
    let sm = Constraint::AnyMiss {
        m: m as u32 - 1,
        k: k as u32,
    };
    let sk = Constraint::AnyMiss {
        m: m as u32,
        k: k as u32 + 1,
    };
    if target.models(&seq) && !sm.models(&seq) && !sk.models(&seq) {
        Ok(seq)
    } else {
        worst_case_pattern(m as u32, k as u32, kappa)
    }
}

/// Sampler over the adversarial set of eq. (12).
///
/// For windows `K ≤ 15` the sampler is exactly uniform over the set (via
/// a [`Dfa`] difference construction; the stricter-`K` automaton has
/// window `K + 1`, and [`Dfa::from_constraint`] refuses windows past 16).
/// For larger windows it falls back to a *verified jittered-burst*
/// generator: random rotations and random miss thinning of the worst-case
/// pattern, rejected until the eq. (12) membership conditions hold —
/// still exact membership, just not uniform. Past `K = 16` the target
/// automaton is refused before any state is built, so such a sampler
/// costs nothing to construct.
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{AdversarialSampler, Constraint};
/// use rand::SeedableRng;
///
/// let sampler = AdversarialSampler::new(2, 5)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let w = sampler.sample(20, &mut rng).expect("nonempty");
/// assert!(Constraint::any_miss(2, 5)?.models(&w));
/// assert!(!Constraint::any_miss(1, 5)?.models(&w));
/// assert!(!Constraint::any_miss(2, 6)?.models(&w));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdversarialSampler {
    mode: Mode,
    m: u32,
    k: u32,
}

#[derive(Debug, Clone)]
enum Mode {
    /// Exactly uniform over the eq. (12) set.
    Exact(Dfa),
    /// Verified jittered bursts (membership exact, distribution not).
    Jittered,
}

impl AdversarialSampler {
    /// Builds the sampler for the miss statistic `(m̄, K)`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::ZeroMisses`] if `m = 0`.
    pub fn new(m: u32, k: u32) -> Result<Self, SynthesisError> {
        if m == 0 {
            return Err(SynthesisError::ZeroMisses);
        }
        let target = Constraint::AnyMiss { m, k };
        let stricter_m = Constraint::AnyMiss { m: m - 1, k };
        let stricter_k = Constraint::AnyMiss { m, k: k + 1 };
        let exact = (|| {
            let dfa = Dfa::from_constraint(&target)
                .ok()?
                .difference(&Dfa::from_constraint(&stricter_m).ok()?)
                .difference(&Dfa::from_constraint(&stricter_k).ok()?);
            Some(dfa)
        })();
        Ok(AdversarialSampler {
            mode: match exact {
                Some(dfa) => Mode::Exact(dfa),
                None => Mode::Jittered,
            },
            m,
            k,
        })
    }

    /// Whether sampling is exactly uniform (small windows) rather than
    /// jittered-burst (large windows).
    pub fn is_uniform(&self) -> bool {
        matches!(self.mode, Mode::Exact(_))
    }

    /// Builds the sampler from a windowed constraint (hit or miss form).
    ///
    /// # Errors
    ///
    /// As [`AdversarialSampler::new`], plus
    /// [`SynthesisError::UnsupportedClass`] for row constraints.
    pub fn for_constraint(c: &Constraint) -> Result<Self, SynthesisError> {
        match c.to_any_miss() {
            Constraint::AnyMiss { m, k } => Self::new(m, k),
            other => Err(SynthesisError::UnsupportedClass(other)),
        }
    }

    /// The miss bound `m̄` of the statistic being stressed.
    pub fn misses(&self) -> u32 {
        self.m
    }

    /// The window `K` of the statistic being stressed.
    pub fn window(&self) -> u32 {
        self.k
    }

    /// Number of adversarial sequences of length `kappa`; `None` when the
    /// sampler is in jittered mode (no exact counting available).
    pub fn count(&self, kappa: usize) -> Option<u128> {
        match &self.mode {
            Mode::Exact(dfa) => Some(dfa.count_accepting(kappa)),
            Mode::Jittered => None,
        }
    }

    /// Samples one adversarial sequence of length `kappa`, or `None` when
    /// no such sequence exists (e.g. `kappa < K + m`).
    pub fn sample<R: Rng + ?Sized>(&self, kappa: usize, rng: &mut R) -> Option<Sequence> {
        match &self.mode {
            Mode::Exact(dfa) => dfa.sample_uniform(kappa, rng),
            Mode::Jittered => self.sample_jittered(kappa, rng),
        }
    }

    /// Non-uniform fallback: randomized burst patterns, always exact
    /// members of the eq. (12) set.
    fn sample_jittered<R: Rng + ?Sized>(&self, kappa: usize, rng: &mut R) -> Option<Sequence> {
        random_burst_pattern(self.m, self.k, kappa, rng).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn in_eq12_set(w: &Sequence, m: u32, k: u32) -> bool {
        let target = Constraint::AnyMiss { m, k };
        let sm = Constraint::AnyMiss { m: m - 1, k };
        let sk = Constraint::AnyMiss { m, k: k + 1 };
        target.models(w) && !sm.models(w) && !sk.models(w)
    }

    #[test]
    fn worst_case_pattern_is_in_eq12_set() {
        for (m, k) in [(1u32, 3u32), (2, 5), (3, 7), (2, 2), (4, 4)] {
            let kappa = (k + m) as usize + 7;
            let w = worst_case_pattern(m, k, kappa).unwrap();
            assert!(in_eq12_set(&w, m, k), "(~{m}, {k}): {w}");
        }
    }

    #[test]
    fn worst_case_pattern_errors() {
        assert_eq!(
            worst_case_pattern(0, 5, 100),
            Err(SynthesisError::ZeroMisses)
        );
        assert_eq!(
            worst_case_pattern(2, 5, 6),
            Err(SynthesisError::KappaTooSmall {
                kappa: 6,
                needed: 7
            })
        );
    }

    #[test]
    fn sampler_produces_only_eq12_sequences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (m, k) in [(1u32, 3u32), (2, 5), (2, 4)] {
            let sampler = AdversarialSampler::new(m, k).unwrap();
            for _ in 0..40 {
                let w = sampler.sample(24, &mut rng).expect("nonempty");
                assert!(in_eq12_set(&w, m, k), "(~{m}, {k}): {w}");
            }
        }
    }

    #[test]
    fn sampler_count_matches_naive_enumeration() {
        let (m, k) = (1u32, 3u32);
        let sampler = AdversarialSampler::new(m, k).unwrap();
        for kappa in 0..=12usize {
            let naive = (0u32..(1 << kappa))
                .filter(|bits| {
                    let w: Sequence = (0..kappa).map(|i| bits >> i & 1 == 1).collect();
                    in_eq12_set(&w, m, k)
                })
                .count() as u128;
            assert_eq!(sampler.count(kappa), Some(naive), "kappa {kappa}");
        }
    }

    #[test]
    fn sampler_returns_none_when_empty() {
        let sampler = AdversarialSampler::new(2, 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // kappa < K: no complete window can witness the exact-m misses.
        assert_eq!(sampler.sample(3, &mut rng), None);
        assert_eq!(sampler.count(3), Some(0));
    }

    #[test]
    fn large_window_falls_back_to_jittered_mode() {
        // (8, 48) explodes the history DFA; the jittered generator must
        // still produce exact members of the eq. (12) set.
        let sampler = AdversarialSampler::new(8, 48).unwrap();
        assert!(!sampler.is_uniform());
        assert_eq!(sampler.count(100), None);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..10 {
            let w = sampler.sample(200, &mut rng).expect("long enough");
            assert!(in_eq12_set(&w, 8, 48), "{w}");
        }
        // Too short for the witness windows.
        assert_eq!(sampler.sample(20, &mut rng), None);
    }

    #[test]
    fn sampler_is_uniform_exactly_while_the_stricter_window_compiles() {
        for (m, k) in [(2, 5), (3, 10), (1, 15)] {
            assert!(AdversarialSampler::new(m, k).unwrap().is_uniform());
        }
        for (m, k) in [(1, 16), (2, 16), (8, 20)] {
            assert!(!AdversarialSampler::new(m, k).unwrap().is_uniform());
        }
    }

    #[test]
    fn for_constraint_accepts_hit_form() {
        // Hit (3, 5) == miss (~2, 5).
        let c = Constraint::any_hit(3, 5).unwrap();
        let sampler = AdversarialSampler::for_constraint(&c).unwrap();
        assert_eq!(sampler.misses(), 2);
        assert_eq!(sampler.window(), 5);
        assert!(matches!(
            AdversarialSampler::for_constraint(&Constraint::row_miss(1)),
            Err(SynthesisError::UnsupportedClass(_))
        ));
    }

    #[test]
    fn zero_miss_sampler_is_error() {
        assert!(matches!(
            AdversarialSampler::new(0, 4),
            Err(SynthesisError::ZeroMisses)
        ));
    }
}

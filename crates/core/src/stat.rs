//! Network statistics `λ_s` and `λ_WH`.
//!
//! The scheduler knows the network only through a *statistic*: a function
//! of the Glossy retransmission parameter `N_TX` describing flood
//! reliability. Soft statistics return a success probability; weakly hard
//! statistics return a miss-form `(m̄, K)` bound. Both must improve
//! monotonically with `N_TX` — [`validate_soft`] / [`validate_weakly_hard`]
//! check this for arbitrary implementations.

use std::error::Error;
use std::fmt;

use netdag_glossy::{SoftProfile, WeaklyHardProfile};
use netdag_weakly_hard::{order, Constraint};

/// A soft network statistic `λ_s : N_TX → [0, 1]`.
pub trait SoftStatistic {
    /// Probability that a flood with parameter `n_tx` succeeds.
    fn success_rate(&self, n_tx: u32) -> f64;

    /// Largest `N_TX` worth considering (domain upper bound for the
    /// scheduler's `χ` variables).
    fn n_tx_max(&self) -> u32;
}

/// A weakly hard network statistic `λ_WH : N_TX → (m̄, K)`.
pub trait WeaklyHardStatistic {
    /// Miss-form bound on flood failures at parameter `n_tx`.
    fn miss_constraint(&self, n_tx: u32) -> Constraint;

    /// Largest `N_TX` worth considering.
    fn n_tx_max(&self) -> u32;
}

/// Error returned by the statistic validators.
#[derive(Debug, Clone, PartialEq)]
pub enum StatError {
    /// `λ_s` decreased between consecutive `N_TX` values.
    SoftNotMonotone {
        /// The `N_TX` where the violation was observed.
        n_tx: u32,
        /// `λ_s(n_tx)`.
        lower: f64,
        /// `λ_s(n_tx + 1)`.
        upper: f64,
    },
    /// `λ_s` returned a value outside `[0, 1]`.
    SoftNotProbability {
        /// The offending `N_TX`.
        n_tx: u32,
        /// The returned value.
        value: f64,
    },
    /// `λ_WH(n+1)` does not dominate `λ_WH(n)`.
    WeaklyHardNotMonotone {
        /// The `N_TX` where the violation was observed.
        n_tx: u32,
    },
    /// `λ_WH` returned something other than a windowed miss constraint.
    NotMissForm(Constraint),
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatError::SoftNotMonotone { n_tx, lower, upper } => write!(
                f,
                "λ_s({}) = {upper} < λ_s({n_tx}) = {lower}: statistic must be non-decreasing",
                n_tx + 1
            ),
            StatError::SoftNotProbability { n_tx, value } => {
                write!(f, "λ_s({n_tx}) = {value} is not in [0, 1]")
            }
            StatError::WeaklyHardNotMonotone { n_tx } => write!(
                f,
                "λ_WH({}) does not dominate λ_WH({n_tx}): statistic must improve with N_TX",
                n_tx + 1
            ),
            StatError::NotMissForm(c) => {
                write!(
                    f,
                    "λ_WH must return miss-form windowed constraints, got {c}"
                )
            }
        }
    }
}

impl Error for StatError {}

/// Checks that a soft statistic is a monotone probability over `1..=max`.
///
/// # Errors
///
/// See [`StatError`].
pub fn validate_soft<S: SoftStatistic + ?Sized>(stat: &S) -> Result<(), StatError> {
    let max = stat.n_tx_max();
    for n in 1..=max {
        let v = stat.success_rate(n);
        if !(0.0..=1.0).contains(&v) {
            return Err(StatError::SoftNotProbability { n_tx: n, value: v });
        }
        if n < max {
            let next = stat.success_rate(n + 1);
            if next < v {
                return Err(StatError::SoftNotMonotone {
                    n_tx: n,
                    lower: v,
                    upper: next,
                });
            }
        }
    }
    Ok(())
}

/// Checks that a weakly hard statistic improves with `N_TX` under `⪯`
/// (the paper's requirement `n < k ⇒ λ(k) ⪯ λ(n)`).
///
/// # Errors
///
/// See [`StatError`].
pub fn validate_weakly_hard<S: WeaklyHardStatistic + ?Sized>(stat: &S) -> Result<(), StatError> {
    let max = stat.n_tx_max();
    for n in 1..=max {
        let c = stat.miss_constraint(n);
        if !matches!(c, Constraint::AnyMiss { .. }) {
            return Err(StatError::NotMissForm(c));
        }
        if n < max {
            let next = stat.miss_constraint(n + 1);
            if !order::dominates(&next, &c).unwrap_or(false) {
                return Err(StatError::WeaklyHardNotMonotone { n_tx: n });
            }
        }
    }
    Ok(())
}

/// The paper's synthetic weakly hard statistic of eq. (13):
/// `λ(n) = (⌈10·e^{−n/2}⌉ + 1,  20·n)` in miss form.
///
/// # Example
///
/// ```
/// use netdag_core::stat::{validate_weakly_hard, Eq13Statistic, WeaklyHardStatistic};
///
/// let lambda = Eq13Statistic::new(8);
/// validate_weakly_hard(&lambda)?;
/// let c1 = lambda.miss_constraint(1);
/// assert_eq!(c1.m(), 8);           // ⌈10·e^{−1/2}⌉ + 1 = 7 + 1
/// assert_eq!(c1.window(), Some(20));
/// # Ok::<(), netdag_core::stat::StatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eq13Statistic {
    n_tx_max: u32,
}

impl Eq13Statistic {
    /// Creates the statistic with the given `N_TX` domain bound.
    pub fn new(n_tx_max: u32) -> Self {
        Eq13Statistic {
            n_tx_max: n_tx_max.max(1),
        }
    }
}

impl WeaklyHardStatistic for Eq13Statistic {
    fn miss_constraint(&self, n_tx: u32) -> Constraint {
        let n = n_tx.clamp(1, self.n_tx_max);
        let misses = (10.0 * (-0.5 * n as f64).exp()).ceil() as u32 + 1;
        let window = 20 * n;
        Constraint::AnyMiss {
            m: misses.min(window),
            k: window,
        }
    }

    fn n_tx_max(&self) -> u32 {
        self.n_tx_max
    }
}

/// The paper's sigmoid soft statistic of eq. (15), parameterized by the
/// profiled mean filtered signal strength `fSS̄`:
/// `λ(n) = 2 / (1 + e^{−fSS̄·n}) − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq15Statistic {
    /// Worst-case average filtered signal strength.
    pub mean_fss: f64,
    n_tx_max: u32,
}

impl Eq15Statistic {
    /// Creates the statistic from a profiled `fSS̄` and an `N_TX` bound.
    pub fn new(mean_fss: f64, n_tx_max: u32) -> Self {
        Eq15Statistic {
            mean_fss: mean_fss.max(0.0),
            n_tx_max: n_tx_max.max(1),
        }
    }
}

impl SoftStatistic for Eq15Statistic {
    fn success_rate(&self, n_tx: u32) -> f64 {
        let n = n_tx.clamp(1, self.n_tx_max);
        2.0 / (1.0 + (-self.mean_fss * n as f64).exp()) - 1.0
    }

    fn n_tx_max(&self) -> u32 {
        self.n_tx_max
    }
}

/// Table-backed soft statistic (e.g. measured by
/// [`netdag_glossy::SoftProfile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TableSoftStatistic {
    profile: SoftProfile,
}

impl From<SoftProfile> for TableSoftStatistic {
    fn from(profile: SoftProfile) -> Self {
        TableSoftStatistic { profile }
    }
}

impl SoftStatistic for TableSoftStatistic {
    fn success_rate(&self, n_tx: u32) -> f64 {
        self.profile.lambda(n_tx)
    }

    fn n_tx_max(&self) -> u32 {
        self.profile.n_tx_max()
    }
}

/// Table-backed weakly hard statistic (e.g. measured by
/// [`netdag_glossy::WeaklyHardProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableWeaklyHardStatistic {
    profile: WeaklyHardProfile,
}

impl From<WeaklyHardProfile> for TableWeaklyHardStatistic {
    fn from(profile: WeaklyHardProfile) -> Self {
        TableWeaklyHardStatistic { profile }
    }
}

impl WeaklyHardStatistic for TableWeaklyHardStatistic {
    fn miss_constraint(&self, n_tx: u32) -> Constraint {
        self.profile.lambda(n_tx)
    }

    fn n_tx_max(&self) -> u32 {
        self.profile.n_tx_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_glossy::WeaklyHardProfile;
    use netdag_weakly_hard::AdversarialSampler;

    #[test]
    fn eq13_matches_formula_and_is_monotone() {
        let s = Eq13Statistic::new(10);
        validate_weakly_hard(&s).unwrap();
        // n = 2: ceil(10·e^{−1}) + 1 = 4 + 1 = 5, window 40.
        assert_eq!(s.miss_constraint(2), Constraint::AnyMiss { m: 5, k: 40 });
        // Clamping below and above.
        assert_eq!(s.miss_constraint(0), s.miss_constraint(1));
        assert_eq!(s.miss_constraint(99), s.miss_constraint(10));
    }

    /// Every eq. (13) window (`20·χ`) is past the history automaton's
    /// budget, so validation always samples in jittered mode.
    #[test]
    fn eq13_bounds_sample_in_jittered_mode() {
        let s = Eq13Statistic::new(16);
        for chi in 1..=16 {
            let sampler = AdversarialSampler::for_constraint(&s.miss_constraint(chi)).unwrap();
            assert!(!sampler.is_uniform(), "chi = {chi}");
        }
    }

    #[test]
    fn eq15_is_valid_soft_statistic() {
        for fss in [0.6, 1.0, 1.8] {
            let s = Eq15Statistic::new(fss, 8);
            validate_soft(&s).unwrap();
            assert!(s.success_rate(8) > s.success_rate(1));
            assert!(s.success_rate(1) > 0.0);
            assert!(s.success_rate(8) < 1.0);
        }
        // Stronger signal ⇒ better statistic at every n.
        let weak = Eq15Statistic::new(0.5, 8);
        let strong = Eq15Statistic::new(1.5, 8);
        for n in 1..=8 {
            assert!(strong.success_rate(n) > weak.success_rate(n));
        }
    }

    #[test]
    fn validators_reject_bad_statistics() {
        struct Decreasing;
        impl SoftStatistic for Decreasing {
            fn success_rate(&self, n_tx: u32) -> f64 {
                1.0 / n_tx as f64
            }
            fn n_tx_max(&self) -> u32 {
                4
            }
        }
        assert!(matches!(
            validate_soft(&Decreasing),
            Err(StatError::SoftNotMonotone { .. })
        ));

        struct OutOfRange;
        impl SoftStatistic for OutOfRange {
            fn success_rate(&self, _: u32) -> f64 {
                1.5
            }
            fn n_tx_max(&self) -> u32 {
                2
            }
        }
        assert!(matches!(
            validate_soft(&OutOfRange),
            Err(StatError::SoftNotProbability { .. })
        ));

        struct Worsening;
        impl WeaklyHardStatistic for Worsening {
            fn miss_constraint(&self, n_tx: u32) -> Constraint {
                Constraint::AnyMiss {
                    m: n_tx.min(10),
                    k: 10,
                }
            }
            fn n_tx_max(&self) -> u32 {
                4
            }
        }
        assert!(matches!(
            validate_weakly_hard(&Worsening),
            Err(StatError::WeaklyHardNotMonotone { .. })
        ));

        struct WrongForm;
        impl WeaklyHardStatistic for WrongForm {
            fn miss_constraint(&self, _: u32) -> Constraint {
                Constraint::row_miss(1)
            }
            fn n_tx_max(&self) -> u32 {
                2
            }
        }
        assert!(matches!(
            validate_weakly_hard(&WrongForm),
            Err(StatError::NotMissForm(_))
        ));
    }

    #[test]
    fn table_backed_statistics() {
        let wh: TableWeaklyHardStatistic = WeaklyHardProfile::from_table(1, 10, vec![5, 3, 2])
            .unwrap()
            .into();
        validate_weakly_hard(&wh).unwrap();
        assert_eq!(wh.n_tx_max(), 3);
        assert_eq!(wh.miss_constraint(2), Constraint::AnyMiss { m: 3, k: 10 });

        let soft: TableSoftStatistic =
            netdag_glossy::SoftProfile::from_table(1, vec![0.5, 0.8, 0.95])
                .unwrap()
                .into();
        validate_soft(&soft).unwrap();
        assert_eq!(soft.n_tx_max(), 3);
        assert!((soft.success_rate(2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = StatError::SoftNotMonotone {
            n_tx: 2,
            lower: 0.9,
            upper: 0.8,
        };
        assert!(e.to_string().contains("non-decreasing"));
        assert!(StatError::WeaklyHardNotMonotone { n_tx: 1 }
            .to_string()
            .contains("dominate"));
    }
}

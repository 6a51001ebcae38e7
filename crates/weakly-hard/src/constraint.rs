//! The four classic weakly hard constraint classes.

use std::error::Error;
use std::fmt;

use crate::sequence::Sequence;

/// Error returned when a weakly hard constraint is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// The window `K` was zero.
    ZeroWindow,
    /// The parameter `m` exceeds the window `K`.
    BoundExceedsWindow {
        /// The offending `m`.
        m: u32,
        /// The window `K`.
        k: u32,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::ZeroWindow => write!(f, "window K must be positive"),
            ConstraintError::BoundExceedsWindow { m, k } => {
                write!(f, "parameter m = {m} exceeds window K = {k}")
            }
        }
    }
}

impl Error for ConstraintError {}

/// A weakly hard real-time constraint (Bernat et al., IEEE TC 2001).
///
/// A constraint is a predicate over hit/miss [`Sequence`]s. The four classes
/// and their conventional notation:
///
/// | Variant | Notation | Meaning |
/// |---|---|---|
/// | [`AnyHit`](Self::AnyHit) | `(m, K)` | every window of `K` contains at least `m` hits |
/// | [`RowHit`](Self::RowHit) | `⟨m, K⟩` | every window of `K` contains at least `m` *consecutive* hits |
/// | [`AnyMiss`](Self::AnyMiss) | `(m̄, K)` | every window of `K` contains at most `m` misses |
/// | [`RowMiss`](Self::RowMiss) | `⟨m̄⟩` | never more than `m` consecutive misses |
///
/// `AnyHit(m, K)` and `AnyMiss(K − m, K)` describe the same satisfaction
/// set; NETDAG's task constraints `F_WH` are `AnyHit` while network
/// statistics `λ_WH` are `AnyMiss` (the operands of [`crate::oplus`]).
///
/// Finite-sequence semantics: only *complete* windows are checked, so a
/// sequence shorter than `K` vacuously satisfies `(m, K)`. Satisfaction is
/// therefore prefix-closed in the sense required by the safety automata in
/// [`crate::automaton`].
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{Constraint, Sequence};
///
/// let any_hit = Constraint::any_hit(2, 4)?;
/// let row_miss = Constraint::row_miss(2);
/// let s = Sequence::from_str_lossy("110011");
/// assert!(any_hit.models(&s));
/// assert!(row_miss.models(&s));
/// assert!(!Constraint::row_miss(1).models(&s));
/// # Ok::<(), netdag_weakly_hard::ConstraintError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Constraint {
    /// `(m, K)`: at least `m` hits in every window of `K`.
    AnyHit {
        /// Minimum hits per window.
        m: u32,
        /// Window length.
        k: u32,
    },
    /// `⟨m, K⟩`: at least `m` consecutive hits in every window of `K`.
    RowHit {
        /// Minimum consecutive hits per window.
        m: u32,
        /// Window length.
        k: u32,
    },
    /// `(m̄, K)`: at most `m` misses in every window of `K`.
    AnyMiss {
        /// Maximum misses per window.
        m: u32,
        /// Window length.
        k: u32,
    },
    /// `⟨m̄⟩`: at most `m` consecutive misses, anywhere.
    RowMiss {
        /// Maximum length of a miss run.
        m: u32,
    },
}

impl Constraint {
    /// Creates an `(m, K)` *any-hit* constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintError`] if `k == 0` or `m > k`.
    pub fn any_hit(m: u32, k: u32) -> Result<Self, ConstraintError> {
        Self::check(m, k)?;
        Ok(Constraint::AnyHit { m, k })
    }

    /// Creates a `⟨m, K⟩` *row-hit* constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintError`] if `k == 0` or `m > k`.
    pub fn row_hit(m: u32, k: u32) -> Result<Self, ConstraintError> {
        Self::check(m, k)?;
        Ok(Constraint::RowHit { m, k })
    }

    /// Creates an `(m̄, K)` *any-miss* constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintError`] if `k == 0` or `m > k`.
    pub fn any_miss(m: u32, k: u32) -> Result<Self, ConstraintError> {
        Self::check(m, k)?;
        Ok(Constraint::AnyMiss { m, k })
    }

    /// Creates a `⟨m̄⟩` *row-miss* constraint (at most `m` consecutive
    /// misses). `m = 0` means "no miss at all".
    pub fn row_miss(m: u32) -> Self {
        Constraint::RowMiss { m }
    }

    fn check(m: u32, k: u32) -> Result<(), ConstraintError> {
        if k == 0 {
            return Err(ConstraintError::ZeroWindow);
        }
        if m > k {
            return Err(ConstraintError::BoundExceedsWindow { m, k });
        }
        Ok(())
    }

    /// The window length `K`, or `None` for [`RowMiss`](Self::RowMiss)
    /// (whose window is unbounded).
    pub fn window(&self) -> Option<u32> {
        match *self {
            Constraint::AnyHit { k, .. }
            | Constraint::RowHit { k, .. }
            | Constraint::AnyMiss { k, .. } => Some(k),
            Constraint::RowMiss { .. } => None,
        }
    }

    /// The parameter `m` of the constraint.
    pub fn m(&self) -> u32 {
        match *self {
            Constraint::AnyHit { m, .. }
            | Constraint::RowHit { m, .. }
            | Constraint::AnyMiss { m, .. }
            | Constraint::RowMiss { m } => m,
        }
    }

    /// Whether every sequence satisfies this constraint.
    ///
    /// # Example
    ///
    /// ```
    /// use netdag_weakly_hard::Constraint;
    /// assert!(Constraint::any_hit(0, 5)?.is_trivial());
    /// assert!(Constraint::any_miss(5, 5)?.is_trivial());
    /// assert!(!Constraint::any_hit(1, 5)?.is_trivial());
    /// # Ok::<(), netdag_weakly_hard::ConstraintError>(())
    /// ```
    pub fn is_trivial(&self) -> bool {
        match *self {
            Constraint::AnyHit { m, .. } | Constraint::RowHit { m, .. } => m == 0,
            Constraint::AnyMiss { m, k } => m == k,
            Constraint::RowMiss { .. } => false,
        }
    }

    /// Converts window-based constraints to the equivalent `AnyHit` form
    /// where one exists without changing the satisfaction set:
    /// `AnyMiss(m̄, K) ≡ AnyHit(K − m̄, K)`. `RowHit` and `RowMiss` are
    /// returned unchanged (they have no `AnyHit` equivalent in general).
    pub fn to_any_hit(&self) -> Constraint {
        match *self {
            Constraint::AnyMiss { m, k } => Constraint::AnyHit { m: k - m, k },
            other => other,
        }
    }

    /// Converts window-based constraints to the equivalent `AnyMiss` form
    /// where one exists: `AnyHit(m, K) ≡ AnyMiss(K − m, K)`.
    pub fn to_any_miss(&self) -> Constraint {
        match *self {
            Constraint::AnyHit { m, k } => Constraint::AnyMiss { m: k - m, k },
            other => other,
        }
    }

    /// Checks whether the sequence satisfies the constraint — the paper's
    /// `ω ⊢ (m, K)`.
    ///
    /// Only complete windows are checked; sequences shorter than the window
    /// vacuously satisfy window-based constraints.
    ///
    /// # Example
    ///
    /// ```
    /// use netdag_weakly_hard::{Constraint, Sequence};
    /// let c = Constraint::any_miss(1, 3)?;
    /// assert!(c.models(&Sequence::from_str_lossy("110110")));
    /// assert!(!c.models(&Sequence::from_str_lossy("110010")));
    /// # Ok::<(), netdag_weakly_hard::ConstraintError>(())
    /// ```
    pub fn models(&self, seq: &Sequence) -> bool {
        netdag_obs::counter!(netdag_obs::keys::WEAKLY_HARD_MODELS_CHECKS).incr();
        match *self {
            Constraint::AnyHit { m, k } => seq.window_hits(k as usize).all(|h| h >= m as usize),
            Constraint::AnyMiss { m, k } => seq
                .window_hits(k as usize)
                .all(|h| k as usize - h <= m as usize),
            Constraint::RowHit { m, k } => {
                if m == 0 {
                    return true;
                }
                Self::row_hit_models(seq, m as usize, k as usize)
            }
            Constraint::RowMiss { m } => seq.longest_miss_run() <= m as usize,
        }
    }

    /// Naive check for `⟨m, K⟩`: every complete window of `k` must contain a
    /// run of at least `m` consecutive hits.
    fn row_hit_models(seq: &Sequence, m: usize, k: usize) -> bool {
        if k > seq.len() {
            return true;
        }
        for t in 0..=seq.len() - k {
            let mut run = 0usize;
            let mut best = 0usize;
            for i in t..t + k {
                if seq.get(i) == Some(true) {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            if best < m {
                return false;
            }
        }
        true
    }

    /// Enumerates the satisfaction set `S^κ` of the constraint: all
    /// sequences of length `kappa` that model it. Exponential in `kappa`;
    /// intended for verification of small instances (the paper's `Ω^⊕`).
    ///
    /// # Panics
    ///
    /// Panics if `kappa > 24` (enumeration would exceed 16M sequences).
    pub fn satisfaction_set(&self, kappa: usize) -> Vec<Sequence> {
        assert!(kappa <= 24, "satisfaction_set is for small kappa only");
        let mut out = Vec::new();
        for bits in 0u32..(1u32 << kappa) {
            let seq: Sequence = (0..kappa).map(|i| bits >> i & 1 == 1).collect();
            if self.models(&seq) {
                out.push(seq);
            }
        }
        out
    }

    /// Counts `|S^κ|` by direct enumeration. See
    /// [`crate::Dfa::count_accepting`] for a polynomial-time alternative.
    ///
    /// # Panics
    ///
    /// Panics if `kappa > 24`.
    pub fn satisfaction_count_naive(&self, kappa: usize) -> u64 {
        assert!(
            kappa <= 24,
            "satisfaction_count_naive is for small kappa only"
        );
        (0u32..(1u32 << kappa))
            .filter(|bits| {
                let seq: Sequence = (0..kappa).map(|i| bits >> i & 1 == 1).collect();
                self.models(&seq)
            })
            .count() as u64
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Constraint::AnyHit { m, k } => write!(f, "({m}, {k})"),
            Constraint::RowHit { m, k } => write!(f, "<{m}, {k}>"),
            Constraint::AnyMiss { m, k } => write!(f, "(~{m}, {k})"),
            Constraint::RowMiss { m } => write!(f, "<~{m}>"),
        }
    }
}

/// Error parsing a constraint from its display notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConstraintError {
    input: String,
}

impl fmt::Display for ParseConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as a weakly hard constraint; expected \
             \"(m, K)\", \"(~m, K)\", \"<m, K>\" or \"<~m>\"",
            self.input
        )
    }
}

impl Error for ParseConstraintError {}

/// Parses the display notation back: `(m, K)`, `(~m̄, K)`, `<m, K>`,
/// `<~m̄>` (whitespace around numbers is ignored).
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::Constraint;
///
/// let c: Constraint = "(6, 10)".parse()?;
/// assert_eq!(c, Constraint::any_hit(6, 10)?);
/// let c: Constraint = "(~2,5)".parse()?;
/// assert_eq!(c, Constraint::any_miss(2, 5)?);
/// let c: Constraint = "<~3>".parse()?;
/// assert_eq!(c, Constraint::row_miss(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
impl std::str::FromStr for Constraint {
    type Err = ParseConstraintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseConstraintError {
            input: s.to_owned(),
        };
        let t = s.trim();
        let (body, angled) = if let Some(b) = t.strip_prefix('(').and_then(|b| b.strip_suffix(')'))
        {
            (b, false)
        } else if let Some(b) = t.strip_prefix('<').and_then(|b| b.strip_suffix('>')) {
            (b, true)
        } else {
            return Err(err());
        };
        let (body, negated) = match body.trim().strip_prefix('~') {
            Some(rest) => (rest, true),
            None => (body, false),
        };
        let parts: Vec<&str> = body.split(',').map(str::trim).collect();
        let parse_u32 = |x: &str| x.parse::<u32>().map_err(|_| err());
        match (angled, negated, parts.as_slice()) {
            (false, false, [m, k]) => {
                Constraint::any_hit(parse_u32(m)?, parse_u32(k)?).map_err(|_| err())
            }
            (false, true, [m, k]) => {
                Constraint::any_miss(parse_u32(m)?, parse_u32(k)?).map_err(|_| err())
            }
            (true, false, [m, k]) => {
                Constraint::row_hit(parse_u32(m)?, parse_u32(k)?).map_err(|_| err())
            }
            (true, true, [m]) => Ok(Constraint::row_miss(parse_u32(m)?)),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Sequence {
        Sequence::from_str_lossy(s)
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(Constraint::any_hit(1, 0), Err(ConstraintError::ZeroWindow));
        assert_eq!(
            Constraint::any_hit(4, 3),
            Err(ConstraintError::BoundExceedsWindow { m: 4, k: 3 })
        );
        assert!(Constraint::any_hit(3, 3).is_ok());
        assert!(Constraint::row_hit(0, 1).is_ok());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ConstraintError::ZeroWindow.to_string(),
            "window K must be positive"
        );
        assert!(ConstraintError::BoundExceedsWindow { m: 4, k: 3 }
            .to_string()
            .contains("m = 4"));
    }

    #[test]
    fn any_hit_semantics() {
        let c = Constraint::any_hit(2, 3).unwrap();
        assert!(c.models(&seq("110110")));
        assert!(!c.models(&seq("110010")));
        // Shorter than the window: vacuous.
        assert!(c.models(&seq("00")));
    }

    #[test]
    fn any_miss_semantics_matches_converted_any_hit() {
        let miss = Constraint::any_miss(1, 4).unwrap();
        let hit = miss.to_any_hit();
        assert_eq!(hit, Constraint::AnyHit { m: 3, k: 4 });
        for bits in 0u32..(1 << 10) {
            let s: Sequence = (0..10).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(miss.models(&s), hit.models(&s), "seq {s}");
        }
    }

    #[test]
    fn to_any_miss_roundtrip() {
        let c = Constraint::any_hit(6, 10).unwrap();
        assert_eq!(c.to_any_miss(), Constraint::AnyMiss { m: 4, k: 10 });
        assert_eq!(c.to_any_miss().to_any_hit(), c);
        let rm = Constraint::row_miss(2);
        assert_eq!(rm.to_any_hit(), rm);
        assert_eq!(rm.to_any_miss(), rm);
    }

    #[test]
    fn row_hit_semantics() {
        let c = Constraint::row_hit(2, 4).unwrap();
        // Window 1011 has max run 2 -> ok; window 0101 has max run 1 -> fail.
        assert!(c.models(&seq("1011")));
        assert!(!c.models(&seq("0101")));
        assert!(c.models(&seq("11011011")));
        // Trivial m = 0 accepts everything.
        assert!(Constraint::row_hit(0, 4).unwrap().models(&seq("0000")));
    }

    #[test]
    fn row_miss_semantics() {
        let c = Constraint::row_miss(2);
        assert!(c.models(&seq("1001001")));
        assert!(!c.models(&seq("10001")));
        assert!(Constraint::row_miss(0).models(&seq("1111")));
        assert!(!Constraint::row_miss(0).models(&seq("1101")));
    }

    #[test]
    fn trivial() {
        assert!(Constraint::any_hit(0, 3).unwrap().is_trivial());
        assert!(Constraint::any_miss(3, 3).unwrap().is_trivial());
        assert!(!Constraint::row_miss(3).is_trivial());
    }

    #[test]
    fn hard_constraint_accepts_only_all_hits() {
        let c = Constraint::any_hit(3, 3).unwrap();
        assert!(c.models(&seq("11111")));
        assert!(!c.models(&seq("11011")));
    }

    #[test]
    fn satisfaction_set_small() {
        // (1, 2): no two consecutive misses when looking at 2-windows.
        let c = Constraint::any_hit(1, 2).unwrap();
        let set = c.satisfaction_set(3);
        // Sequences of length 3 without "00" as a factor: 101, 110, 011, 111,
        // 010? window(01)=1 ok, window(10)=1 ok -> yes. So: 010 011 101 110 111.
        assert_eq!(set.len(), 5);
        assert_eq!(c.satisfaction_count_naive(3), 5);
        for s in &set {
            assert!(c.models(s));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Constraint::any_hit(2, 5).unwrap().to_string(), "(2, 5)");
        assert_eq!(Constraint::row_hit(2, 5).unwrap().to_string(), "<2, 5>");
        assert_eq!(Constraint::any_miss(2, 5).unwrap().to_string(), "(~2, 5)");
        assert_eq!(Constraint::row_miss(2).to_string(), "<~2>");
    }

    #[test]
    fn parse_roundtrips_display() {
        let samples = [
            Constraint::any_hit(6, 10).unwrap(),
            Constraint::any_miss(2, 5).unwrap(),
            Constraint::row_hit(3, 7).unwrap(),
            Constraint::row_miss(4),
            Constraint::any_hit(0, 1).unwrap(),
        ];
        for c in samples {
            let parsed: Constraint = c.to_string().parse().unwrap();
            assert_eq!(parsed, c);
        }
        // Whitespace tolerance.
        assert_eq!(
            " ( 6 , 10 ) ".parse::<Constraint>().unwrap(),
            Constraint::any_hit(6, 10).unwrap()
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "6,10", "(6;10)", "(6, 10", "<~2, 3>", "(~x, 5)", "(11, 5)",
        ] {
            assert!(bad.parse::<Constraint>().is_err(), "{bad:?}");
        }
        let e = "nope".parse::<Constraint>().unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn accessors() {
        let c = Constraint::any_hit(2, 5).unwrap();
        assert_eq!(c.window(), Some(5));
        assert_eq!(c.m(), 2);
        assert_eq!(Constraint::row_miss(3).window(), None);
        assert_eq!(Constraint::row_miss(3).m(), 3);
    }
}

//! Packed hit/miss sequences.
//!
//! A [`Sequence`] models the outcome of a series of task or message
//! activations: bit `1` is a *hit* (success), bit `0` is a *miss* (failure).
//! The paper calls these *k-sequences* `ω ∈ {0, 1}*`.

use std::fmt;
use std::ops::BitAnd;

/// A finite sequence of hits (`1`) and misses (`0`), packed 64 per word.
///
/// `Sequence` is the value over which weakly hard constraints are checked:
/// the paper's `ω ⊢ (m, K)` is [`crate::Constraint::models`].
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::Sequence;
///
/// let s = Sequence::from_str_lossy("11011");
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.count_hits(), 4);
/// assert!(s.get(0).unwrap() && !s.get(2).unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence {
    words: Vec<u64>,
    len: usize,
}

impl Sequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sequence of `len` hits.
    pub fn all_hits(len: usize) -> Self {
        let mut s = Self::with_capacity(len);
        for _ in 0..len {
            s.push(true);
        }
        s
    }

    /// Creates a sequence of `len` misses.
    pub fn all_misses(len: usize) -> Self {
        let mut s = Self::with_capacity(len);
        for _ in 0..len {
            s.push(false);
        }
        s
    }

    /// Creates an empty sequence with room for `cap` bits.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            words: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
        }
    }

    /// Parses a sequence from a string of `'1'`/`'0'` characters, ignoring
    /// every other character (so `"1101 0011"` and `"1101_0011"` work).
    ///
    /// # Example
    ///
    /// ```
    /// use netdag_weakly_hard::Sequence;
    /// let s = Sequence::from_str_lossy("10 1_1");
    /// assert_eq!(s.to_string(), "1011");
    /// ```
    pub fn from_str_lossy(s: &str) -> Self {
        s.chars()
            .filter_map(|c| match c {
                '1' => Some(true),
                '0' => Some(false),
                _ => None,
            })
            .collect()
    }

    /// Number of activations recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one activation outcome.
    pub fn push(&mut self, hit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if hit {
            self.words[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    /// Returns the outcome at `idx`, or `None` when out of bounds.
    pub fn get(&self, idx: usize) -> Option<bool> {
        (idx < self.len).then(|| self.words[idx / 64] >> (idx % 64) & 1 == 1)
    }

    /// Sets the outcome at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn set(&mut self, idx: usize, hit: bool) {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let (w, b) = (idx / 64, idx % 64);
        if hit {
            self.words[w] |= 1u64 << b;
        } else {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Total number of hits.
    pub fn count_hits(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of hits, in `[0, 1]`; `1.0` for the empty sequence.
    ///
    /// This is the paper's validation test statistic `v = Σ_t ω_τ(t) / κ`.
    pub fn hit_rate(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.count_hits() as f64 / self.len as f64
        }
    }

    /// Iterates over outcomes.
    pub fn iter(&self) -> Iter<'_> {
        Iter { seq: self, idx: 0 }
    }

    /// Iterates over all complete windows of length `k`, yielding the number
    /// of hits in each. Yields nothing when `k == 0` or `k > len`.
    ///
    /// # Example
    ///
    /// ```
    /// use netdag_weakly_hard::Sequence;
    /// let s = Sequence::from_str_lossy("11011");
    /// let hits: Vec<usize> = s.window_hits(3).collect();
    /// assert_eq!(hits, vec![2, 2, 2]);
    /// ```
    pub fn window_hits(&self, k: usize) -> WindowHits<'_> {
        WindowHits {
            seq: self,
            k,
            idx: 0,
            current: if k == 0 || k > self.len {
                0
            } else {
                (0..k).filter(|&i| self.get(i) == Some(true)).count()
            },
            primed: false,
        }
    }

    /// Minimum number of hits over all complete windows of length `k`;
    /// `None` when no complete window exists.
    pub fn min_window_hits(&self, k: usize) -> Option<usize> {
        self.window_hits(k).min()
    }

    /// Maximum number of misses over all complete windows of length `k`;
    /// `None` when no complete window exists.
    pub fn max_window_misses(&self, k: usize) -> Option<usize> {
        self.window_hits(k).map(|h| k - h).max()
    }

    /// Length of the longest run of consecutive misses.
    pub fn longest_miss_run(&self) -> usize {
        let (mut best, mut run) = (0usize, 0usize);
        for hit in self.iter() {
            if hit {
                run = 0;
            } else {
                run += 1;
                best = best.max(run);
            }
        }
        best
    }

    /// Pointwise conjunction with `other` (a slot succeeds iff it succeeds in
    /// both). This is the paper's `ω_l ∧ ω_r` used to combine the behaviors
    /// of the floods a task depends on.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths.
    ///
    /// # Example
    ///
    /// ```
    /// use netdag_weakly_hard::Sequence;
    /// let a = Sequence::from_str_lossy("1101");
    /// let b = Sequence::from_str_lossy("1011");
    /// assert_eq!(a.and(&b).to_string(), "1001");
    /// ```
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(
            self.len, other.len,
            "conjunction requires equal-length sequences"
        );
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Concatenates `other` onto the end of `self`.
    pub fn extend_from(&mut self, other: &Self) {
        for hit in other.iter() {
            self.push(hit);
        }
    }

    /// Returns the sub-sequence `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of bounds");
        (start..start + len)
            .map(|i| self.get(i).expect("in bounds"))
            .collect()
    }
}

impl FromIterator<bool> for Sequence {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = Sequence::new();
        for hit in iter {
            s.push(hit);
        }
        s
    }
}

impl Extend<bool> for Sequence {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for hit in iter {
            self.push(hit);
        }
    }
}

impl BitAnd for &Sequence {
    type Output = Sequence;

    fn bitand(self, rhs: Self) -> Sequence {
        self.and(rhs)
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for hit in self.iter() {
            f.write_str(if hit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequence(\"{self}\")")
    }
}

/// Serialized as the compact `"1101"` string form.
impl serde::Serialize for Sequence {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

/// Deserialized from the `"1101"` string form; any character other than
/// `'0'`/`'1'` is rejected.
impl<'de> serde::Deserialize<'de> for Sequence {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        if let Some(bad) = s.chars().find(|c| *c != '0' && *c != '1') {
            return Err(serde::de::Error::custom(format!(
                "invalid sequence character {bad:?}"
            )));
        }
        Ok(Sequence::from_str_lossy(&s))
    }
}

/// Iterator over the outcomes of a [`Sequence`], produced by
/// [`Sequence::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a Sequence,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let out = self.seq.get(self.idx);
        if out.is_some() {
            self.idx += 1;
        }
        out
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Sequence {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Sliding-window hit counter, produced by [`Sequence::window_hits`].
#[derive(Debug, Clone)]
pub struct WindowHits<'a> {
    seq: &'a Sequence,
    k: usize,
    idx: usize,
    current: usize,
    primed: bool,
}

impl Iterator for WindowHits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.k == 0 || self.k > self.seq.len {
            return None;
        }
        if !self.primed {
            self.primed = true;
            return Some(self.current);
        }
        let leave = self.idx;
        let enter = self.idx + self.k;
        if enter >= self.seq.len {
            return None;
        }
        if self.seq.get(leave) == Some(true) {
            self.current -= 1;
        }
        if self.seq.get(enter) == Some(true) {
            self.current += 1;
        }
        self.idx += 1;
        Some(self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut s = Sequence::new();
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        for i in 0..130 {
            assert_eq!(s.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(s.get(130), None);
    }

    #[test]
    fn from_str_roundtrip() {
        let s = Sequence::from_str_lossy("1101 0011");
        assert_eq!(s.to_string(), "11010011");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn counts() {
        let s = Sequence::from_str_lossy("110100");
        assert_eq!(s.count_hits(), 3);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_hit_rate_is_one() {
        assert_eq!(Sequence::new().hit_rate(), 1.0);
    }

    #[test]
    fn set_overwrites() {
        let mut s = Sequence::from_str_lossy("000");
        s.set(1, true);
        assert_eq!(s.to_string(), "010");
        s.set(1, false);
        assert_eq!(s.to_string(), "000");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut s = Sequence::from_str_lossy("1");
        s.set(1, true);
    }

    #[test]
    fn window_hits_matches_naive() {
        let s = Sequence::from_str_lossy("1101001110101");
        for k in 1..=s.len() {
            let fast: Vec<usize> = s.window_hits(k).collect();
            let naive: Vec<usize> = (0..=s.len() - k)
                .map(|t| (t..t + k).filter(|&i| s.get(i) == Some(true)).count())
                .collect();
            assert_eq!(fast, naive, "k = {k}");
        }
    }

    #[test]
    fn window_hits_degenerate() {
        let s = Sequence::from_str_lossy("101");
        assert_eq!(s.window_hits(0).count(), 0);
        assert_eq!(s.window_hits(4).count(), 0);
        assert_eq!(s.window_hits(3).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn min_window_and_max_misses() {
        let s = Sequence::from_str_lossy("111001");
        assert_eq!(s.min_window_hits(3), Some(1));
        assert_eq!(s.max_window_misses(3), Some(2));
        assert_eq!(s.min_window_hits(7), None);
    }

    #[test]
    fn runs() {
        let s = Sequence::from_str_lossy("1001110001");
        assert_eq!(s.longest_miss_run(), 3);
        assert_eq!(Sequence::new().longest_miss_run(), 0);
        assert_eq!(Sequence::all_misses(4).longest_miss_run(), 4);
    }

    #[test]
    fn conjunction_is_pointwise_and() {
        let a = Sequence::from_str_lossy("1100");
        let b = Sequence::from_str_lossy("1010");
        assert_eq!((&a & &b).to_string(), "1000");
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn conjunction_length_mismatch_panics() {
        let a = Sequence::from_str_lossy("11");
        let b = Sequence::from_str_lossy("1");
        let _ = a.and(&b);
    }

    #[test]
    fn slice_and_extend() {
        let mut a = Sequence::from_str_lossy("110");
        let b = Sequence::from_str_lossy("01");
        a.extend_from(&b);
        assert_eq!(a.to_string(), "11001");
        assert_eq!(a.slice(1, 3).to_string(), "100");
    }

    #[test]
    fn serde_roundtrip_as_string() {
        let s = Sequence::from_str_lossy("110101");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"110101\"");
        let back: Sequence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(serde_json::from_str::<Sequence>("\"10x1\"").is_err());
        let empty: Sequence = serde_json::from_str("\"\"").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn iterator_traits() {
        let s = Sequence::from_str_lossy("101");
        let collected: Vec<bool> = (&s).into_iter().collect();
        assert_eq!(collected, vec![true, false, true]);
        assert_eq!(s.iter().len(), 3);
    }
}

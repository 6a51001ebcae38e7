//! Deterministic finite automata over hit/miss alphabets.
//!
//! Every weakly hard [`Constraint`] defines a *safety language*: the set of
//! finite sequences all of whose complete windows satisfy the constraint.
//! This module compiles constraints to [`Dfa`]s and provides the language
//! algebra the rest of the crate is verified against:
//!
//! * exact satisfaction-set counting `|S^κ|` in `O(states · κ)`,
//! * uniform sampling from `S^κ` (and from differences of satisfaction
//!   sets — the paper's eq. (12) synthesis),
//! * exact language inclusion, which decides the `⪯` domination order
//!   semantically.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::constraint::Constraint;
use crate::sequence::Sequence;

/// Construction refuses to build automata larger than this. See
/// [`MAX_WINDOW`] for what it means for window constraints; callers fall
/// back to non-uniform generators (see
/// [`crate::synthesis::AdversarialSampler`]).
const MAX_STATES: usize = 1 << 16;

/// Largest window `K` whose history automaton fits [`MAX_STATES`]. The
/// warm-up phase extends every history shorter than `K − 1` without a
/// check, so the builder reaches all `2^K − 1` length-prefixed codes
/// whatever `m` is; the budget therefore admits exactly the `K` with
/// `2^K − 1 ≤ MAX_STATES`.
const MAX_WINDOW: u32 = (MAX_STATES + 1).ilog2();

/// Error returned when DFA construction would exceed the state budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildDfaError {
    constraint: Constraint,
}

impl fmt::Display for BuildDfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "automaton for {} exceeds the state budget of {MAX_STATES}",
            self.constraint
        )
    }
}

impl Error for BuildDfaError {}

/// A complete deterministic finite automaton over the alphabet
/// `{miss = 0, hit = 1}`.
///
/// A word is accepted iff the run ends in an accepting state. Constraint
/// automata built by [`Dfa::from_constraint`] are *safety* automata: every
/// live state accepts and violations fall into a rejecting sink, so
/// `accepts(ω) ⟺ ω ⊢ constraint`.
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{Constraint, Dfa, Sequence};
///
/// let c = Constraint::any_miss(1, 3)?;
/// let dfa = Dfa::from_constraint(&c)?;
/// assert!(dfa.accepts(&Sequence::from_str_lossy("110110")));
/// assert!(!dfa.accepts(&Sequence::from_str_lossy("100110")));
/// // |S^10| computed in polynomial time:
/// assert_eq!(dfa.count_accepting(10), c.satisfaction_count_naive(10) as u128);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    /// `trans[s][b]` is the successor of state `s` on symbol `b`.
    trans: Vec<[u32; 2]>,
    accept: Vec<bool>,
    start: u32,
}

impl Dfa {
    /// Compiles a constraint into its (minimized) satisfaction automaton.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDfaError`] when the reachable state space exceeds the
    /// internal budget of `2^16` states: every window constraint with
    /// `K > 16`, whatever its `m`.
    pub fn from_constraint(c: &Constraint) -> Result<Self, BuildDfaError> {
        let raw = match *c {
            Constraint::RowMiss { m } => Self::build_row_miss(m),
            _ => Self::build_windowed(c)?,
        };
        Ok(raw.minimized())
    }

    #[allow(clippy::needless_range_loop)]
    /// Counter automaton for `⟨m̄⟩`: states `0..=m` record the current miss
    /// run; one extra rejecting sink.
    fn build_row_miss(m: u32) -> Self {
        let m = m as usize;
        let sink = (m + 2) as u32 - 1; // last state
        let n = m + 2;
        let mut trans = vec![[0u32; 2]; n];
        let mut accept = vec![true; n];
        accept[sink as usize] = false;
        for run in 0..=m {
            trans[run][1] = 0; // hit resets the run
            trans[run][0] = if run == m { sink } else { (run + 1) as u32 };
        }
        trans[sink as usize] = [sink, sink];
        Dfa {
            trans,
            accept,
            start: 0,
        }
    }

    /// History automaton for window constraints: a state is the (up to
    /// `K − 1` bit) recent history, length-prefixed so that the warm-up
    /// phase (windows not yet complete) is handled exactly.
    fn build_windowed(c: &Constraint) -> Result<Self, BuildDfaError> {
        let k = c.window().expect("windowed constraint");
        // The builder reaches all `2^K − 1` history codes (see
        // MAX_WINDOW), so a window past the budget is refused before any
        // state is built. This also keeps codes (`K − 1` payload bits
        // plus the marker) inside a u64.
        if k > MAX_WINDOW {
            return Err(BuildDfaError { constraint: *c });
        }
        let k = k as usize;
        let h = k - 1;
        // Encode history as bits | 1 << len (the marker makes lengths unique).
        let start_code: u64 = 1;
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut codes: Vec<u64> = Vec::new();
        let mut trans: Vec<[u32; 2]> = Vec::new();
        ids.insert(start_code, 0);
        codes.push(start_code);
        trans.push([u32::MAX; 2]);
        let sink = u32::MAX; // patched at the end
        let mut frontier = vec![0u32];
        while let Some(s) = frontier.pop() {
            let code = codes[s as usize];
            let len = (63 - code.leading_zeros()) as usize;
            let hist = code & !(1u64 << len);
            for bit in 0..2u64 {
                let succ = if len < h {
                    // Window not yet complete: just extend the history.
                    let new_hist = hist | (bit << len);
                    Some(new_hist | (1u64 << (len + 1)))
                } else {
                    // Full window = hist (oldest at bit 0) followed by `bit`.
                    let window = hist | (bit << h);
                    if Self::window_ok(c, window, k) {
                        let new_hist = (window >> 1) & ((1u64 << h) - 1);
                        Some(new_hist | (1u64 << h))
                    } else {
                        None
                    }
                };
                let target = match succ {
                    None => sink,
                    Some(code) => match ids.get(&code) {
                        Some(&t) => t,
                        None => {
                            let t = codes.len() as u32;
                            ids.insert(code, t);
                            codes.push(code);
                            trans.push([u32::MAX; 2]);
                            frontier.push(t);
                            t
                        }
                    },
                };
                trans[s as usize][bit as usize] = target;
            }
        }
        // Patch in an explicit rejecting sink.
        let sink_id = codes.len() as u32;
        for row in &mut trans {
            for t in row.iter_mut() {
                if *t == u32::MAX {
                    *t = sink_id;
                }
            }
        }
        trans.push([sink_id, sink_id]);
        let mut accept = vec![true; trans.len()];
        accept[sink_id as usize] = false;
        Ok(Dfa {
            trans,
            accept,
            start: 0,
        })
    }

    /// Checks one complete window (bit 0 = oldest) against the constraint.
    fn window_ok(c: &Constraint, window: u64, k: usize) -> bool {
        let hits = window.count_ones();
        match *c {
            Constraint::AnyHit { m, .. } => hits >= m,
            Constraint::AnyMiss { m, .. } => (k as u32 - hits) <= m,
            Constraint::RowHit { m, .. } => {
                if m == 0 {
                    return true;
                }
                let mut run = 0u32;
                let mut best = 0u32;
                for i in 0..k {
                    if window >> i & 1 == 1 {
                        run += 1;
                        best = best.max(run);
                    } else {
                        run = 0;
                    }
                }
                best >= m
            }
            Constraint::RowMiss { .. } => unreachable!("row-miss has no window"),
        }
    }

    /// Number of states (including any rejecting sink).
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start_state(&self) -> u32 {
        self.start
    }

    /// The successor of `state` on `hit` (`true`) or miss (`false`).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn successor(&self, state: u32, hit: bool) -> u32 {
        self.trans[state as usize][hit as usize]
    }

    /// Whether `state` is accepting.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// Builds a DFA from explicit parts and minimizes it.
    ///
    /// Used by [`crate::conjunction`] for the subset construction of the
    /// conjunction-image language.
    pub(crate) fn from_parts(trans: Vec<[u32; 2]>, accept: Vec<bool>, start: u32) -> Dfa {
        Dfa {
            trans,
            accept,
            start,
        }
        .minimized()
    }

    /// Runs the automaton and reports acceptance.
    pub fn accepts(&self, seq: &Sequence) -> bool {
        let mut s = self.start;
        for hit in seq.iter() {
            s = self.trans[s as usize][hit as usize];
        }
        self.accept[s as usize]
    }

    /// Counts accepted words of length `kappa` (the paper's `|S^κ|`),
    /// saturating at `u128::MAX` for astronomically large languages.
    ///
    /// Runs in `O(states × kappa)` — compare
    /// [`Constraint::satisfaction_count_naive`], which is `O(2^κ)`.
    pub fn count_accepting(&self, kappa: usize) -> u128 {
        let mut cur = vec![0u128; self.trans.len()];
        cur[self.start as usize] = 1;
        for _ in 0..kappa {
            let mut next = vec![0u128; self.trans.len()];
            for (s, row) in self.trans.iter().enumerate() {
                let c = cur[s];
                if c != 0 {
                    next[row[0] as usize] = next[row[0] as usize].saturating_add(c);
                    next[row[1] as usize] = next[row[1] as usize].saturating_add(c);
                }
            }
            cur = next;
        }
        cur.iter()
            .zip(&self.accept)
            .filter(|(_, &a)| a)
            .fold(0u128, |acc, (c, _)| acc.saturating_add(*c))
    }

    #[allow(clippy::needless_range_loop)]
    /// Samples a word of length `kappa` uniformly at random from the
    /// accepted language, or `None` when the language contains no word of
    /// that length.
    ///
    /// Uses backward path counting followed by forward weighted choice, so
    /// every accepted word has equal probability.
    pub fn sample_uniform<R: rand::Rng + ?Sized>(
        &self,
        kappa: usize,
        rng: &mut R,
    ) -> Option<Sequence> {
        let n = self.trans.len();
        // counts[t][s] = (normalized) number of accepted suffixes of
        // length t from s. Each layer is rescaled so the weights stay in
        // f64 range for arbitrarily long sequences; sampling only uses
        // per-layer ratios, which rescaling preserves. Small counts stay
        // exact (f64 is exact below 2^53), so uniformity holds exactly for
        // short sequences and to machine precision for long ones.
        let mut counts = vec![vec![0.0f64; n]; kappa + 1];
        for s in 0..n {
            counts[0][s] = self.accept[s] as u8 as f64;
        }
        for t in 1..=kappa {
            for s in 0..n {
                counts[t][s] = counts[t - 1][self.trans[s][0] as usize]
                    + counts[t - 1][self.trans[s][1] as usize];
            }
            let max = counts[t].iter().copied().fold(0.0f64, f64::max);
            if max > 1e200 {
                for c in counts[t].iter_mut() {
                    *c /= max;
                }
            }
        }
        if counts[kappa][self.start as usize] == 0.0 {
            return None;
        }
        let mut seq = Sequence::with_capacity(kappa);
        let mut s = self.start as usize;
        for t in (1..=kappa).rev() {
            let zero = counts[t - 1][self.trans[s][0] as usize];
            let one = counts[t - 1][self.trans[s][1] as usize];
            let total = zero + one;
            let pick_one = rng.gen_range(0.0..total) < one;
            seq.push(pick_one);
            s = self.trans[s][pick_one as usize] as usize;
        }
        Some(seq)
    }

    /// Product automaton accepting `L(self) ∩ L(other)`.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Product automaton accepting `L(self) ∖ L(other)`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    /// Product automaton accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    #[allow(clippy::needless_range_loop)]
    fn product<F: Fn(bool, bool) -> bool>(&self, other: &Dfa, acc: F) -> Dfa {
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pairs = vec![(self.start, other.start)];
        ids.insert(pairs[0], 0);
        let mut trans: Vec<[u32; 2]> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let (a, b) = pairs[i];
            accept.push(acc(self.accept[a as usize], other.accept[b as usize]));
            let mut row = [0u32; 2];
            for bit in 0..2 {
                let pair = (self.trans[a as usize][bit], other.trans[b as usize][bit]);
                row[bit] = *ids.entry(pair).or_insert_with(|| {
                    pairs.push(pair);
                    (pairs.len() - 1) as u32
                });
            }
            trans.push(row);
            i += 1;
        }
        Dfa {
            trans,
            accept,
            start: 0,
        }
        .minimized()
    }

    /// Whether the accepted language is empty.
    pub fn is_empty(&self) -> bool {
        // BFS from the start looking for an accepting state.
        let mut seen = vec![false; self.trans.len()];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            if self.accept[s as usize] {
                return false;
            }
            for &t in &self.trans[s as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Exact language inclusion: `L(self) ⊆ L(other)`.
    ///
    /// For constraint automata this decides the semantic domination order:
    /// `x ⪯ y ⟺ S(x) ⊆ S(y)`.
    pub fn included_in(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty()
    }

    /// Automaton accepting exactly the words of length at least `l`.
    ///
    /// Used to restrict language comparisons to sequences long enough to
    /// contain at least one complete window of every constraint involved
    /// (see [`crate::order::dominates`]).
    pub fn min_length(l: usize) -> Dfa {
        // States 0..l count the prefix length; state l is accepting and
        // absorbing.
        let n = l + 1;
        let mut trans = Vec::with_capacity(n);
        for s in 0..n {
            let t = (s + 1).min(l) as u32;
            trans.push([t, t]);
        }
        let mut accept = vec![false; n];
        accept[l] = true;
        Dfa {
            trans,
            accept,
            start: 0,
        }
    }

    /// Moore partition-refinement minimization.
    fn minimized(&self) -> Dfa {
        let n = self.trans.len();
        // Initial partition: accepting vs rejecting.
        let mut block: Vec<u32> = self.accept.iter().map(|&a| a as u32).collect();
        let mut blocks = 2u32;
        loop {
            // Signature: (block, block of succ0, block of succ1).
            let mut sig_ids: HashMap<(u32, u32, u32), u32> = HashMap::new();
            let mut new_block = vec![0u32; n];
            for s in 0..n {
                let sig = (
                    block[s],
                    block[self.trans[s][0] as usize],
                    block[self.trans[s][1] as usize],
                );
                let next = sig_ids.len() as u32;
                new_block[s] = *sig_ids.entry(sig).or_insert(next);
            }
            let new_count = sig_ids.len() as u32;
            if new_count == blocks {
                break;
            }
            blocks = new_count;
            block = new_block;
        }
        let mut trans = vec![[u32::MAX; 2]; blocks as usize];
        let mut accept = vec![false; blocks as usize];
        for s in 0..n {
            let b = block[s] as usize;
            trans[b][0] = block[self.trans[s][0] as usize];
            trans[b][1] = block[self.trans[s][1] as usize];
            accept[b] = self.accept[s];
        }
        Dfa {
            trans,
            accept,
            start: block[self.start as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn all_constraints_small() -> Vec<Constraint> {
        let mut out = Vec::new();
        for k in 1..=6u32 {
            for m in 0..=k {
                out.push(Constraint::any_hit(m, k).unwrap());
                out.push(Constraint::any_miss(m, k).unwrap());
                out.push(Constraint::row_hit(m, k).unwrap());
            }
        }
        for m in 0..=4u32 {
            out.push(Constraint::row_miss(m));
        }
        out
    }

    #[test]
    fn dfa_agrees_with_naive_models() {
        for c in all_constraints_small() {
            let dfa = Dfa::from_constraint(&c).unwrap();
            for bits in 0u32..(1 << 9) {
                let seq: Sequence = (0..9).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(
                    dfa.accepts(&seq),
                    c.models(&seq),
                    "constraint {c}, seq {seq}"
                );
            }
        }
    }

    #[test]
    fn counting_matches_naive() {
        for c in all_constraints_small() {
            let dfa = Dfa::from_constraint(&c).unwrap();
            for kappa in 0..=10 {
                assert_eq!(
                    dfa.count_accepting(kappa),
                    c.satisfaction_count_naive(kappa) as u128,
                    "constraint {c}, kappa {kappa}"
                );
            }
        }
    }

    #[test]
    fn minimization_keeps_language_and_shrinks() {
        let c = Constraint::any_miss(1, 4).unwrap();
        let dfa = Dfa::from_constraint(&c).unwrap();
        // The minimized DFA for (~1, 4) needs a state per "recent miss
        // position" plus warm-up states; it must be well below 2^(K-1).
        assert!(dfa.state_count() <= 16, "got {}", dfa.state_count());
    }

    #[test]
    fn sampling_is_in_language() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for c in [
            Constraint::any_hit(2, 4).unwrap(),
            Constraint::any_miss(1, 5).unwrap(),
            Constraint::row_miss(1),
        ] {
            let dfa = Dfa::from_constraint(&c).unwrap();
            for _ in 0..50 {
                let s = dfa.sample_uniform(16, &mut rng).expect("nonempty");
                assert!(c.models(&s), "constraint {c}, seq {s}");
            }
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // (~1, 2) over length 4: count via DFA, then histogram samples.
        let c = Constraint::any_miss(1, 2).unwrap();
        let dfa = Dfa::from_constraint(&c).unwrap();
        let total = dfa.count_accepting(4) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut hist: HashMap<String, usize> = HashMap::new();
        let draws = 8000;
        for _ in 0..draws {
            let s = dfa.sample_uniform(4, &mut rng).unwrap();
            *hist.entry(s.to_string()).or_default() += 1;
        }
        assert_eq!(hist.len(), total);
        let expected = draws as f64 / total as f64;
        for (word, n) in hist {
            assert!(
                (n as f64 - expected).abs() < expected * 0.35,
                "word {word} seen {n} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn empty_language_sampling_returns_none() {
        let hard = Dfa::from_constraint(&Constraint::any_hit(2, 2).unwrap()).unwrap();
        let impossible = hard.difference(&hard);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(impossible.is_empty());
        assert_eq!(impossible.sample_uniform(4, &mut rng), None);
    }

    #[test]
    fn boolean_algebra() {
        let a = Dfa::from_constraint(&Constraint::any_miss(1, 3).unwrap()).unwrap();
        let b = Dfa::from_constraint(&Constraint::row_miss(1)).unwrap();
        let inter = a.intersect(&b);
        let uni = a.union(&b);
        let diff = a.difference(&b);
        for bits in 0u32..(1 << 8) {
            let s: Sequence = (0..8).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(inter.accepts(&s), a.accepts(&s) && b.accepts(&s));
            assert_eq!(uni.accepts(&s), a.accepts(&s) || b.accepts(&s));
            assert_eq!(diff.accepts(&s), a.accepts(&s) && !b.accepts(&s));
        }
    }

    #[test]
    fn inclusion_examples() {
        // (1, 2) is harder than (1, 4): S(1,2) ⊆ S(1,4).
        let hard = Dfa::from_constraint(&Constraint::any_hit(1, 2).unwrap()).unwrap();
        let easy = Dfa::from_constraint(&Constraint::any_hit(1, 4).unwrap()).unwrap();
        assert!(hard.included_in(&easy));
        assert!(!easy.included_in(&hard));
        // Everything is included in a trivial constraint.
        let trivial = Dfa::from_constraint(&Constraint::any_hit(0, 3).unwrap()).unwrap();
        assert!(easy.included_in(&trivial));
    }

    #[test]
    fn row_miss_dfa_is_tiny() {
        let dfa = Dfa::from_constraint(&Constraint::row_miss(3)).unwrap();
        assert!(dfa.state_count() <= 5);
    }

    /// The premise of the up-front window refusal: whatever `m` is, the
    /// unminimized history automaton holds all `2^K − 1` codes plus the
    /// sink.
    #[test]
    fn history_automaton_has_exactly_two_to_the_k_states() {
        assert_eq!(MAX_WINDOW, 16);
        for k in 1..=MAX_WINDOW {
            for m in [0, 1, k / 2, k - 1, k] {
                for c in [
                    Constraint::AnyMiss { m, k },
                    Constraint::AnyHit { m, k },
                    Constraint::RowHit { m, k },
                ] {
                    let raw = Dfa::build_windowed(&c).unwrap();
                    assert_eq!(raw.state_count(), 1 << k, "{c}");
                }
            }
        }
    }

    #[test]
    fn windows_past_the_budget_are_refused() {
        for k in [17u32, 20, 64, 65] {
            for m in [1, k / 2, k - 1] {
                for c in [
                    Constraint::AnyMiss { m, k },
                    Constraint::AnyHit { m, k },
                    Constraint::RowHit { m, k },
                ] {
                    assert_eq!(
                        Dfa::from_constraint(&c),
                        Err(BuildDfaError { constraint: c }),
                        "{c}"
                    );
                }
            }
        }
    }
}

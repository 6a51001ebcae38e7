//! The `⊕` layering abstraction for conjunctions of weakly hard constraints.
//!
//! When a task depends on several floods, each with its own weakly hard
//! behavior, the task's behavior is the *pointwise conjunction* of the
//! flood behaviors (a slot succeeds only if every flood succeeded).
//! Reasoning exactly about conjunctions is combinatorial, so the paper
//! introduces the abstraction (eq. (8), miss form):
//!
//! `(ᾱ, γ) ⊕ (β̄, δ) ≜ (min{α + β, γ, δ},  min{γ, δ})`
//!
//! — the allowed misses add up, restricted to the smaller window. [`oplus`]
//! implements the operator; [`OmegaOplus`] enumerates the exact set
//! `Ω^⊕(x, y)` of constraints guaranteed by every conjunction, so the
//! paper's *soundness* and *tightness* claims are machine-checked here
//! (see the tests and the `ablation_oplus` bench).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::automaton::Dfa;
use crate::constraint::Constraint;
use crate::order;

/// Error returned by [`oplus`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConjunctionError {
    /// `⊕` is defined on window-based constraints only.
    UnsupportedClass(Constraint),
    /// A subset construction exceeded the state budget.
    TooLarge,
}

impl fmt::Display for ConjunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConjunctionError::UnsupportedClass(c) => {
                write!(f, "oplus is defined on windowed constraints, got {c}")
            }
            ConjunctionError::TooLarge => {
                write!(f, "conjunction automaton exceeds the state budget")
            }
        }
    }
}

impl Error for ConjunctionError {}

/// The paper's eq. (8): `⊕` on two windowed constraints, in miss form.
///
/// Both operands are converted with [`Constraint::to_any_miss`]; the result
/// is always an [`Constraint::AnyMiss`]. The operator is commutative and
/// sound: any conjunction of sequences satisfying the operands satisfies
/// the result (machine-checked in this module's tests).
///
/// # Errors
///
/// Returns [`ConjunctionError::UnsupportedClass`] for `RowHit`/`RowMiss`
/// operands, which have no miss-form window.
///
/// # Example
///
/// ```
/// use netdag_weakly_hard::{oplus, Constraint};
///
/// let x = Constraint::any_miss(1, 10)?; // ≤ 1 miss per 10
/// let y = Constraint::any_miss(2, 8)?;  // ≤ 2 misses per 8
/// assert_eq!(oplus(&x, &y)?, Constraint::any_miss(3, 8)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn oplus(x: &Constraint, y: &Constraint) -> Result<Constraint, ConjunctionError> {
    netdag_obs::counter!(netdag_obs::keys::WEAKLY_HARD_OPLUS_COMPOSITIONS).incr();
    let (a, g) = miss_params(x)?;
    let (b, d) = miss_params(y)?;
    let window = g.min(d);
    let misses = (a + b).min(window);
    Ok(Constraint::AnyMiss {
        m: misses,
        k: window,
    })
}

/// Folds `⊕` over any number of constraints — the paper's
/// `⊕_{x ∈ pred(τ)} λ_WH(χ(x))` (eq. (9)).
///
/// Returns `None` for an empty iterator (a task with no predecessors has no
/// communication-induced misses).
///
/// # Errors
///
/// Returns [`ConjunctionError::UnsupportedClass`] when any operand is not a
/// windowed constraint.
pub fn oplus_fold<'a, I>(constraints: I) -> Result<Option<Constraint>, ConjunctionError>
where
    I: IntoIterator<Item = &'a Constraint>,
{
    let mut acc: Option<Constraint> = None;
    for c in constraints {
        acc = Some(match acc {
            None => {
                // Validate/normalize even the first operand.
                let (m, k) = miss_params(c)?;
                Constraint::AnyMiss { m, k }
            }
            Some(prev) => oplus(&prev, c)?,
        });
    }
    Ok(acc)
}

fn miss_params(c: &Constraint) -> Result<(u32, u32), ConjunctionError> {
    match c.to_any_miss() {
        Constraint::AnyMiss { m, k } => Ok((m, k)),
        _ => Err(ConjunctionError::UnsupportedClass(*c)),
    }
}

/// The *conjunction-image language* of two constraints:
/// `{ u ∧ v : u ⊢ x, v ⊢ y }`, as a DFA.
///
/// Built by a subset construction over the product of the two constraint
/// automata (on a miss output the pair of inputs is nondeterministic).
/// This is the exact object the `⊕` abstraction over-approximates.
///
/// # Errors
///
/// Returns [`ConjunctionError::TooLarge`] if the construction explodes, or
/// wraps automaton build failures for oversized windows.
pub fn conjunction_image_dfa(x: &Constraint, y: &Constraint) -> Result<Dfa, ConjunctionError> {
    let dx = Dfa::from_constraint(x).map_err(|_| ConjunctionError::TooLarge)?;
    let dy = Dfa::from_constraint(y).map_err(|_| ConjunctionError::TooLarge)?;
    and_image_dfa(&dx, &dy)
}

/// The pointwise-AND image of two arbitrary DFA languages:
/// `{ u ∧ v : u ∈ L(a), v ∈ L(b) }`. The generalization of
/// [`conjunction_image_dfa`] used to fold images across several operands
/// (the image operation is associative because pointwise AND is).
///
/// # Errors
///
/// Returns [`ConjunctionError::TooLarge`] if the subset construction
/// explodes.
pub fn and_image_dfa(dx: &Dfa, dy: &Dfa) -> Result<Dfa, ConjunctionError> {
    const MAX_SUBSETS: usize = 1 << 16;

    // NFA state: pair (state in dx, state in dy). On output bit 1 both
    // inputs must be 1; on output bit 0 the inputs range over {00, 01, 10}.
    type Pair = (u32, u32);
    let start: Vec<Pair> = vec![(dx.start_state(), dy.start_state())];
    let mut ids: HashMap<Vec<Pair>, u32> = HashMap::new();
    ids.insert(start.clone(), 0);
    let mut subsets = vec![start];
    let mut trans: Vec<[u32; 2]> = Vec::new();
    let mut accept: Vec<bool> = Vec::new();
    let mut i = 0;
    while i < subsets.len() {
        let subset = subsets[i].clone();
        accept.push(
            subset
                .iter()
                .any(|&(a, b)| dx.is_accepting(a) && dy.is_accepting(b)),
        );
        let mut row = [0u32; 2];
        for bit in [false, true] {
            let mut next: Vec<Pair> = Vec::new();
            for &(a, b) in &subset {
                if bit {
                    next.push((dx.successor(a, true), dy.successor(b, true)));
                } else {
                    next.push((dx.successor(a, false), dy.successor(b, false)));
                    next.push((dx.successor(a, false), dy.successor(b, true)));
                    next.push((dx.successor(a, true), dy.successor(b, false)));
                }
            }
            next.sort_unstable();
            next.dedup();
            let id = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    if subsets.len() >= MAX_SUBSETS {
                        return Err(ConjunctionError::TooLarge);
                    }
                    let id = subsets.len() as u32;
                    ids.insert(next.clone(), id);
                    subsets.push(next);
                    id
                }
            };
            row[bit as usize] = id;
        }
        trans.push(row);
        i += 1;
    }
    Ok(Dfa::from_parts(trans, accept, 0))
}

/// Checks the paper's **soundness** claim for one operand pair: every
/// conjunction of an `x`-satisfying and a `y`-satisfying sequence satisfies
/// `x ⊕ y`. Exact, via language inclusion of the conjunction image,
/// restricted to sequences at least as long as every window involved.
///
/// # Errors
///
/// Propagates [`ConjunctionError`] from automaton construction.
pub fn oplus_is_sound(x: &Constraint, y: &Constraint) -> Result<bool, ConjunctionError> {
    let z = oplus(x, y)?;
    let image = conjunction_image_dfa(x, y)?;
    let dz = Dfa::from_constraint(&z).map_err(|_| ConjunctionError::TooLarge)?;
    let l = [x.window(), y.window(), z.window()]
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0) as usize;
    Ok(image.intersect(&Dfa::min_length(l)).included_in(&dz))
}

/// The exact set `Ω^⊕(x, y)` from the paper, restricted to `AnyMiss`
/// candidates with windows up to `max_window`: all miss constraints `z`
/// such that *every* conjunction of satisfying sequences satisfies `z`.
///
/// Only the ⪯-minimal (hardest) elements are retained, as the set is
/// upward closed. The paper's **tightness** claim is that `x ⊕ y` often
/// lies on this frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaOplus {
    /// ⪯-minimal guaranteed constraints, in `AnyMiss` form.
    pub frontier: Vec<Constraint>,
}

impl OmegaOplus {
    /// Computes the guaranteed-constraint frontier for `x ⊕ y` candidates.
    ///
    /// # Errors
    ///
    /// Propagates [`ConjunctionError`] from automaton construction.
    pub fn compute(
        x: &Constraint,
        y: &Constraint,
        max_window: u32,
    ) -> Result<Self, ConjunctionError> {
        let image = conjunction_image_dfa(x, y)?;
        let mut guaranteed: Vec<Constraint> = Vec::new();
        for k in 1..=max_window {
            for m in 0..=k {
                let z = Constraint::AnyMiss { m, k };
                let dz = Dfa::from_constraint(&z).map_err(|_| ConjunctionError::TooLarge)?;
                let l = [x.window(), y.window(), Some(k)]
                    .into_iter()
                    .flatten()
                    .max()
                    .unwrap() as usize;
                if image.intersect(&Dfa::min_length(l)).included_in(&dz) {
                    guaranteed.push(z);
                }
            }
        }
        // Keep only ⪯-minimal (hardest) elements.
        let mut frontier: Vec<Constraint> = Vec::new();
        'outer: for z in &guaranteed {
            for other in &guaranteed {
                if other != z
                    && order::dominates(other, z).unwrap_or(false)
                    && !order::dominates(z, other).unwrap_or(false)
                {
                    continue 'outer;
                }
            }
            if !frontier
                .iter()
                .any(|f| order::equivalent(f, z).unwrap_or(false))
            {
                frontier.push(*z);
            }
        }
        Ok(OmegaOplus { frontier })
    }

    /// Whether `c` is guaranteed, i.e. dominated by some frontier element.
    pub fn guarantees(&self, c: &Constraint) -> bool {
        self.frontier
            .iter()
            .any(|f| order::dominates(f, c).unwrap_or(false))
    }

    /// Whether `c` lies *on* the frontier (is an infimum element) — the
    /// paper's tightness condition `x ⊕ y ∈ inf Ω^⊕(x, y)`.
    pub fn is_on_frontier(&self, c: &Constraint) -> bool {
        self.frontier
            .iter()
            .any(|f| order::equivalent(f, c).unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    /// Brute-force soundness check over all sequence pairs of length `kappa`.
    /// Exponential; used to validate [`oplus_is_sound`] on small instances.
    ///
    /// # Panics
    ///
    /// Panics if `kappa > 12` (the check enumerates `4^κ` pairs).
    fn oplus_sound_naive(x: &Constraint, y: &Constraint, kappa: usize) -> bool {
        assert!(kappa <= 12, "naive soundness check is for tiny kappa");
        let z = oplus(x, y).expect("windowed constraints");
        let sx = x.satisfaction_set(kappa);
        let sy = y.satisfaction_set(kappa);
        for u in &sx {
            for v in &sy {
                let w: Sequence = u.and(v);
                if !z.models(&w) {
                    return false;
                }
            }
        }
        true
    }

    fn miss(m: u32, k: u32) -> Constraint {
        Constraint::any_miss(m, k).unwrap()
    }

    #[test]
    fn oplus_matches_eq8() {
        assert_eq!(oplus(&miss(1, 10), &miss(2, 8)).unwrap(), miss(3, 8));
        assert_eq!(oplus(&miss(4, 5), &miss(4, 6)).unwrap(), miss(5, 5));
        // Saturation at the window: result is trivial.
        assert!(oplus(&miss(4, 5), &miss(4, 6)).unwrap().is_trivial());
    }

    #[test]
    fn oplus_accepts_hit_form_operands() {
        // (6, 10) hit form == (~4, 10) miss form.
        let hit = Constraint::any_hit(6, 10).unwrap();
        assert_eq!(oplus(&hit, &miss(1, 10)).unwrap(), miss(5, 10));
    }

    #[test]
    fn oplus_commutes() {
        for (a, g) in [(1u32, 5u32), (2, 7), (0, 3)] {
            for (b, d) in [(1u32, 4u32), (3, 6), (2, 2)] {
                let x = miss(a, g);
                let y = miss(b, d);
                assert_eq!(oplus(&x, &y).unwrap(), oplus(&y, &x).unwrap());
            }
        }
    }

    #[test]
    fn oplus_rejects_row_constraints() {
        let rm = Constraint::row_miss(1);
        assert!(matches!(
            oplus(&rm, &miss(1, 3)),
            Err(ConjunctionError::UnsupportedClass(_))
        ));
    }

    #[test]
    fn fold_over_predecessors() {
        let cs = [miss(1, 10), miss(1, 8), miss(2, 12)];
        let folded = oplus_fold(cs.iter()).unwrap().unwrap();
        assert_eq!(folded, miss(4, 8));
        assert_eq!(oplus_fold([].iter()).unwrap(), None);
        // Single operand is normalized to miss form but otherwise unchanged.
        let single = [Constraint::any_hit(6, 10).unwrap()];
        assert_eq!(oplus_fold(single.iter()).unwrap().unwrap(), miss(4, 10));
    }

    #[test]
    fn soundness_naive_small() {
        for x in [miss(1, 3), miss(2, 4), miss(0, 2)] {
            for y in [miss(1, 2), miss(1, 4), miss(2, 3)] {
                assert!(oplus_sound_naive(&x, &y, 8), "{x} ⊕ {y}");
            }
        }
    }

    #[test]
    fn soundness_exact_via_automata() {
        for x in [miss(1, 3), miss(2, 5), miss(1, 6), miss(0, 4)] {
            for y in [miss(1, 2), miss(2, 4), miss(3, 6)] {
                assert!(oplus_is_sound(&x, &y).unwrap(), "{x} ⊕ {y}");
            }
        }
    }

    #[test]
    fn conjunction_image_contains_all_conjunctions() {
        let x = miss(1, 3);
        let y = miss(1, 4);
        let image = conjunction_image_dfa(&x, &y).unwrap();
        for u in x.satisfaction_set(7) {
            for v in y.satisfaction_set(7) {
                let w = u.and(&v);
                assert!(image.accepts(&w), "u={u} v={v} w={w}");
            }
        }
    }

    #[test]
    fn conjunction_image_is_exactly_the_image() {
        // Every accepted word must be expressible as a conjunction.
        let x = miss(1, 3);
        let y = miss(1, 4);
        let image = conjunction_image_dfa(&x, &y).unwrap();
        let sx = x.satisfaction_set(6);
        let sy = y.satisfaction_set(6);
        for bits in 0u32..(1 << 6) {
            let w: Sequence = (0..6).map(|i| bits >> i & 1 == 1).collect();
            let expressible = sx.iter().any(|u| sy.iter().any(|v| u.and(v) == w));
            assert_eq!(image.accepts(&w), expressible, "w={w}");
        }
    }

    #[test]
    fn tightness_when_windows_equal() {
        // The paper: ⊕ is tight whenever γ = δ.
        for (a, b, k) in [(1u32, 1u32, 4u32), (1, 2, 5), (2, 1, 6)] {
            let x = miss(a, k);
            let y = miss(b, k);
            let z = oplus(&x, &y).unwrap();
            let omega = OmegaOplus::compute(&x, &y, k + 2).unwrap();
            assert!(omega.guarantees(&z), "{x} ⊕ {y} = {z} must be guaranteed");
            assert!(
                omega.is_on_frontier(&z),
                "{x} ⊕ {y} = {z} should be tight; frontier {:?}",
                omega.frontier
            );
        }
    }

    #[test]
    fn omega_guarantees_are_sound() {
        let x = miss(1, 3);
        let y = miss(1, 3);
        let omega = OmegaOplus::compute(&x, &y, 5).unwrap();
        // Every frontier element must pass the naive check.
        for z in &omega.frontier {
            let sx = x.satisfaction_set(8);
            let sy = y.satisfaction_set(8);
            for u in &sx {
                for v in &sy {
                    assert!(z.models(&u.and(v)), "z={z} u={u} v={v}");
                }
            }
        }
    }
}

//! Model construction API.

use std::error::Error;
use std::fmt;

use crate::domain::VarId;
use crate::portfolio::Race;
use crate::propagator::{IfThenLe, LinearLe, MaxOf, MinOf, NoOverlap, Propagator, TableFn};
use crate::relax::Relaxation;
use crate::search::{self, SearchConfig, SearchOutcome, Solution};

/// Error returned while building or solving a [`Model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// `lo > hi` when creating a variable.
    InvalidBounds {
        /// Requested lower bound.
        lo: i64,
        /// Requested upper bound.
        hi: i64,
    },
    /// A table constraint was given an empty table.
    EmptyTable,
    /// A min/max aggregate was given no variables.
    EmptyAggregate,
    /// A variable id does not belong to this model.
    UnknownVar(VarId),
    /// A portfolio race was given no configurations.
    EmptyPortfolio,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidBounds { lo, hi } => {
                write!(f, "invalid bounds: lo = {lo} > hi = {hi}")
            }
            SolverError::EmptyTable => write!(f, "table constraint requires a non-empty table"),
            SolverError::EmptyAggregate => {
                write!(f, "min/max aggregate requires at least one variable")
            }
            SolverError::UnknownVar(v) => write!(f, "unknown variable {v}"),
            SolverError::EmptyPortfolio => {
                write!(f, "portfolio race requires at least one configuration")
            }
        }
    }
}

impl Error for SolverError {}

/// A finite-domain constraint model.
///
/// Build variables and constraints, then call [`Model::solve`] for any
/// feasible assignment or [`Model::minimize`] for a proven-optimal one.
///
/// # Example
///
/// ```
/// use netdag_solver::{Model, SearchConfig};
///
/// let mut m = Model::new();
/// let x = m.new_var("x", 0, 9)?;
/// let y = m.new_var("y", 0, 9)?;
/// m.linear_eq(&[(1, x), (1, y)], 10)?;
/// m.diff_ge(x, y, 2)?; // x − y ≥ 2
/// let sol = m.minimize(x, &SearchConfig::default())?.expect("feasible");
/// assert_eq!((sol.value(x), sol.value(y)), (6, 4));
/// # Ok::<(), netdag_solver::SolverError>(())
/// ```
#[derive(Debug, Default)]
pub struct Model {
    pub(crate) names: Vec<String>,
    pub(crate) bounds: Vec<(i64, i64)>,
    pub(crate) props: Vec<Box<dyn Propagator>>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.bounds.len()
    }

    /// Number of posted constraints.
    pub fn constraint_count(&self) -> usize {
        self.props.len()
    }

    /// Name of a variable (for diagnostics).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Creates a variable with inclusive bounds `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidBounds`] when `lo > hi`.
    pub fn new_var(&mut self, name: &str, lo: i64, hi: i64) -> Result<VarId, SolverError> {
        if lo > hi {
            return Err(SolverError::InvalidBounds { lo, hi });
        }
        let id = VarId(self.bounds.len() as u32);
        self.names.push(name.to_owned());
        self.bounds.push((lo, hi));
        Ok(id)
    }

    /// Creates a variable fixed to `value`.
    pub fn constant(&mut self, name: &str, value: i64) -> VarId {
        self.new_var(name, value, value).expect("lo == hi")
    }

    fn check_terms(&self, terms: &[(i64, VarId)]) -> Result<(), SolverError> {
        for &(_, v) in terms {
            self.check_var(v)?;
        }
        Ok(())
    }

    fn check_var(&self, v: VarId) -> Result<(), SolverError> {
        if v.index() >= self.bounds.len() {
            return Err(SolverError::UnknownVar(v));
        }
        Ok(())
    }

    /// Posts `Σ coef·var ≤ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn linear_le(&mut self, terms: &[(i64, VarId)], bound: i64) -> Result<(), SolverError> {
        self.check_terms(terms)?;
        self.props.push(Box::new(LinearLe {
            terms: terms.to_vec(),
            bound,
        }));
        Ok(())
    }

    /// Posts `Σ coef·var ≥ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn linear_ge(&mut self, terms: &[(i64, VarId)], bound: i64) -> Result<(), SolverError> {
        let negated: Vec<(i64, VarId)> = terms.iter().map(|&(c, v)| (-c, v)).collect();
        self.linear_le(&negated, -bound)
    }

    /// Posts `Σ coef·var = bound`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn linear_eq(&mut self, terms: &[(i64, VarId)], bound: i64) -> Result<(), SolverError> {
        self.linear_le(terms, bound)?;
        self.linear_ge(terms, bound)
    }

    /// Starts a pausable race of `configs` minimizing `objective`: one
    /// config is one branch-and-bound engine, several race in epochs
    /// ([`crate::portfolio`]: same bits at any thread count). The caller
    /// steps it in node budgets (e.g. to enforce a deadline), may inject
    /// a warm bound, and publishes the final stats
    /// ([`crate::search::publish_stats`]). Members with `lower_bound`
    /// prune with the borrowed `relax`, built once per solve with
    /// [`Relaxation::build`]; with `relax = None` they search unbounded.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] if `objective` is foreign and
    /// [`SolverError::EmptyPortfolio`] when `configs` is empty.
    pub fn race<'a>(
        &'a self,
        objective: VarId,
        configs: &[SearchConfig],
        relax: Option<&'a Relaxation>,
        policy: netdag_runtime::ExecPolicy,
    ) -> Result<Race<'a>, SolverError> {
        self.check_var(objective)?;
        if configs.is_empty() {
            return Err(SolverError::EmptyPortfolio);
        }
        Ok(Race::new(self, objective, configs, relax, policy))
    }

    /// Posts `x − y ≥ c`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn diff_ge(&mut self, x: VarId, y: VarId, c: i64) -> Result<(), SolverError> {
        self.linear_ge(&[(1, x), (-1, y)], c)
    }

    /// Posts `y = table[x − x_lo]` where `x_lo` is `x`'s lower bound at
    /// posting time (so `table[0]` is the image of the smallest value).
    ///
    /// Accepts either an owned `Vec<i64>` or a pre-shared `Arc<[i64]>`;
    /// callers posting the same lookup function many times (one per
    /// message, say) should build the `Arc` once so every propagator
    /// shares a single allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::EmptyTable`] for an empty table and
    /// [`SolverError::UnknownVar`] for foreign variables.
    pub fn table_fn(
        &mut self,
        x: VarId,
        y: VarId,
        table: impl Into<std::sync::Arc<[i64]>>,
    ) -> Result<(), SolverError> {
        self.check_var(x)?;
        self.check_var(y)?;
        let table = table.into();
        if table.is_empty() {
            return Err(SolverError::EmptyTable);
        }
        let x_offset = self.bounds[x.index()].0;
        self.props.push(Box::new(TableFn {
            x,
            y,
            x_offset,
            table,
        }));
        Ok(())
    }

    /// Posts `z = min(xs)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::EmptyAggregate`] for an empty list and
    /// [`SolverError::UnknownVar`] for foreign variables.
    pub fn min_of(&mut self, xs: &[VarId], z: VarId) -> Result<(), SolverError> {
        self.check_var(z)?;
        if xs.is_empty() {
            return Err(SolverError::EmptyAggregate);
        }
        for &v in xs {
            self.check_var(v)?;
        }
        self.props.push(Box::new(MinOf { xs: xs.to_vec(), z }));
        Ok(())
    }

    /// Posts `z = max(xs)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::EmptyAggregate`] for an empty list and
    /// [`SolverError::UnknownVar`] for foreign variables.
    pub fn max_of(&mut self, xs: &[VarId], z: VarId) -> Result<(), SolverError> {
        self.check_var(z)?;
        if xs.is_empty() {
            return Err(SolverError::EmptyAggregate);
        }
        for &v in xs {
            self.check_var(v)?;
        }
        self.props.push(Box::new(MaxOf { xs: xs.to_vec(), z }));
        Ok(())
    }

    /// Posts a disjunctive no-overlap between `[start_a, start_a + dur_a)`
    /// and `[start_b, start_b + dur_b)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn no_overlap(
        &mut self,
        start_a: VarId,
        dur_a: VarId,
        start_b: VarId,
        dur_b: VarId,
    ) -> Result<(), SolverError> {
        for v in [start_a, dur_a, start_b, dur_b] {
            self.check_var(v)?;
        }
        self.props.push(Box::new(NoOverlap {
            start_a,
            dur_a,
            start_b,
            dur_b,
        }));
        Ok(())
    }

    /// Posts `cond = 1 ⇒ x + c ≤ y` for a 0/1 variable `cond`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] for foreign variables.
    pub fn if_then_le(
        &mut self,
        cond: VarId,
        x: VarId,
        c: i64,
        y: VarId,
    ) -> Result<(), SolverError> {
        for v in [cond, x, y] {
            self.check_var(v)?;
        }
        self.props.push(Box::new(IfThenLe { cond, x, c, y }));
        Ok(())
    }

    /// Finds any feasible assignment.
    ///
    /// # Errors
    ///
    /// Currently infallible at solve time; the `Result` mirrors
    /// [`Model::minimize`] for API consistency.
    pub fn solve(&self, cfg: &SearchConfig) -> Result<Option<Solution>, SolverError> {
        Ok(search::run(self, None, cfg).best)
    }

    /// Finds an assignment minimizing `objective`, with an optimality proof
    /// unless the node limit is hit.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] if `objective` is foreign.
    pub fn minimize(
        &self,
        objective: VarId,
        cfg: &SearchConfig,
    ) -> Result<Option<Solution>, SolverError> {
        Ok(self.minimize_with_stats(objective, cfg)?.best)
    }

    /// As [`Model::minimize`], also returning search statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVar`] if `objective` is foreign.
    pub fn minimize_with_stats(
        &self,
        objective: VarId,
        cfg: &SearchConfig,
    ) -> Result<SearchOutcome, SolverError> {
        self.check_var(objective)?;
        Ok(search::run(self, Some(objective), cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_creation_and_metadata() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        assert_eq!(m.var_count(), 1);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(
            m.new_var("bad", 2, 1),
            Err(SolverError::InvalidBounds { lo: 2, hi: 1 })
        );
        let c = m.constant("five", 5);
        assert_eq!(m.var_count(), 2);
        let sol = m.solve(&SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.value(c), 5);
    }

    #[test]
    fn foreign_vars_rejected() {
        let mut m = Model::new();
        let ghost = VarId(7);
        assert_eq!(
            m.linear_le(&[(1, ghost)], 0),
            Err(SolverError::UnknownVar(ghost))
        );
        assert_eq!(m.min_of(&[], ghost), Err(SolverError::UnknownVar(ghost)));
    }

    #[test]
    fn empty_table_and_aggregate_rejected() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        let y = m.new_var("y", 0, 3).unwrap();
        assert_eq!(m.table_fn(x, y, vec![]), Err(SolverError::EmptyTable));
        assert_eq!(m.min_of(&[], y), Err(SolverError::EmptyAggregate));
    }

    #[test]
    fn error_display() {
        assert!(SolverError::EmptyTable.to_string().contains("table"));
        assert!(SolverError::UnknownVar(VarId(3)).to_string().contains("x3"));
    }
}

//! Deterministic parallel portfolio race over trail engines.
//!
//! N [`SearchConfig`]s race on the same model across
//! `netdag-runtime`'s fan-out. The incumbent objective is shared
//! through an [`AtomicI64`], but only at **epoch boundaries**: every
//! engine runs a fixed node budget per epoch
//! ([`for_each_indexed_mut`]'s return is the barrier), publishes its
//! local best with `fetch_min`, and the next epoch injects the agreed
//! bound into every engine before it resumes. Each engine's trajectory
//! therefore depends only on (its config, the epoch-boundary bound
//! sequence) — never on thread scheduling — so threads 1, 2, and 8
//! return bit-identical solutions and stats, however [`Race::step`]
//! pauses them: a race pauses only at epoch boundaries.
//!
//! Winner rule: best local objective, ties broken by the lowest config
//! index. Sharing is sound because every published bound is the
//! objective of a solution some engine actually recorded; an engine
//! that exhausts its (bound-pruned) space proves that no solution beats
//! the global incumbent, so `proven_optimal` is the OR across engines.

use std::sync::atomic::{AtomicI64, Ordering};

use netdag_runtime::{for_each_indexed_mut, ExecPolicy};
use netdag_trace::SpanGuard;

use crate::domain::VarId;
use crate::model::Model;
use crate::relax::Relaxation;
use crate::search::{Engine, SearchConfig, SearchOutcome, SearchStats};

/// Nodes each engine explores per epoch. Smaller values share bounds
/// faster; larger values amortize the barrier. The value changes wall
/// time only, never results.
const EPOCH_NODE_BUDGET: u64 = 2048;

/// A pausable race of trail engines minimizing one objective, built by
/// [`Model::race`]. A one-config race is that engine stepped directly:
/// no epochs, no fan-out, no `solver.portfolio_*` counts and no
/// [`SearchStats::portfolio_winner`]. The `solver.search` trace span
/// stays open while the race lives.
pub struct Race<'a> {
    engines: Vec<Engine<'a>>,
    policy: ExecPolicy,
    /// Best objective recorded by any engine, as of the last epoch.
    shared: AtomicI64,
    /// Effort summed over every engine, as of the last step.
    stats: SearchStats,
    _span: SpanGuard,
}

impl<'a> Race<'a> {
    pub(crate) fn new(
        model: &'a Model,
        objective: VarId,
        configs: &[SearchConfig],
        relax: Option<&'a Relaxation>,
        policy: ExecPolicy,
    ) -> Self {
        let args = [
            ("vars", model.bounds.len().into()),
            ("props", model.props.len().into()),
            ("optimize", true.into()),
            ("portfolio", configs.len().into()),
        ];
        let raced = usize::from(configs.len() > 1);
        Race {
            _span: netdag_trace::span_with("solver.search", &args[..3 + raced]),
            engines: configs
                .iter()
                .map(|cfg| Engine::new(model, Some(objective), cfg.clone(), relax))
                .collect(),
            policy,
            shared: AtomicI64::new(i64::MAX),
            stats: SearchStats::default(),
        }
    }

    /// Search effort so far, summed over every engine.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Lowers every engine's external incumbent bound (a warm start).
    pub fn inject_bound(&mut self, bound: i64) {
        for engine in &mut self.engines {
            engine.inject_bound(bound);
        }
    }

    /// Explores at least `budget` more nodes, or up to the end; returns
    /// `true` once every engine has finished. Several configs run whole
    /// epochs, so every result bit is the same however the caller
    /// slices its budget.
    pub fn step(&mut self, budget: u64) -> bool {
        if let [engine] = self.engines.as_mut_slice() {
            let done = engine.step(budget);
            self.stats = *engine.stats();
            return done;
        }
        let target = self.stats.nodes.saturating_add(budget);
        loop {
            // Stable for the whole epoch: loaded once, before the fan-out.
            let bound = self.shared.load(Ordering::SeqCst);
            let shared = &self.shared;
            for_each_indexed_mut(self.policy, &mut self.engines, |_, engine| {
                // A finished engine's step, bound and best are no-ops.
                engine.inject_bound(bound);
                engine.step(EPOCH_NODE_BUDGET);
                if let Some(best) = engine.best_objective() {
                    shared.fetch_min(best, Ordering::SeqCst);
                }
            });
            self.stats = SearchStats::default();
            for engine in &self.engines {
                self.stats.add_effort(engine.stats());
                self.stats.proven_optimal |= engine.stats().proven_optimal;
            }
            if self.engines.iter().all(Engine::is_done) {
                return true;
            }
            if self.stats.nodes >= target {
                return false;
            }
        }
    }

    /// Consumes the race, yielding the winner's best solution and the
    /// summed [`SearchStats`], which the caller publishes.
    pub fn into_outcome(mut self) -> SearchOutcome {
        if self.engines.len() == 1 {
            return self.engines.pop().expect("one engine").into_outcome();
        }
        // Best objective, ties to the lowest config index.
        let winner = (self.engines.iter().enumerate())
            .filter_map(|(i, engine)| Some((engine.best_objective()?, i)))
            .min();
        let mut stats = self.stats;
        stats.portfolio_winner = winner.map(|(_, i)| i as u32);
        let loser_nodes = stats.nodes - winner.map_or(0, |(_, i)| self.engines[i].stats().nodes);

        let best = winner.and_then(|(obj, i)| {
            netdag_trace::instant(
                "solver.portfolio.winner",
                &[("config", (i as u64).into()), ("objective", obj.into())],
            );
            self.engines.swap_remove(i).into_outcome().best
        });

        netdag_obs::counter!(netdag_obs::keys::SOLVER_PORTFOLIO_RACES).incr();
        // The summed stats above already include every engine, but the
        // split matters operationally: loser nodes are the race's overhead
        // over a single-engine run, previously invisible in the metrics.
        netdag_obs::counter!(netdag_obs::keys::SOLVER_PORTFOLIO_LOSER_NODES).add(loser_nodes);
        SearchOutcome { best, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SolverError;
    use crate::search::portfolio_configs;

    /// Runs a race to the end in one step.
    fn race_to_end(
        m: &Model,
        obj: VarId,
        configs: &[SearchConfig],
        policy: ExecPolicy,
    ) -> SearchOutcome {
        let mut race = m.race(obj, configs, None, policy).unwrap();
        assert!(race.step(u64::MAX));
        race.into_outcome()
    }

    fn tight_scheduling_model() -> (Model, VarId) {
        scheduling_model(&[2, 1, 3, 1], 12)
    }

    /// Non-overlapping tasks with durations `durs`, starts in
    /// `[0, horizon]`, minimizing the latest end.
    fn scheduling_model(durs: &[i64], horizon: i64) -> (Model, VarId) {
        let n = durs.len();
        let mut m = Model::new();
        let starts: Vec<VarId> = (0..n)
            .map(|i| m.new_var(&format!("s{i}"), 0, horizon).unwrap())
            .collect();
        let dvars: Vec<VarId> = (durs.iter().enumerate())
            .map(|(i, &d)| m.constant(&format!("d{i}"), d))
            .collect();
        for a in 0..n {
            for b in (a + 1)..n {
                m.no_overlap(starts[a], dvars[a], starts[b], dvars[b])
                    .unwrap();
            }
        }
        let mk = m.new_var("makespan", 0, 2 * horizon).unwrap();
        let ends: Vec<VarId> = (0..n)
            .map(|i| m.new_var(&format!("e{i}"), 0, 2 * horizon).unwrap())
            .collect();
        for i in 0..n {
            m.linear_eq(&[(1, ends[i]), (-1, starts[i])], durs[i])
                .unwrap();
        }
        m.max_of(&ends, mk).unwrap();
        (m, mk)
    }

    #[test]
    fn portfolio_is_thread_count_invariant() {
        let (m, mk) = tight_scheduling_model();
        let configs = portfolio_configs(4, None);
        let outcomes: Vec<SearchOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&t| race_to_end(&m, mk, &configs, ExecPolicy::from_threads(t)))
            .collect();
        let first = &outcomes[0];
        assert_eq!(first.best.as_ref().unwrap().value(mk), 7);
        assert!(first.stats.proven_optimal);
        assert!(first.stats.portfolio_winner.is_some());
        for other in &outcomes[1..] {
            assert_eq!(first.best, other.best, "solutions must be bit-identical");
            assert_eq!(first.stats, other.stats, "stats must be bit-identical");
        }
    }

    #[test]
    fn portfolio_matches_single_engine_optimum() {
        let (m, mk) = tight_scheduling_model();
        let single = m.minimize(mk, &SearchConfig::default()).unwrap().unwrap();
        let raced = race_to_end(&m, mk, &portfolio_configs(3, None), ExecPolicy::Serial);
        assert_eq!(raced.best.unwrap().value(mk), single.value(mk));
    }

    #[test]
    fn portfolio_proves_infeasibility() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        let obj = m.new_var("obj", 0, 10).unwrap();
        m.linear_ge(&[(1, x)], 7).unwrap();
        let out = race_to_end(&m, obj, &portfolio_configs(2, None), ExecPolicy::Serial);
        assert!(out.best.is_none());
        assert!(out.stats.proven_optimal);
        assert_eq!(out.stats.portfolio_winner, None);
    }

    #[test]
    fn single_config_portfolio_degenerates_to_that_engine() {
        let (m, mk) = tight_scheduling_model();
        let cfg = SearchConfig::default();
        let solo = m.minimize_with_stats(mk, &cfg).unwrap();
        let race = race_to_end(&m, mk, std::slice::from_ref(&cfg), ExecPolicy::Serial);
        assert_eq!(race.best, solo.best);
        assert_eq!(race.stats.nodes, solo.stats.nodes);
        // A one-config race is no portfolio: it names no winner.
        assert_eq!(race.stats.portfolio_winner, None);
    }

    /// Pausing after every epoch and polling the live stats changes no
    /// bit: the race steps whole epochs whatever the budget.
    #[test]
    fn race_stepped_one_node_at_a_time_matches_one_run() {
        let (m, mk) = scheduling_model(&[2, 1, 3, 1, 2, 3, 1], 30);
        let configs = portfolio_configs(4, Some(20_000));
        for t in [1usize, 2, 8] {
            let policy = ExecPolicy::from_threads(t);
            let whole = race_to_end(&m, mk, &configs, policy);
            let mut race = m.race(mk, &configs, None, policy).unwrap();
            let mut polled = Vec::new();
            while !race.step(1) {
                polled.push(*race.stats());
            }
            assert!(!polled.is_empty(), "the race must pause at least once");
            assert!(polled.windows(2).all(|w| w[0].nodes < w[1].nodes));
            let stepped = race.into_outcome();
            assert_eq!(stepped.best, whole.best, "threads {t}");
            assert_eq!(stepped.stats, whole.stats, "threads {t}");
        }
    }

    #[test]
    fn empty_race_is_refused() {
        let (m, mk) = tight_scheduling_model();
        assert!(matches!(
            m.race(mk, &[], None, ExecPolicy::Serial),
            Err(SolverError::EmptyPortfolio)
        ));
    }
}

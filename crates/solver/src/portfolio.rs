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
//! return bit-identical solutions and stats.
//!
//! Winner rule: best local objective, ties broken by the lowest config
//! index. Sharing is sound because every published bound is the
//! objective of a solution some engine actually recorded; an engine
//! that exhausts its (bound-pruned) space proves that no solution beats
//! the global incumbent, so `proven_optimal` is the OR across engines.

use std::sync::atomic::{AtomicI64, Ordering};

use netdag_runtime::{for_each_indexed_mut, ExecPolicy};

use crate::domain::VarId;
use crate::model::Model;
use crate::relax::Relaxation;
use crate::search::{publish_stats, Engine, SearchConfig, SearchOutcome, SearchStats};

/// Nodes each engine explores per epoch. Smaller values share bounds
/// faster; larger values amortize the barrier. The value changes wall
/// time only, never results.
const EPOCH_NODE_BUDGET: u64 = 2048;

/// Races `configs` on `model`, minimizing `objective`. The bounded
/// members share `relax` read-only. See the module docs for the
/// determinism argument.
pub(crate) fn race(
    model: &Model,
    objective: VarId,
    configs: &[SearchConfig],
    relax: Option<&Relaxation>,
    policy: ExecPolicy,
) -> SearchOutcome {
    debug_assert!(!configs.is_empty(), "caller validates");
    let _search = netdag_trace::span_with(
        "solver.search",
        &[
            ("vars", model.bounds.len().into()),
            ("props", model.props.len().into()),
            ("optimize", true.into()),
            ("portfolio", configs.len().into()),
        ],
    );
    let mut engines: Vec<Engine<'_>> = configs
        .iter()
        .map(|cfg| Engine::new(model, Some(objective), cfg.clone(), relax))
        .collect();
    let shared = AtomicI64::new(i64::MAX);
    loop {
        // Stable for the whole epoch: loaded once, before the fan-out.
        let bound = shared.load(Ordering::SeqCst);
        for_each_indexed_mut(policy, &mut engines, |_, engine| {
            if engine.is_done() {
                return;
            }
            engine.inject_bound(bound);
            engine.step(EPOCH_NODE_BUDGET);
            if let Some(best) = engine.best_objective() {
                shared.fetch_min(best, Ordering::SeqCst);
            }
        });
        if engines.iter().all(Engine::is_done) {
            break;
        }
    }

    let mut winner: Option<(usize, i64)> = None;
    for (i, engine) in engines.iter().enumerate() {
        if let Some(obj) = engine.best_objective() {
            // Strict improvement only: ties keep the lowest index.
            let better = match winner {
                None => true,
                Some((_, best)) => obj < best,
            };
            if better {
                winner = Some((i, obj));
            }
        }
    }

    let mut stats = SearchStats::default();
    let mut loser_nodes = 0u64;
    for (i, engine) in engines.iter().enumerate() {
        let s = engine.stats();
        stats.add_effort(s);
        stats.proven_optimal |= s.proven_optimal;
        if winner.map(|(w, _)| w) != Some(i) {
            loser_nodes += s.nodes;
        }
    }
    stats.portfolio_winner = winner.map(|(i, _)| i as u32);

    let best = winner.and_then(|(i, _)| {
        netdag_trace::instant(
            "solver.portfolio.winner",
            &[
                ("config", (i as u64).into()),
                (
                    "objective",
                    engines[i].best_objective().expect("winner").into(),
                ),
            ],
        );
        engines.swap_remove(i).into_outcome().best
    });

    netdag_obs::counter!(netdag_obs::keys::SOLVER_PORTFOLIO_RACES).incr();
    // The summed stats above already include every engine, but the
    // split matters operationally: loser nodes are the race's overhead
    // over a single-engine run, previously invisible in the metrics.
    netdag_obs::counter!(netdag_obs::keys::SOLVER_PORTFOLIO_LOSER_NODES).add(loser_nodes);
    publish_stats(&stats);
    SearchOutcome { best, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::portfolio_configs;

    fn tight_scheduling_model() -> (Model, VarId) {
        let mut m = Model::new();
        let starts: Vec<VarId> = (0..4)
            .map(|i| m.new_var(&format!("s{i}"), 0, 12).unwrap())
            .collect();
        let durs: Vec<VarId> = [2, 1, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, &d)| m.constant(&format!("d{i}"), d))
            .collect();
        for a in 0..4 {
            for b in (a + 1)..4 {
                m.no_overlap(starts[a], durs[a], starts[b], durs[b])
                    .unwrap();
            }
        }
        let mk = m.new_var("makespan", 0, 24).unwrap();
        let ends: Vec<VarId> = (0..4)
            .map(|i| m.new_var(&format!("e{i}"), 0, 24).unwrap())
            .collect();
        for i in 0..4 {
            m.linear_eq(&[(1, ends[i]), (-1, starts[i])], [2, 1, 3, 1][i])
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
            .map(|&t| {
                m.minimize_portfolio(mk, &configs, None, ExecPolicy::from_threads(t))
                    .unwrap()
            })
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
        let raced = m
            .minimize_portfolio(mk, &portfolio_configs(3, None), None, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(raced.best.unwrap().value(mk), single.value(mk));
    }

    #[test]
    fn portfolio_proves_infeasibility() {
        let mut m = Model::new();
        let x = m.new_var("x", 0, 3).unwrap();
        let obj = m.new_var("obj", 0, 10).unwrap();
        m.linear_ge(&[(1, x)], 7).unwrap();
        let out = m
            .minimize_portfolio(obj, &portfolio_configs(2, None), None, ExecPolicy::Serial)
            .unwrap();
        assert!(out.best.is_none());
        assert!(out.stats.proven_optimal);
        assert_eq!(out.stats.portfolio_winner, None);
    }

    #[test]
    fn single_config_portfolio_degenerates_to_that_engine() {
        let (m, mk) = tight_scheduling_model();
        let cfg = SearchConfig::default();
        let solo = m.minimize_with_stats(mk, &cfg).unwrap();
        let race = m
            .minimize_portfolio(mk, std::slice::from_ref(&cfg), None, ExecPolicy::Serial)
            .unwrap();
        assert_eq!(race.best, solo.best);
        assert_eq!(race.stats.nodes, solo.stats.nodes);
        assert_eq!(race.stats.portfolio_winner, Some(0));
    }
}

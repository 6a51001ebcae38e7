//! Greedy scheduling backend (the baseline).
//!
//! Retransmission counts start at their minimum and are repaired upward,
//! one bump at a time, always choosing the bump with the best reliability
//! gain per microsecond of added airtime; start times then come from the
//! earliest-start placement in [`crate::makespan`]. Fast and feasible, but
//! not makespan-optimal — the `ablation_solver` bench measures the gap to
//! the exact backend.

use crate::app::{Application, MsgId};
use crate::config::{ScheduleError, SchedulerConfig};
use crate::constraints::Deadlines;
use crate::encode::ReliabilitySpec;
use crate::makespan::place;
use crate::schedule::{Round, Schedule};

/// Runs the greedy backend for either reliability model.
pub(crate) fn solve_greedy(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    spec: &ReliabilitySpec,
    deadlines: &Deadlines,
) -> Result<Schedule, ScheduleError> {
    let chi = choose_chi(app, cfg, spec)?;
    let schedule = assemble(app, cfg, rounds, &chi);
    // The greedy backend places earliest-start; it does not reshuffle to
    // rescue deadlines (the exact backend does).
    if let Some((task, _end)) = deadlines.first_violation(app, &schedule) {
        return Err(ScheduleError::DeadlineViolated(task));
    }
    Ok(schedule)
}

/// Builds a schedule from fixed χ values via earliest-start placement.
pub(crate) fn assemble(
    app: &Application,
    cfg: &SchedulerConfig,
    rounds: &[Vec<MsgId>],
    chi: &[u32],
) -> Schedule {
    let durs: Vec<u64> = rounds
        .iter()
        .map(|msgs| {
            let slots: Vec<(u32, u32)> = msgs
                .iter()
                .map(|&m| (chi[m.index()], app.message(m).width))
                .collect();
            cfg.timing.round_duration(cfg.beacon_chi, &slots)
        })
        .collect();
    let placement = place(app, rounds, &durs);
    Schedule::new(
        rounds
            .iter()
            .enumerate()
            .map(|(r, msgs)| Round {
                messages: msgs.clone(),
                beacon_chi: cfg.beacon_chi,
                start_us: placement.round_start[r],
                duration_us: durs[r],
            })
            .collect(),
        chi.to_vec(),
        placement.task_start,
        cfg.timing,
    )
}

/// Each group's violation term under a χ assignment, in group order,
/// with the task it constrains: zero iff the group's requirement holds.
/// Integer-valued so the repair loop provably terminates.
fn group_terms<'s>(
    spec: &'s ReliabilitySpec,
    chi: &'s [u32],
) -> Box<dyn Iterator<Item = (crate::app::TaskId, i64)> + 's> {
    match spec {
        ReliabilitySpec::Soft { log_tables, groups } => Box::new(groups.iter().map(|g| {
            let total: i64 = g
                .msgs
                .iter()
                .map(|m| log_tables[m.index()][chi[m.index()] as usize - 1])
                .sum();
            (g.task, (g.threshold - total).max(0))
        })),
        ReliabilitySpec::WeaklyHard {
            miss_tables,
            window_tables,
            groups,
        } => Box::new(groups.iter().map(|g| {
            let w = g
                .msgs
                .iter()
                .map(|m| window_tables[m.index()][chi[m.index()] as usize - 1])
                .chain(g.beacon_window)
                .min()
                .unwrap_or(0);
            let misses: i64 = g
                .msgs
                .iter()
                .map(|m| miss_tables[m.index()][chi[m.index()] as usize - 1])
                .sum();
            // Window overshoot is weighted heavily: it cannot be fixed
            // by other bumps once every window grew past K.
            let window_over = (w - g.max_window).max(0);
            let slack_deficit = (g.min_hits - (w - misses)).max(0);
            (g.task, window_over * 1_000 + slack_deficit)
        })),
    }
}

/// Total violation measure of a χ assignment: zero iff every group's
/// requirement holds.
fn violation(spec: &ReliabilitySpec, chi: &[u32]) -> i64 {
    group_terms(spec, chi).map(|(_, term)| term).sum()
}

/// The task blamed when repair gets stuck: the first group still violated.
fn blame(spec: &ReliabilitySpec, chi: &[u32]) -> crate::app::TaskId {
    group_terms(spec, chi)
        .find(|&(_, term)| term > 0)
        .map(|(task, _)| task)
        .expect("some group is violated")
}

fn choose_chi(
    app: &Application,
    cfg: &SchedulerConfig,
    spec: &ReliabilitySpec,
) -> Result<Vec<u32>, ScheduleError> {
    let msg_count = app.message_count();
    let mut chi = vec![1u32; msg_count];
    let slot_cost = |m: MsgId, c: u32| cfg.timing.slot_duration(c, app.message(m).width) as i64;
    let mut current = violation(spec, &chi);
    while current > 0 {
        // Try every single bump; keep the best improvement per µs.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..msg_count {
            if chi[i] >= cfg.chi_max {
                continue;
            }
            chi[i] += 1;
            let v = violation(spec, &chi);
            let gain = current - v;
            chi[i] -= 1;
            if gain <= 0 {
                continue;
            }
            let cost = (slot_cost(MsgId(i as u32), chi[i] + 1) - slot_cost(MsgId(i as u32), chi[i]))
                .max(1) as f64;
            let score = gain as f64 / cost;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, _)) => {
                chi[i] += 1;
                current = violation(spec, &chi);
            }
            None => {
                return Err(ScheduleError::InfeasibleReliability(blame(spec, &chi)));
            }
        }
    }
    Ok(chi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TaskId;
    use crate::config::RoundStructure;
    use crate::rounds::build_rounds;
    use netdag_glossy::NodeId;

    fn two_task_app() -> Application {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 100);
        let a = b.task("a", NodeId(1), 50);
        b.edge(s, a, 8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn greedy_meets_soft_requirement() {
        let app = two_task_app();
        let cfg = SchedulerConfig::greedy();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let table: Vec<i64> = (1..=cfg.chi_max as i64).map(|chi| -10_000 / chi).collect();
        let spec = ReliabilitySpec::Soft {
            log_tables: vec![table.into()],
            groups: vec![crate::encode::SoftGroup {
                msgs: vec![MsgId(0)],
                threshold: -2_500,
                task: TaskId(1),
            }],
        };
        let s = solve_greedy(&app, &cfg, &rounds, &spec, &Deadlines::new()).unwrap();
        s.check_feasible(&app).unwrap();
        assert_eq!(s.chi(MsgId(0)), 4);
    }

    #[test]
    fn greedy_reports_infeasible_with_blame() {
        let app = two_task_app();
        let cfg = SchedulerConfig::greedy();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let spec = ReliabilitySpec::Soft {
            log_tables: vec![vec![-100; cfg.chi_max as usize].into()],
            groups: vec![crate::encode::SoftGroup {
                msgs: vec![MsgId(0)],
                threshold: -50,
                task: TaskId(1),
            }],
        };
        assert_eq!(
            solve_greedy(&app, &cfg, &rounds, &spec, &Deadlines::new()).unwrap_err(),
            ScheduleError::InfeasibleReliability(TaskId(1))
        );
    }

    #[test]
    fn greedy_weakly_hard_stays_inside_window() {
        let app = two_task_app();
        let cfg = SchedulerConfig::greedy();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        let miss: Vec<i64> = (1..=cfg.chi_max as i64)
            .map(|n| ((10.0 * (-0.5 * n as f64).exp()).ceil() as i64) + 1)
            .collect();
        let window: Vec<i64> = (1..=cfg.chi_max as i64).map(|n| 20 * n).collect();
        let spec = ReliabilitySpec::WeaklyHard {
            miss_tables: vec![miss.clone().into()],
            window_tables: vec![window.clone().into()],
            groups: vec![crate::encode::WhGroup {
                msgs: vec![MsgId(0)],
                min_hits: 10,
                max_window: 40,
                beacon_window: None,
                task: TaskId(1),
            }],
        };
        let s = solve_greedy(&app, &cfg, &rounds, &spec, &Deadlines::new()).unwrap();
        s.check_feasible(&app).unwrap();
        let chi = s.chi(MsgId(0)) as usize;
        let w = window[chi - 1];
        let m = miss[chi - 1];
        assert!(w <= 40 && w - m >= 10, "chi {chi} gives W {w}, misses {m}");
    }

    #[test]
    fn greedy_weakly_hard_detects_window_infeasibility() {
        let app = two_task_app();
        let cfg = SchedulerConfig::greedy();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        // Windows all larger than K: no χ can satisfy W ≤ K.
        let spec = ReliabilitySpec::WeaklyHard {
            miss_tables: vec![vec![0; cfg.chi_max as usize].into()],
            window_tables: vec![(1..=cfg.chi_max as i64)
                .map(|n| 100 * n)
                .collect::<Vec<i64>>()
                .into()],
            groups: vec![crate::encode::WhGroup {
                msgs: vec![MsgId(0)],
                min_hits: 1,
                max_window: 40,
                beacon_window: None,
                task: TaskId(1),
            }],
        };
        assert_eq!(
            solve_greedy(&app, &cfg, &rounds, &spec, &Deadlines::new()).unwrap_err(),
            ScheduleError::InfeasibleReliability(TaskId(1))
        );
    }

    #[test]
    fn assemble_produces_feasible_schedule_for_any_chi() {
        let app = two_task_app();
        let cfg = SchedulerConfig::greedy();
        let rounds = build_rounds(&app, RoundStructure::PerLevel);
        for chi in 1..=4u32 {
            let s = assemble(&app, &cfg, &rounds, &[chi]);
            s.check_feasible(&app).unwrap();
        }
    }
}

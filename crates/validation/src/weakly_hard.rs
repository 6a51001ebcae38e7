//! Weakly hard validation with adversarial miss patterns (paper eq. (12)).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netdag_core::app::{Application, TaskId};
use netdag_core::constraints::WeaklyHardConstraints;
use netdag_core::schedule::Schedule;
use netdag_core::stat::WeaklyHardStatistic;
use netdag_runtime::{derive_seed, try_run_indexed, ExecPolicy};
use netdag_weakly_hard::{AdversarialSampler, Constraint, Dfa, Sequence, SynthesisError};

/// Validation verdict for one weakly hard-constrained task.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeaklyHardReport {
    /// The validated task.
    pub task: TaskId,
    /// The requirement `F_WH(τ)`.
    pub requirement: Constraint,
    /// Number of adversarial trials run.
    pub trials: usize,
    /// Trials whose conjunction behavior modeled the requirement.
    pub satisfied: usize,
    /// `satisfied == trials`.
    pub passed: bool,
}

/// Simulates one adversarial realization of a task's behavior: for every
/// predecessor flood `x`, synthesize a `κ`-length miss pattern in the
/// eq. (12) set of `λ_WH(χ(x))`, then conjoin.
///
/// # Errors
///
/// Propagates [`SynthesisError`] when a statistic is degenerate (zero
/// misses cannot be stressed adversarially).
pub fn simulate_task_adversarial<S: WeaklyHardStatistic + ?Sized, R: Rng + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
    kappa: usize,
    rng: &mut R,
) -> Result<Sequence, SynthesisError> {
    let mut omega = Sequence::all_hits(kappa);
    for m in app.message_predecessors(task) {
        let bound = stat.miss_constraint(schedule.chi(m));
        let sampler = AdversarialSampler::for_constraint(&bound)?;
        let pattern = sampler
            .sample(kappa, rng)
            .unwrap_or_else(|| Sequence::all_hits(kappa));
        omega = omega.and(&pattern);
    }
    Ok(omega)
}

/// Validates every weakly hard-constrained task: run `trials` adversarial
/// simulations of `κ` runs each and check `ω_τ ⊢ F_WH(τ)` exactly.
///
/// Every `(task, trial)` pair is an independent adversarial simulation,
/// fanned out across threads. Each pair derives its own ChaCha stream
/// from `(master_seed, task index, trial index)`, so the reports depend
/// only on `master_seed` and the inputs, never on `policy`.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from pattern synthesis; when several
/// trials fail, the error of the earliest `(task, trial)` pair is
/// returned.
#[allow(clippy::too_many_arguments)]
pub fn validate_weakly_hard_par<S: WeaklyHardStatistic + Sync + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &WeaklyHardConstraints,
    schedule: &Schedule,
    kappa: usize,
    trials: usize,
    master_seed: u64,
    policy: ExecPolicy,
) -> Result<Vec<WeaklyHardReport>, SynthesisError> {
    let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_VALIDATION_WEAKLY_HARD);
    let _trace = netdag_trace::span_with(
        netdag_obs::keys::SPAN_VALIDATION_WEAKLY_HARD,
        &[("kappa", kappa.into()), ("trials", trials.into())],
    );
    let tasks: Vec<(TaskId, Constraint)> = constraints.iter().collect();
    netdag_obs::counter!(netdag_obs::keys::VALIDATION_WEAKLY_HARD_TASKS).add(tasks.len() as u64);
    netdag_obs::counter!(netdag_obs::keys::VALIDATION_WEAKLY_HARD_TRIALS)
        .add((tasks.len() * trials) as u64);
    if trials == 0 {
        // Vacuously passed: there is no trial to fail.
        return Ok(tasks
            .into_iter()
            .map(|(task, requirement)| WeaklyHardReport {
                task,
                requirement,
                trials,
                satisfied: 0,
                passed: true,
            })
            .collect());
    }
    let verdicts = try_run_indexed(
        policy,
        tasks.len() * trials,
        |job| -> Result<bool, SynthesisError> {
            let (task, requirement) = tasks[job / trials];
            let trial = job % trials;
            let mut rng = ChaCha8Rng::from_seed(derive_seed(
                master_seed,
                (job / trials) as u64,
                trial as u64,
            ));
            let omega = simulate_task_adversarial(app, stat, schedule, task, kappa, &mut rng)?;
            Ok(requirement.models(&omega))
        },
    )?;
    Ok(tasks
        .iter()
        .zip(verdicts.chunks_exact(trials))
        .map(|(&(task, requirement), task_verdicts)| {
            let satisfied = task_verdicts.iter().filter(|&&ok| ok).count();
            WeaklyHardReport {
                task,
                requirement,
                trials,
                satisfied,
                passed: satisfied == trials,
            }
        })
        .collect())
}

/// Verdict of the exhaustive check for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExhaustiveVerdict {
    /// *Every* combination of flood behaviors permitted by the statistic
    /// satisfies the requirement — a proof, not a sample.
    Proven,
    /// A combination violating the requirement exists; the witness is a
    /// conjunction behavior that the statistic permits.
    CounterexampleExists,
    /// The statistic's windows are too large for the automaton product;
    /// fall back to [`validate_weakly_hard_par`] sampling.
    TooLarge,
}

/// Exhaustively verifies one task: builds the language of *all possible*
/// conjunction behaviors (the image of pointwise AND over the per-flood
/// satisfaction languages at the scheduled `χ`) and decides language
/// inclusion in `F_WH(τ)`'s satisfaction language.
///
/// This is stronger than the paper's eq. (12) sampling — it proves the
/// schedule correct against the statistic rather than failing to falsify
/// it — but is only tractable for small statistic windows (the automaton
/// product grows exponentially in the window).
///
/// Tasks with no message predecessors are trivially [`ExhaustiveVerdict::Proven`].
pub fn verify_task_exhaustive<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
    requirement: Constraint,
) -> ExhaustiveVerdict {
    let preds = app.message_predecessors(task);
    if preds.is_empty() {
        return ExhaustiveVerdict::Proven;
    }
    // Fold the conjunction image across the predecessors' bound languages
    // (pointwise AND is associative, so pairwise folding is exact).
    let mut bounds = preds.iter().map(|&m| stat.miss_constraint(schedule.chi(m)));
    let first = bounds.next().expect("non-empty");
    let mut image = match Dfa::from_constraint(&first) {
        Ok(dfa) => dfa,
        Err(_) => return ExhaustiveVerdict::TooLarge,
    };
    let mut max_window = first.window().unwrap_or(0);
    for bound in bounds {
        let next = match Dfa::from_constraint(&bound) {
            Ok(dfa) => dfa,
            Err(_) => return ExhaustiveVerdict::TooLarge,
        };
        image = match netdag_weakly_hard::conjunction::and_image_dfa(&image, &next) {
            Ok(dfa) => dfa,
            Err(_) => return ExhaustiveVerdict::TooLarge,
        };
        max_window = max_window.max(bound.window().unwrap_or(0));
    }
    let req_dfa = match Dfa::from_constraint(&requirement) {
        Ok(dfa) => dfa,
        Err(_) => return ExhaustiveVerdict::TooLarge,
    };
    let l = max_window.max(requirement.window().unwrap_or(0)) as usize;
    if image.intersect(&Dfa::min_length(l)).included_in(&req_dfa) {
        ExhaustiveVerdict::Proven
    } else {
        ExhaustiveVerdict::CounterexampleExists
    }
}

/// Runs [`verify_task_exhaustive`] for every constrained task.
pub fn validate_weakly_hard_exhaustive<S: WeaklyHardStatistic + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &WeaklyHardConstraints,
    schedule: &Schedule,
) -> Vec<(TaskId, ExhaustiveVerdict)> {
    constraints
        .iter()
        .map(|(task, req)| (task, verify_task_exhaustive(app, stat, schedule, task, req)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::stat::Eq13Statistic;
    use netdag_core::weakly_hard::schedule_weakly_hard;
    use netdag_glossy::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_hop() -> (Application, TaskId) {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 400);
        let a = b.task("a", NodeId(1), 300);
        b.edge(s, a, 8).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn scheduled_weakly_hard_constraints_survive_adversarial_patterns() {
        let (app, a) = two_hop();
        let stat = Eq13Statistic::new(8);
        let mut f = WeaklyHardConstraints::new();
        f.set(a, Constraint::any_hit(10, 40).unwrap()).unwrap();
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let reports =
            validate_weakly_hard_par(&app, &stat, &f, &out.schedule, 400, 40, 5, ExecPolicy::Auto)
                .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].passed, "{reports:?}");
    }

    #[test]
    fn unmet_requirement_is_caught() {
        let (app, a) = two_hop();
        let stat = Eq13Statistic::new(8);
        // Schedule with no constraints: χ = 1 ⇒ flood bound (8̄, 20).
        let out = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        // Demand more than (8̄, 20) supports: ≥ 16 hits per 20.
        let mut f = WeaklyHardConstraints::new();
        f.set(a, Constraint::any_hit(16, 20).unwrap()).unwrap();
        let reports =
            validate_weakly_hard_par(&app, &stat, &f, &out.schedule, 300, 20, 6, ExecPolicy::Auto)
                .unwrap();
        assert!(!reports[0].passed, "{reports:?}");
        assert!(reports[0].satisfied < reports[0].trials);
    }

    #[test]
    fn parallel_validation_invariant_under_thread_count() {
        let (app, a) = two_hop();
        let stat = Eq13Statistic::new(8);
        let mut f = WeaklyHardConstraints::new();
        f.set(a, Constraint::any_hit(10, 40).unwrap()).unwrap();
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let serial = validate_weakly_hard_par(
            &app,
            &stat,
            &f,
            &out.schedule,
            400,
            40,
            17,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert_eq!(serial.len(), 1);
        assert!(serial[0].passed, "{serial:?}");
        for threads in [2, 8] {
            let par = validate_weakly_hard_par(
                &app,
                &stat,
                &f,
                &out.schedule,
                400,
                40,
                17,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn adversarial_sequences_respect_each_flood_bound() {
        let (app, a) = two_hop();
        let stat = Eq13Statistic::new(8);
        let out = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let bound = netdag_core::weakly_hard::derived_bound(&app, &stat, &out.schedule, a)
            .expect("has preds");
        for _ in 0..20 {
            let omega =
                simulate_task_adversarial(&app, &stat, &out.schedule, a, 200, &mut rng).unwrap();
            // Soundness of ⊕: the conjunction models the folded bound.
            assert!(bound.models(&omega), "bound {bound}, omega {omega}");
        }
    }

    #[test]
    fn exhaustive_verification_proves_scheduled_constraints() {
        use netdag_core::stat::TableWeaklyHardStatistic;
        use netdag_glossy::WeaklyHardProfile;

        let (app, a) = two_hop();
        // Small-window statistic so the automaton product stays tractable:
        // misses per window of 10 falling with χ.
        let stat: TableWeaklyHardStatistic =
            WeaklyHardProfile::from_table(1, 10, vec![5, 4, 3, 2, 2, 1, 1, 1])
                .unwrap()
                .into();
        let mut f = WeaklyHardConstraints::new();
        f.set(a, Constraint::any_hit(6, 10).unwrap()).unwrap();
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let verdicts = validate_weakly_hard_exhaustive(&app, &stat, &f, &out.schedule);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].1, ExhaustiveVerdict::Proven, "{verdicts:?}");

        // A requirement beyond what the scheduled χ guarantees has a
        // counterexample: check against a stricter, unscheduled demand.
        let strict = Constraint::any_hit(10, 10).unwrap();
        assert_eq!(
            verify_task_exhaustive(&app, &stat, &out.schedule, a, strict),
            ExhaustiveVerdict::CounterexampleExists
        );

        // Tasks without predecessors are trivially proven.
        let s = app.task_by_name("s").unwrap();
        assert_eq!(
            verify_task_exhaustive(&app, &stat, &out.schedule, s, strict),
            ExhaustiveVerdict::Proven
        );
    }

    #[test]
    fn exhaustive_verification_reports_oversized_windows() {
        let (app, a) = two_hop();
        let stat = Eq13Statistic::new(8); // windows ≥ 20: automaton too big
        let out = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        assert_eq!(
            verify_task_exhaustive(
                &app,
                &stat,
                &out.schedule,
                a,
                Constraint::any_hit(5, 60).unwrap()
            ),
            ExhaustiveVerdict::TooLarge
        );
    }

    #[test]
    fn task_with_no_preds_is_all_hits() {
        let (app, _) = two_hop();
        let stat = Eq13Statistic::new(8);
        let out = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        let s = app.task_by_name("s").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let omega = simulate_task_adversarial(&app, &stat, &out.schedule, s, 50, &mut rng).unwrap();
        assert_eq!(omega.hit_rate(), 1.0);
    }
}

//! Soft-constraint validation (paper eq. (11)).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netdag_core::app::{Application, TaskId};
use netdag_core::constraints::SoftConstraints;
use netdag_core::schedule::Schedule;
use netdag_core::stat::SoftStatistic;
use netdag_runtime::{derive_seed, run_indexed, ExecPolicy};
use netdag_weakly_hard::Sequence;

/// Simulates `kappa` independent runs of a task: each predecessor flood
/// `x` succeeds i.i.d. with probability `λ_s(χ(x))` (eq. (11)); the task's
/// behavior is the pointwise conjunction.
pub fn simulate_task<S: SoftStatistic + ?Sized, R: Rng + ?Sized>(
    app: &Application,
    stat: &S,
    schedule: &Schedule,
    task: TaskId,
    kappa: usize,
    rng: &mut R,
) -> Sequence {
    netdag_obs::counter!(netdag_obs::keys::VALIDATION_SOFT_SAMPLES).add(kappa as u64);
    let preds = app.message_predecessors(task);
    let mut omega = Sequence::all_hits(kappa);
    for m in preds {
        let p = stat.success_rate(schedule.chi(m));
        let flood: Sequence = (0..kappa).map(|_| rng.gen::<f64>() < p).collect();
        omega = omega.and(&flood);
    }
    omega
}

/// The Hoeffding deviation bound: with probability at least `confidence`,
/// an empirical mean of `kappa` i.i.d. Bernoulli samples lies within this
/// margin of its expectation.
///
/// # Panics
///
/// Panics if `kappa == 0` or `confidence ∉ (0, 1)`.
pub fn hoeffding_margin(kappa: usize, confidence: f64) -> f64 {
    assert!(kappa > 0, "kappa must be positive");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    ((1.0 / (1.0 - confidence)).ln() / (2.0 * kappa as f64)).sqrt()
}

/// Validation verdict for one soft-constrained task.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftReport {
    /// The validated task.
    pub task: TaskId,
    /// Required success probability `F_s(τ)`.
    pub required: f64,
    /// Observed test statistic `v = Σ ω_τ(t) / κ`.
    pub observed: f64,
    /// Statistical margin used for the verdict.
    pub margin: f64,
    /// `observed ≥ required − margin`.
    pub passed: bool,
}

/// Chunk of Bernoulli samples handed to one parallel job in
/// [`validate_soft_par`]. Fixed so chunk boundaries — and therefore the
/// derived RNG streams — never depend on the thread count.
const SOFT_CHUNK: usize = 1024;

/// Validates every soft-constrained task of a schedule by simulation:
/// samples eq. (11), computes `v`, and tests `v ≥ F_s(τ) − margin` with a
/// Hoeffding margin at the given confidence.
///
/// The `kappa` samples of every constrained task are split into fixed
/// `SOFT_CHUNK`-sized (1024) chunks and fanned out across threads. Each
/// `(task, chunk)` pair derives its own ChaCha stream from
/// `(master_seed, task index, chunk index)`, so the reports depend only
/// on `master_seed` and the inputs, never on `policy`.
///
/// # Panics
///
/// Panics if `kappa == 0` or `confidence ∉ (0, 1)` (see
/// [`hoeffding_margin`]).
#[allow(clippy::too_many_arguments)]
pub fn validate_soft_par<S: SoftStatistic + Sync + ?Sized>(
    app: &Application,
    stat: &S,
    constraints: &SoftConstraints,
    schedule: &Schedule,
    kappa: usize,
    confidence: f64,
    master_seed: u64,
    policy: ExecPolicy,
) -> Vec<SoftReport> {
    let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_VALIDATION_SOFT);
    let _trace = netdag_trace::span_with(
        netdag_obs::keys::SPAN_VALIDATION_SOFT,
        &[("kappa", kappa.into())],
    );
    let margin = hoeffding_margin(kappa, confidence);
    let tasks: Vec<(TaskId, f64)> = constraints.iter().collect();
    netdag_obs::counter!(netdag_obs::keys::VALIDATION_SOFT_TASKS).add(tasks.len() as u64);
    let chunks = kappa.div_ceil(SOFT_CHUNK);
    let hits = run_indexed(policy, tasks.len() * chunks, |job| {
        let (task, _) = tasks[job / chunks];
        let chunk = job % chunks;
        let len = SOFT_CHUNK.min(kappa - chunk * SOFT_CHUNK);
        let mut rng = ChaCha8Rng::from_seed(derive_seed(
            master_seed,
            (job / chunks) as u64,
            chunk as u64,
        ));
        simulate_task(app, stat, schedule, task, len, &mut rng).count_hits()
    });
    tasks
        .iter()
        .zip(hits.chunks_exact(chunks))
        .map(|(&(task, required), task_hits)| {
            let observed = task_hits.iter().sum::<usize>() as f64 / kappa as f64;
            SoftReport {
                task,
                required,
                observed,
                margin,
                passed: observed >= required - margin,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::soft::schedule_soft;
    use netdag_core::stat::Eq15Statistic;
    use netdag_glossy::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chain() -> (Application, TaskId) {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 400);
        let c = b.task("c", NodeId(1), 900);
        let a = b.task("a", NodeId(2), 300);
        b.edge(s, c, 8).unwrap();
        b.edge(c, a, 4).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn scheduled_soft_constraints_validate() {
        let (app, a) = chain();
        let stat = Eq15Statistic::new(1.0, 8);
        let mut f = SoftConstraints::new();
        f.set(a, 0.85).unwrap();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let reports = validate_soft_par(
            &app,
            &stat,
            &f,
            &out.schedule,
            5_000,
            0.999,
            1,
            ExecPolicy::Auto,
        );
        assert_eq!(reports.len(), 1);
        assert!(reports[0].passed, "{reports:?}");
        assert!(reports[0].observed >= 0.85 - reports[0].margin);
    }

    #[test]
    fn undersized_chi_fails_validation() {
        let (app, a) = chain();
        let stat = Eq15Statistic::new(0.6, 8);
        // Build a deliberately weak schedule: all χ = 1 via no constraints.
        let f_empty = SoftConstraints::new();
        let out = schedule_soft(&app, &stat, &f_empty, &SchedulerConfig::greedy()).unwrap();
        // Now validate against a demanding requirement it never satisfied.
        let mut f = SoftConstraints::new();
        f.set(a, 0.95).unwrap();
        let reports = validate_soft_par(
            &app,
            &stat,
            &f,
            &out.schedule,
            5_000,
            0.999,
            2,
            ExecPolicy::Auto,
        );
        assert!(!reports[0].passed, "{reports:?}");
    }

    #[test]
    fn parallel_validation_invariant_under_thread_count() {
        let (app, a) = chain();
        let stat = Eq15Statistic::new(1.0, 8);
        let mut f = SoftConstraints::new();
        f.set(a, 0.85).unwrap();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        // kappa deliberately not a multiple of the chunk size.
        let kappa = 5_000;
        let serial = validate_soft_par(
            &app,
            &stat,
            &f,
            &out.schedule,
            kappa,
            0.999,
            11,
            ExecPolicy::Serial,
        );
        assert_eq!(serial.len(), 1);
        assert!(serial[0].passed, "{serial:?}");
        for threads in [2, 8] {
            let par = validate_soft_par(
                &app,
                &stat,
                &f,
                &out.schedule,
                kappa,
                0.999,
                11,
                ExecPolicy::Threads(threads),
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn simulate_task_with_no_preds_is_all_hits() {
        let (app, _) = chain();
        let stat = Eq15Statistic::new(1.0, 8);
        let f = SoftConstraints::new();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        let s = app.task_by_name("s").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let omega = simulate_task(&app, &stat, &out.schedule, s, 100, &mut rng);
        assert_eq!(omega.hit_rate(), 1.0);
    }

    #[test]
    fn empirical_rate_tracks_product() {
        let (app, a) = chain();
        let stat = Eq15Statistic::new(1.2, 8);
        let f = SoftConstraints::new();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        let expect: f64 = app
            .message_predecessors(a)
            .into_iter()
            .map(|m| stat.success_rate(out.schedule.chi(m)))
            .product();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let omega = simulate_task(&app, &stat, &out.schedule, a, 20_000, &mut rng);
        assert!(
            (omega.hit_rate() - expect).abs() < 0.02,
            "observed {} vs expected {expect}",
            omega.hit_rate()
        );
    }

    #[test]
    fn hoeffding_margin_shrinks_with_kappa() {
        let m100 = hoeffding_margin(100, 0.99);
        let m10000 = hoeffding_margin(10_000, 0.99);
        assert!(m10000 < m100);
        assert!((hoeffding_margin(100, 0.99) - (f64::ln(100.0) / 200.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_panics() {
        hoeffding_margin(10, 1.0);
    }
}

//! Simulation-based validation of NETDAG schedules (paper § IV-A).
//!
//! A schedule promises task-level real-time behavior; this crate checks
//! those promises three ways:
//!
//! * [`soft`] — eq. (11): per-flood Bernoulli sampling at the scheduled
//!   `χ`, conjunction across `pred(τ)`, and a Hoeffding-style test of the
//!   observed hit rate `v` against `F_s(τ)`;
//! * [`weakly_hard`] — eq. (12): adversarial per-flood miss patterns at
//!   the scheduled `λ_WH(χ(x))`, conjunction, and an exact check
//!   `ω_τ ⊢ F_WH(τ)`;
//! * [`full_stack`] — no statistic at all: replay the schedule over the
//!   actual [`netdag_lwb`] bus and [`netdag_glossy`] floods and check the
//!   observed task traces;
//! * [`modes`] — multi-mode deployments: splice per-mode simulations at a
//!   runtime mode switch and check that soft and weakly hard guarantees
//!   hold on windows *spanning* the switch, not just within each mode.
//!
//! # Example
//!
//! ```
//! use netdag_core::prelude::*;
//! use netdag_core::stat::Eq13Statistic;
//! use netdag_glossy::NodeId;
//! use netdag_runtime::ExecPolicy;
//! use netdag_validation::weakly_hard::validate_weakly_hard_par;
//! use netdag_weakly_hard::Constraint;
//!
//! let mut b = Application::builder();
//! let s = b.task("sense", NodeId(0), 500);
//! let a = b.task("act", NodeId(1), 300);
//! b.edge(s, a, 8)?;
//! let app = b.build()?;
//! let mut f = WeaklyHardConstraints::new();
//! f.set(a, Constraint::any_hit(10, 40)?)?;
//! let stat = Eq13Statistic::new(8);
//! let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::default())?;
//!
//! let reports =
//!     validate_weakly_hard_par(&app, &stat, &f, &out.schedule, 400, 20, 7, ExecPolicy::Auto)?;
//! assert!(reports.iter().all(|r| r.passed));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod full_stack;
pub mod modes;
pub mod soft;
pub mod weakly_hard;

pub use full_stack::{validate_on_bus, BusReport};
pub use modes::{
    cross_requirement, validate_soft_switch, validate_weakly_hard_switch, SoftSwitchReport,
    WeaklyHardSwitchReport,
};
pub use soft::{hoeffding_margin, validate_soft_par, SoftReport};
pub use weakly_hard::{validate_weakly_hard_par, WeaklyHardReport};

use netdag_core::app::Application;
use netdag_core::constraints::{SoftConstraints, WeaklyHardConstraints};
use netdag_core::schedule::Schedule;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_runtime::ExecPolicy;
use netdag_weakly_hard::SynthesisError;

/// The knobs of one § IV-A validation run. `Default` holds the values
/// `netdag validate` and the daemon's `validate` op use when a flag or
/// request field is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSettings {
    /// Monte-Carlo runs per task (soft), and the upper end of the
    /// activations per adversarial trial (weakly hard).
    pub kappa: usize,
    /// Adversarial trials per task (weakly hard).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the simulation fan-out: 0 = auto (one per
    /// core), 1 = serial, n = exactly n. Results are identical at every
    /// setting.
    pub threads: usize,
}

impl Default for ValidationSettings {
    fn default() -> Self {
        ValidationSettings {
            kappa: 10_000,
            trials: 50,
            seed: 2020,
            threads: 1,
        }
    }
}

/// The § IV-A verdict on a schedule's contract, as `(passed, report)`;
/// `netdag validate` and the daemon's `validate` op both report it.
/// Soft constraints go first: `kappa` Monte-Carlo runs per task under
/// the eq. (15) statistic at `fss`, tested at confidence 0.999. Weakly
/// hard ones follow: `trials` adversarial runs of `min(kappa, 2000)`
/// activations per task under eq. (13). Each task adds one `… →
/// PASS|FAIL` line, and `passed` holds when every line passes.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from adversarial pattern synthesis.
pub fn validate_contract(
    app: &Application,
    schedule: &Schedule,
    soft: Option<(&SoftConstraints, f64)>,
    weakly_hard: Option<&WeaklyHardConstraints>,
    settings: &ValidationSettings,
) -> Result<(bool, String), SynthesisError> {
    let ValidationSettings {
        kappa,
        trials,
        seed,
        threads,
    } = *settings;
    let policy = ExecPolicy::from_threads(threads);
    let mut report = String::new();
    let mut passed = true;
    if let Some((f, fss)) = soft {
        let stat = Eq15Statistic::new(fss, 16);
        for r in validate_soft_par(app, &stat, f, schedule, kappa, 0.999, seed, policy) {
            passed &= r.passed;
            report.push_str(&format!(
                "soft {}: v = {:.4} vs {:.3} (margin {:.4}) → {}\n",
                app.task(r.task).name,
                r.observed,
                r.required,
                r.margin,
                if r.passed { "PASS" } else { "FAIL" }
            ));
        }
    }
    if let Some(f) = weakly_hard {
        let stat = Eq13Statistic::new(16);
        let reports = validate_weakly_hard_par(
            app,
            &stat,
            f,
            schedule,
            kappa.min(2_000),
            trials,
            seed,
            policy,
        )?;
        for r in reports {
            passed &= r.passed;
            report.push_str(&format!(
                "weakly hard {}: {} held in {}/{} adversarial trials → {}\n",
                app.task(r.task).name,
                r.requirement,
                r.satisfied,
                r.trials,
                if r.passed { "PASS" } else { "FAIL" }
            ));
        }
    }
    Ok((passed, report))
}

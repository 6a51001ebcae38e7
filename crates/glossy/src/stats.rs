//! Monte-Carlo profiling of network statistics `λ(N_TX)`.
//!
//! NETDAG consumes the network through two *statistics*:
//!
//! * the **soft** statistic `λ_s : N_TX → [0, 1]`, the probability that a
//!   flood with the given retransmission parameter succeeds, assumed
//!   monotonically increasing;
//! * the **weakly hard** statistic `λ_WH : N_TX → (m̄, K)`, a bound on the
//!   misses a run of floods can accumulate per window, monotonically
//!   increasing w.r.t. `⪯`.
//!
//! The paper obtains these from testbed measurements; this module measures
//! them on the [`crate::flood`] simulator instead, then *monotonizes* the
//! raw estimates so the scheduler's assumptions hold by construction.
//!
//! Profiling is instrumented through the process-global `netdag_obs`
//! recorder: every simulated flood bumps `glossy.floods_simulated`, and
//! the profilers time themselves under the `glossy.profile_*` spans.

use std::error::Error;
use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netdag_runtime::{derive_seed, try_run_indexed, ExecPolicy};
use netdag_weakly_hard::{Constraint, Sequence};

use crate::flood::{simulate_flood, FloodError, FloodParams};
use crate::link::LossModel;
use crate::topology::{NodeId, Topology};

/// Runs per Monte-Carlo chunk in the parallel profilers. Chunk
/// boundaries — and therefore every chunk's derived RNG stream — depend
/// only on this constant and the chunk index, never on the thread
/// count, which is what makes parallel runs bit-identical to each other.
pub const PROFILE_CHUNK: u32 = 256;

/// Error returned by the profilers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// `n_tx_max` must be at least `n_tx_min ≥ 1`.
    BadNtxRange {
        /// Smallest `N_TX` profiled.
        min: u32,
        /// Largest `N_TX` profiled.
        max: u32,
    },
    /// At least one run per `N_TX` value is required.
    NoRuns,
    /// Flood simulation rejected its parameters (bad initiator).
    Flood(FloodError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::BadNtxRange { min, max } => {
                write!(f, "invalid N_TX range [{min}, {max}] (need 1 ≤ min ≤ max)")
            }
            ProfileError::NoRuns => write!(f, "at least one run per N_TX value is required"),
            ProfileError::Flood(e) => write!(f, "flood simulation failed: {e}"),
        }
    }
}

impl Error for ProfileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProfileError::Flood(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FloodError> for ProfileError {
    fn from(e: FloodError) -> Self {
        ProfileError::Flood(e)
    }
}

/// Fixed partition of `total` Monte-Carlo runs into [`PROFILE_CHUNK`]-sized
/// chunks: returns the chunk count; chunk `c` covers runs
/// `[c * PROFILE_CHUNK, ...)` and has [`chunk_len`] runs.
fn chunk_count(total: u32) -> u32 {
    total.div_ceil(PROFILE_CHUNK)
}

fn chunk_len(total: u32, chunk: u32) -> u32 {
    let start = chunk * PROFILE_CHUNK;
    PROFILE_CHUNK.min(total - start)
}

/// Checks the profilers' shared arguments and returns the `N_TX` range's
/// bounds: `1 ≤ min ≤ max` and a non-zero `window` (when the profiler
/// has one), then at least one run.
fn checked_range(
    n_tx_range: &std::ops::RangeInclusive<u32>,
    window: Option<u32>,
    runs: u32,
) -> Result<(u32, u32), ProfileError> {
    let (min, max) = (*n_tx_range.start(), *n_tx_range.end());
    if min == 0 || min > max || window == Some(0) {
        return Err(ProfileError::BadNtxRange { min, max });
    }
    if runs == 0 {
        return Err(ProfileError::NoRuns);
    }
    Ok((min, max))
}

/// An empirically measured soft statistic `λ_s(N_TX)`.
///
/// # Example
///
/// ```
/// use netdag_glossy::{SoftProfile, Topology, link::Bernoulli, NodeId};
/// use rand::SeedableRng;
///
/// let topo = Topology::line(4)?;
/// let mut link = Bernoulli::new(0.8)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let profile = SoftProfile::measure(&topo, &mut link, NodeId(0), 1..=5, 200, &mut rng)?;
/// assert!(profile.lambda(5) >= profile.lambda(1)); // monotonized
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftProfile {
    n_tx_min: u32,
    success: Vec<f64>,
}

impl SoftProfile {
    /// Measures flood success rates over `runs` floods per `N_TX` value and
    /// monotonizes the result (running maximum), since the true `λ_s` is
    /// non-decreasing in `N_TX`.
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    pub fn measure<L: LossModel, R: Rng + ?Sized>(
        topo: &Topology,
        link: &mut L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        runs: u32,
        rng: &mut R,
    ) -> Result<Self, ProfileError> {
        let (min, max) = checked_range(&n_tx_range, None, runs)?;
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_SOFT);
        let mut success = Vec::with_capacity((max - min + 1) as usize);
        for n_tx in min..=max {
            let mut ok = 0u32;
            for _ in 0..runs {
                let out = simulate_flood(topo, link, &FloodParams { initiator, n_tx }, rng)
                    .map_err(ProfileError::Flood)?;
                if out.all_reached() {
                    ok += 1;
                }
                link.advance_between_floods(rng);
            }
            success.push(ok as f64 / runs as f64);
        }
        Self::from_table(min, success)
    }

    /// Parallel, seed-deterministic variant of [`SoftProfile::measure`].
    ///
    /// The `runs` floods of each `N_TX` value split into fixed
    /// [`PROFILE_CHUNK`]-sized chunks; chunk `c` of `N_TX = n` runs on a
    /// fresh clone of `link` with its own ChaCha stream seeded by
    /// `derive_seed(master_seed, n, c)`. Per-`N_TX` success counts are
    /// integer sums over chunks, so the result depends only on
    /// `(topo, link, master_seed)` — any [`ExecPolicy`] produces
    /// bit-identical tables. (The table differs from the serial
    /// [`SoftProfile::measure`] for a given RNG, which threads one link
    /// state and one stream through all runs; both are valid estimators
    /// of the same statistic.)
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    pub fn measure_par<L: LossModel + Clone + Sync>(
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        runs: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<Self, ProfileError> {
        let (min, max) = checked_range(&n_tx_range, None, runs)?;
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_SOFT);
        let n_values = max - min + 1;
        let chunks = chunk_count(runs);
        let jobs = (n_values * chunks) as usize;
        let ok_counts: Vec<u32> =
            try_run_indexed(policy, jobs, |job| -> Result<u32, ProfileError> {
                let n_tx = min + job as u32 / chunks;
                let chunk = job as u32 % chunks;
                let mut rng = ChaCha8Rng::from_seed(derive_seed(
                    master_seed,
                    u64::from(n_tx),
                    u64::from(chunk),
                ));
                let mut link = link.clone();
                let mut ok = 0u32;
                for _ in 0..chunk_len(runs, chunk) {
                    let out =
                        simulate_flood(topo, &mut link, &FloodParams { initiator, n_tx }, &mut rng)
                            .map_err(ProfileError::Flood)?;
                    if out.all_reached() {
                        ok += 1;
                    }
                    link.advance_between_floods(&mut rng);
                }
                Ok(ok)
            })?;
        let success: Vec<f64> = ok_counts
            .chunks_exact(chunks as usize)
            .map(|per_ntx| f64::from(per_ntx.iter().sum::<u32>()) / f64::from(runs))
            .collect();
        Self::from_table(min, success)
    }

    /// Builds a profile from an explicit table (`table[0]` is
    /// `λ_s(n_tx_min)`), monotonizing it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NoRuns`] for an empty table or
    /// [`ProfileError::BadNtxRange`] for `n_tx_min == 0`.
    pub fn from_table(n_tx_min: u32, mut table: Vec<f64>) -> Result<Self, ProfileError> {
        if n_tx_min == 0 {
            return Err(ProfileError::BadNtxRange {
                min: 0,
                max: n_tx_min + table.len() as u32,
            });
        }
        if table.is_empty() {
            return Err(ProfileError::NoRuns);
        }
        for i in 1..table.len() {
            if table[i] < table[i - 1] {
                table[i] = table[i - 1];
            }
        }
        Ok(SoftProfile {
            n_tx_min,
            success: table,
        })
    }

    /// Smallest profiled `N_TX`.
    pub fn n_tx_min(&self) -> u32 {
        self.n_tx_min
    }

    /// Largest profiled `N_TX`.
    pub fn n_tx_max(&self) -> u32 {
        self.n_tx_min + self.success.len() as u32 - 1
    }

    /// The statistic `λ_s(n)`, clamped to the profiled range.
    pub fn lambda(&self, n_tx: u32) -> f64 {
        let idx = n_tx
            .clamp(self.n_tx_min, self.n_tx_max())
            .saturating_sub(self.n_tx_min) as usize;
        self.success[idx]
    }

    /// The raw table, `table[i] = λ_s(n_tx_min + i)`.
    pub fn table(&self) -> &[f64] {
        &self.success
    }
}

/// An empirically measured weakly hard statistic `λ_WH(N_TX)` in miss form
/// `(m̄, K)` over a fixed window `K`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeaklyHardProfile {
    n_tx_min: u32,
    window: u32,
    misses: Vec<u32>,
}

impl WeaklyHardProfile {
    /// Runs `kappa` consecutive floods per `N_TX` value, records the
    /// hit/miss sequence of the *flood success* event, extracts the worst
    /// observed miss count over any window of `window`, adds
    /// `safety_margin`, and monotonizes (running minimum in `N_TX`).
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure<L: LossModel, R: Rng + ?Sized>(
        topo: &Topology,
        link: &mut L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        window: u32,
        kappa: u32,
        safety_margin: u32,
        rng: &mut R,
    ) -> Result<Self, ProfileError> {
        let (min, max) = checked_range(&n_tx_range, Some(window), kappa)?;
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_WEAKLY_HARD);
        let mut misses = Vec::with_capacity((max - min + 1) as usize);
        for n_tx in min..=max {
            let mut seq = Sequence::with_capacity(kappa as usize);
            for _ in 0..kappa {
                let out = simulate_flood(topo, link, &FloodParams { initiator, n_tx }, rng)
                    .map_err(ProfileError::Flood)?;
                seq.push(out.all_reached());
                link.advance_between_floods(rng);
            }
            let worst = seq.max_window_misses(window as usize).unwrap_or(0) as u32;
            misses.push(worst + safety_margin);
        }
        Self::from_table(min, window, misses)
    }

    /// Parallel, seed-deterministic variant of
    /// [`WeaklyHardProfile::measure`], chunked like
    /// [`SoftProfile::measure_par`].
    ///
    /// Each chunk simulates its slice of the `kappa`-flood run on a fresh
    /// clone of `link` with its own derived ChaCha stream; the per-chunk
    /// hit/miss slices concatenate *in chunk order* into the full
    /// sequence before the windowed miss count is taken, so the table is
    /// a pure function of `(topo, link, master_seed)` — identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_par<L: LossModel + Clone + Sync>(
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        window: u32,
        kappa: u32,
        safety_margin: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<Self, ProfileError> {
        let (min, max) = checked_range(&n_tx_range, Some(window), kappa)?;
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_WEAKLY_HARD);
        let n_values = max - min + 1;
        let chunks = chunk_count(kappa);
        let jobs = (n_values * chunks) as usize;
        let slices: Vec<Vec<bool>> =
            try_run_indexed(policy, jobs, |job| -> Result<Vec<bool>, ProfileError> {
                let n_tx = min + job as u32 / chunks;
                let chunk = job as u32 % chunks;
                let mut rng = ChaCha8Rng::from_seed(derive_seed(
                    master_seed,
                    u64::from(n_tx),
                    u64::from(chunk),
                ));
                let mut link = link.clone();
                let len = chunk_len(kappa, chunk);
                let mut slice = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    let out =
                        simulate_flood(topo, &mut link, &FloodParams { initiator, n_tx }, &mut rng)
                            .map_err(ProfileError::Flood)?;
                    slice.push(out.all_reached());
                    link.advance_between_floods(&mut rng);
                }
                Ok(slice)
            })?;
        let misses: Vec<u32> = slices
            .chunks_exact(chunks as usize)
            .map(|per_ntx| {
                let seq: Sequence = per_ntx.iter().flatten().copied().collect();
                let worst = seq.max_window_misses(window as usize).unwrap_or(0) as u32;
                worst + safety_margin
            })
            .collect();
        Self::from_table(min, window, misses)
    }

    /// Builds a profile from an explicit miss table, monotonizing it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NoRuns`] for an empty table or
    /// [`ProfileError::BadNtxRange`] for a zero `n_tx_min`/`window`.
    pub fn from_table(
        n_tx_min: u32,
        window: u32,
        mut misses: Vec<u32>,
    ) -> Result<Self, ProfileError> {
        if n_tx_min == 0 || window == 0 {
            return Err(ProfileError::BadNtxRange {
                min: n_tx_min,
                max: n_tx_min + misses.len() as u32,
            });
        }
        if misses.is_empty() {
            return Err(ProfileError::NoRuns);
        }
        for m in &mut misses {
            *m = (*m).min(window);
        }
        // Monotonize: more retransmissions may never allow more misses.
        for i in 1..misses.len() {
            if misses[i] > misses[i - 1] {
                misses[i] = misses[i - 1];
            }
        }
        Ok(WeaklyHardProfile {
            n_tx_min,
            window,
            misses,
        })
    }

    /// Smallest profiled `N_TX`.
    pub fn n_tx_min(&self) -> u32 {
        self.n_tx_min
    }

    /// Largest profiled `N_TX`.
    pub fn n_tx_max(&self) -> u32 {
        self.n_tx_min + self.misses.len() as u32 - 1
    }

    /// The profiling window `K`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The statistic `λ_WH(n)` as a miss-form constraint, clamped to the
    /// profiled range.
    pub fn lambda(&self, n_tx: u32) -> Constraint {
        let idx = n_tx
            .clamp(self.n_tx_min, self.n_tx_max())
            .saturating_sub(self.n_tx_min) as usize;
        Constraint::AnyMiss {
            m: self.misses[idx],
            k: self.window,
        }
    }

    /// The raw miss table, `table[i] = misses(n_tx_min + i)`.
    pub fn miss_table(&self) -> &[u32] {
        &self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Bernoulli, GilbertElliott, Perfect};
    use netdag_weakly_hard::order;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn soft_profile_monotone_and_sane() {
        let topo = Topology::line(4).unwrap();
        let mut link = Bernoulli::new(0.7).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let p = SoftProfile::measure(&topo, &mut link, NodeId(0), 1..=6, 300, &mut rng).unwrap();
        assert_eq!(p.n_tx_min(), 1);
        assert_eq!(p.n_tx_max(), 6);
        for n in 1..6 {
            assert!(p.lambda(n + 1) >= p.lambda(n));
        }
        // Out-of-range clamps.
        assert_eq!(p.lambda(0), p.lambda(1));
        assert_eq!(p.lambda(99), p.lambda(6));
        // A lossy line should not be perfect at N_TX = 1 but decent at 6.
        assert!(p.lambda(1) < 1.0);
        assert!(p.lambda(6) > p.lambda(1));
    }

    #[test]
    fn soft_profile_perfect_channel_is_one() {
        let topo = Topology::star(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let p = SoftProfile::measure(&topo, &mut Perfect::new(), NodeId(0), 1..=3, 50, &mut rng)
            .unwrap();
        assert!(p.table().iter().all(|&s| s == 1.0));
    }

    #[test]
    fn soft_profile_validation() {
        let topo = Topology::line(2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            SoftProfile::measure(&topo, &mut Perfect::new(), NodeId(0), 0..=3, 10, &mut rng),
            Err(ProfileError::BadNtxRange { .. })
        ));
        assert!(matches!(
            SoftProfile::measure(&topo, &mut Perfect::new(), NodeId(0), 1..=3, 0, &mut rng),
            Err(ProfileError::NoRuns)
        ));
        assert!(matches!(
            SoftProfile::measure(&topo, &mut Perfect::new(), NodeId(9), 1..=3, 5, &mut rng),
            Err(ProfileError::Flood(_))
        ));
    }

    #[test]
    fn soft_from_table_monotonizes() {
        let p = SoftProfile::from_table(1, vec![0.5, 0.4, 0.9]).unwrap();
        assert_eq!(p.table(), &[0.5, 0.5, 0.9]);
        assert!(SoftProfile::from_table(0, vec![0.5]).is_err());
        assert!(SoftProfile::from_table(1, vec![]).is_err());
    }

    #[test]
    fn weakly_hard_profile_monotone_in_preorder() {
        let topo = Topology::line(4).unwrap();
        let mut link = GilbertElliott::new(0.05, 0.3, 0.98, 0.3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let p =
            WeaklyHardProfile::measure(&topo, &mut link, NodeId(0), 1..=5, 20, 400, 1, &mut rng)
                .unwrap();
        assert_eq!(p.window(), 20);
        for n in 1..5 {
            let harder = p.lambda(n + 1);
            let easier = p.lambda(n);
            assert!(
                order::dominates(&harder, &easier).unwrap(),
                "λ({}) = {harder} must dominate λ({n}) = {easier}",
                n + 1
            );
        }
    }

    #[test]
    fn weakly_hard_from_table() {
        let p = WeaklyHardProfile::from_table(1, 10, vec![4, 6, 2]).unwrap();
        // Monotonized to non-increasing: [4, 4, 2].
        assert_eq!(p.miss_table(), &[4, 4, 2]);
        assert_eq!(p.lambda(2), Constraint::AnyMiss { m: 4, k: 10 });
        assert_eq!(p.lambda(0), p.lambda(1));
        assert_eq!(p.lambda(50), p.lambda(3));
        // Misses are capped at the window.
        let capped = WeaklyHardProfile::from_table(1, 5, vec![9]).unwrap();
        assert_eq!(capped.miss_table(), &[5]);
    }

    #[test]
    fn weakly_hard_validation() {
        assert!(WeaklyHardProfile::from_table(1, 0, vec![1]).is_err());
        assert!(WeaklyHardProfile::from_table(0, 5, vec![1]).is_err());
        assert!(WeaklyHardProfile::from_table(1, 5, vec![]).is_err());
    }

    #[test]
    fn perfect_channel_weakly_hard_allows_margin_only() {
        let topo = Topology::star(4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = WeaklyHardProfile::measure(
            &topo,
            &mut Perfect::new(),
            NodeId(0),
            1..=2,
            10,
            100,
            1,
            &mut rng,
        )
        .unwrap();
        // No misses observed, so the table is exactly the safety margin.
        assert_eq!(p.miss_table(), &[1, 1]);
    }

    #[test]
    fn soft_measure_par_invariant_under_thread_count() {
        let topo = Topology::line(4).unwrap();
        let link = Bernoulli::new(0.7).unwrap();
        let serial =
            SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=5, 600, 42, ExecPolicy::Serial)
                .unwrap();
        for threads in [2, 3, 8] {
            let par = SoftProfile::measure_par(
                &topo,
                &link,
                NodeId(0),
                1..=5,
                600,
                42,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.table(), par.table(), "threads = {threads}");
        }
    }

    #[test]
    fn weakly_hard_measure_par_invariant_under_thread_count() {
        let topo = Topology::star(5).unwrap();
        let link = GilbertElliott::new(0.05, 0.4, 0.95, 0.4).unwrap();
        let serial = WeaklyHardProfile::measure_par(
            &topo,
            &link,
            NodeId(0),
            1..=3,
            400,
            20,
            1,
            42,
            ExecPolicy::Serial,
        )
        .unwrap();
        for threads in [2, 8] {
            let par = WeaklyHardProfile::measure_par(
                &topo,
                &link,
                NodeId(0),
                1..=3,
                400,
                20,
                1,
                42,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.miss_table(), par.miss_table(), "threads = {threads}");
        }
    }

    #[test]
    fn measure_par_rejects_bad_input() {
        let topo = Topology::line(3).unwrap();
        let link = Bernoulli::new(0.9).unwrap();
        assert!(matches!(
            SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=3, 0, 1, ExecPolicy::Serial),
            Err(ProfileError::NoRuns)
        ));
        assert!(matches!(
            SoftProfile::measure_par(&topo, &link, NodeId(9), 1..=3, 10, 1, ExecPolicy::Serial),
            Err(ProfileError::Flood(_))
        ));
    }

    #[test]
    fn profile_error_flood_is_structured() {
        use crate::flood::FloodError;
        use std::error::Error as _;
        let err = ProfileError::from(FloodError::ZeroNtx);
        assert!(matches!(err, ProfileError::Flood(FloodError::ZeroNtx)));
        // The flood error is reachable through source() for error-chain walkers.
        assert!(err.source().is_some());
    }
}

//! Scoped-thread fan-out over indexed jobs, with index-ordered merging.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// How much parallelism to use for a fan-out.
///
/// The policy never affects results — [`try_run_indexed`] merges by job
/// index — only how many OS threads chew through the job list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run on the calling thread.
    Serial,
    /// Use exactly this many worker threads (clamped to ≥ 1).
    Threads(usize),
    /// Use `std::thread::available_parallelism()`.
    #[default]
    Auto,
}

impl ExecPolicy {
    /// Policy for a `--threads N` style flag: `0` means auto (one
    /// worker per core), `1` means serial.
    pub fn from_threads(n: usize) -> Self {
        match n {
            0 => ExecPolicy::Auto,
            1 => ExecPolicy::Serial,
            n => ExecPolicy::Threads(n),
        }
    }

    /// The number of worker threads this policy resolves to.
    pub fn thread_count(&self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => (*n).max(1),
            ExecPolicy::Auto => thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Runs `f(0), f(1), …, f(jobs - 1)` and returns the results in index
/// order, independent of scheduling. This is [`try_run_indexed`] with a
/// job that cannot fail.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn run_indexed<T, F>(policy: ExecPolicy, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_run_indexed(policy, jobs, |i| Ok::<T, Infallible>(f(i))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Runs `f(0), f(1), …, f(jobs - 1)` and returns the results in index
/// order, or the error of the *lowest-indexed* failing job — the same
/// error a serial run would hit first — regardless of thread count.
///
/// This is the workspace's one fan-out loop. Threads claim indices from
/// a shared counter and stash `(index, result)` pairs locally; the merge
/// step reorders, so the output is independent of scheduling. Later
/// jobs are cancelled on a best-effort basis once any job fails.
///
/// # Errors
///
/// The lowest-indexed `Err` produced by `f`, if any.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn try_run_indexed<T, E, F>(policy: ExecPolicy, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = policy.thread_count().min(jobs);
    let _fanout = netdag_trace::span_with(
        "runtime.fanout",
        &[("jobs", jobs.into()), ("threads", threads.max(1).into())],
    );
    if threads <= 1 {
        return (0..jobs)
            .map(|i| {
                let _job = netdag_trace::span_with("runtime.job", &[("index", i.into())]);
                f(i)
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut slots: Vec<Option<Result<T, E>>> = (0..jobs).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= jobs {
                            break;
                        }
                        let _job = netdag_trace::span_with("runtime.job", &[("index", idx.into())]);
                        let result = f(idx);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        local.push((idx, result));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (idx, value) in handle.join().expect("fan-out worker panicked") {
                slots[idx] = Some(value);
            }
        }
    });

    // Indices are claimed in ascending order, so every index below a
    // failing one was claimed and ran to completion: scanning in index
    // order finds the deterministic first error.
    let mut out = Vec::with_capacity(jobs);
    for slot in slots {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(e)) => return Err(e),
            // Cancelled after a lower-indexed failure; the scan above
            // must already have returned. Reaching this without a prior
            // error would be a claim-order violation.
            None => unreachable!("job skipped without an earlier error"),
        }
    }
    Ok(out)
}

/// Runs `f(i, &mut states[i])` for every element of `states` through
/// [`run_indexed`]. Each state is visited exactly once, so the final
/// contents of `states` are independent of the thread count. Built for
/// stateful jobs like the solver's portfolio engines that must persist
/// across repeated fan-outs.
///
/// Returning from this function is a synchronization barrier: every
/// `f` call has completed (the scope joins all workers).
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn for_each_indexed_mut<S, F>(policy: ExecPolicy, states: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    // One uncontended mutex per state: a cell is locked exactly once, by
    // whichever worker claims its index.
    let cells: Vec<Mutex<&mut S>> = states.iter_mut().map(Mutex::new).collect();
    run_indexed(policy, cells.len(), |i| {
        f(i, &mut cells[i].lock().expect("state mutex poisoned"));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_at_any_thread_count() {
        let serial = run_indexed(ExecPolicy::Serial, 100, |i| i * i);
        for threads in [2, 3, 8] {
            let parallel = run_indexed(ExecPolicy::Threads(threads), 100, |i| i * i);
            assert_eq!(parallel, serial);
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<u32> = run_indexed(ExecPolicy::Auto, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn try_variant_collects_all_on_success() {
        let out = try_run_indexed::<_, (), _>(ExecPolicy::Threads(4), 17, |i| Ok(i + 1));
        assert_eq!(out.unwrap(), (1..=17).collect::<Vec<_>>());
    }

    #[test]
    fn try_variant_reports_lowest_index_error() {
        for threads in [1, 2, 8] {
            let out = try_run_indexed(ExecPolicy::Threads(threads), 50, |i| {
                if i == 13 || i == 31 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(out.unwrap_err(), 13);
        }
    }

    #[test]
    fn for_each_mut_visits_every_state_once_at_any_thread_count() {
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Threads(2),
            ExecPolicy::Threads(8),
        ] {
            let mut states: Vec<u64> = (0..50).collect();
            for_each_indexed_mut(policy, &mut states, |i, s| {
                assert_eq!(*s, i as u64);
                *s = *s * 2 + 1;
            });
            let want: Vec<u64> = (0..50).map(|i| i * 2 + 1).collect();
            assert_eq!(states, want);
        }
    }

    #[test]
    fn for_each_mut_handles_empty_and_repeated_fanouts() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_indexed_mut(ExecPolicy::Auto, &mut empty, |_, _| unreachable!());
        // Stateful jobs persist across epochs.
        let mut counters = vec![0u32; 7];
        for _ in 0..5 {
            for_each_indexed_mut(ExecPolicy::Threads(3), &mut counters, |_, c| *c += 1);
        }
        assert!(counters.iter().all(|&c| c == 5));
    }

    #[test]
    fn from_threads_maps_flag_values() {
        assert_eq!(ExecPolicy::from_threads(0), ExecPolicy::Auto);
        assert_eq!(ExecPolicy::from_threads(1), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::from_threads(6), ExecPolicy::Threads(6));
        assert_eq!(ExecPolicy::Threads(0).thread_count(), 1);
        assert!(ExecPolicy::Auto.thread_count() >= 1);
    }
}

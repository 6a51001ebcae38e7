//! Bounded LRU answer cache.
//!
//! Entries are keyed by the canonical problem [`Fingerprint`] and hold
//! one [`Answer`]: a `solve` schedule or a `mode_solve` schedule set. A
//! lookup distinguishes three outcomes:
//!
//! * **exact hit** — same canonical fingerprint *and* same declaration
//!   signature: the stored answer is returned verbatim with zero solver
//!   work;
//! * **warm hit** — a stored schedule solves a structurally identical
//!   problem (same DAG, statistic and configuration; possibly permuted
//!   declarations or perturbed constraint bounds): its makespan seeds
//!   branch-and-bound pruning via the trail engine's injected bound.
//!   Mode answers never take part: a joint solve couples its modes
//!   through the shared prefix, so a cached makespan is not a sound
//!   bound for a *different* mode set, and a mode answer is reused only
//!   on a verbatim repeat of the whole set;
//! * **miss** — nothing usable; the solve runs cold.
//!
//! Only complete solves are inserted (a deadline-truncated incumbent
//! must never be replayed as an answer). Capacity bounds both kinds of
//! answer together and is enforced by least-recently-used eviction over
//! a monotonic touch stamp; with the small bounded capacities the daemon
//! uses, the linear scans here are cheaper than maintaining an ordered
//! index.

use netdag_core::modes::ModeScheduleExport;
use netdag_core::spec::ScheduleExport;

use crate::fingerprint::Fingerprint;
use crate::protocol::CacheStatsBody;
use crate::snapshot::SnapshotEntry;

/// A cached answer document, served verbatim on an exact hit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Answer {
    /// The [`ScheduleExport`] a `solve` request answers with.
    Schedule(ScheduleExport),
    /// The [`ModeScheduleExport`] a `mode_solve` request answers with.
    Modes(ModeScheduleExport),
}

impl From<ScheduleExport> for Answer {
    fn from(export: ScheduleExport) -> Answer {
        Answer::Schedule(export)
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Exact hit: serve this document verbatim.
    Exact(Answer),
    /// Near miss: warm-start the solve; the payload is the best cached
    /// makespan (µs) among structurally matching schedule entries.
    Warm(u64),
    /// Cold.
    Miss,
}

struct Entry {
    fp: Fingerprint,
    answer: Answer,
    makespan_us: u64,
    stamp: u64,
}

/// The bounded LRU cache (see the module docs).
pub struct SolutionCache {
    capacity: usize,
    stamp: u64,
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    warm_starts: u64,
    evictions: u64,
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> SolutionCache {
        SolutionCache {
            capacity: capacity.max(1),
            stamp: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            warm_starts: 0,
            evictions: 0,
        }
    }

    /// Probes the cache for `fp`, updating recency and hit statistics.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Lookup {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.fp.full == fp.full && e.fp.declared == fp.declared)
        {
            e.stamp = stamp;
            self.hits += 1;
            return Lookup::Exact(e.answer.clone());
        }
        if let Some(best) = self
            .entries
            .iter()
            .filter(|e| e.fp.structural == fp.structural && matches!(e.answer, Answer::Schedule(_)))
            .map(|e| e.makespan_us)
            .min()
        {
            self.warm_starts += 1;
            return Lookup::Warm(best);
        }
        self.misses += 1;
        Lookup::Miss
    }

    /// Inserts (or refreshes) a complete solve's answer, evicting the
    /// least recently used entry when over capacity. `makespan_us` is
    /// the warm-start bound a schedule answer offers its structural
    /// neighbours; mode answers offer none and pass 0.
    pub fn insert(&mut self, fp: Fingerprint, answer: impl Into<Answer>, makespan_us: u64) {
        let answer = answer.into();
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.fp.full == fp.full && e.fp.declared == fp.declared)
        {
            e.answer = answer;
            e.makespan_us = makespan_us;
            e.stamp = stamp;
            return;
        }
        self.entries.push(Entry {
            fp,
            answer,
            makespan_us,
            stamp,
        });
        if self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(oldest);
            self.evictions += 1;
        }
    }

    /// Every live entry in least- to most-recently-used order, for the
    /// shutdown cache snapshot. Replaying the returned sequence through
    /// [`SolutionCache::restore`] reconstructs the same recency order.
    pub fn export_entries(&self) -> Vec<SnapshotEntry> {
        let mut sorted: Vec<&Entry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| e.stamp);
        sorted
            .into_iter()
            .map(|e| SnapshotEntry {
                full: e.fp.full,
                structural: e.fp.structural,
                declared: e.fp.declared,
                makespan_us: e.makespan_us,
                answer: e.answer.clone(),
            })
            .collect()
    }

    /// Reinserts one snapshot entry at startup. Returns `false` —
    /// without touching the eviction counter — when the cache is
    /// already full and the entry is new: a restore fills spare
    /// capacity but never displaces what an earlier (more recent)
    /// snapshot line put there.
    pub fn restore(&mut self, entry: SnapshotEntry) -> bool {
        let fp = Fingerprint {
            full: entry.full,
            structural: entry.structural,
            declared: entry.declared,
        };
        let exists = self
            .entries
            .iter()
            .any(|e| e.fp.full == fp.full && e.fp.declared == fp.declared);
        if !exists && self.entries.len() >= self.capacity {
            return false;
        }
        self.insert(fp, entry.answer, entry.makespan_us);
        true
    }

    /// A snapshot for the `cache_stats` operation (queue fields are
    /// filled in by the server).
    pub fn stats(&self) -> CacheStatsBody {
        CacheStatsBody {
            entries: self.entries.len() as u64,
            capacity: self.capacity as u64,
            hits: self.hits,
            misses: self.misses,
            warm_starts: self.warm_starts,
            evictions: self.evictions,
            queued: 0,
            in_flight: 0,
            mode_entries: self
                .entries
                .iter()
                .filter(|e| matches!(e.answer, Answer::Modes(_)))
                .count() as u64,
            restored: 0,
            shards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::schedule::Schedule;

    fn fp(full: u64, structural: u64, declared: u64) -> Fingerprint {
        Fingerprint {
            full,
            structural,
            declared,
        }
    }

    fn export(makespan: u64) -> ScheduleExport {
        ScheduleExport {
            schedule: Schedule::new(
                Vec::new(),
                Vec::new(),
                Vec::new(),
                netdag_glossy::GlossyTiming::telosb(),
            ),
            makespan_us: makespan,
            bus_us: 0,
            optimal: true,
        }
    }

    #[test]
    fn exact_warm_and_miss() {
        let mut c = SolutionCache::new(4);
        assert!(matches!(c.lookup(&fp(1, 10, 100)), Lookup::Miss));
        c.insert(fp(1, 10, 100), export(7), 7);
        assert!(
            matches!(c.lookup(&fp(1, 10, 100)), Lookup::Exact(Answer::Schedule(e)) if e.makespan_us == 7)
        );
        // Same canonical problem, permuted declarations: warm only.
        assert!(matches!(c.lookup(&fp(1, 10, 101)), Lookup::Warm(7)));
        // Perturbed constraints (same structural): warm.
        assert!(matches!(c.lookup(&fp(2, 10, 102)), Lookup::Warm(7)));
        // Different structure: miss.
        assert!(matches!(c.lookup(&fp(3, 11, 103)), Lookup::Miss));
        let s = c.stats();
        assert_eq!((s.hits, s.warm_starts, s.misses), (1, 2, 2));
    }

    #[test]
    fn warm_uses_best_makespan() {
        let mut c = SolutionCache::new(4);
        c.insert(fp(1, 10, 1), export(9), 9);
        c.insert(fp(2, 10, 2), export(5), 5);
        assert!(matches!(c.lookup(&fp(3, 10, 3)), Lookup::Warm(5)));
    }

    #[test]
    fn lru_eviction() {
        let mut c = SolutionCache::new(2);
        c.insert(fp(1, 1, 1), export(1), 1);
        c.insert(fp(2, 2, 2), export(2), 2);
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(_)));
        c.insert(fp(3, 3, 3), export(3), 3);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(matches!(c.lookup(&fp(2, 2, 2)), Lookup::Miss));
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(_)));
        assert!(matches!(c.lookup(&fp(3, 3, 3)), Lookup::Exact(_)));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = SolutionCache::new(2);
        c.insert(fp(1, 1, 1), export(9), 9);
        c.insert(fp(1, 1, 1), export(8), 8);
        assert_eq!(c.stats().entries, 1);
        assert!(
            matches!(c.lookup(&fp(1, 1, 1)), Lookup::Exact(Answer::Schedule(e)) if e.makespan_us == 8)
        );
    }

    fn mode_export(prefix: usize) -> ModeScheduleExport {
        ModeScheduleExport {
            modes: Vec::new(),
            shared_prefix_rounds: prefix,
            optimal: true,
        }
    }

    #[test]
    fn mode_answers_are_exact_only_and_share_the_capacity() {
        let mut c = SolutionCache::new(2);
        c.insert(fp(1, 1, 1), export(5), 5);
        c.insert(fp(2, 2, 2), Answer::Modes(mode_export(1)), 0);
        assert!(
            matches!(c.lookup(&fp(2, 2, 2)), Lookup::Exact(Answer::Modes(e)) if e.shared_prefix_rounds == 1)
        );
        // A structural match against a mode answer is no warm start.
        assert!(matches!(c.lookup(&fp(3, 2, 3)), Lookup::Miss));
        let s = c.stats();
        assert_eq!((s.entries, s.mode_entries, s.hits, s.misses), (2, 1, 1, 1));
        // One LRU over both kinds: the schedule entry is the victim.
        c.insert(fp(4, 4, 4), Answer::Modes(mode_export(4)), 0);
        assert!(matches!(c.lookup(&fp(1, 1, 1)), Lookup::Miss));
        assert_eq!(c.stats().mode_entries, 2);
    }
}

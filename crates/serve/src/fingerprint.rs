//! Canonical problem fingerprints.
//!
//! The solution cache is keyed by a stable structural hash over
//! everything that determines a solve's answer: the application DAG
//! (tasks with node pinning and WCETs, message edges with widths), the
//! constraint set, the statistic, and the scheduler configuration.
//! Three related hashes are computed per request:
//!
//! * [`Fingerprint::full`] — **canonical** (declaration-order
//!   independent: tasks sorted by name, edges by endpoint names,
//!   constraint entries by task name) over all of the above. Two
//!   requests describing the same problem in any declaration order get
//!   the same `full` hash.
//! * [`Fingerprint::declared`] — the same content in **declaration
//!   order**. A cached [`ScheduleExport`](netdag_core::spec::ScheduleExport)
//!   indexes tasks and messages by declaration position, so it is only
//!   returned verbatim when `declared` also matches; a `full` match
//!   with permuted declarations falls back to a warm start (the optimal
//!   makespan is declaration-invariant).
//! * [`Fingerprint::structural`] — canonical over everything **except
//!   the constraint values** (soft probabilities, weakly hard `(m, K)`
//!   pairs); the constrained task names still count. A request whose
//!   `structural` hash matches a cached entry is the "near miss" the
//!   cache warm-starts: same DAG, same statistic, same configuration,
//!   perturbed constraint bounds.
//!
//! The hash is 64-bit FNV-1a over a tagged, length-prefixed byte
//! encoding, so field boundaries cannot alias. `solver_threads` is
//! excluded (it never affects results); the hardware timing constants
//! are not hashed because the daemon always schedules for the default
//! platform.

use netdag_core::config::{Backend, RoundStructure, SchedulerConfig};
use netdag_core::modes::ModesSpec;
use netdag_core::spec::{AppSpec, SoftSpec, WeaklyHardSpec};

use crate::protocol::StatSpec;

/// The three hashes of one solve request (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Canonical hash over the complete problem.
    pub full: u64,
    /// Canonical hash with constraint values masked.
    pub structural: u64,
    /// Declaration-order hash over the complete problem.
    pub declared: u64,
}

impl Fingerprint {
    /// The canonical fingerprint as a fixed-width hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.full)
    }
}

/// 64-bit FNV-1a accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_config(h: &mut Fnv, cfg: &SchedulerConfig) {
    h.tag(b'c');
    h.u64(u64::from(cfg.beacon_chi));
    h.u64(u64::from(cfg.chi_max));
    match cfg.backend {
        Backend::Exact { node_limit } => {
            h.tag(0);
            h.u64(node_limit.map_or(u64::MAX, |n| n));
            h.tag(node_limit.is_some() as u8);
        }
        Backend::Greedy => h.tag(1),
    }
    h.tag(match cfg.round_structure {
        RoundStructure::PerLevel => 0,
        RoundStructure::PerMessage => 1,
    });
    h.tag(cfg.include_beacons as u8);
    h.u64(u64::from(cfg.portfolio));
    // `solver_threads` never affects results and is deliberately not
    // hashed; the lower bound can change *which* optimal schedule a
    // portfolio returns, so it is part of the problem identity.
    h.tag(cfg.lower_bound as u8);
}

fn hash_stat(h: &mut Fnv, stat: &StatSpec) {
    h.tag(b's');
    h.str(&stat.kind);
    match stat.fss {
        Some(fss) => {
            h.tag(1);
            h.f64(fss);
        }
        None => h.tag(0),
    }
}

fn hash_app(h: &mut Fnv, app: &AppSpec, canonical: bool) {
    h.tag(b'a');
    h.u64(app.tasks.len() as u64);
    let mut task_order: Vec<usize> = (0..app.tasks.len()).collect();
    if canonical {
        task_order.sort_by(|&a, &b| app.tasks[a].name.cmp(&app.tasks[b].name));
    }
    for i in task_order {
        let t = &app.tasks[i];
        h.str(&t.name);
        h.u64(u64::from(t.node));
        h.u64(t.wcet_us);
    }
    h.u64(app.edges.len() as u64);
    let mut edge_order: Vec<usize> = (0..app.edges.len()).collect();
    if canonical {
        edge_order.sort_by(|&a, &b| {
            let (ea, eb) = (&app.edges[a], &app.edges[b]);
            (&ea.from, &ea.to).cmp(&(&eb.from, &eb.to))
        });
    }
    for i in edge_order {
        let e = &app.edges[i];
        h.str(&e.from);
        h.str(&e.to);
        h.u64(u64::from(e.width));
    }
}

/// `values = false` masks the constraint bounds for the structural hash.
fn hash_constraints(
    h: &mut Fnv,
    soft: Option<&SoftSpec>,
    wh: Option<&WeaklyHardSpec>,
    canonical: bool,
    values: bool,
) {
    if let Some(s) = soft {
        h.tag(b'f');
        h.u64(s.constraints.len() as u64);
        let mut order: Vec<usize> = (0..s.constraints.len()).collect();
        if canonical {
            order.sort_by(|&a, &b| s.constraints[a].task.cmp(&s.constraints[b].task));
        }
        for i in order {
            let e = &s.constraints[i];
            h.str(&e.task);
            if values {
                h.f64(e.probability);
            }
        }
    }
    if let Some(w) = wh {
        h.tag(b'w');
        h.u64(w.constraints.len() as u64);
        let mut order: Vec<usize> = (0..w.constraints.len()).collect();
        if canonical {
            order.sort_by(|&a, &b| w.constraints[a].task.cmp(&w.constraints[b].task));
        }
        for i in order {
            let e = &w.constraints[i];
            h.str(&e.task);
            if values {
                h.u64(u64::from(e.m));
                h.u64(u64::from(e.k));
            }
        }
    }
}

fn hash_problem(
    app: &AppSpec,
    soft: Option<&SoftSpec>,
    wh: Option<&WeaklyHardSpec>,
    stat: &StatSpec,
    cfg: &SchedulerConfig,
    canonical: bool,
    values: bool,
) -> u64 {
    let mut h = Fnv::new();
    h.str("netdag-fp/1");
    hash_stat(&mut h, stat);
    hash_config(&mut h, cfg);
    hash_app(&mut h, app, canonical);
    hash_constraints(&mut h, soft, wh, canonical, values);
    h.0
}

/// Computes the three fingerprints of a solve request. `stat` must be
/// normalized by the caller (an absent request statistic becomes
/// `{kind: "eq13", fss: None}`), so defaulted and explicit selections
/// hash identically.
pub fn fingerprint(
    app: &AppSpec,
    soft: Option<&SoftSpec>,
    wh: Option<&WeaklyHardSpec>,
    stat: &StatSpec,
    cfg: &SchedulerConfig,
) -> Fingerprint {
    Fingerprint {
        full: hash_problem(app, soft, wh, stat, cfg, true, true),
        structural: hash_problem(app, soft, wh, stat, cfg, true, false),
        declared: hash_problem(app, soft, wh, stat, cfg, false, true),
    }
}

/// The canonical fingerprint of a `mode_solve` request, as one 64-bit
/// hash over the whole mode set: the embedded application (declaration
/// order — a [`ModeScheduleExport`](netdag_core::modes::ModeScheduleExport)
/// indexes tasks and messages by position, so permuted declarations are
/// a different cacheable answer), the normalized shared-prefix length,
/// and every mode in order with its name, activation list, constraint
/// family (values included) and loss annotation, plus the scheduler
/// configuration.
///
/// Mode sets cache exact-only: there is no declaration/structural tier
/// like [`fingerprint`] has, because a joint solve's answer is reused
/// only on a verbatim repeat of the whole set. All three fields of the
/// returned [`Fingerprint`] carry this one hash, so it routes, keys the
/// cache and renders as hex exactly like a solve fingerprint.
pub fn mode_fingerprint(spec: &ModesSpec, cfg: &SchedulerConfig) -> Fingerprint {
    let mut h = Fnv::new();
    h.str("netdag-fp-modes/1");
    hash_config(&mut h, cfg);
    hash_app(&mut h, &spec.app, false);
    // `None` means "share one round", so it hashes like an explicit 1.
    h.u64(spec.shared_prefix_rounds.unwrap_or(1) as u64);
    h.u64(spec.modes.len() as u64);
    for mode in &spec.modes {
        h.tag(b'm');
        h.str(&mode.name);
        match &mode.tasks {
            Some(tasks) => {
                h.tag(1);
                h.u64(tasks.len() as u64);
                for t in tasks {
                    h.str(t);
                }
            }
            None => h.tag(0),
        }
        if let Some(soft) = &mode.soft {
            h.tag(b'f');
            h.f64(soft.fss);
            h.u64(soft.constraints.len() as u64);
            for e in &soft.constraints {
                h.str(&e.task);
                h.f64(e.probability);
            }
        }
        if let Some(wh) = &mode.weakly_hard {
            h.tag(b'w');
            h.u64(wh.constraints.len() as u64);
            for e in &wh.constraints {
                h.str(&e.task);
                h.u64(u64::from(e.m));
                h.u64(u64::from(e.k));
            }
        }
        match mode.loss {
            Some(loss) => {
                h.tag(1);
                h.f64(loss);
            }
            None => h.tag(0),
        }
    }
    Fingerprint {
        full: h.0,
        structural: h.0,
        declared: h.0,
    }
}

/// One fixed point of the consistent-hash shard ring
/// ([`crate::ring::Ring`]): the FNV-1a hash of
/// `("netdag-ring/1", shard, replica)`. Seeded by a versioned tag so
/// the ring geometry — and therefore which shard owns which
/// fingerprint — is stable across runs, machines, and restarts.
pub fn ring_point(shard: u64, replica: u64) -> u64 {
    let mut h = Fnv::new();
    h.str("netdag-ring/1");
    h.u64(shard);
    h.u64(replica);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::modes::{ModeSpec, ModesSpec};
    use netdag_core::spec::{EdgeSpec, TaskSpec, WeaklyHardEntry};

    fn app() -> AppSpec {
        AppSpec {
            tasks: vec![
                TaskSpec {
                    name: "sense".into(),
                    node: 0,
                    wcet_us: 500,
                },
                TaskSpec {
                    name: "act".into(),
                    node: 1,
                    wcet_us: 300,
                },
            ],
            edges: vec![EdgeSpec {
                from: "sense".into(),
                to: "act".into(),
                width: 8,
            }],
        }
    }

    fn wh(m: u32, k: u32) -> WeaklyHardSpec {
        WeaklyHardSpec {
            constraints: vec![WeaklyHardEntry {
                task: "act".into(),
                m,
                k,
            }],
        }
    }

    fn stat() -> StatSpec {
        StatSpec {
            kind: "eq13".into(),
            fss: None,
        }
    }

    #[test]
    fn permuting_declarations_keeps_full_changes_declared() {
        let cfg = SchedulerConfig::default();
        let a = app();
        let mut b = app();
        b.tasks.swap(0, 1);
        let fa = fingerprint(&a, None, Some(&wh(10, 40)), &stat(), &cfg);
        let fb = fingerprint(&b, None, Some(&wh(10, 40)), &stat(), &cfg);
        assert_eq!(fa.full, fb.full);
        assert_eq!(fa.structural, fb.structural);
        assert_ne!(fa.declared, fb.declared);
    }

    #[test]
    fn perturbing_a_bound_keeps_structural_changes_full() {
        let cfg = SchedulerConfig::default();
        let a = app();
        let fa = fingerprint(&a, None, Some(&wh(10, 40)), &stat(), &cfg);
        let fb = fingerprint(&a, None, Some(&wh(11, 40)), &stat(), &cfg);
        assert_eq!(fa.structural, fb.structural);
        assert_ne!(fa.full, fb.full);
        assert_ne!(fa.declared, fb.declared);
    }

    fn modes_spec() -> ModesSpec {
        ModesSpec {
            app: app(),
            shared_prefix_rounds: Some(1),
            modes: vec![
                ModeSpec {
                    name: "nominal".into(),
                    tasks: None,
                    soft: None,
                    weakly_hard: Some(wh(10, 40)),
                    loss: None,
                },
                ModeSpec {
                    name: "degraded".into(),
                    tasks: None,
                    soft: None,
                    weakly_hard: Some(wh(20, 40)),
                    loss: Some(0.9),
                },
            ],
        }
    }

    #[test]
    fn mode_fingerprint_tracks_every_field() {
        let cfg = SchedulerConfig::default();
        let base = mode_fingerprint(&modes_spec(), &cfg);
        assert_eq!(base, mode_fingerprint(&modes_spec(), &cfg), "stable");

        // `shared_prefix_rounds: None` normalizes to the default 1.
        let mut defaulted = modes_spec();
        defaulted.shared_prefix_rounds = None;
        assert_eq!(base, mode_fingerprint(&defaulted, &cfg));

        let mut bound = modes_spec();
        bound.modes[1].weakly_hard = Some(wh(21, 40));
        assert_ne!(base, mode_fingerprint(&bound, &cfg));

        let mut loss = modes_spec();
        loss.modes[1].loss = Some(0.8);
        assert_ne!(base, mode_fingerprint(&loss, &cfg));

        let mut swapped = modes_spec();
        swapped.modes.swap(0, 1);
        assert_ne!(base, mode_fingerprint(&swapped, &cfg));

        let mut prefix = modes_spec();
        prefix.shared_prefix_rounds = Some(0);
        assert_ne!(base, mode_fingerprint(&prefix, &cfg));

        let greedy = SchedulerConfig::greedy();
        assert_ne!(base, mode_fingerprint(&modes_spec(), &greedy));
    }

    #[test]
    fn config_and_stat_are_load_bearing() {
        let a = app();
        let cfg = SchedulerConfig::default();
        let f0 = fingerprint(&a, None, None, &stat(), &cfg);
        let greedy = SchedulerConfig::greedy();
        assert_ne!(f0.full, fingerprint(&a, None, None, &stat(), &greedy).full);
        let eq15 = StatSpec {
            kind: "eq15".into(),
            fss: Some(1.0),
        };
        assert_ne!(f0.full, fingerprint(&a, None, None, &eq15, &cfg).full);
        assert_eq!(f0.hex().len(), 16);
    }
}

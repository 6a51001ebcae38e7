//! Difference-constraint relaxation: DBM closure lower bounds and CPM
//! root presolve.
//!
//! The scheduling CSPs NETDAG produces are dominated by *difference*
//! constraints — precedence rows (`S_c − S_p ≥ wcet`), deadline rows
//! (`S_t ≤ D − wcet`), round sequencing, and makespan aggregation. This
//! module extracts that subsystem into a difference-bound matrix (DBM)
//! over the model's variables plus a distinguished *zero node* encoding
//! the constant `0`, closes it once with Floyd–Warshall at the root,
//! and then answers two questions in `O(V)` or better at every search
//! node:
//!
//! * **admissible lower bound** — `obj ≥ lo(u) − D[u][obj]` for every
//!   variable `u` (and `obj ≥ −D[0][obj]` from the zero node), because
//!   `u − obj ≤ D[u][obj]` holds in *every* descendant of the root: the
//!   matrix is built only from constraints valid everywhere and from
//!   root domain bounds, which search can only shrink. [`Engine`]
//!   prunes a freshly decided child without opening it when the bound
//!   reaches the incumbent — the exact nodes branch-and-bound otherwise
//!   explores just to kill in propagation during the optimality-proof
//!   phase.
//! * **CPM presolve** — the closure's first row/column are the classic
//!   critical-path ES/LS values: `ES(v) = −D[0][v]`,
//!   `LS(v) = D[v][0]`. `ES(v) > LS(v)` proves root infeasibility in
//!   `O(V³)` once instead of a timed-out search, and the shortest-path
//!   predecessor chains name *which* constraints force the conflict
//!   ([`PresolveWitness`]). Otherwise the ES/LS window shaves root
//!   domains before the first propagation fixpoint.
//!
//! Pruning with the root closure never changes *which* solutions a
//! search records: a pruned child satisfies `lb ≥ incumbent`, and the
//! same difference chains are enforced by the model's propagators, so
//! the baseline engine opens that child only to have its fixpoint wipe
//! out against the strict-improvement objective bound. The lb-pruned
//! tree therefore records the identical incumbent sequence (and final
//! solution bytes) while skipping the doomed nodes — the differential
//! tests in `tests/` pin exactly that.
//!
//! [`Engine`]: crate::search::Engine

use crate::domain::{DomainStore, Infeasible, VarId};
use crate::model::Model;
use crate::propagator::DiffEdge;

/// "Unreachable" distance. Far enough from `i64::MAX` that path sums of
/// real edge weights cannot overflow the clamped arithmetic, and large
/// enough that no real schedule horizon reaches it.
pub(crate) const INF: i64 = i64::MAX / 4;

/// Clamps an exact `i128` path length into the `[-INF, INF]` band.
fn clamp_dist(x: i128) -> i64 {
    x.clamp(-INF as i128, INF as i128) as i64
}

/// One hop of a [`PresolveWitness`] chain: the difference constraint
/// `from − to ≤ weight` (`None` is the zero node, i.e. the constant 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresolveStep {
    /// Left-hand variable (`None` = the constant 0).
    pub from: Option<VarId>,
    /// Right-hand variable (`None` = the constant 0).
    pub to: Option<VarId>,
    /// Bound on the difference.
    pub weight: i64,
    /// Constraint family that contributed the edge (`"domain"` for a
    /// root bound, else the propagator's [`kind`]).
    ///
    /// [`kind`]: crate::propagator::Propagator::kind
    pub kind: &'static str,
}

/// Proof that the root is infeasible: a variable whose earliest start
/// (forced by the `forward` chain) exceeds its latest start (capped by
/// the `backward` chain). Returned by [`Relaxation::witness`] so the
/// caller can render a named, per-constraint explanation instead of
/// reporting a timed-out search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresolveWitness {
    /// The over-constrained variable.
    pub var: VarId,
    /// Earliest feasible value (`−D[0][var]`).
    pub earliest: i64,
    /// Latest feasible value (`D[var][0]`).
    pub latest: i64,
    /// Shortest-path chain from the zero node to `var` forcing
    /// `var ≥ earliest`.
    pub forward: Vec<PresolveStep>,
    /// Shortest-path chain from `var` back to the zero node capping
    /// `var ≤ latest`.
    pub backward: Vec<PresolveStep>,
}

/// The closed difference-bound matrix of a model's difference-constraint
/// subsystem. Build once per solve with [`Relaxation::build`] and lend
/// it to every engine of that solve; all queries are read-only and
/// cheap.
pub struct Relaxation {
    /// Matrix dimension: one slot per variable plus the zero node at
    /// index 0 (variable `v` lives at `v.index() + 1`).
    n: usize,
    /// Matrix index of the objective (0 when no objective was given —
    /// bound queries then return `i64::MIN`).
    obj: usize,
    /// Closed distances, row-major: `dist[u·n + v]` bounds `u − v`.
    dist: Vec<i64>,
    /// First hop of the shortest `u → v` path (`u32::MAX` = none); each
    /// hop is a direct edge, so chains render as concrete constraints.
    nxt: Vec<u32>,
    /// Tightest direct edge weight per pair (`INF` = no direct edge).
    direct_w: Vec<i64>,
    /// Constraint kind of the tightest direct edge.
    direct_kind: Vec<&'static str>,
    /// Entries strictly improved by the Floyd–Warshall closure.
    tightenings: u64,
    witness: Option<PresolveWitness>,
}

impl Relaxation {
    /// Extracts the difference subsystem of `model` (root domain bounds,
    /// plus every edge the propagators contribute via
    /// [`difference_edges`]) and closes it with Floyd–Warshall. Every
    /// build adds its [`tightenings`](Self::tightenings) to the
    /// `solver.lb.tightenings` counter, so the counter tracks closures
    /// actually computed.
    ///
    /// [`difference_edges`]: crate::propagator::Propagator::difference_edges
    pub fn build(model: &Model, objective: Option<VarId>) -> Self {
        let root = DomainStore::new(&model.bounds);
        let n = model.bounds.len() + 1;
        let mut relax = Relaxation {
            n,
            obj: objective.map_or(0, |o| o.index() + 1),
            dist: vec![INF; n * n],
            nxt: vec![u32::MAX; n * n],
            direct_w: vec![INF; n * n],
            direct_kind: vec![""; n * n],
            tightenings: 0,
            witness: None,
        };
        for i in 0..n {
            relax.dist[i * n + i] = 0;
        }
        // Root domain bounds: v ≤ hi ⇔ v − 0 ≤ hi; v ≥ lo ⇔ 0 − v ≤ −lo.
        for (i, &(lo, hi)) in model.bounds.iter().enumerate() {
            let v = i + 1;
            if hi < INF {
                relax.add_edge(v, 0, hi, "domain");
            }
            if lo > -INF {
                relax.add_edge(0, v, -lo, "domain");
            }
        }
        let mut edges: Vec<DiffEdge> = Vec::new();
        for p in &model.props {
            p.difference_edges(&root, &mut edges);
        }
        for e in edges {
            let u = e.from.map_or(0, |v| v.index() + 1);
            let v = e.to.map_or(0, |v| v.index() + 1);
            if u != v && e.weight < INF {
                relax.add_edge(u, v, e.weight.max(-INF), e.kind);
            }
        }
        relax.close();
        netdag_obs::counter!(netdag_obs::keys::SOLVER_LB_TIGHTENINGS).add(relax.tightenings);
        relax.witness = relax.find_witness();
        relax
    }

    fn add_edge(&mut self, u: usize, v: usize, w: i64, kind: &'static str) {
        let idx = u * self.n + v;
        if w < self.direct_w[idx] {
            self.direct_w[idx] = w;
            self.direct_kind[idx] = kind;
        }
        if w < self.dist[idx] {
            self.dist[idx] = w;
            self.nxt[idx] = v as u32;
        }
    }

    /// Floyd–Warshall min-plus closure. Skips unreachable pairs so the
    /// cost tracks the (sparse) difference graph rather than `V³`.
    fn close(&mut self) {
        let n = self.n;
        for w in 0..n {
            for u in 0..n {
                let duw = self.dist[u * n + w];
                if duw >= INF || u == w {
                    continue;
                }
                for v in 0..n {
                    let dwv = self.dist[w * n + v];
                    if dwv >= INF || v == w {
                        continue;
                    }
                    let cand = clamp_dist(duw as i128 + dwv as i128);
                    if cand < self.dist[u * n + v] {
                        self.dist[u * n + v] = cand;
                        self.nxt[u * n + v] = self.nxt[u * n + w];
                        self.tightenings += 1;
                    }
                }
            }
        }
    }

    /// Entries strictly tightened by the closure (the
    /// `solver.lb.tightenings` counter).
    pub fn tightenings(&self) -> u64 {
        self.tightenings
    }

    /// The infeasibility proof, when the root admits no solution of the
    /// difference subsystem.
    pub fn witness(&self) -> Option<&PresolveWitness> {
        self.witness.as_ref()
    }

    /// Earliest value the difference subsystem allows for `v`
    /// (`i64::MIN` when unconstrained from below).
    pub fn earliest(&self, v: VarId) -> i64 {
        let d = self.dist[v.index() + 1];
        if d >= INF {
            i64::MIN
        } else {
            -d
        }
    }

    /// Latest value the difference subsystem allows for `v`
    /// (`i64::MAX` when unconstrained from above).
    pub fn latest(&self, v: VarId) -> i64 {
        let d = self.dist[(v.index() + 1) * self.n];
        if d >= INF {
            i64::MAX
        } else {
            d
        }
    }

    /// Admissible lower bound on the objective at the root:
    /// `−D[0][obj]`.
    pub fn root_lower_bound(&self) -> i64 {
        if self.obj == 0 {
            return i64::MIN;
        }
        let d = self.dist[self.obj];
        if d >= INF {
            i64::MIN
        } else {
            -d
        }
    }

    /// Admissible lower bound on the objective under the *current*
    /// domains: `max_u lo(u) − D[u][obj]` over all matrix rows (the zero
    /// node contributes the root bound). `O(V)`.
    pub fn node_lower_bound(&self, dom: &DomainStore) -> i64 {
        if self.obj == 0 {
            return i64::MIN;
        }
        let mut lb = i64::MIN;
        for u in 0..self.n {
            let d = self.dist[u * self.n + self.obj];
            if d >= INF {
                continue;
            }
            let lo = if u == 0 {
                0
            } else {
                dom.lo(VarId((u - 1) as u32))
            };
            let cand = clamp_dist(lo as i128 - d as i128);
            if cand > lb {
                lb = cand;
            }
        }
        lb
    }

    /// Tightens every root domain to its `[ES, LS]` window, returning
    /// the number of endpoints actually moved. Sound — both bounds are
    /// implied by constraints every solution satisfies — and invisible
    /// to the search tree: the root fixpoint re-derives the same window
    /// through propagation, so shaving only saves propagation work.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] when a window is empty (callers normally
    /// catch this earlier via [`Relaxation::witness`]).
    pub fn shave(&self, dom: &mut DomainStore) -> Result<u64, Infeasible> {
        let mut shaved = 0;
        for i in 0..self.n - 1 {
            let v = VarId(i as u32);
            let es = self.earliest(v);
            if es > i64::MIN && dom.set_lo(v, es)? {
                shaved += 1;
            }
            let ls = self.latest(v);
            if ls < i64::MAX && dom.set_hi(v, ls)? {
                shaved += 1;
            }
        }
        Ok(shaved)
    }

    /// Finds an `ES > LS` variable (preferring one with both chains
    /// through the zero node, the CPM reading) or any negative
    /// self-cycle, and reconstructs the forcing chains.
    fn find_witness(&self) -> Option<PresolveWitness> {
        let n = self.n;
        // ES(v) > LS(v): the 0→v→0 cycle is negative. Every variable on
        // the cycle qualifies; prefer one whose forcing chains both cite
        // a real constraint (not just its own domain bounds) — that is
        // the variable the conflict is *about*, and the explanation the
        // caller renders then names the constraints squeezing it from
        // both sides.
        let mut fallback: Option<PresolveWitness> = None;
        for v in 1..n {
            let fwd = self.dist[v];
            let back = self.dist[v * n];
            if fwd < INF && back < INF && (fwd as i128 + back as i128) < 0 {
                let witness = PresolveWitness {
                    var: VarId((v - 1) as u32),
                    earliest: -fwd,
                    latest: back,
                    forward: self.path(0, v),
                    backward: self.path(v, 0),
                };
                let cites = |steps: &[PresolveStep]| steps.iter().any(|s| s.kind != "domain");
                if cites(&witness.forward) && cites(&witness.backward) {
                    return Some(witness);
                }
                fallback.get_or_insert(witness);
            }
        }
        if let Some(w) = fallback {
            return Some(w);
        }
        // Any other negative cycle: report the first variable on it.
        for u in 0..n {
            if self.dist[u * n + u] < 0 {
                let v = if u == 0 {
                    // Cycle through the zero node: name its first hop.
                    self.nxt[0] as usize
                } else {
                    u
                };
                let var = VarId((v.max(1) - 1) as u32);
                return Some(PresolveWitness {
                    var,
                    earliest: self.earliest(var),
                    latest: self.latest(var),
                    forward: self.path(u, u),
                    backward: Vec::new(),
                });
            }
        }
        None
    }

    /// Reconstructs the shortest `u → v` hop chain (each hop is a direct
    /// edge). For `u == v` it walks the negative cycle once.
    fn path(&self, from: usize, to: usize) -> Vec<PresolveStep> {
        let mut steps = Vec::new();
        let mut u = from;
        loop {
            if u == to && !steps.is_empty() {
                break;
            }
            let next = self.nxt[u * self.n + to];
            if next == u32::MAX || steps.len() > self.n {
                break;
            }
            let v = next as usize;
            steps.push(PresolveStep {
                from: (u > 0).then(|| VarId((u - 1) as u32)),
                to: (v > 0).then(|| VarId((v - 1) as u32)),
                weight: self.direct_w[u * self.n + v],
                kind: self.direct_kind[u * self.n + v],
            });
            u = v;
            if u == to {
                break;
            }
        }
        steps
    }
}

impl std::fmt::Debug for Relaxation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relaxation")
            .field("n", &self.n)
            .field("tightenings", &self.tightenings)
            .field("infeasible", &self.witness.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchConfig;

    /// s ──(wcet 3)──▶ m ──(wcet 2)──▶ t, makespan = max end.
    fn chain_model(deadline: Option<i64>) -> (Model, VarId, VarId) {
        let mut m = Model::new();
        let s = m.new_var("s", 0, 50).unwrap();
        let mid = m.new_var("mid", 0, 50).unwrap();
        let t = m.new_var("t", 0, 50).unwrap();
        m.linear_ge(&[(1, mid), (-1, s)], 3).unwrap();
        m.linear_ge(&[(1, t), (-1, mid)], 2).unwrap();
        let end = m.new_var("end", 0, 60).unwrap();
        m.linear_eq(&[(1, end), (-1, t)], 4).unwrap();
        let mk = m.new_var("makespan", 0, 60).unwrap();
        m.max_of(&[end], mk).unwrap();
        if let Some(d) = deadline {
            // t must end (start + 4) by d.
            m.linear_le(&[(1, t)], d - 4).unwrap();
        }
        (m, t, mk)
    }

    #[test]
    fn root_bound_is_the_critical_path() {
        let (m, _, mk) = chain_model(None);
        let relax = Relaxation::build(&m, Some(mk));
        // 0 →(3) mid →(2) t →(4) end →(0) makespan: lb = 9.
        assert_eq!(relax.root_lower_bound(), 9);
        assert!(relax.witness().is_none());
        assert!(relax.tightenings() > 0);
        // Admissible: the true optimum is exactly 9.
        let sol = m.minimize(mk, &SearchConfig::default()).unwrap().unwrap();
        assert_eq!(sol.value(mk), 9);
    }

    #[test]
    fn es_ls_window_shaves_root_domains() {
        let (m, t, _) = chain_model(Some(20));
        let relax = Relaxation::build(&m, None);
        // ES(t) = 5 (chain from the zero node), LS(t) = 16 (deadline).
        assert_eq!(relax.earliest(t), 5);
        assert_eq!(relax.latest(t), 16);
        let mut dom = DomainStore::new(&m.bounds);
        let shaved = relax.shave(&mut dom).unwrap();
        assert!(shaved >= 2);
        assert_eq!(dom.lo(t), 5);
        assert_eq!(dom.hi(t), 16);
    }

    #[test]
    fn impossible_deadline_yields_named_witness() {
        // Chain needs t ≥ 5, deadline forces t ≤ 0.
        let (m, t, _) = chain_model(Some(4));
        let relax = Relaxation::build(&m, None);
        let w = relax.witness().expect("ES > LS");
        // Any variable on the negative cycle (s → mid → t → deadline) is
        // a sound witness; which one is reported is presentational.
        assert!(w.var.index() <= t.index(), "witness names a cycle var");
        assert!(w.earliest > w.latest, "{} ≤ {}", w.earliest, w.latest);
        assert!(!w.forward.is_empty(), "forward chain names constraints");
        assert!(!w.backward.is_empty(), "backward chain names constraints");
        // Every hop is a concrete direct edge with a kind.
        for step in w.forward.iter().chain(&w.backward) {
            assert!(step.weight < INF);
            assert!(!step.kind.is_empty());
        }
    }

    #[test]
    fn node_bound_uses_current_domains() {
        let (m, t, mk) = chain_model(None);
        let relax = Relaxation::build(&m, Some(mk));
        let mut dom = DomainStore::new(&m.bounds);
        // Deciding t ≥ 30 lifts the bound through t → end → makespan.
        dom.set_lo(t, 30).unwrap();
        assert_eq!(relax.node_lower_bound(&dom), 34);
    }

    #[test]
    fn if_then_le_edges_require_fixed_guard() {
        let mut m = Model::new();
        let free = m.new_var("free", 0, 1).unwrap();
        let fixed = m.constant("fixed", 1);
        let x = m.new_var("x", 0, 10).unwrap();
        let y = m.new_var("y", 0, 10).unwrap();
        let z = m.new_var("z", 0, 10).unwrap();
        m.if_then_le(free, x, 5, y).unwrap(); // guard open: no edge
        m.if_then_le(fixed, x, 5, z).unwrap(); // guard fixed: edge
        let relax = Relaxation::build(&m, None);
        assert_eq!(relax.earliest(y), 0, "open guard must contribute nothing");
        assert_eq!(relax.earliest(z), 5, "fixed guard forces z ≥ x + 5");
    }

    #[test]
    fn multi_term_rows_fold_through_root_minima() {
        // SR1 − SR0 − dur ≥ 0 with dur ∈ [4, 7] folds to SR1 ≥ SR0 + 4.
        let mut m = Model::new();
        let sr0 = m.new_var("SR_0", 0, 100).unwrap();
        let sr1 = m.new_var("SR_1", 0, 100).unwrap();
        let dur = m.new_var("rdur_0", 4, 7).unwrap();
        m.linear_ge(&[(1, sr1), (-1, sr0), (-1, dur)], 0).unwrap();
        m.linear_ge(&[(1, sr0)], 10).unwrap();
        let relax = Relaxation::build(&m, None);
        assert_eq!(relax.earliest(sr0), 10);
        assert_eq!(relax.earliest(sr1), 14);
    }
}

//! Physical network topologies `N = (P, C)`.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rand::Rng;

/// Identifier of a physical compute node (the paper's `p ∈ P`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error returned when constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A topology needs at least one node.
    Empty,
    /// An edge referenced a node outside `0..node_count`.
    BadEdge {
        /// Offending endpoint.
        node: NodeId,
        /// Number of nodes in the topology.
        node_count: usize,
    },
    /// The graph is not connected, so a flood cannot reach every node.
    Disconnected,
    /// A generator parameter was out of range (e.g. grid with zero side).
    BadParameter(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology needs at least one node"),
            TopologyError::BadEdge { node, node_count } => {
                write!(f, "edge endpoint {node} out of range (< {node_count})")
            }
            TopologyError::Disconnected => write!(f, "topology is not connected"),
            TopologyError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl Error for TopologyError {}

/// An undirected connectivity graph over the physical nodes, optionally
/// with planar positions (used by the design-space exploration of fig. 4).
///
/// # Example
///
/// ```
/// use netdag_glossy::Topology;
///
/// let grid = Topology::grid(3, 3)?;
/// assert_eq!(grid.node_count(), 9);
/// assert_eq!(grid.diameter(), 4); // corner to corner
/// # Ok::<(), netdag_glossy::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    adjacency: Vec<Vec<NodeId>>,
    positions: Option<Vec<(f64, f64)>>,
}

impl Topology {
    /// Builds a topology from undirected edges over `node_count` nodes.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::Empty`] when `node_count == 0`;
    /// * [`TopologyError::BadEdge`] for out-of-range endpoints;
    /// * [`TopologyError::Disconnected`] when some node is unreachable
    ///   (floods must be able to reach every node).
    pub fn from_edges(
        node_count: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, TopologyError> {
        if node_count == 0 {
            return Err(TopologyError::Empty);
        }
        let mut adjacency = vec![Vec::new(); node_count];
        for &(a, b) in edges {
            for n in [a, b] {
                if n.index() >= node_count {
                    return Err(TopologyError::BadEdge {
                        node: n,
                        node_count,
                    });
                }
            }
            if a != b && !adjacency[a.index()].contains(&b) {
                adjacency[a.index()].push(b);
                adjacency[b.index()].push(a);
            }
        }
        let topo = Topology {
            adjacency,
            positions: None,
        };
        if !topo.is_connected() {
            return Err(TopologyError::Disconnected);
        }
        Ok(topo)
    }

    /// A path `0 — 1 — … — n−1`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] when `n == 0`.
    pub fn line(n: usize) -> Result<Self, TopologyError> {
        let edges: Vec<_> = (1..n)
            .map(|i| (NodeId(i as u32 - 1), NodeId(i as u32)))
            .collect();
        Self::from_edges(n, &edges)
    }

    /// A cycle of `n ≥ 3` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadParameter`] when `n < 3`.
    pub fn ring(n: usize) -> Result<Self, TopologyError> {
        if n < 3 {
            return Err(TopologyError::BadParameter("ring needs n >= 3".into()));
        }
        let mut edges: Vec<_> = (1..n)
            .map(|i| (NodeId(i as u32 - 1), NodeId(i as u32)))
            .collect();
        edges.push((NodeId(n as u32 - 1), NodeId(0)));
        Self::from_edges(n, &edges)
    }

    /// A star with node 0 at the center and `n − 1` leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadParameter`] when `n < 2`.
    pub fn star(n: usize) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::BadParameter("star needs n >= 2".into()));
        }
        let edges: Vec<_> = (1..n).map(|i| (NodeId(0), NodeId(i as u32))).collect();
        Self::from_edges(n, &edges)
    }

    /// A `w × h` grid with 4-neighborhood links.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadParameter`] when either side is zero.
    pub fn grid(w: usize, h: usize) -> Result<Self, TopologyError> {
        if w == 0 || h == 0 {
            return Err(TopologyError::BadParameter("grid sides must be > 0".into()));
        }
        let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        Self::from_edges(w * h, &edges)
    }

    /// Positions `n` nodes uniformly in the unit square and links every
    /// pair within `range`. Retries until connected (up to 1000 draws).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] when no connected layout was
    /// found, or [`TopologyError::BadParameter`] for `n == 0` or a
    /// non-positive range.
    pub fn random_geometric<R: Rng + ?Sized>(
        n: usize,
        range: f64,
        rng: &mut R,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        if range <= 0.0 {
            return Err(TopologyError::BadParameter("range must be > 0".into()));
        }
        for _ in 0..1000 {
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            if let Ok(topo) = Self::from_positions(&points, range) {
                return Ok(topo);
            }
        }
        Err(TopologyError::Disconnected)
    }

    /// Builds a topology from explicit positions, linking pairs within
    /// `range` (Euclidean).
    ///
    /// # Errors
    ///
    /// As [`Topology::from_edges`].
    pub fn from_positions(points: &[(f64, f64)], range: f64) -> Result<Self, TopologyError> {
        let n = points.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                if (dx * dx + dy * dy).sqrt() <= range {
                    edges.push((NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        let mut topo = Self::from_edges(n, &edges)?;
        topo.positions = Some(points.to_vec());
        Ok(topo)
    }

    /// Number of nodes `|P|`.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// Neighbors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Node positions, when the topology was built geometrically.
    pub fn positions(&self) -> Option<&[(f64, f64)]> {
        self.positions.as_deref()
    }

    /// Breadth-first hop distances from `source`; `None` for unreachable.
    pub fn hop_distances(&self, source: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count()];
        dist[source.index()] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()].expect("visited");
            for &v in &self.adjacency[u.index()] {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    fn is_connected(&self) -> bool {
        self.hop_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// The network diameter `D(N)`: the largest hop distance between any
    /// pair of nodes. This bounds the Glossy relay counter (§ II-A).
    pub fn diameter(&self) -> u32 {
        self.nodes()
            .flat_map(|s| self.hop_distances(s).into_iter().flatten())
            .max()
            .unwrap_or(0)
    }

    /// Eccentricity of a node: max hop distance to any other node. A flood
    /// initiated at `source` needs at least this many relays to cover the
    /// network.
    pub fn eccentricity(&self, source: NodeId) -> u32 {
        self.hop_distances(source)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Topology {
        /// Number of undirected edges: the oracle the constructor tests
        /// count links with.
        fn edge_count(&self) -> usize {
            self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
        }
    }

    #[test]
    fn line_properties() {
        let t = Topology::line(5).unwrap();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.eccentricity(NodeId(2)), 2);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn ring_and_star() {
        let r = Topology::ring(6).unwrap();
        assert_eq!(r.diameter(), 3);
        assert_eq!(r.edge_count(), 6);
        let s = Topology::star(5).unwrap();
        assert_eq!(s.diameter(), 2);
        assert_eq!(s.eccentricity(NodeId(0)), 1);
        assert!(matches!(
            Topology::ring(2),
            Err(TopologyError::BadParameter(_))
        ));
        assert!(matches!(
            Topology::star(1),
            Err(TopologyError::BadParameter(_))
        ));
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = Topology::grid(4, 3).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.diameter(), 5);
        assert!(matches!(
            Topology::grid(0, 3),
            Err(TopologyError::BadParameter(_))
        ));
    }

    #[test]
    fn from_edges_validation() {
        assert_eq!(Topology::from_edges(0, &[]), Err(TopologyError::Empty));
        assert!(matches!(
            Topology::from_edges(2, &[(NodeId(0), NodeId(5))]),
            Err(TopologyError::BadEdge { .. })
        ));
        assert_eq!(
            Topology::from_edges(3, &[(NodeId(0), NodeId(1))]),
            Err(TopologyError::Disconnected)
        );
        // Self-loops and duplicate edges are ignored.
        let t = Topology::from_edges(
            2,
            &[
                (NodeId(0), NodeId(0)),
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(0)),
            ],
        )
        .unwrap();
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::from_edges(1, &[]).unwrap();
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn random_geometric_is_connected_with_positions() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let t = Topology::random_geometric(12, 0.5, &mut rng).unwrap();
        assert_eq!(t.node_count(), 12);
        assert!(t.positions().is_some());
        assert!(t.hop_distances(NodeId(0)).iter().all(Option::is_some));
    }

    #[test]
    fn from_positions_links_by_distance() {
        let pts = [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)];
        let t = Topology::from_positions(&pts, 0.75).unwrap();
        // 0-1 linked (0.3), 1-2 linked (0.7), 0-2 not (1.0).
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.diameter(), 2);
        assert_eq!(
            Topology::from_positions(&pts, 0.4),
            Err(TopologyError::Disconnected)
        );
    }

    #[test]
    fn hop_distances_from_each_source() {
        let t = Topology::grid(2, 2).unwrap();
        for s in t.nodes() {
            let d = t.hop_distances(s);
            assert_eq!(d[s.index()], Some(0));
            assert!(d.iter().all(|x| x.unwrap() <= 2));
        }
    }
}

//! Network-on-package connectivity.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// Index of a chiplet on the package (`c_i` in Definition 3).
pub type ChipletId = usize;

/// Errors constructing a topology from user-supplied adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The adjacency matrix is not square.
    NotSquare,
    /// The adjacency matrix is not symmetric (links are bidirectional).
    NotSymmetric,
    /// A node links to itself.
    SelfLoop(ChipletId),
    /// Some chiplet is unreachable from chiplet 0.
    Disconnected(ChipletId),
    /// The topology has no nodes.
    Empty,
    /// A mesh or triangular topology's adjacency is not the `rows × cols`
    /// grid its kind names.
    KindMismatch {
        /// Rows the kind names.
        rows: usize,
        /// Columns the kind names.
        cols: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NotSquare => write!(f, "adjacency matrix is not square"),
            TopologyError::NotSymmetric => write!(f, "adjacency matrix is not symmetric"),
            TopologyError::SelfLoop(i) => write!(f, "chiplet {i} links to itself"),
            TopologyError::Disconnected(i) => write!(f, "chiplet {i} is unreachable"),
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::KindMismatch { rows, cols } => {
                write!(f, "adjacency is not the {rows}×{cols} grid its kind names")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// How the topology was constructed; meshes additionally support
/// coordinate queries and deterministic XY routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum TopologyKind {
    /// `rows × cols` 2-D mesh (Simba's NoP); XY (column-then-row) routing.
    Mesh { rows: usize, cols: usize },
    /// Mesh plus one diagonal per cell (the Figure 6 triangular NoP).
    Triangular { rows: usize, cols: usize },
    /// Arbitrary adjacency; BFS shortest-path routing.
    Custom,
}

/// The network-on-package: an undirected connectivity graph over chiplets.
///
/// §V-E: "SCAR can generalize to other NoP topologies as it relies on
/// adjacency matrix connectivity" — this type is that abstraction. Meshes
/// route deterministically in XY order (§V-A); other topologies use BFS
/// shortest paths.
///
/// Every route is laid out once, when the topology is built or
/// deserialized: each interposer link is numbered in each direction, and
/// the routes from each source form a tree that keeps, for every node, the
/// id of the last link into it. That is n² entries, like the hop counts.
/// Deserializing runs the checks [`NopTopology::from_adjacency`] runs, and
/// a mesh or triangular kind must carry exactly the adjacency its
/// constructor builds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NopTopology {
    kind: TopologyKind,
    adjacency: Vec<Vec<bool>>,
    #[serde(skip)]
    cache: TopologyCache,
}

/// Neighbor lists, all-pairs hop counts and every route, derived from the
/// kind and adjacency when the topology is built.
#[derive(Debug, Clone, PartialEq)]
struct TopologyCache {
    neighbors: Vec<Vec<ChipletId>>,
    hops: Vec<Vec<u32>>,
    /// Directed links `(from, to)`, numbered by `from`, then by `to`.
    links: Vec<(ChipletId, ChipletId)>,
    /// Entry `a·n + v` is the id of the last link into `v` on the route
    /// from `a` (unused for `v == a`): the routes from one source form a
    /// tree, so a route is walked back from its end.
    last_link: Vec<usize>,
}

impl NopTopology {
    /// A `rows × cols` 2-D mesh, nodes numbered row-major.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        Self::from_grid(TopologyKind::Mesh { rows, cols })
    }

    /// A `rows × cols` mesh with an additional diagonal link per cell
    /// (`(r,c) ↔ (r+1,c+1)`): the triangular NoP of Figure 6.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn triangular(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        Self::from_grid(TopologyKind::Triangular { rows, cols })
    }

    /// The mesh or triangular topology `kind` names.
    fn from_grid(kind: TopologyKind) -> Self {
        let adjacency = kind.grid().expect("mesh kinds have a grid");
        Self::checked(kind, adjacency).expect("a grid is a valid topology")
    }

    /// A topology from a raw adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the matrix is empty, non-square,
    /// asymmetric, has self-loops, or describes a disconnected graph.
    pub fn from_adjacency(adjacency: Vec<Vec<bool>>) -> Result<Self, TopologyError> {
        Self::checked(TopologyKind::Custom, adjacency)
    }

    /// A topology of `kind` over `adjacency`, after the checks every
    /// topology passes (non-empty, square, symmetric, loop-free, of the
    /// grid a mesh kind names, and connected), with its links numbered and
    /// every source's route tree laid out.
    fn checked(kind: TopologyKind, adjacency: Vec<Vec<bool>>) -> Result<Self, TopologyError> {
        let n = adjacency.len();
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        if adjacency.iter().any(|row| row.len() != n) {
            return Err(TopologyError::NotSquare);
        }
        for (i, row) in adjacency.iter().enumerate() {
            if row[i] {
                return Err(TopologyError::SelfLoop(i));
            }
            if (0..n).any(|j| row[j] != adjacency[j][i]) {
                return Err(TopologyError::NotSymmetric);
            }
        }
        if let TopologyKind::Mesh { rows, cols } | TopologyKind::Triangular { rows, cols } = kind {
            if rows.checked_mul(cols) != Some(n) || kind.grid().as_ref() != Some(&adjacency) {
                return Err(TopologyError::KindMismatch { rows, cols });
            }
        }
        let neighbors: Vec<Vec<ChipletId>> = (0..n)
            .map(|i| (0..n).filter(|&j| adjacency[i][j]).collect())
            .collect();
        let mut hops = vec![vec![u32::MAX; n]; n];
        for (src, row) in hops.iter_mut().enumerate() {
            row[src] = 0;
            let mut q = VecDeque::from([src]);
            while let Some(u) = q.pop_front() {
                for &v in &neighbors[u] {
                    if row[v] == u32::MAX {
                        row[v] = row[u] + 1;
                        q.push_back(v);
                    }
                }
            }
        }
        if let Some(i) = hops.iter().position(|row| row[0] == u32::MAX) {
            return Err(TopologyError::Disconnected(i));
        }
        let mut first_link = Vec::with_capacity(n);
        let mut links = Vec::new();
        for (u, row) in neighbors.iter().enumerate() {
            first_link.push(links.len());
            links.extend(row.iter().map(|&v| (u, v)));
        }
        let link_id = |u: ChipletId, v: ChipletId| {
            first_link[u]
                + neighbors[u]
                    .binary_search(&v)
                    .expect("consecutive route nodes are neighbors")
        };
        let mut last_link = vec![usize::MAX; n * n];
        for a in 0..n {
            let prev = route_tree(kind, &neighbors, a);
            for (v, &u) in prev.iter().enumerate().filter(|&(v, _)| v != a) {
                last_link[a * n + v] = link_id(u, v);
            }
        }
        Ok(Self {
            kind,
            adjacency,
            cache: TopologyCache {
                neighbors,
                hops,
                links,
                last_link,
            },
        })
    }

    /// Reads a serialized topology: a schema error outside, the result of
    /// the checks every topology passes inside.
    pub(crate) fn decode(v: &Value) -> Result<Result<Self, TopologyError>, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "NopTopology", v))?;
        Ok(Self::checked(
            serde::__field(obj, "kind", "NopTopology")?,
            serde::__field(obj, "adjacency", "NopTopology")?,
        ))
    }

    /// Number of chiplet positions.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Direct NoP neighbors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: ChipletId) -> &[ChipletId] {
        &self.cache.neighbors[id]
    }

    /// True if `a` and `b` share an interposer link.
    pub fn is_adjacent(&self, a: ChipletId, b: ChipletId) -> bool {
        self.adjacency[a][b]
    }

    /// Minimum hop count between `a` and `b` (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn hops(&self, a: ChipletId, b: ChipletId) -> u32 {
        self.cache.hops[a][b]
    }

    /// Mesh dimensions, when this is a (triangular) mesh.
    pub fn mesh_dims(&self) -> Option<(usize, usize)> {
        match self.kind {
            TopologyKind::Mesh { rows, cols } | TopologyKind::Triangular { rows, cols } => {
                Some((rows, cols))
            }
            TopologyKind::Custom => None,
        }
    }

    /// `(row, col)` coordinates of `id` on a mesh; `None` for custom
    /// topologies.
    pub fn coords(&self, id: ChipletId) -> Option<(usize, usize)> {
        self.mesh_dims().map(|(_, cols)| (id / cols, id % cols))
    }

    /// The routed node sequence from `a` to `b`, inclusive of endpoints.
    ///
    /// Meshes use XY routing (traverse columns first, then rows — §V-A);
    /// triangular meshes and custom topologies use BFS shortest paths with
    /// deterministic (lowest-index-first) tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn route(&self, a: ChipletId, b: ChipletId) -> Vec<ChipletId> {
        if a == b {
            return vec![a];
        }
        if let TopologyKind::Mesh { cols, .. } = self.kind {
            // XY: move along the row (column index) first, then the column
            let (ar, ac) = (a / cols, a % cols);
            let (br, bc) = (b / cols, b % cols);
            let mut path = vec![a];
            let (mut r, mut c) = (ar, ac);
            while c != bc {
                c = if bc > c { c + 1 } else { c - 1 };
                path.push(r * cols + c);
            }
            while r != br {
                r = if br > r { r + 1 } else { r - 1 };
                path.push(r * cols + c);
            }
            return path;
        }
        // BFS with lowest-index predecessor preference
        let n = self.num_nodes();
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        seen[a] = true;
        let mut q = VecDeque::from([a]);
        while let Some(u) = q.pop_front() {
            if u == b {
                break;
            }
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    q.push_back(v);
                }
            }
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// The directed links `(from, to)`, indexed by link id: every
    /// interposer link appears once in each direction.
    pub(crate) fn links(&self) -> &[(ChipletId, ChipletId)] {
        &self.cache.links
    }

    /// Ids (into [`NopTopology::links`]) of the links the route from `a`
    /// to `b` crosses, walked from `b` back to `a`; none when `a == b`.
    /// A route crosses each link at most once.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub(crate) fn route_link_ids(
        &self,
        a: ChipletId,
        b: ChipletId,
    ) -> impl Iterator<Item = usize> + '_ {
        let n = self.num_nodes();
        assert!(a < n && b < n, "chiplet id out of range");
        let c = &self.cache;
        let mut v = b;
        std::iter::from_fn(move || {
            (v != a).then(|| {
                let link = c.last_link[a * n + v];
                v = c.links[link].0;
                link
            })
        })
    }
}

impl TopologyKind {
    /// The adjacency a mesh or triangular kind's constructor builds.
    fn grid(self) -> Option<Vec<Vec<bool>>> {
        let (TopologyKind::Mesh { rows, cols } | TopologyKind::Triangular { rows, cols }) = self
        else {
            return None;
        };
        let n = rows * cols;
        let mut adj = vec![vec![false; n]; n];
        let mut link = |i: usize, j: usize| {
            adj[i][j] = true;
            adj[j][i] = true;
        };
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    link(i, i + 1);
                }
                if r + 1 < rows {
                    link(i, i + cols);
                }
            }
        }
        if let TopologyKind::Triangular { .. } = self {
            for r in 0..rows.saturating_sub(1) {
                for c in 0..cols.saturating_sub(1) {
                    link(r * cols + c, (r + 1) * cols + (c + 1));
                }
            }
        }
        Some(adj)
    }
}

/// A deserialized topology is checked and gets its routes like a built one.
impl Deserialize for NopTopology {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::decode(v)?.map_err(|e| DeError::msg(format!("NopTopology: {e}")))
    }
}

/// Every node's predecessor on its route from `a`, as
/// [`NopTopology::route`] routes (`a` is its own): the routes from one
/// source form a tree. XY on a mesh; elsewhere one lowest-index BFS.
fn route_tree(kind: TopologyKind, neighbors: &[Vec<ChipletId>], a: ChipletId) -> Vec<ChipletId> {
    let n = neighbors.len();
    if let TopologyKind::Mesh { cols, .. } = kind {
        // the last hop into (r, c): along column c toward a's row, unless
        // already on it, then along a's row toward a's column
        let (ar, ac) = (a / cols, a % cols);
        let toward = |x: usize, target: usize| if x > target { x - 1 } else { x + 1 };
        return (0..n)
            .map(|v| {
                let (r, c) = (v / cols, v % cols);
                if r != ar {
                    toward(r, ar) * cols + c
                } else if c != ac {
                    r * cols + toward(c, ac)
                } else {
                    v
                }
            })
            .collect();
    }
    let mut prev = vec![usize::MAX; n];
    prev[a] = a;
    let mut q = VecDeque::from([a]);
    while let Some(u) = q.pop_front() {
        for &v in &neighbors[u] {
            if prev[v] == usize::MAX {
                prev[v] = u;
                q.push_back(v);
            }
        }
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{mcm_from_json, mcm_to_json};
    use scar_maestro::{ChipletConfig, Dataflow};

    #[test]
    fn mesh_adjacency_is_four_connected() {
        let t = NopTopology::mesh(3, 3);
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.neighbors(4), &[1, 3, 5, 7]); // center
        assert_eq!(t.neighbors(0), &[1, 3]); // corner
    }

    #[test]
    fn mesh_hops_are_manhattan() {
        let t = NopTopology::mesh(3, 3);
        assert_eq!(t.hops(0, 8), 4);
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(2, 6), 4);
        assert_eq!(t.hops(1, 7), 2);
    }

    #[test]
    fn xy_route_goes_column_first() {
        let t = NopTopology::mesh(3, 3);
        // 0=(0,0) -> 8=(2,2): X first: 0,1,2 then down 5,8
        assert_eq!(t.route(0, 8), vec![0, 1, 2, 5, 8]);
        assert_eq!(t.route(8, 0), vec![8, 7, 6, 3, 0]);
    }

    #[test]
    fn triangular_adds_diagonals() {
        let t = NopTopology::triangular(3, 3);
        assert!(t.is_adjacent(0, 4));
        assert!(t.is_adjacent(4, 8));
        assert!(!t.is_adjacent(2, 4)); // anti-diagonal not added
        assert_eq!(t.hops(0, 8), 2);
    }

    #[test]
    fn route_is_connected_and_shortest() {
        for t in [NopTopology::mesh(4, 4), NopTopology::triangular(4, 4)] {
            for a in 0..t.num_nodes() {
                for b in 0..t.num_nodes() {
                    let p = t.route(a, b);
                    assert_eq!(p[0], a);
                    assert_eq!(*p.last().unwrap(), b);
                    assert_eq!(p.len() as u32 - 1, t.hops(a, b));
                    for w in p.windows(2) {
                        assert!(t.is_adjacent(w[0], w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn custom_topology_validation() {
        assert_eq!(
            NopTopology::from_adjacency(vec![]).unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            NopTopology::from_adjacency(vec![vec![false, true], vec![false]]).unwrap_err(),
            TopologyError::NotSquare
        );
        assert_eq!(
            NopTopology::from_adjacency(vec![vec![false, true], vec![false, false]]).unwrap_err(),
            TopologyError::NotSymmetric
        );
        assert_eq!(
            NopTopology::from_adjacency(vec![vec![true]]).unwrap_err(),
            TopologyError::SelfLoop(0)
        );
        let disconnected = vec![
            vec![false, true, false],
            vec![true, false, false],
            vec![false, false, false],
        ];
        assert_eq!(
            NopTopology::from_adjacency(disconnected).unwrap_err(),
            TopologyError::Disconnected(2)
        );
    }

    #[test]
    fn custom_ring_routes() {
        // 4-node ring
        let mut adj = vec![vec![false; 4]; 4];
        for i in 0..4 {
            adj[i][(i + 1) % 4] = true;
            adj[(i + 1) % 4][i] = true;
        }
        let t = NopTopology::from_adjacency(adj).unwrap();
        assert_eq!(t.hops(0, 2), 2);
        assert_eq!(t.mesh_dims(), None);
        let p = t.route(0, 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn coords_roundtrip() {
        let t = NopTopology::mesh(2, 3);
        assert_eq!(t.coords(4), Some((1, 1)));
        assert_eq!(t.coords(0), Some((0, 0)));
    }

    #[test]
    fn route_link_ids_count_hops() {
        let t = NopTopology::mesh(3, 3);
        assert_eq!(t.links().len(), 24); // 12 interposer links, both ways
        let ends: Vec<_> = t.route_link_ids(0, 8).map(|l| t.links()[l]).collect();
        assert_eq!(ends, vec![(5, 8), (2, 5), (1, 2), (0, 1)]);
        assert_eq!(t.route_link_ids(3, 3).count(), 0);
    }

    #[test]
    fn a_long_chain_description_keeps_its_route_table_quadratic() {
        // every ordered pair's full route would be Σ hops ≈ n³/3 entries
        let n: usize = 256;
        let chain = NopTopology::from_adjacency(
            (0..n)
                .map(|i| (0..n).map(|j| i.abs_diff(j) == 1).collect())
                .collect(),
        )
        .unwrap();
        let mcm = crate::McmConfig::new(
            "chain",
            vec![ChipletConfig::arvr(Dataflow::NvdlaLike); n],
            chain,
            vec![0],
        );
        let parsed = mcm_from_json(&mcm_to_json(&mcm).unwrap()).unwrap();
        let t = parsed.topology();
        assert_eq!(t.cache.last_link.len(), n * n);
        assert_eq!(t.cache.hops.iter().map(Vec::len).sum::<usize>(), n * n);
        let ends: Vec<_> = t.route_link_ids(0, n - 1).map(|l| t.links()[l]).collect();
        let hops: Vec<_> = (1..n).rev().map(|v| (v - 1, v)).collect();
        assert_eq!(ends, hops);
    }

    fn reparse(t: &NopTopology) -> Result<NopTopology, serde::DeError> {
        NopTopology::from_value(&t.to_value())
    }

    /// `t` serialized with its `kind` replaced by `kind`.
    fn with_kind_value(t: &NopTopology, kind: Value) -> Value {
        let Value::Object(mut fields) = t.to_value() else {
            unreachable!("topologies serialize as objects")
        };
        fields.iter_mut().find(|(k, _)| k == "kind").unwrap().1 = kind;
        Value::Object(fields)
    }

    #[test]
    fn deserialized_topologies_keep_their_routes() {
        let ring = NopTopology::from_adjacency(
            (0..4)
                .map(|i| {
                    (0..4)
                        .map(|j| (i + 1) % 4 == j || (j + 1) % 4 == i)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        for t in [
            NopTopology::mesh(3, 3),
            NopTopology::triangular(3, 3),
            NopTopology::mesh(1, 2),
            ring,
        ] {
            assert_eq!(reparse(&t).unwrap(), t);
        }
    }

    #[test]
    fn deserialization_rejects_a_kind_its_adjacency_contradicts() {
        let t = NopTopology::mesh(3, 3);
        for (rows, cols) in [(3, 4), (3, 2), (9, 1)] {
            let kind = NopTopology::mesh(rows, cols).kind.to_value();
            let err = NopTopology::from_value(&with_kind_value(&t, kind)).unwrap_err();
            assert!(
                err.to_string().contains(&format!("{rows}×{cols} grid")),
                "{err}"
            );
        }
        // right node count, wrong links: a triangular adjacency under a mesh kind
        let tri = NopTopology::triangular(3, 3);
        let v = with_kind_value(&tri, t.kind.to_value());
        assert!(NopTopology::from_value(&v).is_err());
        // a triangular kind over a plain mesh's adjacency
        let v = with_kind_value(&t, NopTopology::triangular(3, 3).kind.to_value());
        assert!(NopTopology::from_value(&v).is_err());
    }

    #[test]
    fn deserialization_runs_the_adjacency_checks() {
        let custom = |adjacency: Vec<Vec<bool>>| NopTopology {
            kind: TopologyKind::Custom,
            adjacency,
            cache: NopTopology::mesh(1, 1).cache,
        };
        for (adj, want) in [
            (vec![], TopologyError::Empty),
            (
                vec![vec![false, true], vec![false]],
                TopologyError::NotSquare,
            ),
            (
                vec![vec![false, true], vec![false, false]],
                TopologyError::NotSymmetric,
            ),
            (vec![vec![true]], TopologyError::SelfLoop(0)),
            (
                vec![
                    vec![false, true, false],
                    vec![true, false, false],
                    vec![false, false, false],
                ],
                TopologyError::Disconnected(2),
            ),
        ] {
            let err = reparse(&custom(adj)).unwrap_err();
            assert_eq!(err.to_string(), format!("NopTopology: {want}"));
        }
    }
}

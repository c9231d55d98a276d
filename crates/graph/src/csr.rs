//! The immutable CSR typed object graph.

use crate::{NodeId, TypeId, TypeRegistry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An immutable, undirected, typed object graph in compressed-sparse-row form.
///
/// This is the substrate `G = (V, E)` with type mapping `τ` from Sect. II-A
/// of the paper. Built via [`crate::GraphBuilder`]; see the crate docs for
/// the supported access patterns.
///
/// # Representation
///
/// * `offsets[v] .. offsets[v+1]` delimits `v`'s adjacency in `adjacency`.
/// * Each node's adjacency is sorted by `(τ(neighbor), neighbor)`, so the
///   neighbours of a given type form a contiguous subslice and edge tests
///   are binary searches.
/// * `type_nodes` / `type_offsets` is a second CSR over types: all node ids
///   of a type, used to seed subgraph matching.
/// * `edge_type_pairs` / `edge_type_counts` hold the edge count of every
///   unordered type pair `(lo, hi)`, `lo <= hi`, that has at least one
///   edge: keys sorted ascending, counts positive. Feeds the
///   matching-order heuristic (Sect. IV-C); sparse because a schema with
///   `|T|` types has far fewer than `|T|²` connected pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    // Fields are crate-visible so the incremental extension path
    // (`crate::delta`) can splice new adjacency in without a full rebuild.
    pub(crate) types: TypeRegistry,
    pub(crate) node_types: Vec<TypeId>,
    pub(crate) labels: Vec<String>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) adjacency: Vec<NodeId>,
    pub(crate) type_offsets: Vec<u32>,
    pub(crate) type_nodes: Vec<NodeId>,
    pub(crate) edge_type_pairs: Vec<(TypeId, TypeId)>,
    pub(crate) edge_type_counts: Vec<u64>,
    pub(crate) n_edges: u64,
}

impl Graph {
    /// Assembles a graph from parts. `edges` must be deduplicated, each pair
    /// `(a, b)` with `a < b`, and all endpoints in range. Callers normally go
    /// through [`crate::GraphBuilder`].
    pub(crate) fn from_parts(
        types: TypeRegistry,
        node_types: Vec<TypeId>,
        labels: Vec<String>,
        edges: &[(NodeId, NodeId)],
    ) -> Self {
        let n = node_types.len();
        let t = types.len().max(1);

        // Degree pass.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Fill pass.
        let mut adjacency = vec![NodeId(0); offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(a, b) in edges {
            adjacency[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            adjacency[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }

        // Sort each adjacency list by (type, id) so type subranges are
        // contiguous and membership is a binary search.
        for v in 0..n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            adjacency[s..e].sort_unstable_by_key(|&u| (node_types[u.index()], u));
        }

        // Per-type node lists.
        let mut type_offsets = vec![0u32; t + 1];
        for &ty in &node_types {
            type_offsets[ty.index() + 1] += 1;
        }
        for i in 0..t {
            type_offsets[i + 1] += type_offsets[i];
        }
        let mut type_nodes = vec![NodeId(0); n];
        let mut tcursor = type_offsets.clone();
        for (v, &ty) in node_types.iter().enumerate() {
            type_nodes[tcursor[ty.index()] as usize] = NodeId(v as u32);
            tcursor[ty.index()] += 1;
        }
        // Node ids within a type are emitted in increasing order already.

        // Edge-type-pair statistics (unordered; diagonal counted once).
        let mut pair_counts: BTreeMap<(TypeId, TypeId), u64> = BTreeMap::new();
        for &(a, b) in edges {
            let key = type_pair(node_types[a.index()], node_types[b.index()]);
            *pair_counts.entry(key).or_insert(0) += 1;
        }
        let (edge_type_pairs, edge_type_counts) = pair_counts.into_iter().unzip();

        Graph {
            types,
            node_types,
            labels,
            offsets,
            adjacency,
            type_offsets,
            type_nodes,
            edge_type_pairs,
            edge_type_counts,
            n_edges: edges.len() as u64,
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> u64 {
        self.n_edges
    }

    /// Number of object types `|T|`.
    #[inline]
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// The type registry.
    #[inline]
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// The type `τ(v)` of a node.
    #[inline(always)]
    pub fn node_type(&self, v: NodeId) -> TypeId {
        self.node_types[v.index()]
    }

    /// The label (intrinsic value) of a node, e.g. `"Alice"`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &str {
        &self.labels[v.index()]
    }

    /// Looks up a node by its label (linear scan; intended for tests and
    /// small demos, not hot paths).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| NodeId(i as u32))
    }

    /// Degree of a node.
    #[inline(always)]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// All neighbours of `v`, sorted by `(type, id)`.
    #[inline(always)]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        );
        &self.adjacency[s..e]
    }

    /// The neighbours of `v` having type `ty`, as a contiguous slice.
    pub fn neighbors_of_type(&self, v: NodeId, ty: TypeId) -> &[NodeId] {
        let adj = self.neighbors(v);
        let start = adj.partition_point(|&u| self.node_type(u) < ty);
        let end = start + adj[start..].partition_point(|&u| self.node_type(u) == ty);
        &adj[start..end]
    }

    /// Number of neighbours of `v` with type `ty`.
    #[inline]
    pub fn degree_of_type(&self, v: NodeId, ty: TypeId) -> usize {
        self.neighbors_of_type(v, ty).len()
    }

    /// Edge test, O(log deg). Order-independent; self-edges are always false.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        // Probe the smaller adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let key = (self.node_type(target), target);
        self.neighbors(probe)
            .binary_search_by_key(&key, |&u| (self.node_type(u), u))
            .is_ok()
    }

    /// All nodes of a type, in increasing id order.
    pub fn nodes_of_type(&self, ty: TypeId) -> &[NodeId] {
        if ty.index() >= self.types.len() {
            return &[];
        }
        let (s, e) = (
            self.type_offsets[ty.index()] as usize,
            self.type_offsets[ty.index() + 1] as usize,
        );
        &self.type_nodes[s..e]
    }

    /// Number of nodes of a type.
    #[inline]
    pub fn n_nodes_of_type(&self, ty: TypeId) -> usize {
        self.nodes_of_type(ty).len()
    }

    /// Number of edges whose endpoint types are `{t1, t2}` (unordered).
    pub fn edge_type_count(&self, t1: TypeId, t2: TypeId) -> u64 {
        self.edge_type_pairs
            .binary_search(&type_pair(t1, t2))
            .map_or(0, |i| self.edge_type_counts[i])
    }

    /// Iterates all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes() as u32).map(NodeId)
    }

    /// Iterates all undirected edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .copied()
                .filter(move |&u| v < u)
                .map(move |u| (v, u))
        })
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// The statistics key of an edge between types `a` and `b`: the pair in
/// ascending order.
#[inline]
pub(crate) fn type_pair(a: TypeId, b: TypeId) -> (TypeId, TypeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Kate–Jay–College style toy: 2 users, 1 school, 1 major.
    fn small() -> (Graph, [NodeId; 4]) {
        let mut b = GraphBuilder::new();
        let user = b.add_type("user");
        let school = b.add_type("school");
        let major = b.add_type("major");
        let kate = b.add_node(user, "Kate");
        let jay = b.add_node(user, "Jay");
        let coll = b.add_node(school, "College B");
        let econ = b.add_node(major, "Economics");
        for (a, bb) in [(kate, coll), (jay, coll), (kate, econ), (jay, econ)] {
            b.add_edge(a, bb).unwrap();
        }
        (b.build(), [kate, jay, coll, econ])
    }

    #[test]
    fn basic_accessors() {
        let (g, [kate, jay, coll, econ]) = small();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.n_types(), 3);
        assert_eq!(g.types().name(g.node_type(kate)), Some("user"));
        assert_eq!(g.label(coll), "College B");
        assert_eq!(g.node_by_label("Jay"), Some(jay));
        assert_eq!(g.node_by_label("Nobody"), None);
        assert_eq!(g.degree(kate), 2);
        assert_eq!(g.degree(econ), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_symmetric() {
        let (g, [kate, jay, coll, _]) = small();
        assert!(g.has_edge(kate, coll));
        assert!(g.has_edge(coll, kate));
        assert!(!g.has_edge(kate, jay));
        assert!(!g.has_edge(kate, kate));
    }

    #[test]
    fn typed_neighbor_slices() {
        let (g, [kate, _, coll, econ]) = small();
        let school_ty = g.types().id("school").unwrap();
        let major_ty = g.types().id("major").unwrap();
        let user_ty = g.types().id("user").unwrap();
        assert_eq!(g.neighbors_of_type(kate, school_ty), &[coll]);
        assert_eq!(g.neighbors_of_type(kate, major_ty), &[econ]);
        assert!(g.neighbors_of_type(kate, user_ty).is_empty());
        assert_eq!(g.degree_of_type(coll, user_ty), 2);
    }

    #[test]
    fn adjacency_sorted_by_type_then_id() {
        let (g, _) = small();
        for v in g.nodes() {
            let adj = g.neighbors(v);
            for w in adj.windows(2) {
                let ka = (g.node_type(w[0]), w[0]);
                let kb = (g.node_type(w[1]), w[1]);
                assert!(ka < kb, "adjacency of {v} not sorted");
            }
        }
    }

    #[test]
    fn type_node_lists() {
        let (g, [kate, jay, coll, econ]) = small();
        let user_ty = g.types().id("user").unwrap();
        assert_eq!(g.nodes_of_type(user_ty), &[kate, jay]);
        assert_eq!(g.n_nodes_of_type(user_ty), 2);
        let school_ty = g.types().id("school").unwrap();
        assert_eq!(g.nodes_of_type(school_ty), &[coll]);
        let major_ty = g.types().id("major").unwrap();
        assert_eq!(g.nodes_of_type(major_ty), &[econ]);
        assert!(g.nodes_of_type(TypeId(99)).is_empty());
    }

    #[test]
    fn edge_type_statistics() {
        let (g, _) = small();
        let user = g.types().id("user").unwrap();
        let school = g.types().id("school").unwrap();
        let major = g.types().id("major").unwrap();
        assert_eq!(g.edge_type_count(user, school), 2);
        assert_eq!(g.edge_type_count(school, user), 2);
        assert_eq!(g.edge_type_count(user, major), 2);
        assert_eq!(g.edge_type_count(school, major), 0);
        assert_eq!(g.edge_type_count(user, user), 0);
        assert_eq!(g.edge_type_count(TypeId(9), user), 0);
    }

    #[test]
    fn edge_iterator_each_edge_once() {
        let (g, _) = small();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (a, b) in edges {
            assert!(a < b);
            assert!(g.has_edge(a, b));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}

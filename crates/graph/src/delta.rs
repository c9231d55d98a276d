//! Incremental graph churn: [`GraphDelta`] batches of node/edge
//! insertions *and removals*, with a CSR *splicing* path that avoids the
//! full rebuild of [`crate::GraphBuilder::build`].
//!
//! The object graph is immutable CSR for matching speed, which makes naive
//! updates O(|V| + |E|) re-sorts. [`Graph::apply_delta`] instead produces
//! the updated graph by splicing: untouched adjacency lists are copied
//! verbatim (they are already `(type, id)`-sorted), and only the lists of
//! nodes gaining or losing edges are re-merged — a three-way linear merge
//! of the old sorted run minus its sorted removals plus its sorted
//! additions. Per-type node lists stay sorted for free because new node
//! ids are larger than every existing id. The result is indistinguishable
//! from rebuilding from scratch (asserted by tests) at a fraction of the
//! cost — the substrate for the delta-driven matching/index/serving
//! pipeline upstream.
//!
//! ## Removal semantics
//!
//! * Edge removal targets the *pre-batch* graph: removing an edge absent
//!   from the base is tolerated and ignored (dangling CDC events are
//!   common), as are duplicate removals of the same edge.
//! * Node removal is a **tombstone detach**: all of the node's current
//!   edges are removed, but the id survives with degree 0 — dense node
//!   ids are never reused or compacted (compaction is a follow-on, see
//!   ROADMAP). Only base nodes can be removed; removing a node added in
//!   the same delta is rejected eagerly.
//! * A batch is *net*: an edge both removed and inserted in one delta
//!   survives (insertion defines the post-state), and appears in neither
//!   [`GraphExtension::new_edges`] nor [`GraphExtension::removed_edges`].
//!   In particular, edges inserted towards a node that the same batch
//!   removes do land — the removal detaches the node's *current* edges.

use crate::csr::{type_pair, Graph};
use crate::{GraphError, NodeId, TypeId};
use std::collections::BTreeMap;

/// A batch of churn against a fixed base graph: new nodes (each with a
/// type already registered in the base), new undirected edges among old
/// and new nodes, and removals of base edges and base nodes.
///
/// Deltas are constructed against a specific base via
/// [`GraphDelta::for_graph`] so node-id assignment matches the extended
/// graph. Edges already present in the base, duplicates within the delta,
/// and removals of absent edges are tolerated and dropped during
/// [`Graph::apply_delta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    base_nodes: u32,
    node_types: Vec<TypeId>,
    node_labels: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    removed_edges: Vec<(NodeId, NodeId)>,
    removed_nodes: Vec<NodeId>,
}

impl GraphDelta {
    /// Creates an empty delta against `base` (ids of nodes added here
    /// continue the base graph's dense id space).
    pub fn for_graph(base: &Graph) -> Self {
        GraphDelta {
            base_nodes: base.n_nodes() as u32,
            ..Default::default()
        }
    }

    /// Adds a node of an existing type; returns the id it will have in the
    /// extended graph.
    pub fn add_node(&mut self, ty: TypeId, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.base_nodes + self.node_types.len() as u32);
        self.node_types.push(ty);
        self.node_labels.push(label.into());
        id
    }

    /// Adds an undirected edge between old and/or delta-added nodes.
    /// Self-loops and out-of-range endpoints are rejected eagerly.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a.0));
        }
        let n = self.base_nodes + self.node_types.len() as u32;
        for v in [a, b] {
            if v.0 >= n {
                return Err(GraphError::UnknownNode(v.0));
            }
        }
        self.edges.push(if a.0 < b.0 { (a, b) } else { (b, a) });
        Ok(())
    }

    /// Records the removal of an undirected base edge. Both endpoints must
    /// be base nodes (an edge towards a delta-added node cannot pre-exist,
    /// so removing one is meaningless and rejected eagerly). Removing an
    /// edge the base does not have is tolerated at apply time.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a.0));
        }
        for v in [a, b] {
            if v.0 >= self.base_nodes {
                return Err(GraphError::UnknownNode(v.0));
            }
        }
        self.removed_edges
            .push(if a.0 < b.0 { (a, b) } else { (b, a) });
        Ok(())
    }

    /// Records the removal of a base node: a *tombstone detach* that drops
    /// every edge the node has in the base graph while keeping its id (at
    /// degree 0). Only base nodes are removable.
    pub fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        if v.0 >= self.base_nodes {
            return Err(GraphError::UnknownNode(v.0));
        }
        self.removed_nodes.push(v);
        Ok(())
    }

    /// Number of nodes this delta adds.
    pub fn n_new_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edge insertions recorded (before deduplication).
    pub fn n_edge_insertions(&self) -> usize {
        self.edges.len()
    }

    /// Number of edge removals recorded (before deduplication; node
    /// removals expand to their incident edges at apply time and are not
    /// counted here).
    pub fn n_edge_removals(&self) -> usize {
        self.removed_edges.len()
    }

    /// Number of node removals (tombstone detaches) recorded.
    pub fn n_node_removals(&self) -> usize {
        self.removed_nodes.len()
    }

    /// Whether the delta carries no insertions or removals at all.
    pub fn is_empty(&self) -> bool {
        self.node_types.is_empty()
            && self.edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_nodes.is_empty()
    }

    /// Types of the delta-added nodes, in id order.
    pub fn new_node_types(&self) -> &[TypeId] {
        &self.node_types
    }

    /// Serialises the delta into the compact journal-record layout
    /// (little-endian):
    ///
    /// ```text
    /// magic "MGPD" | version u16
    /// base_nodes u32
    /// n_new u32   | per new node: type u16
    ///             | per new node: label_len u32, label bytes
    /// n_edges u64         | per edge: a u32, b u32
    /// n_removed_edges u64 | per edge: a u32, b u32
    /// n_removed_nodes u64 | per node: v u32
    /// ```
    ///
    /// This is the payload of one `mgp-persist` delta-journal record;
    /// like [`crate::binary::encode`] it refuses dimensions the layout
    /// cannot hold instead of silently truncating them.
    pub fn to_bytes(&self) -> Result<Vec<u8>, GraphError> {
        let too_large = |what: &str, value: usize| GraphError::TooLarge {
            what: what.to_owned(),
            value: value as u64,
            max: u32::MAX as u64,
        };
        let mut buf = Vec::with_capacity(
            32 + self.node_labels.iter().map(|l| l.len() + 6).sum::<usize>()
                + (self.edges.len() + self.removed_edges.len()) * 8
                + self.removed_nodes.len() * 4,
        );
        buf.extend_from_slice(DELTA_MAGIC);
        buf.extend_from_slice(&DELTA_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.base_nodes.to_le_bytes());
        let n_new = u32::try_from(self.node_types.len())
            .map_err(|_| too_large("new-node count", self.node_types.len()))?;
        buf.extend_from_slice(&n_new.to_le_bytes());
        for ty in &self.node_types {
            buf.extend_from_slice(&ty.0.to_le_bytes());
        }
        for label in &self.node_labels {
            let len =
                u32::try_from(label.len()).map_err(|_| too_large("label length", label.len()))?;
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(label.as_bytes());
        }
        for list in [&self.edges, &self.removed_edges] {
            buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for (a, b) in list {
                buf.extend_from_slice(&a.0.to_le_bytes());
                buf.extend_from_slice(&b.0.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.removed_nodes.len() as u64).to_le_bytes());
        for v in &self.removed_nodes {
            buf.extend_from_slice(&v.0.to_le_bytes());
        }
        Ok(buf)
    }

    /// Deserialises a delta previously produced by
    /// [`GraphDelta::to_bytes`]. All counts are treated as untrusted:
    /// size arithmetic is checked and malformed input yields a typed
    /// [`GraphError::Parse`], never a panic — a corrupt journal record
    /// must be detectable, not fatal. Structural validity against a
    /// concrete base graph is still [`Graph::apply_delta`]'s job.
    pub fn from_bytes(data: &[u8]) -> Result<GraphDelta, GraphError> {
        let mut cur = RecordCursor { data };
        let fail = |message: &str| GraphError::Parse {
            line: 0,
            message: message.to_owned(),
        };

        let magic = cur.take(4, "header")?;
        if magic != DELTA_MAGIC {
            return Err(fail("bad delta magic"));
        }
        let version = cur.u16("header")?;
        if version != DELTA_VERSION {
            return Err(fail(&format!("unsupported delta version {version}")));
        }

        let base_nodes = cur.u32("base node count")?;
        let n_new = cur.u32("new-node count")? as usize;
        cur.check(n_new, 2, "new-node types")?;
        let mut node_types = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            node_types.push(TypeId(cur.u16("new-node types")?));
        }
        let mut node_labels = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            let len = cur.u32("label length")? as usize;
            let bytes = cur.take(len, "label")?;
            let label = std::str::from_utf8(bytes).map_err(|_| fail("label not utf-8"))?;
            node_labels.push(label.to_owned());
        }

        let mut edge_list = |what: &str| -> Result<Vec<(NodeId, NodeId)>, GraphError> {
            let n = cur.u64_count(what)?;
            cur.check(n, 8, what)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let a = cur.u32(what)?;
                let b = cur.u32(what)?;
                list.push((NodeId(a), NodeId(b)));
            }
            Ok(list)
        };
        let edges = edge_list("edges")?;
        let removed_edges = edge_list("removed edges")?;

        let n_removed = cur.u64_count("removed nodes")?;
        cur.check(n_removed, 4, "removed nodes")?;
        let mut removed_nodes = Vec::with_capacity(n_removed);
        for _ in 0..n_removed {
            removed_nodes.push(NodeId(cur.u32("removed nodes")?));
        }
        if !cur.data.is_empty() {
            return Err(fail("trailing bytes after delta record"));
        }
        Ok(GraphDelta {
            base_nodes,
            node_types,
            node_labels,
            edges,
            removed_edges,
            removed_nodes,
        })
    }
}

const DELTA_MAGIC: &[u8; 4] = b"MGPD";
const DELTA_VERSION: u16 = 1;

/// Bounds-checked little-endian reader over an untrusted record: every
/// read validates the remaining budget first (with checked size
/// arithmetic for counted payloads), so a corrupt or truncated record is
/// a typed [`GraphError::Parse`], never a panic.
struct RecordCursor<'a> {
    data: &'a [u8],
}

impl<'a> RecordCursor<'a> {
    fn fail(message: String) -> GraphError {
        GraphError::Parse { line: 0, message }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GraphError> {
        if self.data.len() < n {
            return Err(Self::fail(format!("truncated delta record reading {what}")));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Verifies that `count` items of `width` bytes fit the remaining
    /// budget without letting the product wrap.
    fn check(&self, count: usize, width: usize, what: &str) -> Result<(), GraphError> {
        let bytes = count
            .checked_mul(width)
            .ok_or_else(|| Self::fail(format!("{what} count {count} overflows size arithmetic")))?;
        if self.data.len() < bytes {
            return Err(Self::fail(format!("truncated delta record reading {what}")));
        }
        Ok(())
    }

    fn u16(&mut self, what: &str) -> Result<u16, GraphError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, GraphError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a u64 count and narrows it to `usize` with a typed error.
    fn u64_count(&mut self, what: &str) -> Result<usize, GraphError> {
        let b = self.take(8, what)?;
        let n = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        usize::try_from(n)
            .map_err(|_| Self::fail(format!("{what} count {n} overflows size arithmetic")))
    }
}

/// The outcome of [`Graph::apply_delta`]: the updated graph plus the edge
/// sets that genuinely changed — exactly what downstream incremental
/// matching must anchor on (new edges against the updated graph, removed
/// edges against the *pre*-delta graph).
#[derive(Debug, Clone)]
pub struct GraphExtension {
    /// The updated graph.
    pub graph: Graph,
    /// Genuinely new edges as `(a, b)` with `a < b`, sorted, deduplicated.
    pub new_edges: Vec<(NodeId, NodeId)>,
    /// Ids of the delta-added nodes (dense continuation of the base ids).
    pub new_nodes: Vec<NodeId>,
    /// Genuinely removed edges (present in the base, absent afterwards),
    /// as `(a, b)` with `a < b`, sorted, deduplicated. Includes the edges
    /// detached by node removals.
    pub removed_edges: Vec<(NodeId, NodeId)>,
    /// Ids of the tombstone-detached nodes, sorted, deduplicated. Their
    /// detached edges are part of [`GraphExtension::removed_edges`]; the
    /// ids themselves survive in the graph at degree 0.
    pub removed_nodes: Vec<NodeId>,
}

impl Graph {
    /// Applies a churn delta without rebuilding from scratch.
    ///
    /// Only adjacency lists of nodes that gain or lose edges are rewritten
    /// (a linear three-way merge of sorted runs); everything else is
    /// copied. Errors if the delta was built against a different-sized
    /// base or references a type the base does not know.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<GraphExtension, GraphError> {
        if delta.base_nodes as usize != self.n_nodes() {
            return Err(GraphError::UnknownNode(delta.base_nodes));
        }
        let t = self.types.len().max(1);
        for &ty in &delta.node_types {
            if ty.index() >= self.types.len() {
                return Err(GraphError::UnknownType(ty.0));
            }
        }

        let n_old = self.n_nodes();
        let n_new = n_old + delta.node_types.len();
        let mut node_types = self.node_types.clone();
        node_types.extend_from_slice(&delta.node_types);
        let mut labels = self.labels.clone();
        labels.extend(delta.node_labels.iter().cloned());

        // Normalise the insertion batch: sorted `(a, b)` with `a < b`,
        // deduped. Base-present edges are retained *after* the doomed set
        // is fixed (net semantics needs the full insert set first).
        let mut new_edges: Vec<(NodeId, NodeId)> = delta.edges.clone();
        new_edges.sort_unstable();
        new_edges.dedup();

        // Doomed set: explicit edge removals plus every base edge incident
        // to a removed node, restricted to edges the base actually has
        // (dangling removals are tolerated), minus edges the same batch
        // re-inserts (net semantics: insertion defines the post-state).
        let mut doomed: Vec<(NodeId, NodeId)> = delta.removed_edges.clone();
        for &v in &delta.removed_nodes {
            for &u in self.neighbors(v) {
                doomed.push(if v.0 < u.0 { (v, u) } else { (u, v) });
            }
        }
        doomed.sort_unstable();
        doomed.dedup();
        doomed.retain(|&(a, b)| self.has_edge(a, b) && new_edges.binary_search(&(a, b)).is_err());

        // Genuinely new edges: absent from the base. Edges touching a
        // delta-added node cannot pre-exist, so only old-old pairs probe.
        new_edges.retain(|&(a, b)| b.index() >= n_old || !self.has_edge(a, b));

        // Degree changes per node; the touched set is exactly the nodes
        // with a non-zero added or removed degree.
        let mut add_deg = vec![0u32; n_new];
        for &(a, b) in &new_edges {
            add_deg[a.index()] += 1;
            add_deg[b.index()] += 1;
        }
        let mut rem_deg = vec![0u32; n_old];
        for &(a, b) in &doomed {
            rem_deg[a.index()] += 1;
            rem_deg[b.index()] += 1;
        }

        // Per-endpoint sorted insertion/removal runs, keyed like
        // adjacency: `(type, id)`. Built by bucketing then sorting each
        // short run.
        let mut additions: Vec<Vec<NodeId>> = vec![Vec::new(); n_new];
        for &(a, b) in &new_edges {
            additions[a.index()].push(b);
            additions[b.index()].push(a);
        }
        for run in additions.iter_mut() {
            run.sort_unstable_by_key(|&u| (node_types[u.index()], u));
        }
        let mut removals: Vec<Vec<NodeId>> = vec![Vec::new(); n_old];
        for &(a, b) in &doomed {
            removals[a.index()].push(b);
            removals[b.index()].push(a);
        }
        for run in removals.iter_mut() {
            run.sort_unstable_by_key(|&u| (node_types[u.index()], u));
        }

        // New offsets, then splice adjacency: verbatim copy for untouched
        // nodes, three-way merge (old − removals + additions) for touched
        // ones, empty-plus-run for new.
        let mut offsets = vec![0u32; n_new + 1];
        for v in 0..n_new {
            let old_deg = if v < n_old {
                self.degree(NodeId(v as u32)) as u32
            } else {
                0
            };
            let removed = if v < n_old { rem_deg[v] } else { 0 };
            offsets[v + 1] = offsets[v] + old_deg + add_deg[v] - removed;
        }
        let mut adjacency: Vec<NodeId> = Vec::with_capacity(offsets[n_new] as usize);
        for (v, add) in additions.iter().enumerate() {
            if v >= n_old {
                adjacency.extend_from_slice(add);
                continue;
            }
            let old = self.neighbors(NodeId(v as u32));
            let rem = &removals[v];
            if add.is_empty() && rem.is_empty() {
                adjacency.extend_from_slice(old);
                continue;
            }
            // Three-way merge of `(type, id)`-sorted runs: every removal
            // entry occurs in `old` exactly once (doomed ⊆ base edges) and
            // both are sorted by the same key, so a single skip pointer
            // filters `old` while the additions merge in.
            let (mut i, mut j, mut k) = (0, 0, 0);
            loop {
                while i < old.len() && k < rem.len() && old[i] == rem[k] {
                    i += 1;
                    k += 1;
                }
                match (i < old.len(), j < add.len()) {
                    (false, false) => break,
                    (true, false) => {
                        adjacency.push(old[i]);
                        i += 1;
                    }
                    (false, true) => {
                        adjacency.push(add[j]);
                        j += 1;
                    }
                    (true, true) => {
                        let ka = (node_types[old[i].index()], old[i]);
                        let kb = (node_types[add[j].index()], add[j]);
                        if ka <= kb {
                            adjacency.push(old[i]);
                            i += 1;
                        } else {
                            adjacency.push(add[j]);
                            j += 1;
                        }
                    }
                }
            }
        }

        // Per-type node lists: removals are tombstones (ids survive), and
        // new ids exceed all old ids, so appending each type's newcomers
        // after its existing (ascending) run keeps the invariant.
        let mut type_offsets = vec![0u32; t + 1];
        for i in 0..t {
            let added = delta.node_types.iter().filter(|ty| ty.index() == i).count() as u32;
            type_offsets[i + 1] =
                type_offsets[i] + (self.type_offsets[i + 1] - self.type_offsets[i]) + added;
        }
        let mut type_nodes: Vec<NodeId> = Vec::with_capacity(n_new);
        for i in 0..t {
            let (s, e) = (
                self.type_offsets[i] as usize,
                self.type_offsets[i + 1] as usize,
            );
            type_nodes.extend_from_slice(&self.type_nodes[s..e]);
            for (j, ty) in delta.node_types.iter().enumerate() {
                if ty.index() == i {
                    type_nodes.push(NodeId((n_old + j) as u32));
                }
            }
        }

        // Edge-type statistics pick up the new edges and shed the doomed:
        // the delta's per-pair changes, sorted by key, merge into the
        // sorted count columns; a pair whose last edge went drops out.
        let mut changes: BTreeMap<(TypeId, TypeId), i64> = BTreeMap::new();
        for (edges, step) in [(&new_edges, 1), (&doomed, -1)] {
            for &(a, b) in edges {
                let key = type_pair(node_types[a.index()], node_types[b.index()]);
                *changes.entry(key).or_insert(0) += step;
            }
        }
        let (mut edge_type_pairs, mut edge_type_counts) = (Vec::new(), Vec::new());
        let mut push = |key, count: u64| {
            if count > 0 {
                edge_type_pairs.push(key);
                edge_type_counts.push(count);
            }
        };
        let mut old = self
            .edge_type_pairs
            .iter()
            .copied()
            .zip(self.edge_type_counts.iter().copied())
            .peekable();
        for (key, change) in changes {
            while let Some((k, c)) = old.next_if(|&(k, _)| k < key) {
                push(k, c);
            }
            let base = old.next_if(|&(k, _)| k == key).map_or(0, |(_, c)| c);
            push(
                key,
                base.checked_add_signed(change)
                    .expect("a doomed edge is counted in its type pair"),
            );
        }
        for (k, c) in old {
            push(k, c);
        }

        let graph = Graph {
            types: self.types.clone(),
            node_types,
            labels,
            offsets,
            adjacency,
            type_offsets,
            type_nodes,
            edge_type_pairs,
            edge_type_counts,
            n_edges: self.n_edges + new_edges.len() as u64 - doomed.len() as u64,
        };
        let new_nodes = (n_old..n_new).map(|v| NodeId(v as u32)).collect();
        let mut removed_nodes = delta.removed_nodes.clone();
        removed_nodes.sort_unstable();
        removed_nodes.dedup();
        Ok(GraphExtension {
            graph,
            new_edges,
            new_nodes,
            removed_edges: doomed,
            removed_nodes,
        })
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::GraphBuilder;

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        let user = b.add_type("user");
        let school = b.add_type("school");
        let s = b.add_node(school, "s0");
        for i in 0..4 {
            let u = b.add_node(user, format!("u{i}"));
            b.add_edge(u, s).unwrap();
        }
        b.build()
    }

    fn busy_delta(g: &Graph) -> GraphDelta {
        let mut d = GraphDelta::for_graph(g);
        let u = d.add_node(TypeId(0), "new-user");
        let v = d.add_node(TypeId(1), "new-school ✓ unicode");
        d.add_edge(u, v).unwrap();
        d.add_edge(NodeId(1), v).unwrap();
        d.remove_edge(NodeId(2), NodeId(0)).unwrap();
        d.remove_node(NodeId(3)).unwrap();
        d
    }

    #[test]
    fn roundtrips_bitwise() {
        let g = base();
        for d in [GraphDelta::for_graph(&g), busy_delta(&g)] {
            let bytes = d.to_bytes().unwrap();
            let back = GraphDelta::from_bytes(&bytes).unwrap();
            assert_eq!(back, d);
            // And the re-encoding is byte-identical (canonical form).
            assert_eq!(back.to_bytes().unwrap(), bytes);
        }
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = busy_delta(&base()).to_bytes().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                GraphDelta::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = busy_delta(&base()).to_bytes().unwrap();
        bytes.push(0);
        assert!(GraphDelta::from_bytes(&bytes).is_err());
    }

    #[test]
    fn hostile_counts_cannot_wrap() {
        // Patch the edge count (after header + node section) to 2^61:
        // the 8-byte product wraps with unchecked arithmetic.
        let d = {
            let g = base();
            let mut d = GraphDelta::for_graph(&g);
            d.add_edge(NodeId(0), NodeId(1)).unwrap();
            d
        };
        let mut bytes = d.to_bytes().unwrap();
        let off = 4 + 2 + 4 + 4; // magic, version, base_nodes, n_new (0 new nodes)
        bytes[off..off + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(matches!(
            GraphDelta::from_bytes(&bytes),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn decoded_delta_applies_identically() {
        let g = base();
        let d = busy_delta(&g);
        let bytes = d.to_bytes().unwrap();
        let back = GraphDelta::from_bytes(&bytes).unwrap();
        let a = g.apply_delta(&d).unwrap();
        let b = g.apply_delta(&back).unwrap();
        assert_eq!(a.new_edges, b.new_edges);
        assert_eq!(a.removed_edges, b.removed_edges);
        assert_eq!(a.new_nodes, b.new_nodes);
        assert_eq!(a.graph.n_edges(), b.graph.n_edges());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        let user = b.add_type("user");
        let school = b.add_type("school");
        let major = b.add_type("major");
        let s = b.add_node(school, "s0");
        let m = b.add_node(major, "m0");
        for i in 0..5 {
            let u = b.add_node(user, format!("u{i}"));
            b.add_edge(u, s).unwrap();
            if i % 2 == 0 {
                b.add_edge(u, m).unwrap();
            }
        }
        b.build()
    }

    /// Rebuild-from-scratch reference: the final edge set under the net
    /// semantics — `(base ∖ doomed) ∪ inserted`, where node removals
    /// expand to their base-incident edges.
    fn rebuilt(g: &Graph, delta: &GraphDelta) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..g.types().len() {
            b.add_type(g.types().name(TypeId(i as u16)).unwrap());
        }
        for v in g.nodes() {
            b.add_node(g.node_type(v), g.label(v));
        }
        for (i, &ty) in delta.node_types.iter().enumerate() {
            b.add_node(ty, delta.node_labels[i].clone());
        }
        let norm = |a: NodeId, bb: NodeId| if a.0 < bb.0 { (a, bb) } else { (bb, a) };
        let mut doomed: Vec<(NodeId, NodeId)> = delta
            .removed_edges
            .iter()
            .map(|&(a, bb)| norm(a, bb))
            .collect();
        for &v in &delta.removed_nodes {
            for &u in g.neighbors(v) {
                doomed.push(norm(v, u));
            }
        }
        let mut inserted: Vec<(NodeId, NodeId)> =
            delta.edges.iter().map(|&(a, bb)| norm(a, bb)).collect();
        inserted.sort_unstable();
        inserted.dedup();
        let mut final_edges: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|e| !doomed.contains(e))
            .chain(inserted.iter().copied().filter(|&(a, bb)| {
                bb.index() >= g.n_nodes() || doomed.contains(&(a, bb)) || !g.has_edge(a, bb)
            }))
            .collect();
        final_edges.sort_unstable();
        final_edges.dedup();
        for (a, bb) in final_edges {
            b.add_edge(a, bb).unwrap();
        }
        b.build()
    }

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
        for v in a.nodes() {
            assert_eq!(a.node_type(v), b.node_type(v));
            assert_eq!(a.label(v), b.label(v));
            assert_eq!(a.neighbors(v), b.neighbors(v), "adjacency of {v}");
        }
        for ty in 0..a.n_types() as u16 {
            assert_eq!(a.nodes_of_type(TypeId(ty)), b.nodes_of_type(TypeId(ty)));
            for ty2 in 0..a.n_types() as u16 {
                assert_eq!(
                    a.edge_type_count(TypeId(ty), TypeId(ty2)),
                    b.edge_type_count(TypeId(ty), TypeId(ty2))
                );
            }
        }
    }

    #[test]
    fn extension_matches_full_rebuild() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let school = g.types().id("school").unwrap();
        let mut d = GraphDelta::for_graph(&g);
        let u_new = d.add_node(user, "u-new");
        let s_new = d.add_node(school, "s-new");
        d.add_edge(u_new, s_new).unwrap();
        d.add_edge(u_new, NodeId(0)).unwrap(); // new user into old school
        d.add_edge(NodeId(2), s_new).unwrap(); // old user into new school
        d.add_edge(NodeId(3), NodeId(1)).unwrap(); // old-old, new edge
        let ext = g.apply_delta(&d).unwrap();
        assert_same(&ext.graph, &rebuilt(&g, &d));
        assert_eq!(ext.new_nodes, vec![u_new, s_new]);
        assert_eq!(ext.new_edges.len(), 4);
        assert!(ext.removed_edges.is_empty());
    }

    #[test]
    fn duplicate_and_existing_edges_are_dropped() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // u0 (node 2) — s0 (node 0) already exists in the base.
        d.add_edge(NodeId(2), NodeId(0)).unwrap();
        d.add_edge(NodeId(3), NodeId(1)).unwrap();
        d.add_edge(NodeId(1), NodeId(3)).unwrap(); // duplicate, flipped
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(ext.new_edges, vec![(NodeId(1), NodeId(3))]);
        assert_eq!(ext.graph.n_edges(), g.n_edges() + 1);
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = base();
        let d = GraphDelta::for_graph(&g);
        assert!(d.is_empty());
        let ext = g.apply_delta(&d).unwrap();
        assert!(ext.new_edges.is_empty());
        assert!(ext.new_nodes.is_empty());
        assert!(ext.removed_edges.is_empty());
        assert!(ext.removed_nodes.is_empty());
        assert_same(&ext.graph, &g);
    }

    #[test]
    fn nodes_only_delta() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let mut d = GraphDelta::for_graph(&g);
        let lone = d.add_node(user, "loner");
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(ext.graph.n_nodes(), g.n_nodes() + 1);
        assert_eq!(ext.graph.degree(lone), 0);
        assert!(ext.graph.nodes_of_type(user).contains(&lone));
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn delta_rejects_bad_edges() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        assert_eq!(
            d.add_edge(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            d.add_edge(NodeId(1), NodeId(99)),
            Err(GraphError::UnknownNode(99))
        );
        // A node added to the delta is a valid endpoint immediately.
        let user = g.types().id("user").unwrap();
        let u = d.add_node(user, "x");
        assert!(d.add_edge(NodeId(1), u).is_ok());
    }

    #[test]
    fn apply_rejects_mismatched_base_and_unknown_type() {
        let g = base();
        let other = {
            let mut b = GraphBuilder::new();
            let t = b.add_type("user");
            b.add_node(t, "only");
            b.build()
        };
        let d = GraphDelta::for_graph(&other);
        assert!(matches!(g.apply_delta(&d), Err(GraphError::UnknownNode(_))));
        let mut d2 = GraphDelta::for_graph(&g);
        d2.add_node(TypeId(99), "ghost");
        assert!(matches!(
            g.apply_delta(&d2),
            Err(GraphError::UnknownType(99))
        ));
    }

    #[test]
    fn chained_deltas_accumulate() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let mut d1 = GraphDelta::for_graph(&g);
        let u = d1.add_node(user, "u-a");
        d1.add_edge(u, NodeId(0)).unwrap();
        let g1 = g.apply_delta(&d1).unwrap().graph;
        let mut d2 = GraphDelta::for_graph(&g1);
        d2.add_edge(u, NodeId(1)).unwrap();
        let g2 = g1.apply_delta(&d2).unwrap().graph;
        assert_eq!(g2.degree(u), 2);
        assert_eq!(g2.n_edges(), g.n_edges() + 2);
        assert!(g2.has_edge(u, NodeId(0)) && g2.has_edge(u, NodeId(1)));
    }

    // ---- removal-side tests --------------------------------------------

    #[test]
    fn edge_removal_matches_full_rebuild() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // u0 (node 2) — s0 (node 0) and u0 — m0 (node 1) exist in base.
        d.remove_edge(NodeId(2), NodeId(0)).unwrap();
        d.remove_edge(NodeId(1), NodeId(2)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(
            ext.removed_edges,
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
        assert!(ext.new_edges.is_empty());
        assert_eq!(ext.graph.n_edges(), g.n_edges() - 2);
        assert_eq!(ext.graph.degree(NodeId(2)), 0);
        assert!(!ext.graph.has_edge(NodeId(2), NodeId(0)));
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn dangling_and_duplicate_removals_are_tolerated() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // u0 (node 2) — u1 (node 3): never an edge — dangling removal.
        d.remove_edge(NodeId(2), NodeId(3)).unwrap();
        // The same real edge three times, once flipped.
        d.remove_edge(NodeId(2), NodeId(0)).unwrap();
        d.remove_edge(NodeId(0), NodeId(2)).unwrap();
        d.remove_edge(NodeId(2), NodeId(0)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(ext.removed_edges, vec![(NodeId(0), NodeId(2))]);
        assert_eq!(ext.graph.n_edges(), g.n_edges() - 1);
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn node_removal_is_a_tombstone_detach() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let mut d = GraphDelta::for_graph(&g);
        // Node 2 (u0) has edges to s0 and m0.
        d.remove_node(NodeId(2)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(
            ext.removed_edges,
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
        assert_eq!(ext.removed_nodes, vec![NodeId(2)]);
        // Tombstone: the id, label and type survive at degree 0.
        assert_eq!(ext.graph.n_nodes(), g.n_nodes());
        assert_eq!(ext.graph.degree(NodeId(2)), 0);
        assert_eq!(ext.graph.label(NodeId(2)), "u0");
        assert!(ext.graph.nodes_of_type(user).contains(&NodeId(2)));
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn removing_a_dangling_node_is_a_noop() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let mut d0 = GraphDelta::for_graph(&g);
        let lone = d0.add_node(user, "loner");
        let g1 = g.apply_delta(&d0).unwrap().graph;
        let mut d1 = GraphDelta::for_graph(&g1);
        d1.remove_node(lone).unwrap();
        // Removing an edgeless node and a node twice are both fine.
        d1.remove_node(lone).unwrap();
        let ext = g1.apply_delta(&d1).unwrap();
        assert!(ext.removed_edges.is_empty());
        assert_eq!(ext.removed_nodes, vec![lone]);
        assert_same(&ext.graph, &g1);
    }

    #[test]
    fn remove_then_reinsert_in_one_batch_is_net_zero() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // u0 (node 2) — s0 (node 0) is a base edge: removing and
        // re-inserting it in the same batch nets to "still there", and
        // neither change set reports it.
        d.remove_edge(NodeId(2), NodeId(0)).unwrap();
        d.add_edge(NodeId(2), NodeId(0)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert!(ext.new_edges.is_empty());
        assert!(ext.removed_edges.is_empty());
        assert_same(&ext.graph, &g);
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn node_removal_with_reinserted_edge_in_one_batch() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // Detach u0 (node 2) but keep (insert) its school edge in the same
        // batch: the major edge goes, the school edge survives (net).
        d.remove_node(NodeId(2)).unwrap();
        d.add_edge(NodeId(2), NodeId(0)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(ext.removed_edges, vec![(NodeId(1), NodeId(2))]);
        assert!(ext.new_edges.is_empty());
        assert!(ext.graph.has_edge(NodeId(2), NodeId(0)));
        assert!(!ext.graph.has_edge(NodeId(2), NodeId(1)));
        assert_same(&ext.graph, &rebuilt(&g, &d));
    }

    #[test]
    fn mixed_insert_and_delete_batch_matches_rebuild() {
        let g = base();
        let user = g.types().id("user").unwrap();
        let mut d = GraphDelta::for_graph(&g);
        let nu = d.add_node(user, "u-new");
        d.add_edge(nu, NodeId(0)).unwrap();
        d.add_edge(NodeId(3), NodeId(1)).unwrap();
        d.remove_edge(NodeId(4), NodeId(0)).unwrap();
        d.remove_node(NodeId(6)).unwrap();
        let ext = g.apply_delta(&d).unwrap();
        assert_eq!(ext.new_edges.len(), 2);
        assert!(!ext.removed_edges.is_empty());
        assert_same(&ext.graph, &rebuilt(&g, &d));
        // Churn round-trip: reinsert what was removed, remove what was
        // added — back to the base graph exactly.
        let g1 = ext.graph.clone();
        let mut back = GraphDelta::for_graph(&g1);
        for &(a, b) in &ext.removed_edges {
            back.add_edge(a, b).unwrap();
        }
        for &(a, b) in &ext.new_edges {
            back.remove_edge(a, b).unwrap();
        }
        let ext2 = g1.apply_delta(&back).unwrap();
        for v in g.nodes() {
            assert_eq!(ext2.graph.neighbors(v), g.neighbors(v));
        }
        assert_eq!(ext2.graph.n_edges(), g.n_edges());
    }

    #[test]
    fn removal_rejects_bad_targets() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        assert_eq!(
            d.remove_edge(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            d.remove_edge(NodeId(1), NodeId(99)),
            Err(GraphError::UnknownNode(99))
        );
        assert_eq!(d.remove_node(NodeId(99)), Err(GraphError::UnknownNode(99)));
        // Delta-added nodes are not removable (no base edges to detach).
        let user = g.types().id("user").unwrap();
        let u = d.add_node(user, "x");
        assert_eq!(d.remove_node(u), Err(GraphError::UnknownNode(u.0)));
        assert_eq!(
            d.remove_edge(NodeId(1), u),
            Err(GraphError::UnknownNode(u.0))
        );
    }
}

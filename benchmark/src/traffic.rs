//! Seeded traffic: read keys and graph deltas. `--seed` reaches nothing
//! but this module; the program under test sees only the generated ops.
//! `mgp_scenario::TraceGenerator` supplies the shapes it has (zipfian
//! steady reads, the hub storm); the cold scan and the net-zero churn
//! plan are generated here.

use mgp_graph::{FxHashSet, Graph, GraphDelta, NodeId, TypeId};
use mgp_scenario::{GeneratorConfig, Op, Scenario, TraceGenerator};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spec;

/// One read: rank top-`k` for `q` under class id `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Query anchor.
    pub q: NodeId,
    /// Result-list length.
    pub k: u16,
    /// Server class id.
    pub class: u8,
}

/// Zipfian (s = 1) reads over all anchors, fixed `k`, both classes:
/// `TraceGenerator`'s steady-read scenario.
pub fn zipf_reads(graph: &Graph, anchor_type: TypeId, seed: u64, n: usize) -> Vec<ReadOp> {
    let cfg = GeneratorConfig {
        seed,
        queries: n,
        k: spec::ZIPF_K,
        n_classes: spec::CLASSES.len(),
        ..GeneratorConfig::default()
    };
    TraceGenerator::new(graph, anchor_type, cfg)
        .generate(Scenario::SteadyRead)
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Query { slot, q, k } => Some(ReadOp {
                q: *q,
                k: *k as u16,
                class: *slot as u8,
            }),
            _ => None,
        })
        .collect()
}

/// Uniform permutation sweeps over all anchors. Each pass visits every
/// anchor once in a fresh seeded order with one `k` of
/// [`spec::SCAN_KS`]; every other anchor is read under both classes back
/// to back (a `rank_multi`-shaped pair), the rest under one class. A key
/// recurs only after a full cycle of passes — `anchors × 1.5 × passes`
/// reads later, well past the result cache's capacity.
pub fn scan_reads(anchors: &[NodeId], seed: u64, n: usize) -> Vec<ReadOp> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ca9_c01d);
    let mut order = anchors.to_vec();
    let mut ops = Vec::with_capacity(n + 2);
    let mut pass = 0usize;
    while ops.len() < n {
        order.shuffle(&mut rng);
        let k = spec::SCAN_KS[pass % spec::SCAN_KS.len()];
        for (i, &q) in order.iter().enumerate() {
            if i % 2 == 0 {
                ops.push(ReadOp { q, k, class: 0 });
                ops.push(ReadOp { q, k, class: 1 });
            } else {
                let class = ((i / 2 + pass) % 2) as u8;
                ops.push(ReadOp { q, k, class });
            }
        }
        pass += 1;
    }
    ops.truncate(n);
    ops
}

/// One planned churn delta: edges to insert and edges to remove.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaPlan {
    /// `(anchor, attribute)` edges to insert.
    pub insert: Vec<(NodeId, NodeId)>,
    /// `(anchor, attribute)` edges to remove.
    pub remove: Vec<(NodeId, NodeId)>,
}

impl DeltaPlan {
    /// The delta against `graph` as it stands now.
    pub fn to_delta(&self, graph: &Graph) -> GraphDelta {
        let mut delta = GraphDelta::for_graph(graph);
        for &(u, a) in &self.insert {
            delta.add_edge(u, a).expect("planned endpoints exist");
        }
        for &(u, a) in &self.remove {
            delta.remove_edge(u, a).expect("planned endpoints exist");
        }
        delta
    }

    /// Edges the delta changes.
    #[cfg(test)]
    pub fn n_edges(&self) -> usize {
        self.insert.len() + self.remove.len()
    }
}

/// `n` churn deltas that net to nothing: every batch of edges a delta
/// inserts is removed, whole, by a later delta, with two or three
/// batches live in between. Most batches are one edge; with `batches`
/// every [`spec::CHURN_BATCH_EVERY`]th insert is a multi-edge batch whose
/// size follows a triangle wave over the run (the "diurnal" swell). `n`
/// is rounded up to an even number.
///
/// What a delta costs depends heavily on its endpoints, so the edges come
/// from a **fixed pool** — `(anchor, attribute)` pairs absent from
/// `graph`, drawn with `pool_seed`, a constant of the benchmark — and the
/// run's `seed` decides only which edge lands when. Two seeds then time
/// the same set of deltas in different orders, and a difference between
/// two runs is the system's, not the dice's.
pub fn churn_plan(
    graph: &Graph,
    anchor_type: TypeId,
    pool_seed: u64,
    seed: u64,
    n: usize,
    batches: bool,
) -> Vec<DeltaPlan> {
    let n = n.max(2).next_multiple_of(2);
    let n_inserts = n / 2;
    let (lo, hi) = spec::CHURN_BATCH_EDGES;
    let sizes: Vec<usize> = (0..n_inserts)
        .map(|i| {
            if batches && i % spec::CHURN_BATCH_EVERY == spec::CHURN_BATCH_EVERY - 1 {
                // Triangle wave: lo at both ends of the run, hi in the middle.
                let half = (n_inserts / 2).max(1);
                lo + (hi - lo) * i.min(n_inserts - i).min(half) / half
            } else {
                1
            }
        })
        .collect();

    let anchors = graph.nodes_of_type(anchor_type);
    let attrs: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.node_type(v) != anchor_type && graph.degree(v) > 0)
        .collect();
    let mut pool_rng = ChaCha8Rng::seed_from_u64(pool_seed);
    let mut pool: Vec<(NodeId, NodeId)> = Vec::with_capacity(sizes.iter().sum());
    let mut used: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    while pool.len() < pool.capacity() {
        let u = anchors[pool_rng.random_range(0..anchors.len())];
        let a = attrs[pool_rng.random_range(0..attrs.len())];
        if !graph.has_edge(u, a) && used.insert((u, a)) {
            pool.push((u, a));
        }
    }
    pool.shuffle(&mut ChaCha8Rng::seed_from_u64(
        seed ^ 0xc4u64.rotate_left(40),
    ));

    let mut plans = Vec::with_capacity(n);
    let mut live: std::collections::VecDeque<Vec<(NodeId, NodeId)>> = Default::default();
    let mut sizes = sizes.into_iter();
    while plans.len() < n {
        let slots_left = n - plans.len();
        let next = (live.len() < 3 && slots_left > live.len())
            .then(|| sizes.next())
            .flatten();
        if let Some(size) = next {
            let batch = pool.split_off(pool.len() - size);
            plans.push(DeltaPlan {
                insert: batch.clone(),
                remove: Vec::new(),
            });
            live.push_back(batch);
        } else {
            let batch = live.pop_front().expect("a live batch to remove");
            plans.push(DeltaPlan {
                insert: Vec::new(),
                remove: batch,
            });
        }
    }
    debug_assert!(live.is_empty() && pool.is_empty());
    plans
}

/// The hub storm's two deltas — attach a new hub to
/// [`spec::STORM_HUB_DEGREE`] anchors, then drop the whole hub — from
/// `TraceGenerator`'s deletion-storm scenario. Both are built against a
/// graph with `graph`'s node count.
pub fn storm_deltas(graph: &Graph, anchor_type: TypeId, seed: u64) -> (GraphDelta, GraphDelta) {
    let cfg = GeneratorConfig {
        seed,
        queries: 2,
        n_classes: spec::CLASSES.len(),
        hub_degree: spec::STORM_HUB_DEGREE,
        storms: 1,
        ..GeneratorConfig::default()
    };
    let mut deltas = TraceGenerator::new(graph, anchor_type, cfg)
        .generate(Scenario::DeletionStorm)
        .ops
        .into_iter()
        .filter_map(|op| match op {
            Op::Delta(d) => Some(d),
            _ => None,
        });
    let build = deltas.next().expect("the storm attaches a hub");
    let drop = deltas.next().expect("the storm drops the hub");
    (build, drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgp_graph::GraphBuilder;

    fn world() -> (Graph, TypeId) {
        let mut b = GraphBuilder::new();
        let user = b.add_type("user");
        let attr = b.add_type("attr");
        let users: Vec<NodeId> = (0..40).map(|i| b.add_node(user, format!("u{i}"))).collect();
        let attrs: Vec<NodeId> = (0..8).map(|i| b.add_node(attr, format!("a{i}"))).collect();
        for (i, &u) in users.iter().enumerate() {
            b.add_edge(u, attrs[i % attrs.len()]).unwrap();
        }
        (b.build(), user)
    }

    #[test]
    fn the_same_seed_gives_the_same_traffic() {
        let (g, user) = world();
        assert_eq!(zipf_reads(&g, user, 3, 500), zipf_reads(&g, user, 3, 500));
        assert_ne!(zipf_reads(&g, user, 3, 500), zipf_reads(&g, user, 4, 500));
        let anchors = g.nodes_of_type(user).to_vec();
        assert_eq!(scan_reads(&anchors, 3, 500), scan_reads(&anchors, 3, 500));
        assert_eq!(
            churn_plan(&g, user, 1, 3, 20, true),
            churn_plan(&g, user, 1, 3, 20, true)
        );
    }

    #[test]
    fn a_scan_key_recurs_only_after_a_full_cycle_of_passes() {
        let (g, user) = world();
        let anchors = g.nodes_of_type(user).to_vec();
        let per_cycle = anchors.len() * 3 / 2 * spec::SCAN_KS.len();
        let ops = scan_reads(&anchors, 9, per_cycle);
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            assert!(
                seen.insert((op.q, op.k, op.class)),
                "{op:?} repeats inside a cycle"
            );
        }
        // Half the reads belong to a both-classes pair on one anchor.
        let paired = ops
            .windows(2)
            .filter(|w| w[0].q == w[1].q && w[0].class != w[1].class)
            .count();
        assert!(paired * 2 >= ops.len() / 2);
    }

    #[test]
    fn churn_nets_to_nothing() {
        let (g, user) = world();
        let plans = churn_plan(&g, user, 1, 5, 64, true);
        assert_eq!(plans.len(), 64);
        let mut live = std::collections::HashSet::new();
        let mut graph = g.clone();
        for p in &plans {
            assert!(p.n_edges() >= 1);
            for e in &p.insert {
                assert!(live.insert(*e), "edge inserted twice");
            }
            for e in &p.remove {
                assert!(live.remove(e), "edge removed before it was inserted");
            }
            graph = graph.apply_delta(&p.to_delta(&graph)).unwrap().graph;
        }
        assert!(live.is_empty());
        assert_eq!(graph.n_edges(), g.n_edges());
        assert!(
            plans.iter().any(|p| p.insert.len() > 1),
            "some batches are multi-edge"
        );
        let singles = churn_plan(&g, user, 1, 5, 26, false);
        assert!(singles.iter().all(|p| p.n_edges() == 1));
        // Another seed lands the same edges in another order.
        let edges = |plans: &[DeltaPlan]| {
            let mut e: Vec<_> = plans.iter().flat_map(|p| p.insert.clone()).collect();
            e.sort_unstable();
            e
        };
        let other = churn_plan(&g, user, 1, 6, 26, false);
        assert_ne!(singles, other);
        assert_eq!(edges(&singles), edges(&other));
    }

    #[test]
    fn the_storm_builds_and_drops_one_hub() {
        let (g, user) = world();
        let (build, drop) = storm_deltas(&g, user, 1);
        assert_eq!(build.n_new_nodes(), 1);
        assert_eq!(build.n_edge_insertions(), spec::STORM_HUB_DEGREE.min(20));
        assert_eq!(drop.n_node_removals(), 1);
        let after = g.apply_delta(&build).unwrap().graph;
        let after = after.apply_delta(&drop).unwrap().graph;
        assert_eq!(after.n_edges(), g.n_edges());
    }
}

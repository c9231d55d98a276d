//! Per-layer probes of a traced run: the public pieces of a layer called
//! directly on side copies, beside the real end-to-end call.
//!
//! `SearchEngine::ingest_serving` is one call from outside, so a traced
//! run replays each delta through the public functions it is made of —
//! `Graph::apply_delta`, `wcoj_count_changes`, `IndexDeltaBatch::apply_to`,
//! `QueryServer::apply_delta_fused`, `Journal::append` — on side copies
//! that follow the real engine delta for delta. The engine's own share
//! is the real call minus these.

use crate::trace::{SpanId, Tracer};
use crate::traffic::ReadOp;
use crate::{spec, stats};
use mgp_core::{QueryServer, SearchEngine, ServeConfig};
use mgp_graph::{intersect_into, FxHashMap, Graph, GraphDelta, NodeId};
use mgp_index::{IndexDeltaBatch, VectorIndex};
use mgp_matching::parallel::match_all_timed;
use mgp_matching::{wcoj_count_changes, ExtensionPlan, PatternInfo, SymIso};
use mgp_online::ClassDelta;
use mgp_persist::Journal;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Reads timed directly against the server by [`read_probe`].
const READ_PROBE_OPS: usize = 8_192;
/// Adjacency-slice pairs intersected by [`intersect_probe`].
const INTERSECT_PAIRS: usize = 4_096;

/// One side class: its name, global pattern coordinates, index copy and
/// weights.
struct SideClass {
    name: String,
    coords: Vec<usize>,
    index: VectorIndex,
    weights: Vec<f64>,
}

/// What one replayed delta cost in each layer, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaCost {
    /// `Graph::apply_delta`.
    pub graph_ns: u64,
    /// `wcoj_count_changes` over every matched pattern.
    pub matching_ns: u64,
    /// `IndexDeltaBatch::apply_to` over every class.
    pub index_ns: u64,
    /// `QueryServer::apply_delta_fused`.
    pub server_ns: u64,
    /// `Journal::append`, fsync included (0 when not journaled).
    pub journal_ns: u64,
    /// Edges the delta really changed.
    pub edges: usize,
}

impl DeltaCost {
    /// Every layer's share summed.
    pub fn total_ns(&self) -> u64 {
        self.graph_ns + self.matching_ns + self.index_ns + self.server_ns + self.journal_ns
    }
}

/// Side copies of everything a delta touches, kept in step with the
/// real engine by replaying every delta it ingests.
pub struct DeltaProbe {
    graph: Graph,
    patterns: Vec<(usize, PatternInfo)>,
    plans: FxHashMap<usize, ExtensionPlan>,
    classes: Vec<SideClass>,
    server: QueryServer,
    journal: Option<Journal>,
}

impl DeltaProbe {
    /// Copies `engine`'s graph, matched patterns and class indices, and
    /// builds a side server over them. With `journal_path` every replay
    /// also appends the delta to a side journal there.
    pub fn new(engine: &SearchEngine, journal_path: Option<&Path>) -> Self {
        let patterns = engine
            .patterns()
            .iter()
            .enumerate()
            .filter(|(i, _)| engine.counts(*i).is_some())
            .map(|(i, p)| (i, p.clone()))
            .collect();
        let classes = spec::CLASSES
            .iter()
            .map(|name| side_class(engine, name))
            .collect();
        DeltaProbe {
            graph: engine.graph().clone(),
            patterns,
            plans: FxHashMap::default(),
            classes,
            server: engine.serve_with(spec::serve_config()),
            journal: journal_path.map(|p| Journal::create(p).expect("side journal is creatable")),
        }
    }

    /// Follows a `register_class_serving` on the real pair: copies the
    /// new class, times the SymISO first match of its new patterns and
    /// `QueryServer::register_class` on the side server. Returns
    /// `(first_match_ns, server_register_ns)`.
    pub fn follow_register(
        &mut self,
        engine: &SearchEngine,
        name: &str,
        tracer: &mut Tracer,
        parent: SpanId,
        op: u32,
    ) -> (u64, u64) {
        let class = side_class(engine, name);
        let known: Vec<usize> = self.patterns.iter().map(|(i, _)| *i).collect();
        let fresh: Vec<(usize, PatternInfo)> = class
            .coords
            .iter()
            .filter(|i| !known.contains(i))
            .map(|&i| (i, engine.patterns()[i].clone()))
            .collect();
        let infos: Vec<PatternInfo> = fresh.iter().map(|(_, p)| p.clone()).collect();
        let t0 = Instant::now();
        tracer.time("matching.first_match", parent, op, || {
            std::hint::black_box(match_all_timed(&self.graph, &infos, &SymIso::new(), 0));
        });
        let first_match_ns = t0.elapsed().as_nanos() as u64;
        self.patterns.extend(fresh);
        let t1 = Instant::now();
        tracer.time("server.register_class", parent, op, || {
            self.server
                .register_class(&class.name, &class.index, &class.weights)
                .expect("the side server does not have the class yet");
        });
        let server_ns = t1.elapsed().as_nanos() as u64;
        self.classes.push(class);
        (first_match_ns, server_ns)
    }

    /// Replays `delta` through the public pieces of the ingest chain,
    /// one span per layer under `parent`.
    pub fn replay(
        &mut self,
        delta: &GraphDelta,
        tracer: &mut Tracer,
        parent: SpanId,
        op: u32,
    ) -> DeltaCost {
        let mut cost = DeltaCost::default();
        if let Some(journal) = &mut self.journal {
            let t = Instant::now();
            tracer.time("persist.journal_append", parent, op, || {
                journal.append(delta).expect("side journal append");
            });
            cost.journal_ns = t.elapsed().as_nanos() as u64;
        }

        let t = Instant::now();
        let ext = tracer.time("graph.apply_delta", parent, op, || {
            self.graph
                .apply_delta(delta)
                .expect("the delta applied to the real graph")
        });
        cost.graph_ns = t.elapsed().as_nanos() as u64;
        cost.edges = ext.new_edges.len() + ext.removed_edges.len();

        let t = Instant::now();
        let span = tracer.begin("matching.wcoj_count_changes", parent, op);
        let mut batch = IndexDeltaBatch::default();
        for (i, pattern) in &self.patterns {
            let graph = &self.graph;
            let plan = self
                .plans
                .entry(*i)
                .or_insert_with(|| ExtensionPlan::compile(pattern, graph));
            let (changes, _) = wcoj_count_changes(
                &self.graph,
                &ext.graph,
                pattern,
                plan,
                &ext.removed_edges,
                &ext.new_edges,
                &ext.new_nodes,
            );
            batch.insert(*i, changes.changes);
        }
        tracer.end(span);
        cost.matching_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let span = tracer.begin("index.apply_delta", parent, op);
        let touches: Vec<_> = self
            .classes
            .iter_mut()
            .map(|c| batch.apply_to(&mut c.index, &c.coords))
            .collect();
        tracer.end(span);
        cost.index_ns = t.elapsed().as_nanos() as u64;

        let updates: Vec<ClassDelta<'_>> = self
            .classes
            .iter()
            .zip(&touches)
            .map(|(c, touch)| ClassDelta {
                class_id: self.server.class_id(&c.name).expect("side class is served"),
                index: &c.index,
                touch,
            })
            .collect();
        let t = Instant::now();
        tracer.time("server.apply_delta_fused", parent, op, || {
            std::hint::black_box(self.server.apply_delta_fused(&updates));
        });
        cost.server_ns = t.elapsed().as_nanos() as u64;

        self.graph = ext.graph;
        cost
    }
}

fn side_class(engine: &SearchEngine, name: &str) -> SideClass {
    let model = engine.model(name).expect("class is trained or registered");
    SideClass {
        name: name.to_owned(),
        coords: model.coords.clone(),
        index: model.index.clone(),
        weights: model.weights.clone(),
    }
}

/// Direct cache-off read costs on a sample of the workload's own keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCost {
    /// Median `QueryServer::rank`, ns.
    pub rank_ns: f64,
    /// Median `QueryServer::rank_multi` over both classes, ns.
    pub rank_multi_ns: f64,
    /// Median `QueryServer::rank_batch` over 64 queries, ns per query.
    pub rank_batch_ns_per_q: f64,
    /// Mean posting entries a read's sweep covers (the anchor's partner
    /// count in the class index).
    pub entries_swept_per_q: f64,
    /// Computed bytes of fused posting columns per class entry: one
    /// `u32` candidate per row plus one `f64` score per class.
    pub bytes_per_entry: f64,
}

/// Times the read entry points directly on a cache-off side server over
/// the first [`READ_PROBE_OPS`] of `ops`.
pub fn read_probe(engine: &SearchEngine, ops: &[ReadOp], tracer: &mut Tracer) -> ReadCost {
    let server = engine.serve_with(ServeConfig {
        cache_capacity: 0,
        ..spec::serve_config()
    });
    let ops = &ops[..ops.len().min(READ_PROBE_OPS)];
    let timed = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut(&ReadOp)| {
        let mut ns: Vec<f64> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let span = tracer.begin(name, None, i as u32);
            let t = Instant::now();
            f(op);
            ns.push(t.elapsed().as_nanos() as f64);
            tracer.end(span);
        }
        stats::median_of(ns)
    };
    let rank_ns = timed(tracer, "server.rank", &mut |op| {
        std::hint::black_box(server.rank(op.class as usize, op.q, op.k as usize));
    });
    let both: Vec<usize> = (0..spec::CLASSES.len()).collect();
    let rank_multi_ns = timed(tracer, "server.rank_multi", &mut |op| {
        std::hint::black_box(server.rank_multi(&both, op.q, op.k as usize));
    });
    let batch_ns: Vec<f64> = ops
        .chunks(spec::IN_FLIGHT)
        .map(|chunk| {
            let queries: Vec<NodeId> = chunk.iter().map(|op| op.q).collect();
            let span = tracer.begin("server.rank_batch", None, 0);
            let t = Instant::now();
            std::hint::black_box(server.rank_batch(
                chunk[0].class as usize,
                &queries,
                chunk[0].k as usize,
            ));
            let ns = t.elapsed().as_nanos() as f64 / chunk.len() as f64;
            tracer.end(span);
            ns
        })
        .collect();
    let swept: usize = ops
        .iter()
        .map(|op| {
            let model = engine
                .model(spec::CLASSES[op.class as usize])
                .expect("class is trained");
            model.index.partners(op.q).len()
        })
        .sum();
    let n_classes = server.n_classes() as f64;
    ReadCost {
        rank_ns,
        rank_multi_ns,
        rank_batch_ns_per_q: stats::median_of(batch_ns),
        entries_swept_per_q: swept as f64 / ops.len().max(1) as f64,
        bytes_per_entry: (4.0 + 8.0 * n_classes) / n_classes,
    }
}

/// `intersect_into` over real adjacency slices: seeded pairs of
/// attribute nodes, each contributing its anchor-typed neighbours. Returns
/// ns per input element.
pub fn intersect_probe(engine: &SearchEngine, seed: u64, tracer: &mut Tracer) -> f64 {
    let g = engine.graph();
    let anchor = engine.anchor_type();
    let attrs: Vec<NodeId> = g
        .nodes()
        .filter(|&v| g.node_type(v) != anchor && g.degree(v) > 0)
        .collect();
    if attrs.len() < 2 {
        return 0.0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a7e_25ec);
    let mut out = Vec::new();
    let mut elems = 0usize;
    let span = tracer.begin("graph.intersect_into", None, 0);
    let t = Instant::now();
    for _ in 0..INTERSECT_PAIRS {
        let a = g.neighbors_of_type(attrs[rng.random_range(0..attrs.len())], anchor);
        let b = g.neighbors_of_type(attrs[rng.random_range(0..attrs.len())], anchor);
        out.clear();
        intersect_into(a, b, &mut out);
        std::hint::black_box(&out);
        elems += a.len() + b.len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    ns / elems.max(1) as f64
}

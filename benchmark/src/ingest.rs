//! One delta through the real `SearchEngine::ingest_serving`, with its
//! public work counters collected and — in a traced run — its per-layer
//! cost taken by replaying it through [`DeltaProbe`].

use crate::probe::{DeltaCost, DeltaProbe};
use crate::report::Layers;
use crate::stats;
use crate::trace::Tracer;
use mgp_core::{IngestReport, QueryServer, SearchEngine};
use mgp_graph::GraphDelta;
use mgp_matching::MatchStats;
use std::time::Instant;

/// Which deltas a per-edge matching cost is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A single-edge or small-batch churn delta.
    Churn,
    /// A hub build or hub drop.
    Storm,
}

/// Counters and costs over every delta a run ingested.
#[derive(Debug, Default)]
pub struct IngestAccount {
    /// Real `ingest_serving` wall time per churn delta, ns.
    total_ns: Vec<f64>,
    costs: Vec<(DeltaKind, f64, DeltaCost)>,
    match_stats: MatchStats,
    touched_entries: usize,
    fused_shard_visits: usize,
    sequential_shard_visits: usize,
    patched_entries: usize,
    rebuilt_blocks: usize,
    invalidated_anchors: usize,
    retained_bytes_max: usize,
    retired_epochs_max: usize,
}

impl IngestAccount {
    /// Ingests `delta` into the live pair. Returns the call's wall time
    /// in ns, or `None` when the engine rejected the delta (a failed
    /// operation).
    #[allow(clippy::too_many_arguments)]
    pub fn ingest(
        &mut self,
        engine: &mut SearchEngine,
        server: &QueryServer,
        delta: &GraphDelta,
        kind: DeltaKind,
        probe: Option<&mut DeltaProbe>,
        tracer: &mut Tracer,
        op: u32,
    ) -> Option<u64> {
        let root = tracer.begin("core.ingest_serving", None, op);
        let t = Instant::now();
        let result = engine.ingest_serving(delta, server);
        let ns = t.elapsed().as_nanos() as u64;
        tracer.end(root);
        let report = result.ok()?;
        self.count(&report, server);
        if kind == DeltaKind::Churn {
            self.total_ns.push(ns as f64);
        }
        if let Some(probe) = probe {
            let cost = probe.replay(delta, tracer, root, op);
            self.costs.push((kind, ns as f64, cost));
        }
        Some(ns)
    }

    fn count(&mut self, report: &IngestReport, server: &QueryServer) {
        self.match_stats += report.match_stats;
        self.touched_entries += report
            .per_class
            .iter()
            .map(|(_, t)| t.nodes.len() + t.pairs.len())
            .sum::<usize>();
        self.fused_shard_visits += report.fused_shard_visits;
        self.sequential_shard_visits += report.sequential_shard_visits();
        for (_, s) in &report.serving {
            self.patched_entries += s.patched_entries;
            self.rebuilt_blocks += s.rebuilt_postings;
            self.invalidated_anchors += s.invalidated_anchors;
        }
        let epochs = server.epoch_stats();
        self.retained_bytes_max = self.retained_bytes_max.max(epochs.approx_retained_bytes);
        self.retired_epochs_max = self.retired_epochs_max.max(epochs.retained_epochs);
    }

    /// Writes the per-layer metrics of the delta chain into `layers`.
    pub fn write(&self, layers: &mut Layers) {
        let median_of = stats::median_of;
        layers.set("core.ingest_ms", median_of(self.total_ns.clone()) / 1e6);
        let m = self.match_stats;
        layers.set("matching.proposals", m.proposals as f64);
        layers.set("matching.intersections", m.intersections as f64);
        layers.set("matching.extensions", m.extensions as f64);
        layers.set("matching.instances", m.instances as f64);
        layers.set("matching.dedup_suppressed", m.dedup_suppressed as f64);
        layers.set(
            "matching.instances_per_extension",
            m.instances as f64 / (m.extensions.max(1)) as f64,
        );
        layers.set("index.touched_entries", self.touched_entries as f64);
        layers.set("server.fused_shard_visits", self.fused_shard_visits as f64);
        layers.set(
            "server.sequential_shard_visits",
            self.sequential_shard_visits as f64,
        );
        layers.set("server.patched_entries", self.patched_entries as f64);
        layers.set("server.rebuilt_blocks", self.rebuilt_blocks as f64);
        layers.set(
            "server.invalidated_anchors",
            self.invalidated_anchors as f64,
        );
        layers.set("server.retained_bytes_max", self.retained_bytes_max as f64);
        layers.set("server.retired_epochs_max", self.retired_epochs_max as f64);

        if self.costs.is_empty() {
            return;
        }
        let churn = || self.costs.iter().filter(|(k, ..)| *k == DeltaKind::Churn);
        let pick = |f: &dyn Fn(&DeltaCost) -> u64| {
            median_of(churn().map(|(_, _, c)| f(c) as f64).collect())
        };
        layers.set("graph.apply_delta_us", pick(&|c| c.graph_ns) / 1e3);
        layers.set("index.apply_delta_us", pick(&|c| c.index_ns) / 1e3);
        layers.set("server.apply_delta_fused_us", pick(&|c| c.server_ns) / 1e3);
        layers.set("persist.journal_append_us", pick(&|c| c.journal_ns) / 1e3);
        layers.set(
            "matching.delta_us_per_edge",
            median_of(
                churn()
                    .map(|(_, _, c)| c.matching_ns as f64 / c.edges.max(1) as f64)
                    .collect(),
            ) / 1e3,
        );
        layers.set(
            "matching.storm_ms",
            median_of(
                self.costs
                    .iter()
                    .filter(|(k, ..)| *k == DeltaKind::Storm)
                    .map(|(_, _, c)| c.matching_ns as f64)
                    .collect(),
            ) / 1e6,
        );
        // The engine's own share: the real call minus the replayed
        // pieces, delta by delta.
        layers.set(
            "core.ingest_self_us",
            median_of(
                churn()
                    .map(|(_, total, c)| (total - c.total_ns() as f64).max(0.0))
                    .collect(),
            ) / 1e3,
        );
        let total: f64 = self.costs.iter().map(|(_, t, _)| t).sum();
        let share = |f: &dyn Fn(&DeltaCost) -> u64| {
            self.costs.iter().map(|(_, _, c)| f(c) as f64).sum::<f64>() / total.max(1.0)
        };
        layers.set("path.delta_matching_share", share(&|c| c.matching_ns));
        layers.set("path.delta_server_share", share(&|c| c.server_ns));
    }
}

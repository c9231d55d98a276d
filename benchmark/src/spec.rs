//! The benchmark's frozen definition: workloads, metric names, bounds and
//! every constant a run depends on. Nothing here is tuned at run time;
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two in step).

use mgp_datagen::facebook::FacebookConfig;
use mgp_online::{FrontendConfig, ServeConfig};

/// One workload: a traffic mix and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen — which layer it isolates.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-zipf-hot",
        why: "zipfian anchors, fixed k: result cache, coalescing and micro-batching do the work, the posting sweep almost none",
    },
    Workload {
        name: "read-scan-cold",
        why: "permutation sweeps over all anchors with k cycling: the working set never fits the cache, so the fused-column sweep does the work",
    },
    Workload {
        name: "mixed-churn",
        why: "zipfian reads while a writer lands paced net-zero deltas: column patching, COW cloning and cache invalidation show in read latency",
    },
    Workload {
        name: "lifecycle-storm",
        why: "identical cycles from one snapshot: warm start, journaled ingests, hub storm, class registration, save, reopen: matching, journal and snapshot do the work",
    },
];

/// One metric: name, unit, direction and (end-to-end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload (`--trace 0`).
///
/// Every run ends with (or, on `lifecycle-storm`, consists of) lifecycle
/// cycles, so every workload has every operation to time: where a
/// workload's own traffic contains the operation the metric is taken
/// there, otherwise in its closing cycle (the README has the table).
/// Every timing carries the widest bound the driver allows, 0.25: on the
/// reference box ten runs of one binary spread 5 to 17 % on these
/// metrics in a quiet stretch and far more in a noisy one (the README has
/// the sets), and the driver accepts a benchmark only if each spread
/// stays inside its bound. A step that spread 20 % even in a quiet
/// stretch (`core.snapshot_save_s`) is a per-layer metric.
pub const END_TO_END: [Metric; 12] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ndcg10", "score", "higher", 0.005),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("paced_p50_us", "us", "lower", 0.25),
    e2e("paced_p95_us", "us", "lower", 0.25),
    e2e("sat_qps", "1/s", "higher", 0.25),
    e2e("ingest_p50_ms", "ms", "lower", 0.25),
    e2e("ingest_tail_ms", "ms", "lower", 0.25),
    e2e("storm_delta_ms", "ms", "lower", 0.25),
    e2e("register_ms", "ms", "lower", 0.25),
    e2e("warm_start_s", "s", "lower", 0.25),
    e2e("snapshot_bytes_per_entry", "B", "lower", 0.01),
];

/// Per-layer metrics, reported by every workload in a traced run
/// (`--trace 1`); a layer a workload does not exercise reports 0.
pub const PER_LAYER: [Metric; 66] = [
    // Set-up: the offline pipeline, from the engine's `Timings`.
    layer("datagen.generate_ms", "ms", "lower"),
    layer("scenario.generate_ms", "ms", "lower"),
    layer("mining.mine_s", "s", "lower"),
    layer("mining.patterns", "count", "higher"),
    layer("matching.full_match_s", "s", "lower"),
    layer("matching.patterns_matched", "count", "higher"),
    layer("index.build_s", "s", "lower"),
    layer("learning.train_s", "s", "lower"),
    // Graph.
    layer("graph.apply_delta_us", "us", "lower"),
    layer("graph.intersect_ns_per_elem", "ns", "lower"),
    // Delta matching.
    layer("matching.delta_us_per_edge", "us", "lower"),
    layer("matching.storm_ms", "ms", "lower"),
    layer("matching.first_match_ms", "ms", "lower"),
    layer("matching.proposals", "count", "lower"),
    layer("matching.intersections", "count", "lower"),
    layer("matching.extensions", "count", "lower"),
    layer("matching.instances", "count", "lower"),
    layer("matching.dedup_suppressed", "count", "higher"),
    layer("matching.instances_per_extension", "ratio", "higher"),
    // Index.
    layer("index.apply_delta_us", "us", "lower"),
    layer("index.touched_entries", "count", "lower"),
    // Server: reads.
    layer("server.rank_ns", "ns", "lower"),
    layer("server.rank_multi_ns", "ns", "lower"),
    layer("server.rank_batch_ns_per_q", "ns", "lower"),
    layer("server.entries_swept_per_q", "count", "lower"),
    layer("server.bytes_per_entry", "B", "lower"),
    layer("server.cache_hit_rate", "ratio", "higher"),
    layer("server.batch_busy_share", "ratio", "lower"),
    // Server: writes.
    layer("server.apply_delta_fused_us", "us", "lower"),
    layer("server.register_class_ms", "ms", "lower"),
    layer("server.fused_shard_visits", "count", "lower"),
    layer("server.sequential_shard_visits", "count", "lower"),
    layer("server.patched_entries", "count", "lower"),
    layer("server.rebuilt_blocks", "count", "lower"),
    layer("server.invalidated_anchors", "count", "lower"),
    layer("server.retained_bytes_max", "B", "lower"),
    layer("server.retired_epochs_max", "count", "lower"),
    // Front-end.
    layer("frontend.submit_ns", "ns", "lower"),
    layer("frontend.queue_wait_us", "us", "lower"),
    layer("frontend.window_exec_us", "us", "lower"),
    layer("frontend.batch_size_mean", "count", "higher"),
    layer("frontend.window_fill", "ratio", "higher"),
    layer("frontend.coalesce_ratio", "ratio", "higher"),
    layer("frontend.speculative_fills", "count", "higher"),
    layer("frontend.queue_depth_p99", "count", "lower"),
    layer("frontend.shed_capacity", "count", "lower"),
    layer("frontend.shed_pressure", "count", "lower"),
    // Load generator: its own lateness, and the read percentiles too
    // unsteady from run to run to carry a bound.
    layer("loadgen.lateness_p99_us", "us", "lower"),
    layer("op.read_p99_us", "us", "lower"),
    layer("op.read_p999_us", "us", "lower"),
    // Persistence.
    layer("persist.journal_append_us", "us", "lower"),
    layer("persist.snapshot_write_s", "s", "lower"),
    layer("persist.snapshot_map_ms", "ms", "lower"),
    layer("persist.import_ms", "ms", "lower"),
    layer("persist.replay_ms_per_delta", "ms", "lower"),
    layer("persist.section_bytes", "B", "lower"),
    // Core: the engine's own share of a delta, a registration and a save.
    layer("core.ingest_ms", "ms", "lower"),
    layer("core.ingest_self_us", "us", "lower"),
    layer("core.register_self_ms", "ms", "lower"),
    layer("core.snapshot_save_s", "s", "lower"),
    layer("core.snapshot_save_self_s", "s", "lower"),
    // Blocking-path shares taken from the trace.
    layer("path.read_server_share", "ratio", "lower"),
    layer("path.read_frontend_share", "ratio", "lower"),
    layer("path.delta_matching_share", "ratio", "lower"),
    layer("path.delta_server_share", "ratio", "lower"),
    // What tracing itself costs.
    layer("trace.overhead_share", "ratio", "lower"),
];

/// Class names, in server class-id order.
pub const CLASSES: [&str; 2] = ["family", "classmate"];
/// Training examples per class.
pub const EXAMPLES_PER_CLASS: usize = 200;
/// Share of each class's labelled queries used for training; the rest
/// are held out for `ndcg10`.
pub const TRAIN_FRACTION: f64 = 0.2;
/// Held-out queries per class scored for `ndcg10`.
pub const NDCG_QUERIES_PER_CLASS: usize = 300;
/// Miner support threshold.
pub const MIN_SUPPORT: u64 = 5;

/// Seconds one run measures: the paced and the closed-loop phase of a
/// read workload take half each. `BENCHMARK.json`'s `run_seconds`; the
/// driver's `--seconds` must name this value.
pub const RUN_SECONDS: f64 = 10.0;
/// [`RUN_SECONDS`] under `--smoke`.
pub const SMOKE_SECONDS: f64 = 2.0;
/// Closed-loop warm-up before any timed phase, in seconds.
pub const WARMUP_S: f64 = 1.0;
/// Tickets one load-generator thread keeps in flight in a closed loop.
pub const IN_FLIGHT: usize = 64;
/// How long the load generator keeps re-offering a read the front-end
/// shed before it gives the read up as failed.
pub const SHED_RETRY: std::time::Duration = std::time::Duration::from_secs(1);
/// Length of the pre-generated read trace a phase cycles through.
pub const READ_TRACE_OPS: usize = 1 << 17;
/// `k` of the zipfian reads.
pub const ZIPF_K: usize = 10;
/// `k` values the cold scan cycles through, one per pass.
pub const SCAN_KS: [u16; 4] = [10, 20, 50, 100];
/// Front-end answers kept per run and compared with `SearchEngine::search`.
pub const VERIFY_SAMPLE: usize = 2_000;
/// One front-end answer in this many is kept for that comparison.
pub const VERIFY_EVERY: usize = 499;
/// Queries compared bit for bit after churn and after each reopen.
pub const EQUIV_QUERIES: usize = 64;

/// Paced read rates per second, frozen at about 40 % of the closed-loop
/// rate the seed commit reached on the 2-core reference box (see the
/// README for the calibration runs).
pub const RATE_ZIPF_HOT: f64 = 160_000.0;
/// See [`RATE_ZIPF_HOT`].
pub const RATE_SCAN_COLD: f64 = 24_000.0;
/// See [`RATE_ZIPF_HOT`]. Also the rate of the read burst that follows
/// each `lifecycle-storm` reopen.
pub const RATE_MIXED_CHURN: f64 = 20_000.0;
/// Seed of the fixed edge pools churn deltas are drawn from (see
/// `traffic::churn_plan`): part of the set-up, never derived from `--seed`.
pub const EDGE_POOL_SEED: u64 = 0x000e_d9e5;
/// Deltas per second the `mixed-churn` writer lands.
pub const CHURN_DELTAS_PER_S: f64 = 6.0;
/// Every this many churn inserts one is a multi-edge batch.
pub const CHURN_BATCH_EVERY: usize = 8;
/// Edge range of a multi-edge churn batch (triangle wave over the run).
pub const CHURN_BATCH_EDGES: (usize, usize) = (2, 6);

/// Lifecycle cycles of a `lifecycle-storm` run (1 under `--smoke`); the
/// other workloads end with one. Fixed work: the cycles are identical.
pub const CYCLES: usize = 3;
/// Journaled single-edge ingests before the storm in a lifecycle cycle.
pub const CYCLE_INGESTS: usize = 28;
/// Journaled single-edge ingests after the save: the journal tail the
/// reopen replays.
pub const CYCLE_TAIL_INGESTS: usize = 6;
/// Anchors the storm's hub attaches to and then drops.
pub const STORM_HUB_DEGREE: usize = 32;
/// Seconds of paced and then of closed-loop reads after each
/// `lifecycle-storm` reopen, on the restored server's cold cache.
pub const BURST_S: f64 = 0.5;
/// Percentile `paced_p95_us` reports.
pub const READ_TAIL: f64 = 0.95;

/// The fixed dataset, `fb-1800`: 2 819 nodes, 14 124 edges, 749 034
/// posting entries per class — about 15 MB of posting columns, past the
/// reference box's 4 MiB L2. `--seed` never reaches it: the seed drives
/// traffic only.
pub fn dataset(smoke: bool) -> FacebookConfig {
    if smoke {
        FacebookConfig::tiny(7)
    } else {
        FacebookConfig {
            n_users: 1800,
            n_surnames: 440,
            n_locations: 100,
            n_hometowns: 100,
            n_schools: 70,
            n_majors: 30,
            n_employers: 130,
            n_work_locations: 45,
            n_work_projects: 100,
            seed: 7,
            ..FacebookConfig::default()
        }
    }
}

/// Serving configuration of every workload.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        shards: 4,
        cache_capacity: 4096,
    }
}

/// Front-end configuration of every workload.
pub fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in a JSON array value of `key`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_under(&json, "workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_under(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_under(&json, "per_layer"), layers);
        // The driver passes `run_seconds` as `--seconds`, which must name
        // the benchmark's own run length.
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
    }
}

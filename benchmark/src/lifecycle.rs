//! The lifecycle cycle — the write- and disk-side life of a replica — and
//! `lifecycle-storm`, the workload that is nothing but cycles.
//!
//! A cycle, on a live engine + server pair with a journal attached:
//!
//! 1. [`spec::CYCLE_INGESTS`] journaled single-edge `ingest_serving`s
//!    (each `fsync`s the journal before it commits);
//! 2. one hub storm — a hub-build delta and a hub-drop delta;
//! 3. `register_class_serving` of a custom class (forces a first match);
//! 4. `save_snapshot_with`;
//! 5. [`spec::CYCLE_TAIL_INGESTS`] more journaled ingests — the tail;
//! 6. `open_snapshot`, replaying the tail, to the first correct answer —
//!    then every class of the restored pair is compared bit for bit with
//!    the live pair that was saved.
//!
//! `lifecycle-storm` runs [`spec::CYCLES`] identical cycles, each on a
//! pair warm-started from the same baseline snapshot, and follows each
//! reopen with a short read burst on the restored server's cold cache.
//! Every other workload ends with one cycle on the pair its traffic left
//! behind ([`closing_cycle`]), so every workload times every operation.

use crate::ingest::{DeltaKind, IngestAccount};
use crate::probe::{self, DeltaProbe};
use crate::read::{self, Burst};
use crate::report::Outcome;
use crate::stats::{self, Summary};
use crate::trace::{SpanId, Tracer};
use crate::traffic::{self, DeltaPlan};
use crate::{spec, world, Run};
use mgp_core::{journal_path_for, Frontend, QueryServer, SearchEngine};
use mgp_graph::{GraphDelta, NodeId};
use mgp_persist::{Snapshot, SnapshotWriter};
use mgp_scenario::ClassSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What one cycle measured. Times are in ns.
#[derive(Debug, Default)]
struct Cycle {
    /// Warm start from the baseline (`lifecycle-storm` only).
    open_ns: u64,
    ingest_ns: Vec<f64>,
    storm_ns: Vec<f64>,
    register_ns: u64,
    save_ns: u64,
    reopen_ns: u64,
    /// Wall time of the whole cycle, probes included.
    wall_ns: u64,
    file_bytes: u64,
    entries: usize,
    replayed: usize,
    attempted: u64,
    failed: u64,
    /// Reads after the reopen (`lifecycle-storm` only).
    burst: Option<Burst>,
    // Probes of a traced cycle.
    map_ns: u64,
    write_ns: u64,
    first_match_ns: u64,
    server_register_ns: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Compares every class of two engine + server pairs bit for bit over
/// `queries`; returns `(checks, mismatches)`.
fn compare(
    live: (&SearchEngine, &QueryServer),
    restored: (&SearchEngine, &QueryServer),
    queries: &[NodeId],
) -> (u64, u64) {
    let (mut checks, mut bad) = (0, 0);
    for name in live.1.class_names() {
        let (Some(a), Some(b)) = (live.1.class_id(&name), restored.1.class_id(&name)) else {
            checks += 1;
            bad += 1;
            continue;
        };
        checks += 1;
        bad += u64::from(live.1.table_stats(a) != restored.1.table_stats(b));
        for &q in queries {
            checks += 2;
            bad +=
                u64::from(*live.1.rank(a, q, spec::ZIPF_K) != *restored.1.rank(b, q, spec::ZIPF_K));
            bad += u64::from(
                live.0.search(&name, q, spec::ZIPF_K) != restored.0.search(&name, q, spec::ZIPF_K),
            );
        }
    }
    (checks, bad)
}

/// Times `SnapshotWriter` alone on the bytes the engine just saved: the
/// persist layer's share of a save. Reading the sections back is
/// preparation and stays outside the span.
fn write_probe(saved: &Path, scratch: &Path, tracer: &mut Tracer, parent: SpanId, op: u32) -> u64 {
    let snap = Snapshot::open(saved).expect("the snapshot just saved opens");
    let sections: Vec<(String, Vec<u8>)> = snap
        .tags()
        .into_iter()
        .map(|tag| {
            let bytes = snap.section(&tag).expect("listed section exists").to_vec();
            (tag, bytes)
        })
        .collect();
    drop(snap);
    let t = Instant::now();
    tracer.time("persist.snapshot_write", parent, op, || {
        let mut w = SnapshotWriter::new();
        for (tag, bytes) in sections {
            w.add_section(&tag, bytes).expect("tags are unique");
        }
        w.finish(scratch).expect("side snapshot is writable");
    });
    let ns = elapsed_ns(t);
    let _ = std::fs::remove_file(scratch);
    ns
}

/// The files a run's cycles use. They carry the process id, so two runs
/// never share one, and are removed when the value is dropped.
struct Files {
    /// The snapshot every `lifecycle-storm` cycle starts from.
    base: PathBuf,
    /// The snapshot a cycle saves and reopens; its journal sits beside it.
    cycle: PathBuf,
    /// Where a traced cycle's write probe writes.
    scratch: PathBuf,
    /// Where a traced cycle's delta probe journals.
    side_journal: PathBuf,
}

impl Files {
    fn new(out_dir: &Path) -> Files {
        let file = |name: &str| out_dir.join(format!("{name}-{}", std::process::id()));
        Files {
            base: file("baseline.snap"),
            cycle: file("cycle.snap"),
            scratch: file("scratch.snap"),
            side_journal: file("side.journal"),
        }
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        for path in [&self.base, &self.cycle, &self.scratch, &self.side_journal] {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(journal_path_for(path));
        }
    }
}

/// What every cycle of a run shares: the same deltas in the same order,
/// the same class, the same queries.
struct Script {
    files: Files,
    /// The cycle's single-edge deltas: [`spec::CYCLE_INGESTS`] before the
    /// save, [`spec::CYCLE_TAIL_INGESTS`] after. The edges are a fixed
    /// pool; `--seed` decides their order.
    plans: Vec<DeltaPlan>,
    storm: (GraphDelta, GraphDelta),
    class: ClassSpec,
    queries: Vec<NodeId>,
}

impl Script {
    /// The script against `engine` as it stands at the start of a cycle.
    fn new(run: &Run, engine: &SearchEngine) -> Script {
        let (graph, anchor_type) = (engine.graph(), engine.anchor_type());
        Script {
            files: Files::new(&run.out_dir),
            plans: traffic::churn_plan(
                graph,
                anchor_type,
                spec::EDGE_POOL_SEED + 1,
                run.seed,
                spec::CYCLE_INGESTS + spec::CYCLE_TAIL_INGESTS,
                false,
            ),
            storm: traffic::storm_deltas(graph, anchor_type, run.seed),
            class: run.world.custom_class(),
            queries: run.world.equivalence_queries(),
        }
    }
}

/// The pair a cycle works on, the side copies a traced cycle replays its
/// deltas through, and what the cycle has measured so far.
struct Live<'a> {
    engine: &'a mut SearchEngine,
    server: &'a QueryServer,
    probe: Option<DeltaProbe>,
    c: Cycle,
}

impl Live<'_> {
    /// Lands one delta on the live pair and books it.
    fn land(
        &mut self,
        account: &mut IngestAccount,
        tracer: &mut Tracer,
        delta: &GraphDelta,
        kind: DeltaKind,
        op: u32,
    ) {
        self.c.attempted += 1;
        let probe = self.probe.as_mut();
        match account.ingest(self.engine, self.server, delta, kind, probe, tracer, op) {
            Some(ns) => match kind {
                DeltaKind::Churn => self.c.ingest_ns.push(ns as f64),
                DeltaKind::Storm => self.c.storm_ns.push(ns as f64),
            },
            None => self.c.failed += 1,
        }
    }
}

/// Steps 1 to 6 of cycle `index` on `live`, whose journal is attached
/// beside `script.files.cycle`. Returns what the cycle measured and the
/// restored pair.
fn cycle_on(
    mut live: Live<'_>,
    script: &Script,
    index: usize,
    account: &mut IngestAccount,
    tracer: &mut Tracer,
) -> (Cycle, SearchEngine, QueryServer) {
    let files = &script.files;
    let op = |step: usize| (index * 64 + step) as u32;
    let traced = live.probe.is_some();

    // 1. Journaled single-edge ingests.
    let (before, tail) = script.plans.split_at(spec::CYCLE_INGESTS);
    for (i, plan) in before.iter().enumerate() {
        let delta = plan.to_delta(live.engine.graph());
        live.land(account, tracer, &delta, DeltaKind::Churn, op(1 + i));
    }

    // 2. The hub storm.
    live.land(account, tracer, &script.storm.0, DeltaKind::Storm, op(40));
    live.land(account, tracer, &script.storm.1, DeltaKind::Storm, op(41));

    // 3. Register a class whose patterns have never been matched.
    let span = tracer.begin("core.register_class_serving", None, op(42));
    let t = Instant::now();
    let registered = live
        .engine
        .register_class_serving(&script.class, live.server);
    live.c.register_ns = elapsed_ns(t);
    tracer.end(span);
    live.c.attempted += 1;
    live.c.failed += u64::from(registered.is_err());
    if let Some(probe) = &mut live.probe {
        (live.c.first_match_ns, live.c.server_register_ns) =
            probe.follow_register(live.engine, &script.class.name, tracer, span, op(42));
    }

    // 4. Save.
    let span = tracer.begin("core.save_snapshot_with", None, op(43));
    let t = Instant::now();
    let saved = live.engine.save_snapshot_with(&files.cycle, live.server);
    live.c.save_ns = elapsed_ns(t);
    tracer.end(span);
    live.c.attempted += 1;
    live.c.failed += u64::from(saved.is_err());
    live.c.file_bytes = std::fs::metadata(&files.cycle).map_or(0, |m| m.len());
    live.c.entries = (0..live.server.n_classes())
        .map(|cid| live.server.table_stats(cid).n_posting_entries)
        .sum();
    if traced {
        live.c.write_ns = write_probe(&files.cycle, &files.scratch, tracer, span, op(43));
    }

    // 5. The journal tail.
    for (i, plan) in tail.iter().enumerate() {
        let delta = plan.to_delta(live.engine.graph());
        live.land(account, tracer, &delta, DeltaKind::Churn, op(44 + i));
    }

    // 6. Warm start with tail replay, to the first correct answer.
    let Live {
        engine,
        server,
        mut c,
        ..
    } = live;
    let q = script.queries[0];
    let want = server.rank(0, q, spec::ZIPF_K);
    let span = tracer.begin("core.open_snapshot", None, op(60));
    let t = Instant::now();
    let load = SearchEngine::open_snapshot(&files.cycle).expect("cycle snapshot opens");
    let restored = load.server.expect("the cycle snapshot carries postings");
    let first = restored.rank(0, q, spec::ZIPF_K);
    c.reopen_ns = elapsed_ns(t);
    tracer.end(span);
    if traced {
        let t = Instant::now();
        tracer.time("persist.snapshot_open", span, op(60), || {
            drop(Snapshot::open(&files.cycle).expect("cycle snapshot maps"));
        });
        c.map_ns = elapsed_ns(t);
    }
    c.replayed = load.replayed;
    c.attempted += 2;
    c.failed += u64::from(*first != *want) + u64::from(load.replayed != tail.len());

    // Every reopen must answer exactly as the pair that was saved.
    let (checks, bad) = compare(
        (&*engine, server),
        (&load.engine, &restored),
        &script.queries,
    );
    c.attempted += checks;
    c.failed += bad;
    (c, load.engine, restored)
}

/// Writes what `cycles` measured (each flagged traced or not) into `out`:
/// the lifecycle end-to-end metrics and the persistence and registration
/// layers.
fn report(cycles: &[(bool, Cycle)], account: &IngestAccount, trace: bool, out: &mut Outcome) {
    let all =
        |f: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(|(_, c)| f(c)).collect() };
    // Pooled over every cycle's ingests; the quartiles are those of the
    // per-cycle values, a cycle standing in for a window.
    let pooled: Vec<f64> = cycles
        .iter()
        .flat_map(|(_, c)| c.ingest_ns.iter().copied())
        .collect();
    let of_ingests = |q: f64| {
        let per_cycle = all(&|c| stats::quantile_of(c.ingest_ns.clone(), q) / 1e6);
        Summary {
            value: stats::quantile_of(pooled.clone(), q) / 1e6,
            eligible: stats::percentile_eligible(pooled.len(), q),
            ..Summary::of_windows(per_cycle, pooled.len(), true)
        }
    };
    let e2e = &mut out.e2e;
    e2e.set("ingest_p50_ms", of_ingests(0.5));
    e2e.set(
        "ingest_tail_ms",
        of_ingests(stats::supported_tail(pooled.len())),
    );
    let storms = cycles.iter().flat_map(|(_, c)| c.storm_ns.iter());
    e2e.set(
        "storm_delta_ms",
        Summary::of_samples(storms.map(|ns| ns / 1e6).collect()),
    );
    e2e.set(
        "register_ms",
        Summary::of_samples(all(&|c| c.register_ns as f64 / 1e6)),
    );
    e2e.set(
        "warm_start_s",
        Summary::of_samples(all(&|c| c.reopen_ns as f64 / 1e9)),
    );
    // Identical cycles save identical bytes.
    let first = &cycles[0].1;
    e2e.set(
        "snapshot_bytes_per_entry",
        Summary::single(first.file_bytes as f64 / first.entries.max(1) as f64),
    );
    for (_, c) in cycles {
        out.attempted += c.attempted;
        out.failed += c.failed;
    }
    out.notes.push(format!(
        "journaled ingests: {} timed by service time, tail = p{:.0}",
        pooled.len(),
        100.0 * stats::supported_tail(pooled.len())
    ));

    let layers = &mut out.layers;
    account.write(layers);
    layers.set("persist.section_bytes", first.file_bytes as f64);
    layers.set(
        "core.snapshot_save_s",
        stats::median_of(all(&|c| c.save_ns as f64 / 1e9)),
    );
    if !trace {
        return;
    }
    let traced = |f: &dyn Fn(&Cycle) -> f64| {
        stats::median_of(
            cycles
                .iter()
                .filter(|(t, _)| *t)
                .map(|(_, c)| f(c))
                .collect(),
        )
    };
    let map_ms = traced(&|c| c.map_ns as f64) / 1e6;
    layers.set("persist.snapshot_map_ms", map_ms);
    // Import and replay are told apart only where a cycle also opens a
    // snapshot without a tail: on `lifecycle-storm`.
    if first.open_ns > 0 {
        layers.set(
            "persist.import_ms",
            (traced(&|c| c.open_ns as f64) / 1e6 - map_ms).max(0.0),
        );
        layers.set(
            "persist.replay_ms_per_delta",
            traced(&|c| {
                (c.reopen_ns as f64 - c.open_ns as f64).max(0.0) / c.replayed.max(1) as f64
            }) / 1e6,
        );
    }
    let write_s = traced(&|c| c.write_ns as f64) / 1e9;
    layers.set("persist.snapshot_write_s", write_s);
    layers.set(
        "core.snapshot_save_self_s",
        (traced(&|c| c.save_ns as f64) / 1e9 - write_s).max(0.0),
    );
    let first_match_ms = traced(&|c| c.first_match_ns as f64) / 1e6;
    let server_ms = traced(&|c| c.server_register_ns as f64) / 1e6;
    layers.set("matching.first_match_ms", first_match_ms);
    layers.set("server.register_class_ms", server_ms);
    layers.set(
        "core.register_self_ms",
        (traced(&|c| c.register_ns as f64) / 1e6 - first_match_ms - server_ms).max(0.0),
    );
}

/// The cycle every workload but `lifecycle-storm` ends with, on the pair
/// its traffic left behind. `account` carries the deltas the workload's
/// own traffic landed, if any.
pub fn closing_cycle(run: &mut Run, mut account: IngestAccount, out: &mut Outcome) {
    let script = Script::new(run, &run.world.engine);
    run.tracer.set_enabled(run.trace);
    let engine = &mut run.world.engine;
    engine
        .attach_journal(journal_path_for(&script.files.cycle))
        .expect("the cycle's journal is creatable");
    let probe = run
        .trace
        .then(|| DeltaProbe::new(engine, Some(&script.files.side_journal)));
    let live = Live {
        engine,
        server: run.frontend.server(),
        probe,
        c: Cycle::default(),
    };
    let wall = Instant::now();
    let (mut c, ..) = cycle_on(live, &script, 0, &mut account, &mut run.tracer);
    c.wall_ns = elapsed_ns(wall);
    out.notes.push(format!(
        "closing cycle: {} journaled ingests, hub storm, class registration, save, reopen with tail replay in {:.2} s; \
         the reopened pair compared with the saved one over {} queries x all classes",
        c.ingest_ns.len(),
        c.wall_ns as f64 / 1e9,
        script.queries.len()
    ));
    report(&[(run.trace, c)], &account, run.trace, out);
}

/// Runs `lifecycle-storm`.
pub fn run(run: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    let script = Script::new(run, &run.world.engine);
    let files = &script.files;
    let reads = traffic::zipf_reads(
        run.world.engine.graph(),
        run.world.engine.anchor_type(),
        run.seed,
        (spec::RATE_MIXED_CHURN * spec::BURST_S * 8.0) as usize,
    );

    // The baseline every cycle starts from, saved from the set-up pair.
    let q = script.queries[0];
    let expected = run.world.engine.search(spec::CLASSES[0], q, spec::ZIPF_K);
    let t = Instant::now();
    run.world
        .engine
        .save_snapshot_with(&files.base, run.frontend.server())
        .expect("baseline snapshot is writable");
    out.notes.push(format!(
        "baseline snapshot: {} bytes, saved in {:.2} s (not part of any metric)",
        std::fs::metadata(&files.base).map_or(0, |m| m.len()),
        t.elapsed().as_secs_f64()
    ));

    let n_cycles = if run.smoke { 1 } else { spec::CYCLES };
    let mut account = IngestAccount::default();
    let mut cycles: Vec<(bool, Cycle)> = Vec::new();
    let mut last: Option<Frontend> = None;
    for index in 0..n_cycles {
        // Every cycle starts from the same bytes and an empty journal; a
        // link, so no cycle pays for a copy's dirty pages.
        let _ = std::fs::remove_file(&files.cycle);
        let _ = std::fs::remove_file(journal_path_for(&files.cycle));
        std::fs::hard_link(&files.base, &files.cycle).expect("baseline snapshot links");
        // In a traced run every other cycle is traced, so one run yields
        // both sides of `trace.overhead_share`.
        let traced = run.trace && index % 2 == 1;
        let tracer = &mut run.tracer;
        tracer.set_enabled(traced);
        let wall = Instant::now();

        // Warm start from the baseline, to the first correct answer.
        let span = tracer.begin("core.open_snapshot", None, (index * 64) as u32);
        let t = Instant::now();
        let load = SearchEngine::open_snapshot(&files.cycle).expect("baseline snapshot opens");
        let server = load.server.expect("the baseline carries postings");
        let first = server.rank(0, q, spec::ZIPF_K);
        let open_ns = elapsed_ns(t);
        tracer.end(span);
        let mut engine = load.engine;
        let live = Live {
            probe: traced.then(|| DeltaProbe::new(&engine, Some(&files.side_journal))),
            engine: &mut engine,
            server: &server,
            c: Cycle {
                open_ns,
                attempted: 2,
                failed: u64::from(*first != expected) + u64::from(load.replayed != 0),
                ..Cycle::default()
            },
        };
        let (mut c, _, restored) = cycle_on(live, &script, index, &mut account, tracer);
        drop((engine, server));

        // The first reads after the restart, on a cold result cache.
        let frontend = Frontend::new(Arc::new(restored), spec::frontend_config());
        c.burst = Some(read::burst(&frontend, &reads, tracer, run.epoch));
        c.wall_ns = elapsed_ns(wall);
        cycles.push((traced, c));
        last = Some(frontend);
    }
    run.tracer.set_enabled(run.trace);

    let bursts: Vec<&Burst> = cycles
        .iter()
        .filter_map(|(_, c)| c.burst.as_ref())
        .collect();
    let n_reads: usize = bursts.iter().map(|b| b.latency_ns.len()).sum();
    let of_reads = |q: f64| {
        let per_cycle = bursts
            .iter()
            .map(|b| stats::quantile_of(b.latency_ns.clone(), q) / 1e3)
            .collect();
        let eligible = bursts
            .iter()
            .all(|b| stats::percentile_eligible(b.latency_ns.len(), q));
        Summary::of_windows(per_cycle, n_reads, eligible)
    };
    out.e2e.set("paced_p50_us", of_reads(0.5));
    out.e2e.set("paced_p95_us", of_reads(spec::READ_TAIL));
    out.e2e.set(
        "sat_qps",
        Summary::of_windows(
            bursts.iter().map(|b| b.qps).collect(),
            bursts.iter().map(|b| b.completed).sum(),
            true,
        ),
    );
    for b in &bursts {
        out.attempted += b.attempted;
        out.failed += b.failed;
    }
    out.notes.push(format!(
        "{} identical cycles (1 thread, closed loop); after each reopen {} reads paced at {:.0}/s then {} in flight for {} s; \
         every reopen compared with the saved pair over {} queries x all classes",
        cycles.len(),
        bursts[0].latency_ns.len(),
        spec::RATE_MIXED_CHURN,
        spec::IN_FLIGHT,
        spec::BURST_S,
        script.queries.len()
    ));
    out.e2e
        .set("peak_rss_mb", Summary::single(crate::peak_rss_mb()));

    // `ndcg10` through the front-end over the last reopened server: the
    // cycle's churn nets to nothing, so the two trained classes answer
    // as they did at set-up.
    let frontend = last.expect("at least one cycle ran");
    let (score, asked, lost) = world::ndcg10(&run.world, &frontend);
    out.e2e.set("ndcg10", Summary::single(score));
    out.attempted += asked;
    out.failed += lost;

    report(&cycles, &account, run.trace, &mut out);
    if run.trace {
        let layers = &mut out.layers;
        layers.set(
            "graph.intersect_ns_per_elem",
            probe::intersect_probe(&run.world.engine, run.seed, &mut run.tracer),
        );
        let wall = |traced: bool| {
            stats::median_of(
                cycles
                    .iter()
                    .filter(|(t, _)| *t == traced)
                    .map(|(_, c)| c.wall_ns as f64)
                    .collect(),
            )
        };
        layers.set(
            "trace.overhead_share",
            1.0 - wall(false) / wall(true).max(1.0),
        );
    }
    out
}

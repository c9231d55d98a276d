//! The three read workloads. Each drives `Frontend::submit` /
//! `Ticket::wait` from one load-generator thread: first an open-loop
//! phase paced at a frozen rate (latency from due time), then a closed
//! loop with [`spec::IN_FLIGHT`] tickets in flight (completions per
//! second). `mixed-churn` adds one writer thread landing paced net-zero
//! deltas through `SearchEngine::ingest_serving` during both phases.
//! Each ends with one lifecycle cycle on the pair the traffic left behind.

use crate::ingest::{DeltaKind, IngestAccount};
use crate::pacing::{latency_from_due, Pacer};
use crate::probe::{self, DeltaProbe};
use crate::report::{Layers, Outcome};
use crate::stats::{self, PhaseSamples, Summary, WINDOWS};
use crate::trace::Tracer;
use crate::traffic::{self, DeltaPlan, ReadOp};
use crate::{lifecycle, spec, world, Run};
use mgp_core::{Frontend, FrontendError, QueryServer, SearchEngine};
use mgp_graph::NodeId;
use mgp_online::{FrontendStats, LatencySnapshot, RankedList, ServerStats, TableStats, Ticket};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which read workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `read-zipf-hot`.
    ZipfHot,
    /// `read-scan-cold`.
    ScanCold,
    /// `mixed-churn`.
    MixedChurn,
}

impl ReadKind {
    fn rate(self) -> f64 {
        match self {
            ReadKind::ZipfHot => spec::RATE_ZIPF_HOT,
            ReadKind::ScanCold => spec::RATE_SCAN_COLD,
            ReadKind::MixedChurn => spec::RATE_MIXED_CHURN,
        }
    }
}

/// What the generator remembers about a submitted read.
#[derive(Clone, Copy)]
struct Meta {
    op: ReadOp,
    /// Due time (open loop) or submit time (closed loop), ns into the phase.
    due_ns: u64,
    /// Submit call start and end, ns into the phase (traced reads only).
    submit_ns: (u64, u64),
    traced: bool,
    index: u32,
}

/// The one load-generator thread's state across phases.
struct LoadGen<'a> {
    frontend: &'a Frontend,
    ops: &'a [ReadOp],
    cursor: usize,
    tracer: &'a mut Tracer,
    epoch: Instant,
    trace: bool,
    attempted: u64,
    failed: u64,
    /// Every `keep_every`th answer is kept for verification (0 = none).
    keep_every: usize,
    kept: Vec<(ReadOp, Arc<RankedList>)>,
}

/// What the open-loop phase measured.
struct Paced {
    latency: PhaseSamples,
    lateness: PhaseSamples,
    phase_ns: u64,
}

/// What the closed-loop phase measured.
struct Closed {
    done: PhaseSamples,
    phase_ns: u64,
}

impl LoadGen<'_> {
    /// Tracing alternates by window in a traced run, so one run yields
    /// traced and untraced windows to compare.
    fn window_is_traced(&self, at_ns: u64, phase_ns: u64) -> bool {
        self.trace && (at_ns * WINDOWS as u64 / phase_ns.max(1)) % 2 == 1
    }

    fn submit(&mut self, start: Instant, due_ns: u64, traced: bool) -> Option<(Meta, Ticket)> {
        let index = self.cursor;
        self.cursor += 1;
        let op = self.ops[index % self.ops.len()];
        self.attempted += 1;
        let clock = |on: bool| {
            if on {
                start.elapsed().as_nanos() as u64
            } else {
                0
            }
        };
        let t0 = clock(traced);
        // A shed read is offered again, as a caller backing off would; it
        // keeps its due time, so the shed shows in its latency (and in
        // `frontend.shed_*`). Only a read still refused after
        // [`spec::SHED_RETRY`], or a typed error, goes unanswered and fails.
        let mut refused: Option<Instant> = None;
        let ticket = loop {
            match self.frontend.submit(op.class as usize, op.q, op.k as usize) {
                Err(FrontendError::Overloaded { .. })
                    if refused.get_or_insert_with(Instant::now).elapsed() < spec::SHED_RETRY =>
                {
                    std::thread::yield_now();
                }
                other => break other,
            }
        };
        let t1 = clock(traced);
        match ticket {
            Ok(ticket) => Some((
                Meta {
                    op,
                    due_ns,
                    submit_ns: (t0, t1),
                    traced,
                    index: index as u32,
                },
                ticket,
            )),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Books one answer; `false` when the read failed.
    fn complete(
        &mut self,
        start: Instant,
        m: Meta,
        answer: Result<Arc<RankedList>, FrontendError>,
        done_ns: u64,
    ) -> bool {
        let Ok(list) = answer else {
            self.failed += 1;
            return false;
        };
        if self.keep_every > 0
            && (m.index as usize).is_multiple_of(self.keep_every)
            && self.kept.len() < spec::VERIFY_SAMPLE
        {
            self.kept.push((m.op, list));
        }
        if m.traced {
            let base = start.duration_since(self.epoch).as_nanos() as u64;
            let at = |ns: u64| base + ns;
            let (s0, s1) = m.submit_ns;
            let t = &mut *self.tracer;
            let root = t.record("op.read", None, m.index, at(m.due_ns), at(done_ns));
            t.record("loadgen.late", root, m.index, at(m.due_ns), at(s0));
            t.record("frontend.submit", root, m.index, at(s0), at(s1));
            t.record("wait.ticket", root, m.index, at(s1), at(done_ns));
        }
        true
    }

    /// Open loop: reads are due at `rate` per second for `secs` seconds
    /// and are timed from their due time.
    fn paced(&mut self, rate: f64, secs: f64) -> Paced {
        let mut pacer = Pacer::new(rate, secs);
        let phase_ns = pacer.phase_ns();
        let mut latency = PhaseSamples::with_capacity(pacer.len());
        let mut lateness = PhaseSamples::with_capacity(pacer.len());
        let mut inflight: VecDeque<(Meta, Ticket)> = VecDeque::new();
        let start = Instant::now();
        loop {
            let now = start.elapsed().as_nanos() as u64;
            if let Some(due) = pacer.poll(now) {
                lateness.push(due.due_ns, due.late_ns as f64);
                let traced = self.window_is_traced(due.due_ns, phase_ns);
                inflight.extend(self.submit(start, due.due_ns, traced));
            }
            while let Some(answer) = inflight.front().and_then(|(_, t)| t.try_wait()) {
                let done = start.elapsed().as_nanos() as u64;
                let (m, _) = inflight.pop_front().expect("front exists");
                if self.complete(start, m, answer, done) {
                    latency.push(m.due_ns, latency_from_due(m.due_ns, done) as f64);
                }
            }
            if pacer.is_done() && inflight.is_empty() {
                break;
            }
        }
        Paced {
            latency,
            lateness,
            phase_ns,
        }
    }

    /// Closed loop: [`spec::IN_FLIGHT`] tickets in flight; the next read
    /// goes out when the oldest is answered.
    fn closed(&mut self, secs: f64) -> Closed {
        let phase_ns = (secs * 1e9) as u64;
        let mut done = PhaseSamples::default();
        let mut inflight: VecDeque<(Meta, Ticket)> = VecDeque::with_capacity(spec::IN_FLIGHT);
        let start = Instant::now();
        let mut now = 0u64;
        loop {
            while now < phase_ns && inflight.len() < spec::IN_FLIGHT {
                let traced = self.window_is_traced(now, phase_ns);
                inflight.extend(self.submit(start, now, traced));
                now = start.elapsed().as_nanos() as u64;
            }
            let Some((m, ticket)) = inflight.pop_front() else {
                break;
            };
            let answer = ticket.wait();
            now = start.elapsed().as_nanos() as u64;
            // Answers that arrive after the phase ended drain the loop
            // but are not part of its rate.
            if self.complete(start, m, answer, now) && now < phase_ns {
                done.push(now, (now - m.due_ns) as f64);
            }
        }
        Closed { done, phase_ns }
    }
}

/// What a read burst after a `lifecycle-storm` reopen measured.
#[derive(Debug)]
pub struct Burst {
    /// Paced read latencies from due time, ns.
    pub latency_ns: Vec<f64>,
    /// Closed-loop completions per second.
    pub qps: f64,
    /// Closed-loop completions.
    pub completed: usize,
    /// Reads attempted.
    pub attempted: u64,
    /// Reads that failed.
    pub failed: u64,
}

/// [`spec::BURST_S`] seconds of reads paced at [`spec::RATE_MIXED_CHURN`],
/// then as long a closed loop, through `frontend`, with no warm-up: the
/// reads a restarted replica answers first. No spans are recorded.
pub fn burst(frontend: &Frontend, ops: &[ReadOp], tracer: &mut Tracer, epoch: Instant) -> Burst {
    let mut gen = LoadGen {
        frontend,
        ops,
        cursor: 0,
        tracer,
        epoch,
        trace: false,
        attempted: 0,
        failed: 0,
        keep_every: 0,
        kept: Vec::new(),
    };
    let paced = gen.paced(spec::RATE_MIXED_CHURN, spec::BURST_S);
    let closed = gen.closed(spec::BURST_S);
    Burst {
        latency_ns: paced.latency.values(),
        qps: closed.done.len() as f64 / spec::BURST_S,
        completed: closed.done.len(),
        attempted: gen.attempted,
        failed: gen.failed,
    }
}

/// What the `mixed-churn` writer thread hands back.
struct Written {
    account: IngestAccount,
    latency: PhaseSamples,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// The writer thread: lands `plans` on a fixed schedule over `secs`
/// seconds, every one of them, however late it runs.
fn write_churn(
    engine: &mut SearchEngine,
    server: &QueryServer,
    plans: &[DeltaPlan],
    secs: f64,
    mut probe: Option<DeltaProbe>,
    tracer: Tracer,
) -> Written {
    let pacer = Pacer::new(plans.len() as f64 / secs, secs);
    let mut out = Written {
        account: IngestAccount::default(),
        latency: PhaseSamples::with_capacity(plans.len()),
        attempted: 0,
        failed: 0,
        tracer,
    };
    let start = Instant::now();
    for (i, plan) in plans.iter().enumerate() {
        let due = Duration::from_nanos(pacer.due_ns(i));
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let delta = plan.to_delta(engine.graph());
        out.attempted += 1;
        let landed = out.account.ingest(
            engine,
            server,
            &delta,
            DeltaKind::Churn,
            probe.as_mut(),
            &mut out.tracer,
            i as u32,
        );
        match landed {
            Some(_) => {
                let done = start.elapsed().as_nanos() as u64;
                let due_ns = due.as_nanos() as u64;
                out.latency
                    .push(due_ns, latency_from_due(due_ns, done) as f64);
            }
            None => out.failed += 1,
        }
    }
    out
}

/// Sum of a latency snapshot's recorded durations, in ns.
fn total_ns(s: &LatencySnapshot) -> f64 {
    s.mean.as_nanos() as f64 * s.count as f64
}

/// Front-end and server counters over the timed phases, as per-layer
/// metrics.
fn counters(
    layers: &mut Layers,
    before: (&FrontendStats, &ServerStats),
    after: (&FrontendStats, &ServerStats),
    wall_ns: f64,
    max_batch: usize,
    submit_ns: f64,
) {
    let (f0, s0) = before;
    let (f1, s1) = after;
    let windows = (f1.windows - f0.windows).max(1) as f64;
    let requests = (f1.windowed_requests - f0.windowed_requests) as f64;
    let distinct = (f1.distinct_executed - f0.distinct_executed).max(1) as f64;
    layers.set("frontend.batch_size_mean", requests / windows);
    layers.set(
        "frontend.window_fill",
        requests / windows / max_batch as f64,
    );
    layers.set("frontend.coalesce_ratio", requests / distinct);
    layers.set(
        "frontend.speculative_fills",
        (f1.speculative_fills - f0.speculative_fills) as f64,
    );
    layers.set("frontend.queue_depth_p99", f1.queue_depth_p99 as f64);
    layers.set(
        "frontend.shed_capacity",
        (f1.shed_capacity - f0.shed_capacity) as f64,
    );
    layers.set(
        "frontend.shed_pressure",
        (f1.shed_pressure - f0.shed_pressure) as f64,
    );
    let window_busy = total_ns(&f1.window_latency) - total_ns(&f0.window_latency);
    layers.set("frontend.window_exec_us", window_busy / windows / 1e3);
    let server_busy = total_ns(&s1.latency) - total_ns(&s0.latency);
    layers.set("server.batch_busy_share", server_busy / wall_ns);
    let hits = (s1.cache_hits - s0.cache_hits) as f64;
    let misses = (s1.cache_misses - s0.cache_misses) as f64;
    layers.set("server.cache_hit_rate", hits / (hits + misses).max(1.0));
    // A read's blocking path, by busy time: the server's batch
    // executions against everything the front-end adds around them
    // (submit calls, window bookkeeping, fan-out). Queue wait is
    // reported separately as `frontend.queue_wait_us`.
    let submits = (f1.submitted - f0.submitted) as f64;
    let submit_busy = submit_ns * submits;
    let path = (window_busy + submit_busy).max(1.0);
    layers.set("path.read_server_share", server_busy / path);
    layers.set("path.read_frontend_share", 1.0 - server_busy / path);
}

/// Answers for `queries` under both classes, through the front-end.
/// `None` marks a failed read.
fn ask(frontend: &Frontend, queries: &[NodeId]) -> Vec<Option<Arc<RankedList>>> {
    let tickets: Vec<_> = queries
        .iter()
        .flat_map(|&q| (0..spec::CLASSES.len()).map(move |c| (c, q)))
        .map(|(c, q)| frontend.submit(c, q, spec::ZIPF_K))
        .collect();
    tickets
        .into_iter()
        .map(|t| t.and_then(|t| t.wait()).ok())
        .collect()
}

/// Runs one read workload.
pub fn run(kind: ReadKind, run: &mut Run) -> Outcome {
    let mixed = kind == ReadKind::MixedChurn;
    let half = run.seconds / 2.0;
    let anchors = run.world.anchors();
    let graph = run.world.engine.graph();
    let anchor_type = run.world.engine.anchor_type();

    let t = Instant::now();
    let n_ops = if run.smoke {
        1 << 13
    } else {
        spec::READ_TRACE_OPS
    };
    let ops = match kind {
        ReadKind::ScanCold => traffic::scan_reads(&anchors, run.seed, n_ops),
        _ => traffic::zipf_reads(graph, anchor_type, run.seed, n_ops),
    };
    let plans = if mixed {
        let n = (spec::CHURN_DELTAS_PER_S * run.seconds).round() as usize;
        traffic::churn_plan(graph, anchor_type, spec::EDGE_POOL_SEED, run.seed, n, true)
    } else {
        Vec::new()
    };
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut out = Outcome::default();
    let frontend = &run.frontend;
    let server: &QueryServer = frontend.server();
    let mut gen = LoadGen {
        frontend,
        ops: &ops,
        cursor: 0,
        tracer: &mut run.tracer,
        epoch: run.epoch,
        trace: false,
        attempted: 0,
        failed: 0,
        keep_every: 0,
        kept: Vec::new(),
    };
    // Caches fill and lazy set-up finishes before anything is timed.
    gen.closed(if run.smoke { 0.2 } else { spec::WARMUP_S });
    gen.trace = run.trace;
    gen.keep_every = if mixed { 0 } else { spec::VERIFY_EVERY };

    let equiv = run.world.equivalence_queries();
    let reference: Option<(Vec<TableStats>, Vec<_>)> = mixed.then(|| {
        let tables = (0..spec::CLASSES.len())
            .map(|c| server.table_stats(c))
            .collect();
        (tables, ask(frontend, &equiv))
    });

    let probe = (mixed && run.trace).then(|| DeltaProbe::new(&run.world.engine, None));
    let writer_tracer = Tracer::new(run.epoch, run.trace);
    let before = (frontend.stats(), server.stats());
    let timed = Instant::now();
    let engine = &mut run.world.engine;
    let (paced, closed, written) = std::thread::scope(|s| {
        let writer = mixed.then(|| {
            let plans = &plans;
            let secs = run.seconds;
            s.spawn(move || write_churn(engine, server, plans, secs, probe, writer_tracer))
        });
        let paced = gen.paced(kind.rate(), half);
        let closed = gen.closed(half);
        let written = writer.map(|w| w.join().expect("writer thread ran to the end"));
        (paced, closed, written)
    });
    let wall_ns = timed.elapsed().as_nanos() as f64;
    let after = (frontend.stats(), server.stats());

    out.attempted = gen.attempted;
    out.failed = gen.failed;
    let kept = std::mem::take(&mut gen.kept);
    drop(gen);

    // One pass over the paced samples for every percentile reported.
    const LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];
    let ladder = paced.latency.window_quantiles(paced.phase_ns, &LADDER);
    let at = |q: f64| {
        let i = LADDER.iter().position(|&l| l == q).expect("on the ladder");
        ladder[i].scaled(1e-3)
    };
    out.e2e.set("paced_p50_us", at(0.5));
    out.e2e.set("paced_p95_us", at(spec::READ_TAIL));
    out.e2e
        .set("sat_qps", closed.done.window_rate(closed.phase_ns));
    let late = paced
        .lateness
        .window_quantiles(paced.phase_ns, &[0.5, 0.99]);
    out.notes.push(format!(
        "load generator: 1 thread, paced {:.0}/s for {half:.1} s then {} in flight for {half:.1} s; \
         lateness p50 {:.1} us, p99 {:.1} us over {} reads",
        kind.rate(),
        spec::IN_FLIGHT,
        late[0].value / 1e3,
        late[1].value / 1e3,
        paced.lateness.len(),
    ));
    let rungs: Vec<String> = LADDER
        .iter()
        .map(|&q| {
            let s = at(q);
            let mark = if s.eligible { "" } else { " (too few samples)" };
            format!("p{} {:.1}{mark}", q * 100.0, s.value)
        })
        .collect();
    out.notes.push(format!(
        "paced read latency from due time, us: {}",
        rungs.join(", ")
    ));

    // Verification, on the quiesced engine.
    let engine = &run.world.engine;
    for (op, list) in &kept {
        out.attempted += 1;
        let expected = engine.search(spec::CLASSES[op.class as usize], op.q, op.k as usize);
        out.failed += u64::from(**list != expected);
    }
    if !mixed {
        out.notes.push(format!(
            "verified {} front-end answers bit-identical to SearchEngine::search",
            kept.len()
        ));
    }
    if let (Some(written), Some((tables, answers))) = (&written, &reference) {
        out.attempted += written.attempted;
        out.failed += written.failed;
        // Net-zero churn must restore the tables and the answers exactly.
        for (c, table) in tables.iter().enumerate() {
            out.attempted += 1;
            out.failed += u64::from(server.table_stats(c) != *table);
        }
        let now = ask(frontend, &equiv);
        for (i, (was, is)) in answers.iter().zip(&now).enumerate() {
            let (q, c) = (equiv[i / spec::CLASSES.len()], i % spec::CLASSES.len());
            let expected = engine.search(spec::CLASSES[c], q, spec::ZIPF_K);
            out.attempted += 1;
            let same = matches!((was, is), (Some(a), Some(b)) if a == b && **b == expected);
            out.failed += u64::from(!same);
        }
        let ingest = written.latency.window_quantile(paced.phase_ns * 2, 0.5);
        out.notes.push(format!(
            "writer: {} deltas at {}/s, due-to-landed p50 {:.2} ms; tables and {} answers restored exactly: {}",
            written.attempted,
            spec::CHURN_DELTAS_PER_S,
            ingest.value / 1e6,
            now.len(),
            out.failed == 0,
        ));
    }

    let (score, asked, lost) = world::ndcg10(&run.world, frontend);
    out.e2e.set("ndcg10", Summary::single(score));
    out.attempted += asked;
    out.failed += lost;
    // The serving state and the measured phases, before the per-layer
    // probes and the closing cycle allocate theirs.
    out.e2e
        .set("peak_rss_mb", Summary::single(crate::peak_rss_mb()));

    // Per-layer metrics.
    let layers = &mut out.layers;
    layers.set("scenario.generate_ms", generate_ms);
    layers.set("loadgen.lateness_p99_us", late[1].value / 1e3);
    layers.set("op.read_p99_us", at(0.99).value);
    layers.set("op.read_p999_us", at(0.999).value);
    // Taken from the writer before the closing cycle goes on with its
    // account: deltas are timed from their due time here, where reads
    // compete with them, and by their service time in the cycle.
    let mut account = IngestAccount::default();
    let mut writer_latency = None;
    if let Some(written) = written {
        writer_latency = Some(written.latency);
        account = written.account;
        run.tracer.absorb(written.tracer);
    }
    let submit_ns = stats::median_of(run.tracer.durations("frontend.submit"));
    if run.trace {
        let wait_ns = stats::median_of(run.tracer.durations("wait.ticket"));
        layers.set("frontend.submit_ns", submit_ns);
        let cost = probe::read_probe(engine, &ops, &mut run.tracer);
        layers.set("server.rank_ns", cost.rank_ns);
        layers.set("server.rank_multi_ns", cost.rank_multi_ns);
        layers.set("server.rank_batch_ns_per_q", cost.rank_batch_ns_per_q);
        layers.set("server.entries_swept_per_q", cost.entries_swept_per_q);
        layers.set("server.bytes_per_entry", cost.bytes_per_entry);
        layers.set(
            "frontend.queue_wait_us",
            (wait_ns - cost.rank_ns).max(0.0) / 1e3,
        );
        layers.set(
            "graph.intersect_ns_per_elem",
            probe::intersect_probe(engine, run.seed, &mut run.tracer),
        );
        // Odd windows of the closed loop were traced, even ones were not.
        let rates: Vec<f64> = closed
            .done
            .windows(closed.phase_ns)
            .iter()
            .map(|w| w.len() as f64)
            .collect();
        let side =
            |odd: usize| stats::median_of(rates.iter().skip(odd).step_by(2).copied().collect());
        layers.set("trace.overhead_share", 1.0 - side(1) / side(0).max(1.0));
    }
    counters(
        layers,
        (&before.0, &before.1),
        (&after.0, &after.1),
        wall_ns,
        frontend.config().max_batch,
        submit_ns,
    );

    lifecycle::closing_cycle(run, account, &mut out);
    if let Some(latency) = writer_latency {
        // A window holds about ten deltas, so the percentiles are taken
        // over the whole run, as the cycle's are; the quartiles are those
        // of the per-window values.
        let phase_ns = paced.phase_ns + closed.phase_ns;
        let of_ingests = |q: f64| Summary {
            value: stats::quantile_of(latency.values(), q) / 1e6,
            eligible: stats::percentile_eligible(latency.len(), q),
            ..latency.window_quantile(phase_ns, q).scaled(1e-6)
        };
        out.e2e.set("ingest_p50_ms", of_ingests(0.5));
        let tail = stats::supported_tail(latency.len());
        out.e2e.set("ingest_tail_ms", of_ingests(tail));
        out.notes.push(format!(
            "ingest metrics are the writer's: {} deltas timed from due time, tail = p{:.0}",
            latency.len(),
            100.0 * tail
        ));
    }
    out
}

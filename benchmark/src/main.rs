//! `mgp-benchmark`: one repeatable end-to-end benchmark of the semantic
//! proximity serving system — four named workloads, built-in
//! verification, and per-layer traces. See `benchmark/README.md`.
//!
//! ```text
//! mgp-benchmark --workload <name|all> --seed <n> [--trace [0|1]] [--smoke] [--seconds <run_seconds>]
//! mgp-benchmark --repeat <n> [--workload <name|all>] [--seed <n>] [--smoke]
//! ```

mod ingest;
mod lifecycle;
mod pacing;
mod probe;
mod read;
mod repeat;
mod report;
mod spec;
mod stats;
mod trace;
mod traffic;
mod world;

use mgp_core::Frontend;
use read::ReadKind;
use stats::Summary;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use world::World;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    workload: String,
    /// Traffic seed.
    seed: u64,
    /// Whether this is the traced run (per-layer metrics).
    trace: bool,
    /// Tiny dataset and 1 s phases: checks the harness, measures nothing.
    smoke: bool,
    /// Sets of runs to repeat (0 = a single run).
    repeat: usize,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: "all".to_owned(),
            seed: 42,
            trace: false,
            smoke: false,
            repeat: 0,
        };
        let mut seconds = None;
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < argv.len() {
            let flag = argv[i].as_str();
            let number = |s: String| s.parse::<f64>().map_err(|e| format!("{flag} {s}: {e}"));
            match flag {
                "--workload" => args.workload = value(&mut i, flag)?,
                "--seed" => {
                    let s = value(&mut i, flag)?;
                    args.seed = s.parse().map_err(|e| format!("--seed {s}: {e}"))?;
                }
                "--seconds" => seconds = Some(number(value(&mut i, flag)?)?),
                "--repeat" => {
                    let s = value(&mut i, flag)?;
                    args.repeat = s.parse().map_err(|e| format!("--repeat {s}: {e}"))?;
                }
                "--smoke" => args.smoke = true,
                // `--trace` alone switches tracing on; `--trace 0|1` says which.
                "--trace" => match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        args.trace = false;
                    }
                    Some("1") => {
                        i += 1;
                        args.trace = true;
                    }
                    _ => args.trace = true,
                },
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        // The run length is the benchmark's, not the caller's: two runs
        // of different lengths do different work and cannot be compared.
        // The driver names the length it read from `BENCHMARK.json`.
        if seconds.is_some_and(|s| s != args.seconds()) {
            return Err(format!(
                "--seconds must be {} ({} with --smoke), the benchmark's fixed run length",
                spec::RUN_SECONDS,
                spec::SMOKE_SECONDS
            ));
        }
        if args.workload != "all" && spec::workload(&args.workload).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {} (one of {}, all)",
                args.workload,
                names.join(", ")
            ));
        }
        Ok(args)
    }

    /// Seconds one run measures.
    fn seconds(&self) -> f64 {
        if self.smoke {
            spec::SMOKE_SECONDS
        } else {
            spec::RUN_SECONDS
        }
    }
}

/// Everything one workload run works with.
pub struct Run {
    /// Traffic seed.
    seed: u64,
    /// Seconds to measure.
    seconds: f64,
    /// Whether spans and per-layer probes are on.
    trace: bool,
    /// Smoke mode.
    smoke: bool,
    /// Where snapshots and traces go (inside the checkout).
    out_dir: PathBuf,
    /// The fixed set-up.
    world: World,
    /// The front-end over the set-up's server.
    frontend: Frontend,
    /// The main thread's span recorder.
    tracer: Tracer,
    /// What every tracer measures from.
    epoch: Instant,
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the kernel's peak-RSS watermark so `peak_rss_mb` covers the
/// serving state and the measured phases, not the set-up's transients.
/// Where the kernel refuses, the watermark covers the whole process.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs one workload from set-up to result line. Returns whether every
/// output was correct.
fn run_workload(workload: &spec::Workload, args: &Args, process_start: Instant) -> bool {
    let name = workload.name;
    let epoch = Instant::now();
    println!("== {name} == {}", workload.why);
    println!(
        "seed {} | {} s measured | trace {} | smoke {} | threads available {}",
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let (world, frontend, setup_s) = world::set_up(args.smoke, process_start);
    let rss_reset = reset_peak_rss();

    // `benchmark/out` of the checkout the run was started in; the build's
    // own directory when started from somewhere else.
    let here = std::path::Path::new("benchmark");
    let out_dir = if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&out_dir).expect("benchmark/out is creatable");
    let g = world.engine.graph();
    println!(
        "dataset: {} nodes, {} edges, {} metagraphs, {} classes; serve {:?}; front-end workers {}",
        g.n_nodes(),
        g.n_edges(),
        world.engine.metagraphs().len(),
        spec::CLASSES.len(),
        spec::serve_config(),
        spec::frontend_config().workers,
    );
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        smoke: args.smoke,
        out_dir,
        world,
        frontend,
        tracer: Tracer::new(epoch, args.trace),
        epoch,
    };
    let timings = run.world.engine.timings().clone();
    let datagen_ms = run.world.datagen_ms;

    let mut outcome = match name {
        "read-zipf-hot" => read::run(ReadKind::ZipfHot, &mut run),
        "read-scan-cold" => read::run(ReadKind::ScanCold, &mut run),
        "mixed-churn" => read::run(ReadKind::MixedChurn, &mut run),
        "lifecycle-storm" => lifecycle::run(&mut run),
        other => unreachable!("{other} passed Args::parse"),
    };
    outcome.e2e.set("setup_s", Summary::single(setup_s));

    let layers = &mut outcome.layers;
    layers.set("datagen.generate_ms", datagen_ms);
    layers.set("mining.mine_s", timings.mining.as_secs_f64());
    layers.set("mining.patterns", timings.n_mined as f64);
    layers.set("matching.full_match_s", timings.matching.as_secs_f64());
    layers.set("matching.patterns_matched", timings.n_matched as f64);
    layers.set("index.build_s", timings.indexing.as_secs_f64());
    layers.set("learning.train_s", timings.training.as_secs_f64());

    let e2e = outcome.e2e.in_order();
    println!("end-to-end metrics (median of window values, quartiles, samples):");
    print!("{}", report::end_to_end_table(&e2e));
    if !rss_reset {
        println!("  (peak_rss_mb covers the whole process: the kernel refused a watermark reset)");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    if args.trace {
        println!("per-layer metrics:");
        print!("{}", report::per_layer_table(&outcome.layers));
        println!("trace summary ({} spans):", run.tracer.len());
        print!("{}", run.tracer.summarise().table());
        let path = run.out_dir.join(format!("trace-{name}.json"));
        match run.tracer.write_json(&path, name) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written: {e}"),
        }
    }
    // Joins the batcher threads before the result is printed.
    drop(run);
    println!("{}", report::result_line(&outcome, &e2e, args.trace));
    outcome.failed == 0
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mgp-benchmark: {e}");
            eprintln!(
                "usage: mgp-benchmark --workload <name|all> --seed <n> [--trace [0|1]] [--smoke] \
                 | --repeat <n>"
            );
            std::process::exit(2);
        }
    };
    if args.repeat > 0 {
        std::process::exit(repeat::run(&args));
    }
    let mut correct = true;
    let mut first = true;
    for w in &spec::WORKLOADS {
        if args.workload == "all" || args.workload == w.name {
            let from = if first { process_start } else { Instant::now() };
            correct &= run_workload(w, &args, from);
            first = false;
        }
    }
    // A verification mismatch is an error exit, after the result line.
    std::process::exit(if correct { 0 } else { 1 });
}

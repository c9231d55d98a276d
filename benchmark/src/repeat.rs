//! `--repeat N`: runs N sets of the selected workloads, each run a child
//! process of this same binary with its own seed, alternating the
//! workload order from set to set, and prints per metric × workload the
//! set medians, quartiles and the relative spread against the bound.

use crate::report::parse_result_line;
use crate::stats::{quantile_sorted, relative_spread};
use crate::{spec, Args};
use std::collections::BTreeMap;
use std::process::Command;

/// One child run; returns its end-to-end metrics, or `None` when the
/// child failed or reported an incorrect result.
fn child(workload: &str, seed: u64, args: &Args) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse_result_line(last) {
        Some((true, _, 0, metrics)) if output.status.success() => Some(metrics),
        _ => {
            let stderr = String::from_utf8_lossy(&output.stderr);
            eprintln!("  {}: {last}", output.status);
            eprintln!("  {}", stderr.lines().last().unwrap_or_default());
            None
        }
    }
}

/// Runs the sets and prints the table; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let mut workloads: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| args.workload == "all" || args.workload == *w)
        .collect();
    // values[(workload, metric)] = one value per set.
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut failures = 0;
    for set in 0..args.repeat {
        let seed = args.seed + set as u64;
        for &w in &workloads {
            eprintln!("set {}/{}: {w} --seed {seed}", set + 1, args.repeat);
            match child(w, seed, args) {
                Some(metrics) => {
                    for m in &spec::END_TO_END {
                        let v = metrics.get(m.name).copied().unwrap_or(f64::NAN);
                        values.entry((w, m.name)).or_default().push(v);
                    }
                }
                None => {
                    eprintln!("  run failed or was incorrect");
                    failures += 1;
                }
            }
        }
        workloads.reverse();
    }
    workloads.sort_unstable();
    println!(
        "{:<16} {:<25} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict ({} sets, seeds {}..)",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", args.repeat, args.seed
    );
    let mut unsteady = 0;
    for &w in &workloads {
        for m in &spec::END_TO_END {
            let Some(v) = values.get(&(w, m.name)) else {
                continue;
            };
            let mut sorted = v.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let spread = relative_spread(v);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                unsteady += 1;
                "UNSTEADY"
            };
            println!(
                "{:<16} {:<25} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%  {verdict}",
                w,
                m.name,
                quantile_sorted(&sorted, 0.5),
                quantile_sorted(&sorted, 0.25),
                quantile_sorted(&sorted, 0.75),
                100.0 * spread,
                100.0 * bound,
            );
            let each: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("{:<42} per set: {}", "", each.join(" "));
        }
    }
    i32::from(failures > 0 || unsteady > 0)
}

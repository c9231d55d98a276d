//! What a run reports: every metric by name with unit and sample count,
//! human-readable, and the one JSON object the driver reads.

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-layer metric values by name; a metric nobody set reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets metric `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// End-to-end metric values by name.
#[derive(Debug, Default)]
pub struct EndToEnd(BTreeMap<&'static str, Summary>);

impl EndToEnd {
    /// Sets metric `name` (which must be in [`END_TO_END`]).
    pub fn set(&mut self, name: &'static str, value: Summary) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "{name} is not an end-to-end metric"
        );
        self.0.insert(name, value);
    }

    /// The values in [`END_TO_END`] order. Every workload sets every
    /// metric; one left unset is a defect of the benchmark.
    pub fn in_order(&self) -> Vec<Summary> {
        END_TO_END
            .iter()
            .map(|m| {
                *self
                    .0
                    .get(m.name)
                    .unwrap_or_else(|| panic!("the workload did not report {}", m.name))
            })
            .collect()
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Operations attempted, verification checks included.
    pub attempted: u64,
    /// Operations that failed: typed errors, sheds, rejected deltas and
    /// verification mismatches.
    pub failed: u64,
    /// Per-layer metrics (traced runs fill all of them).
    pub layers: Layers,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

/// The human-readable table of end-to-end metrics.
pub fn end_to_end_table(values: &[Summary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<25} {:>14} {:<6} {:>14} {:>14} {:>9}  bound",
        "metric", "value", "unit", "q1", "q3", "samples"
    );
    for (m, v) in END_TO_END.iter().zip(values) {
        let flag = if v.eligible {
            ""
        } else {
            "  (too few samples for this percentile)"
        };
        let _ = writeln!(
            out,
            "  {:<25} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>9}  {:.1}% {}{flag}",
            m.name,
            v.value,
            m.unit,
            v.q1,
            v.q3,
            v.samples,
            100.0 * m.bound.unwrap_or(0.0),
            m.better
        );
    }
    out
}

/// The human-readable table of per-layer metrics.
pub fn per_layer_table(layers: &Layers) -> String {
    let mut out = String::new();
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<36} {:>16.4} {}",
            m.name,
            layers.get(m.name),
            m.unit
        );
    }
    out
}

fn json_metrics(metrics: &[Metric], value: impl Fn(usize, &Metric) -> f64) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value(i, m)),
            m.unit
        );
    }
    out.push('}');
    out
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics —
/// every end-to-end metric, or with `trace` every per-layer metric.
pub fn result_line(outcome: &Outcome, e2e: &[Summary], trace: bool) -> String {
    let metrics = if trace {
        json_metrics(&PER_LAYER, |_, m| outcome.layers.get(m.name))
    } else {
        json_metrics(&END_TO_END, |i, _| e2e[i].value)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    )
}

/// Reads a [`result_line`] back (the repeat mode collects child runs).
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let after = |key: &str| {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        Some(line[at..].trim_start())
    };
    let number = |s: &str| {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        s[..end].parse::<f64>().ok()
    };
    let correct = after("correct")?.starts_with("true");
    let attempted = number(after("attempted")?)? as u64;
    let failed = number(after("failed")?)? as u64;
    let mut metrics = BTreeMap::new();
    const VALUE: &str = "\": {\"value\": ";
    let mut rest = after("metrics")?;
    while let Some(at) = rest.find(VALUE) {
        let name = &rest[..at];
        let name = &name[name.rfind('"')? + 1..];
        let tail = &rest[at + VALUE.len()..];
        metrics.insert(name.to_owned(), number(tail)?);
        rest = tail;
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_reads_back() {
        let mut outcome = Outcome {
            attempted: 1234,
            ..Outcome::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            outcome.e2e.set(m.name, Summary::single(i as f64 + 0.25));
        }
        outcome.e2e.set("paced_p50_us", Summary::single(1050.25));
        let e2e = outcome.e2e.in_order();
        let line = result_line(&outcome, &e2e, false);
        let (correct, attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (1234, 0));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 0.25);
        assert_eq!(metrics["paced_p50_us"], 1050.25);
        assert_eq!(
            metrics["snapshot_bytes_per_entry"],
            END_TO_END.len() as f64 - 0.75
        );

        outcome.layers.set("server.rank_ns", 4321.5);
        outcome.failed = 2;
        let line = result_line(&outcome, &e2e, true);
        let (correct, _, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(!correct);
        assert_eq!(failed, 2);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["server.rank_ns"], 4321.5);
        assert_eq!(metrics["trace.overhead_share"], 0.0);
    }
}

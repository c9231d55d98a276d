//! Shared experiment setup: dataset generation, mining, matching, indexing.

use mgp_datagen::{
    facebook::FacebookConfig, generate_facebook, generate_linkedin, linkedin::LinkedInConfig,
    ClassId, Dataset,
};
use mgp_graph::NodeId;
use mgp_index::{Transform, VectorIndex};
use mgp_matching::parallel::match_all_timed;
use mgp_matching::{AnchorCounts, PatternInfo, SymIso};
use mgp_metagraph::Metagraph;
use mgp_mining::{mine, MinerConfig};
use std::time::Duration;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast, for smoke runs and CI.
    Tiny,
    /// Minutes; preserves all qualitative shapes. The default.
    Default,
    /// Approaches Table II magnitudes; hours of matching, like the paper.
    Paper,
}

/// Parsed command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Selected scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of train/test splits (paper: 10).
    pub n_splits: usize,
}

/// Parses `--scale`, `--seed`, `--splits` from `std::env::args`. Exits
/// the process with status 2 on an unknown or missing `--scale` value.
pub fn parse_args() -> ExpArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse(argv: &[String]) -> Result<ExpArgs, String> {
    let mut args = ExpArgs {
        scale: Scale::Default,
        seed: 42,
        n_splits: 3,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = match argv.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("default") => Scale::Default,
                    Some("paper") => Scale::Paper,
                    other => {
                        return Err(format!(
                            "--scale expects one of tiny|default|paper, got {}",
                            other.map_or("nothing".to_string(), |v| format!("{v:?}"))
                        ))
                    }
                };
            }
            "--seed" => {
                i += 1;
                args.seed = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(42);
            }
            "--splits" => {
                i += 1;
                args.n_splits = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(3);
            }
            _ => {}
        }
        i += 1;
    }
    Ok(args)
}

/// Which dataset an experiment context wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// The LinkedIn-like graph (classes college / coworker).
    LinkedIn,
    /// The Facebook-like graph (classes family / classmate).
    Facebook,
}

/// Everything the accuracy experiments need, prepared once: the dataset,
/// the mined metagraph set, all matched counts (SymISO), and the full
/// vector index.
pub struct ExpContext {
    /// The generated dataset with ground truth.
    pub dataset: Dataset,
    /// Mined metagraphs.
    pub metagraphs: Vec<Metagraph>,
    /// Per-metagraph matcher analyses.
    pub patterns: Vec<PatternInfo>,
    /// Per-metagraph anchor counts.
    pub counts: Vec<AnchorCounts>,
    /// Per-metagraph SymISO matching time.
    pub match_times: Vec<Duration>,
    /// Full index over all metagraphs.
    pub index: VectorIndex,
    /// Mining wall-clock.
    pub mining_time: Duration,
}

impl ExpContext {
    /// Generates, mines, matches and indexes a dataset at a given scale.
    pub fn prepare(which: Which, scale: Scale, seed: u64) -> ExpContext {
        let dataset = match (which, scale) {
            (Which::LinkedIn, Scale::Tiny) => generate_linkedin(&LinkedInConfig::tiny(seed)),
            (Which::LinkedIn, Scale::Default) => generate_linkedin(&LinkedInConfig {
                seed,
                ..LinkedInConfig::default()
            }),
            (Which::LinkedIn, Scale::Paper) => generate_linkedin(&LinkedInConfig {
                seed,
                ..LinkedInConfig::paper_scale()
            }),
            (Which::Facebook, Scale::Tiny) => generate_facebook(&FacebookConfig::tiny(seed)),
            (Which::Facebook, Scale::Default) => generate_facebook(&FacebookConfig {
                seed,
                ..FacebookConfig::default()
            }),
            (Which::Facebook, Scale::Paper) => generate_facebook(&FacebookConfig {
                seed,
                ..FacebookConfig::paper_scale()
            }),
        };
        Self::from_dataset(dataset, scale)
    }

    /// Mines/matches/indexes an existing dataset.
    pub fn from_dataset(dataset: Dataset, scale: Scale) -> ExpContext {
        let min_support = match scale {
            Scale::Tiny => 5,
            Scale::Default => 10,
            Scale::Paper => 20,
        };
        let mut miner = MinerConfig::paper_defaults(dataset.anchor_type, min_support);
        // Keep the pattern catalogue bounded at small scales so the full
        // matching pass (needed by Fig. 4/6/7/9) stays tractable.
        miner.max_patterns = Some(match scale {
            Scale::Tiny => 60,
            Scale::Default => 150,
            Scale::Paper => 1200,
        });
        let t0 = std::time::Instant::now();
        let mined = mine(&dataset.graph, &miner);
        let mining_time = t0.elapsed();
        let metagraphs: Vec<Metagraph> = mined.into_iter().map(|m| m.metagraph).collect();
        let patterns: Vec<PatternInfo> = metagraphs
            .iter()
            .map(|m| PatternInfo::new(m.clone(), dataset.anchor_type))
            .collect();
        let results = match_all_timed(&dataset.graph, &patterns, &SymIso::new(), 0);
        let (counts, match_times): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        // Binary (presence) vectors: hub-heavy star patterns otherwise
        // dominate the likelihood through inflated counts while carrying no
        // extra ranking information — see the transform ablation
        // (`exp_ablation`) and EXPERIMENTS.md.
        let index = VectorIndex::from_counts(&counts, Transform::Binary);
        ExpContext {
            dataset,
            metagraphs,
            patterns,
            counts,
            match_times,
            index,
            mining_time,
        }
    }

    /// All anchor nodes of the dataset.
    pub fn anchors(&self) -> Vec<NodeId> {
        self.dataset
            .graph
            .nodes_of_type(self.dataset.anchor_type)
            .to_vec()
    }

    /// The positive answers of `q` under `class`.
    pub fn positives(&self, q: NodeId, class: ClassId) -> Vec<NodeId> {
        self.dataset.labels.positives_of(q, class)
    }

    /// Total SymISO matching time over all metagraphs.
    pub fn total_match_time(&self) -> Duration {
        self.match_times.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(argv: &[&str]) -> Result<ExpArgs, String> {
        parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_accepts_the_three_names_and_rejects_the_rest() {
        assert_eq!(parse_strs(&[]).unwrap().scale, Scale::Default);
        for (name, scale) in [
            ("tiny", Scale::Tiny),
            ("default", Scale::Default),
            ("paper", Scale::Paper),
        ] {
            let args = parse_strs(&["--scale", name, "--seed", "7"]).unwrap();
            assert_eq!((args.scale, args.seed), (scale, 7));
        }
        for bad in [&["--scale", "bogus"][..], &["--scale"][..]] {
            let err = parse_strs(bad).unwrap_err();
            assert!(err.contains("tiny|default|paper"), "{err}");
        }
    }
}

//! # mgp-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Sect. V). Every
//! binary prints the same rows/series the paper reports and writes CSV to
//! `target/experiments/`.
//!
//! | Binary | Artefact |
//! |--------|----------|
//! | `exp_table2` | Table II — dataset description |
//! | `exp_table3` | Table III — offline/online time costs |
//! | `exp_fig4` | Fig. 4 — sparsity of optimal weights |
//! | `exp_fig6_fig7` | Fig. 6 + 7 — NDCG/MAP vs \|Ω\| for all 5 algorithms |
//! | `exp_fig8` | Fig. 8 — dual-stage accuracy/time vs \|K\| |
//! | `exp_fig9` | Fig. 9 — structural vs functional similarity |
//! | `exp_fig10` | Fig. 10 — CH vs RCH |
//! | `exp_fig11` | Fig. 11 — matching time per algorithm and pattern size |
//!
//! All binaries accept `--scale tiny|default|paper` (default `default`) and
//! `--seed N`. `paper` approaches the magnitudes of Table II and can take
//! hours, exactly like the original offline phase (Table III reports ~10⁴ s
//! of matching); `default` preserves every qualitative shape in minutes.

#![warn(missing_docs)]

pub mod algos;
pub mod context;
pub mod output;

pub use algos::{eval_algo, Algo};
pub use context::{parse_args, ExpArgs, ExpContext, Scale};
pub use output::CsvWriter;

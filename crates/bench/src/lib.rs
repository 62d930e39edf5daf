//! # dirq-bench — the reproduction harness
//!
//! One binary per figure/result of the paper's evaluation (Section 5 and
//! Section 7), plus two tools: `record_goldens` records every golden pin
//! and is the one writer of `BENCH_2.json` and `BENCH_3.json` (`--check`
//! compares instead), and `scenario_matrix --workers W` is the smoke of
//! the sharded engine and the perf floor, and writes nothing.
//!
//! | Paper artefact | Binary | What it prints |
//! |---|---|---|
//! | Fig. 5a/5b (accuracy vs fixed δ) | `fig5_accuracy` | the four percentage series for δ = 1..9 %, at 40 % and 60 % relevance |
//! | Fig. 6 (update traffic vs time) | `fig6_updates` | updates per 100 epochs for δ = 3/5/9 % and ATC, with the Umax/hr band lines |
//! | Fig. 7 (overshoot vs time) | `fig7_overshoot` | per-interval overshoot for δ = 3/5/9 % and ATC at 20 % relevance |
//! | Section 5 worked example + Eqs. 3–9 | `tab_analytic` | closed-form cost tables and simulated validation |
//! | §1/§7 headline (45–55 % of flooding) | `cost_ratio` | measured DirQ/flooding cost ratios |
//! | design-choice sensitivity (see the `ablations` bin) | `ablations` | update rule / tree / world / sampling / MAC perturbations |
//!
//! Every binary accepts `--epochs N`, `--seed S` and `--quick` (a short
//! 4 000-epoch run for smoke testing); defaults reproduce the paper's
//! 20 000-epoch setup. Output is an aligned table plus machine-readable
//! CSV blocks.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

pub mod args;
pub mod experiments;
pub mod matrix;

/// The workspace root, resolved from this crate's manifest directory, so
/// the tools read and write the checked-in artifacts from any working
/// directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

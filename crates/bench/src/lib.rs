//! Experiment harness for the SCAR reproduction: strategy runners, table
//! formatting, Pareto utilities, replay, and the `SCAR_*` flag rule. The
//! `paper` binary runs the paper's twelve experiments on it (DESIGN.md §4
//! is the index; `PAPER_RESULTS.txt` pins their output); `serve_sim`,
//! `bench_fleet`, `replay`, `trace_check` and `zoo` are the serving-side
//! binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knobs;
pub mod pareto;
pub mod replay;
pub mod strategy;
pub mod table;

pub use pareto::ascii_scatter;
pub use replay::{replay_artifacts, replay_file, ReplayDiff, ReplayOptions};
pub use strategy::{run_strategies, Strategy};
pub use table::Table;

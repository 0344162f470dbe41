//! The SCAR reproduction's layered benchmark.
//!
//! One command runs one of three workloads (`paper_search`,
//! `serve_overload`, `fleet_affinity`) in a single process for a fixed
//! number of host seconds and prints one JSON line: with `--trace 0` the
//! end-to-end metrics a user of the system sees, with `--trace 1` the
//! per-layer metrics. Every layer is timed from outside, through its
//! public functions: delegating decorators around the scheduler and the
//! admission policy ([`decor`]), direct calls into the bottom layers
//! ([`probes`]), and the existing telemetry spans for what only the
//! program itself can time ([`run`]). `layers.json` records which
//! end-to-end metric each per-layer metric should move.

pub mod args;
pub mod decor;
pub mod probes;
pub mod run;
pub mod stats;
pub mod workloads;

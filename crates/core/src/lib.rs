//! SCAR: the multi-model scheduler for heterogeneous multi-chiplet module
//! AI accelerators (MICRO 2024 reproduction).
//!
//! The scheduler follows the paper's two-level architecture (Figures 3/4):
//!
//! * **Top level** — the [`reconfig`] engine (MCM-Reconfig) partitions the
//!   multi-model workload into *time windows* using expected per-layer
//!   latencies (Equation 1) and the first-fit greedy packing of
//!   Algorithm 1; the [`provision`] engine (PROV) assigns each model a
//!   number of chiplet *nodes* per window (Equation 2).
//! * **Per window** — the [`segmentation`] engine (SEG) partitions each
//!   model's window layers into contiguous *segments* (Definition 5,
//!   Heuristics 1–2); the [`tree`] engine (SCHED) maps segments onto
//!   chiplets by traversing scheduling trees rooted at candidate starting
//!   chiplets; [`evaluate`] scores every candidate with the §III-E cost
//!   model (inter-chiplet pipelined latency, energy, EDP).
//!
//! Search drivers live in [`search`]: exhaustive brute force (the paper's
//! 3×3 experiments) and an evolutionary algorithm (the 6×6 experiments).
//! Both are pure candidate *generators*; a shared engine evaluates their
//! candidate batches across a worker pool sized by [`Parallelism`]
//! (results are merged in generation order, so schedules are bit-identical
//! for any thread count). The paper's comparison schedulers live in
//! [`baselines`]: Standalone and an NN-baton-like single-model scheduler.
//!
//! Every scheduler — [`Scar`] and both baselines — implements the
//! [`Scheduler`] trait and is driven through a [`Session`]-scoped
//! request/response API: a [`Session`] owns the shared MAESTRO cost
//! database (built once, reused across every call), a [`ScheduleRequest`]
//! carries the scenario/MCM/metric/budget, and the answer is a
//! [`ScheduleResult`]. Requests and results serialize to JSON
//! ([`ScheduleArtifact`]), so schedules round-trip as files.
//!
//! ```
//! use scar_core::baselines::Standalone;
//! use scar_core::{OptMetric, Scar, ScheduleRequest, Scheduler, Session};
//! use scar_mcm::templates::{het_sides_3x3, Profile};
//! use scar_workloads::Scenario;
//!
//! // one session: the cost database is shared by every call below
//! let session = Session::new();
//! let request = ScheduleRequest::new(
//!     Scenario::datacenter(1),
//!     het_sides_3x3(Profile::Datacenter),
//! )
//! .metric(OptMetric::Edp);
//!
//! let scar = Scar::with_defaults();
//! let result = scar.schedule(&session, &request).expect("feasible scenario");
//! println!("EDP = {:.3} J·s", result.total().edp());
//!
//! // baselines answer the same request through the same trait
//! let baseline = Standalone::new().schedule(&session, &request).unwrap();
//! println!("Standalone EDP = {:.3} J·s", baseline.total().edp());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod evaluate;
mod expected;
mod parallel;
pub mod problem;
pub mod provision;
pub mod reconfig;
mod scar;
mod scheduler;
pub mod search;
pub mod segmentation;
pub mod tree;
pub mod zoo;

pub use evaluate::{ModelWindowEval, WindowEval};
pub use expected::ExpectedCosts;
pub use parallel::{par_map_owned, Parallelism};
pub use problem::{
    EvalTotals, OptMetric, ScheduleError, ScheduleInstance, Segment, TimeWindow, WindowPartition,
    WindowSchedule,
};
pub use provision::ProvisionRule;
pub use reconfig::PackingRule;
pub use scar::{
    pareto_front, CandidatePoint, ModelWindowReport, Scar, ScarBuilder, ScheduleResult,
    WindowReport,
};
pub use scheduler::{ScheduleArtifact, ScheduleRequest, Scheduler, SchedulerConfig, Session};
pub use search::{EvoParams, SearchBudget, SearchKind};
pub use zoo::NsgaScar;

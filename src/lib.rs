//! # SCAR — Scheduling Multi-Model AI Workloads on Heterogeneous Multi-Chiplet Module Accelerators
//!
//! A from-scratch Rust reproduction of the SCAR system (MICRO 2024): a
//! scheduler for multi-model AI inference workloads on heterogeneous-dataflow
//! multi-chip-module (MCM) accelerators, together with every substrate it
//! depends on — the workload model, the MAESTRO-style intra-chiplet cost
//! model, and the MCM hardware/communication model — plus the layer the
//! paper motivates but never builds: a dynamic serving simulator.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`hash`] | `scar-hash` | process-stable FNV-1a hashing for persisted fingerprints |
//! | [`workloads`] | `scar-workloads` | layers, models, scenarios, the scenario generator, JSON parsing |
//! | [`maestro`] | `scar-maestro` | intra-chiplet analytical cost model |
//! | [`mcm`] | `scar-mcm` | NoP topologies, MCM templates, communication model |
//! | [`core`] | `scar-core` | the SCAR scheduler and baseline schedulers |
//! | [`serve`] | `scar-serve` | traffic models, the serving loop, schedule caching, latency/deadline reports |
//! | [`telemetry`] | `scar-telemetry` | structured spans, per-phase wall attribution, Chrome trace_event export (see DESIGN.md §10) |
//!
//! # Quickstart: one offline schedule
//!
//! Every scheduler (SCAR and the paper baselines) implements
//! [`core::Scheduler`] and answers a [`core::ScheduleRequest`] over a
//! [`core::Session`] — the session owns the shared MAESTRO cost database,
//! so repeated calls never recompute per-layer costs:
//!
//! ```
//! use scar::core::{OptMetric, Scar, ScheduleRequest, Scheduler, Session};
//! use scar::mcm::templates;
//! use scar::workloads::Scenario;
//!
//! // Schedule the paper's Scenario 1 on a 3×3 heterogeneous Het-Sides MCM.
//! let session = Session::new();
//! let request = ScheduleRequest::new(
//!     Scenario::datacenter(1),
//!     templates::het_sides_3x3(templates::Profile::Datacenter),
//! )
//! .metric(OptMetric::Edp);
//! let result = Scar::with_defaults()
//!     .schedule(&session, &request)
//!     .expect("scheduling succeeds");
//! assert!(result.total().latency_s > 0.0);
//! ```
//!
//! # Serving: dynamic traffic instead of fixed scenarios
//!
//! The ten Table III scenarios are snapshots. [`serve`] turns them into
//! workloads: request streams with rates and deadlines, batched into live
//! scenarios, scheduled (with caching) as virtual time advances:
//!
//! ```
//! use scar::mcm::templates::{het_sides_3x3, Profile};
//! use scar::serve::{ServeSim, TrafficMix};
//!
//! let mcm = het_sides_3x3(Profile::ArVr);
//! let mut sim = ServeSim::with_defaults(&mcm);
//! let report = sim
//!     .run(&TrafficMix::arvr(7), 0.05)
//!     .expect("three tenants fit a 3x3");
//! assert!(report.cache.misses > 0); // cold start pays the search once
//! println!("{report}");
//! ```
//!
//! Beyond the built-in mixes, [`workloads::scenario::generate`] samples
//! unboundedly many synthetic scenarios from the zoo, so load tests are not
//! limited to the paper's ten.

#![forbid(unsafe_code)]

pub use scar_core as core;
pub use scar_hash as hash;
pub use scar_maestro as maestro;
pub use scar_mcm as mcm;
pub use scar_serve as serve;
pub use scar_telemetry as telemetry;
pub use scar_workloads as workloads;

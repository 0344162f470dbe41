//! Dynamic serving simulation for the SCAR reproduction.
//!
//! The paper evaluates SCAR *offline*: ten fixed Table III scenarios, each
//! scheduled once. Its motivating deployments, though, are *serving*
//! systems — datacenter multi-tenancy under query traffic and AR/VR
//! pipelines on real-time frame clocks. This crate closes that gap with a
//! discrete-event serving simulator over the unmodified SCAR scheduler:
//!
//! * [`traffic`] — per-model request streams ([`TrafficMix`]): fixed-rate
//!   frame clocks, seeded-Poisson query arrivals, Markov-modulated
//!   on/off bursts, and sinusoidal diurnal rates (all seeded and
//!   deterministic; [`TrafficMix::reshaped`] re-expresses a mix in any
//!   shape at the same mean rates), with optional per-request deadlines
//!   (AR/VR defaults come from the XRBench-style rates in
//!   [`scar_workloads::scenario`]).
//! * [`sim`] — the serving loop ([`ServeSim`]), four steps per round:
//!   *ingest* arrivals through admission, *assemble* queued requests into
//!   a live [`Scenario`](scar_workloads::Scenario), *schedule* it through
//!   a boxed [`Scheduler`](scar_core::Scheduler) — SCAR, a paper
//!   baseline, a zoo member (pick any by name from the
//!   [`PolicyRegistry`]), or any custom implementation — over one
//!   [`Session`](scar_core::Session)-wide cost database, and *execute*
//!   it, advancing virtual time by the evaluated window latencies and
//!   completing each tenant's requests at its own last-active-window
//!   offset. With [`ServeConfig::preemption`] on, a qualifying arrival
//!   cuts the in-flight schedule at the next window (layer) boundary and
//!   the remainder is respliced into the next round
//!   ([`Scheduler::preempt`](scar_core::Scheduler::preempt)). The loop
//!   does no file I/O: whoever opens a session
//!   ([`Session::open`](scar_core::Session::open)) persists it.
//! * [`admission`] — pluggable admission control ([`AdmissionPolicy`]):
//!   accept-all, deadline-feasibility via a cheap cost-database probe,
//!   and per-stream load shedding; rejections are counted into every
//!   report (`offered == completed + rejected`, always).
//! * [`registry`] — the policy registry ([`PolicyRegistry`]), the single
//!   front door for building serving policies by name: a closed view of
//!   the zoo catalog (`SCAR`/`Standalone`/`NN-baton`, or all six zoo
//!   members), so tools and config files name schedulers instead of
//!   hard-coding them. A custom scheduler serves through
//!   [`ServeSim::with_scheduler`].
//! * [`zoo`] — the documented scheduler zoo ([`PolicyRegistry::with_zoo`]
//!   and its doc cards): NSGA-SCAR plus two named SCAR configurations,
//!   Merged-Pipeline (`nsplits = 0`) and SCAR-splice (trimmed preempt
//!   budget), and the JSON policy-file front end ([`PolicyFile`]).
//! * [`cache`] — the bounded LRU schedule cache ([`ScheduleCache`]):
//!   recurring traffic shapes (the common case under frame clocks) skip
//!   the expensive tree search entirely; hit/miss/eviction counters
//!   surface in every report. On a miss where only batch sizes changed
//!   since the previous round, the loop re-evaluates the prior placement
//!   as a seeded candidate (incremental rescheduling) before searching.
//! * [`report`] — serving metrics ([`ServeReport`]): p50/p95/p99 latency,
//!   throughput, deadline-miss rates, energy, cache effectiveness.
//! * [`fleet`] — the routing tier ([`FleetSim`]): one traffic mix sharded
//!   across N possibly-heterogeneous MCM replicas under one of four
//!   [`DispatchKind`] policies (round-robin, least-loaded, deadline-aware,
//!   cache-affinity), with a deterministic dispatch-then-merge run loop
//!   and a rolled-up [`FleetReport`].
//!
//! Everything is deterministic given the mix seed and scheduler
//! configuration: two identical runs produce identical reports.
//!
//! # Example: serve an AR/VR frame mix on a heterogeneous 3×3 MCM
//!
//! ```
//! use scar_serve::{ServeSim, TrafficMix};
//! use scar_mcm::templates::{het_sides_3x3, Profile};
//!
//! let mcm = het_sides_3x3(Profile::ArVr);
//! let mut sim = ServeSim::with_defaults(&mcm);
//!
//! // 50 ms of Sc9-style social-AR traffic: EyeCod @60, Hand-S/P @45,
//! // Sp2Dense @30 FPS, each frame due within its frame period.
//! let mix = TrafficMix::arvr(7);
//! let report = sim.run(&mix, 0.05).expect("three tenants fit a 3x3");
//!
//! assert_eq!(report.completed, mix.arrivals(0.05).len());
//! assert!(report.latency.p99_s >= report.latency.p50_s);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod fleet;
pub mod registry;
pub mod report;
pub mod sim;
pub mod traffic;
pub mod zoo;

pub use admission::{
    AcceptAll, AdmissionContext, AdmissionKind, AdmissionPolicy, DeadlineFeasible, LoadShed,
};
pub use cache::{
    fingerprint, fingerprint_parts_in_context, CacheStats, ScheduleCache, ServeContext,
};
pub use fleet::{
    DispatchKind, FabricRollup, FleetConfig, FleetReport, FleetSim, ReplicaReport, ReplicaSpec,
};
pub use registry::{PolicyRegistry, UnknownPolicy};
pub use report::{percentile, LatencySummary, ServeReport, StreamStats};
pub use sim::{ServeConfig, ServeSim};
pub use traffic::{ArrivalProcess, Request, RequestStream, TrafficMix, TrafficShape};
pub use zoo::{catalog, render_catalog, PolicyFile, ZooCard};

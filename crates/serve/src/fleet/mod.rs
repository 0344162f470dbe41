//! The fleet tier: one traffic mix sharded across many MCM replicas.
//!
//! The paper schedules multi-model workloads onto *one* heterogeneous
//! MCM; production traffic at scale means a fleet of them behind a
//! dispatcher. [`FleetSim`] owns N [`ServeSim`]-style replicas — possibly
//! heterogeneous, e.g. Het-Sides mixed with the other 3×3 topologies —
//! splits a [`TrafficMix`]'s arrival sequence into per-replica streams,
//! and serves each share through the unmodified serving loop.
//!
//! # Determinism and the merge order
//!
//! Routing happens in **one pass over the globally time-sorted arrival
//! sequence, before any replica executes**. The dispatch policy is a
//! [`DispatchKind`] value, and one router per run matches on it for each
//! arrival. Its load signal is a virtual backlog model (per-replica
//! `busy_until` walls advanced by the cost-DB min-service probe), not
//! replica execution state — so the routing decision for arrival `k`
//! depends only on the mix seed, the dispatch policy, and the decisions
//! for arrivals `0..k`. The pass records one replica index per arrival;
//! each replica's share is then gathered at exact capacity and the
//! arrival list dropped.
//!
//! After the pass the replicas are independent: each is a deterministic
//! [`ServeSim::run_arrivals`] call over its own share, scheduler, cache
//! and fresh [`Session`]. So they are served on up to
//! [`FleetConfig::parallelism`] threads at once — contiguous chunks of
//! replica indices, the caller's thread serving the first — and the
//! reports are merged in replica-index order (the fixed merge order); the
//! first error in that order is the one returned. Same seed + same
//! dispatch policy ⇒ byte-identical [`FleetReport`] for any fleet or
//! per-replica [`Parallelism`] setting. A fleet that shares one persisted
//! session ([`FleetConfig::cost_db_path`]) serves its replicas one after
//! another in replica order instead, so each replica's evaluation count
//! stays a function of the replicas before it.
//!
//! A single-replica fleet routes every arrival to replica 0 under every
//! built-in policy, and `run_arrivals(mix, mix.arrivals(h))` is exactly
//! [`ServeSim::run`] — so `FleetSim` with one replica reproduces a plain
//! serving run byte-for-byte (the no-regression gate in
//! `tests/fleet_invariants.rs`).
//!
//! # The inter-MCM fabric tier
//!
//! When replicas carry an
//! [`InterconnectSpec`](scar_mcm::InterconnectSpec), routing a stream off
//! the replica that last served it is no longer free: the stream's state
//! (model weights + per-request activation residency) is priced through
//! the target's fabric ([`McmConfig::inter_mcm_transfer`]), charged into
//! the virtual backlog model *before* the policy routes (so load- and
//! deadline-aware dispatch see the penalty pre-commit) and again into the
//! target's `busy_until` wall after. Costs roll up per replica and
//! fleet-wide ([`FabricRollup`]), and every migration emits a
//! `fleet.migrate` telemetry span. The pricing pass is part of the same
//! single deterministic routing pass, so Serial ≡ Fixed(N) byte-identity
//! is preserved with any fabric; without one, the pass is bit-for-bit
//! the pre-fabric fleet (DESIGN.md §13).
//!
//! # Example: four heterogeneous replicas under cache-affinity routing
//!
//! ```
//! use scar_serve::fleet::{DispatchKind, FleetConfig, FleetSim, ReplicaSpec};
//! use scar_serve::{ServeConfig, TrafficMix};
//! use scar_mcm::templates::Profile;
//!
//! let replicas = ReplicaSpec::heterogeneous(4, Profile::ArVr, ServeConfig::default());
//! let mut fleet = FleetSim::new(
//!     replicas,
//!     FleetConfig {
//!         dispatch: DispatchKind::parse("affinity").unwrap(),
//!         ..FleetConfig::default()
//!     },
//! );
//! let report = fleet.run(&TrafficMix::arvr(7), 0.05).expect("mix fits each 3x3");
//! assert_eq!(report.offered, report.completed + report.rejected);
//! println!("{report}");
//! ```

mod dispatch;
mod report;

pub use dispatch::DispatchKind;
pub use report::{FabricRollup, FleetReport, ReplicaReport};

use dispatch::Router;

use crate::cache::CacheStats;
use crate::registry::PolicyRegistry;
use crate::report::ServeReport;
use crate::sim::{ServeConfig, ServeSim};
use crate::traffic::{Request, TrafficMix};
use scar_core::{par_map_owned, Parallelism, ScheduleError, Session};
use scar_mcm::templates::{self, Profile};
use scar_mcm::{CommCost, McmConfig};
use scar_telemetry::Telemetry;
use scar_workloads::DataType;
use std::path::PathBuf;

/// One replica's hardware and serving configuration. Replicas own their
/// MCM (unlike a standalone [`ServeSim`], which borrows one) because the
/// fleet constructs its serving loops internally, each run.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// The replica's chiplet package.
    pub mcm: McmConfig,
    /// The replica's serving configuration (search budget, admission,
    /// preemption, parallelism…). The `telemetry` field is ignored: the
    /// fleet threads its own sink through every replica so all spans roll
    /// into one trace.
    pub cfg: ServeConfig,
}

impl ReplicaSpec {
    /// `n` heterogeneous replicas cycling the paper's four 3×3 MCM
    /// strategies in order (`Simba (Shi)`, `Simba (NVD)`, `Het-CB`,
    /// `Het-Sides` — [`templates::all_3x3`]), all sharing `base` as their
    /// serving configuration.
    pub fn heterogeneous(n: usize, profile: Profile, base: ServeConfig) -> Vec<ReplicaSpec> {
        let pool = templates::all_3x3(profile);
        (0..n)
            .map(|i| ReplicaSpec {
                mcm: pool[i % pool.len()].clone(),
                cfg: base.clone(),
            })
            .collect()
    }
}

/// Fleet-level configuration: how to route, how many replicas to serve
/// at once, and where to record.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The dispatch policy (see [`DispatchKind`]; round-robin by
    /// default — the baseline the load- and cache-aware policies are
    /// measured against).
    pub dispatch: DispatchKind,
    /// How many replicas serve at once once routing is done (`Auto` by
    /// default: one worker per hardware thread, capped at the replica
    /// count). Wall-clock only: every setting reports identically. It is
    /// separate from each replica's [`ServeConfig::parallelism`], which
    /// sizes that replica's candidate-evaluation pool. A fleet with a
    /// [`cost_db_path`](Self::cost_db_path) ignores it.
    pub parallelism: Parallelism,
    /// Fleet-shared cost-database snapshot. When set, **one**
    /// [`Session`] backs every replica: it opens once
    /// ([`Session::open`]) before the dispatch probe, threads through the
    /// replicas one at a time in replica order (entries replica `k`
    /// evaluates serve replica `k+1` warm), and saves once after the last
    /// replica. So each replica's `cost_evaluations` counts only what
    /// replicas `0..k` left cold, and a warm fleet runs at **zero**
    /// cost-model evaluations ([`FleetReport::cost_evaluations`]). Such a
    /// fleet serves on one thread whatever
    /// [`parallelism`](Self::parallelism) says: concurrent replicas would
    /// split that count by timing. `None` (the default) gives every
    /// replica its own fresh session.
    pub cost_db_path: Option<PathBuf>,
    /// Telemetry sink for the whole fleet: the dispatch pass and every
    /// replica's serving loop record their spans into this one handle,
    /// each on the thread that serves it. Observational only.
    pub telemetry: Telemetry,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            dispatch: DispatchKind::RoundRobin,
            parallelism: Parallelism::Auto,
            cost_db_path: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The fleet simulator: N replica specs plus a dispatch policy.
///
/// Each [`FleetSim::run`] constructs its replicas' serving loops fresh
/// (caches and per-replica sessions start cold), routes the mix's whole
/// arrival sequence, then serves the replicas, concurrently unless they
/// share a session, and merges their reports in index order. See the
/// [module docs](self) for the determinism contract.
pub struct FleetSim {
    replicas: Vec<ReplicaSpec>,
    cfg: FleetConfig,
}

impl FleetSim {
    /// A fleet over `replicas` with the given fleet configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<ReplicaSpec>, cfg: FleetConfig) -> Self {
        assert!(!replicas.is_empty(), "a fleet needs at least one replica");
        Self { replicas, cfg }
    }

    /// Serves every request the mix emits in `[0, horizon_s)` across the
    /// fleet and reports per-replica and rolled-up metrics.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index replica's [`ScheduleError`] (the first in
    /// merge order) if its scheduler cannot schedule a live scenario,
    /// however many replicas serve at once.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not positive and finite (see
    /// [`TrafficMix::arrivals`]), or if [`FleetConfig::cost_db_path`]
    /// holds something [`Session::open`] rejects.
    pub fn run(&mut self, mix: &TrafficMix, horizon_s: f64) -> Result<FleetReport, ScheduleError> {
        let tel = self.cfg.telemetry.clone();
        let n = self.replicas.len();
        let mut run_span = tel.span("fleet.run");
        run_span.push_arg("mix", mix.name.as_str());
        run_span.push_arg("replicas", n);
        run_span.push_arg("dispatch", self.cfg.dispatch.name());

        let arrivals = mix.arrivals(horizon_s);
        let offered = arrivals.len();

        // One shared session when the fleet persists a cost DB: opened
        // once here, threaded through the probe and every replica, saved
        // once after the last replica. `None` gives every replica a fresh
        // session.
        let shared_session = self.cfg.cost_db_path.as_ref().map(|path| {
            Session::open(path)
                .unwrap_or_else(|e| panic!("fleet cost_db_path {}: {e}", path.display()))
                .with_telemetry(tel.clone())
        });

        // Per-(replica, stream) min-service estimates from one probe
        // session: costs key on (chiplet class, layer, batch), so
        // heterogeneous replicas share entries where their classes
        // overlap. Stream-major for per-arrival slicing.
        let probe = Session::new();
        let probe_ref = shared_session.as_ref().unwrap_or(&probe);
        let probe_evals_before = probe_ref.cost_evaluations();
        let min_service: Vec<Vec<f64>> = (0..mix.streams.len())
            .map(|si| {
                let s = &mix.streams[si];
                self.replicas
                    .iter()
                    .map(|r| probe_ref.min_service_s(&r.mcm, &s.model, s.samples_per_request))
                    .collect()
            })
            .collect();
        let mut cost_evaluations = probe_ref.cost_evaluations() - probe_evals_before;

        // Inter-MCM migration pricing: when any replica carries a fabric,
        // routing a stream off the replica that last served it moves the
        // stream's state — model weights plus per-request activation
        // residency — over the *target's* fabric, and the transfer time
        // lands in the virtual backlog model so load-aware policies see
        // the penalty before committing. Without a fabric the table is
        // `None` and this pass is byte-identical to the pre-fabric fleet.
        let fabric_label = self
            .replicas
            .iter()
            .find_map(|r| r.mcm.interconnect().map(|s| s.label().to_string()));
        let stream_bytes: Vec<u64> = mix
            .streams
            .iter()
            .map(|s| {
                let stats = s.model.stats(DataType::Int8);
                stats.weight_bytes
                    + (stats.input_bytes + stats.output_bytes) * s.samples_per_request
            })
            .collect();
        let migrate: Option<Vec<Vec<CommCost>>> = fabric_label.as_ref().map(|_| {
            stream_bytes
                .iter()
                .map(|&bytes| {
                    self.replicas
                        .iter()
                        .map(|r| r.mcm.inter_mcm_transfer(bytes))
                        .collect()
                })
                .collect()
        });
        let mut last_replica: Vec<Option<usize>> = vec![None; mix.streams.len()];
        let mut fab_migrations = vec![0u64; n];
        let mut fab_bytes = vec![0u64; n];
        let mut fab_cost_s = vec![0.0f64; n];
        let mut fab_energy_j = vec![0.0f64; n];

        // The single routing pass (see module docs): virtual busy_until
        // walls stand in for replica load, advanced by the min-service
        // estimate (plus any migration transfer) of every routed arrival.
        // It records one replica index per arrival (`u32`: a fleet of 2^32
        // replicas would not fit in memory) and counts each share.
        let mut router = Router::new(&self.cfg.dispatch);
        let mut replica_of: Vec<u32> = Vec::with_capacity(offered);
        let mut routed = vec![0usize; n];
        {
            let mut dispatch_span = tel.span("fleet.dispatch");
            dispatch_span.push_arg("arrivals", offered);
            let mut busy_until = vec![0.0f64; n];
            let mut backlog = vec![0.0f64; n];
            for r in &arrivals {
                for (i, (b, busy)) in backlog.iter_mut().zip(&busy_until).enumerate() {
                    *b = (busy - r.arrival_s).max(0.0);
                    if let (Some(mig), Some(last)) = (&migrate, last_replica[r.stream]) {
                        if last != i {
                            *b += mig[r.stream][i].time_s;
                        }
                    }
                }
                let target = router.route(r, &backlog, &min_service[r.stream]);
                let mut service = min_service[r.stream][target];
                if let Some(mig) = &migrate {
                    if let Some(last) = last_replica[r.stream] {
                        if last != target {
                            let cost = mig[r.stream][target];
                            service += cost.time_s;
                            fab_migrations[target] += 1;
                            fab_bytes[target] += stream_bytes[r.stream];
                            fab_cost_s[target] += cost.time_s;
                            fab_energy_j[target] += cost.energy_j;
                            let mut mspan = tel.span("fleet.migrate");
                            mspan.push_arg("stream", r.stream);
                            mspan.push_arg("from", last);
                            mspan.push_arg("to", target);
                            mspan.push_arg("bytes", stream_bytes[r.stream]);
                            mspan.push_arg("cost_s", cost.time_s);
                        }
                    }
                    last_replica[r.stream] = Some(target);
                }
                busy_until[target] = busy_until[target].max(r.arrival_s) + service;
                replica_of.push(target as u32);
                routed[target] += 1;
            }
            dispatch_span.push_arg("migrations", router.migrations);
            dispatch_span.push_arg("rehomed", router.rehomed);
        }
        let (migrations, rehomed) = (router.migrations, router.rehomed);

        // Each replica's share at exact capacity, in global arrival order
        // (so a valid arrival list). The arrival list goes before any
        // replica serves: the caller's thread serves a share itself and
        // reuses that memory.
        let mut shares: Vec<Vec<Request>> = routed.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (r, &ri) in arrivals.iter().zip(&replica_of) {
            shares[ri as usize].push(*r);
        }
        drop(arrivals);
        drop(replica_of);

        let reports: Vec<ServeReport> = match shared_session {
            // One session threads through the replicas in replica order on
            // this thread, and the first error stops the fleet unsaved.
            Some(mut session) => {
                let mut reports = Vec::with_capacity(n);
                for (ri, share) in shares.into_iter().enumerate() {
                    let (report, back) = self.serve_replica(ri, mix, share, session);
                    session = back;
                    reports.push(report?);
                }
                if let Some(path) = &self.cfg.cost_db_path {
                    if let Err(e) = session.save_costs(path) {
                        eprintln!("warning: failed to persist fleet cost database: {e}");
                    }
                }
                reports
            }
            // Independent replicas fan out over contiguous chunks of the
            // replica indices. Each worker builds, runs and drops its
            // replicas' serving loops (`ServeSim` holds `Rc`s), and the
            // reports come back in replica order, so the first error in
            // replica order is the one returned.
            None => par_map_owned(
                shares.into_iter().enumerate().collect(),
                self.cfg.parallelism.threads(),
                |(ri, share)| {
                    let session = Session::new().with_telemetry(tel.clone());
                    self.serve_replica(ri, mix, share, session).0
                },
            )
            .into_iter()
            .collect::<Result<_, _>>()?,
        };
        cost_evaluations += reports.iter().map(|r| r.cost_evaluations).sum::<u64>();
        let replica_reports: Vec<ReplicaReport> = reports
            .into_iter()
            .enumerate()
            .map(|(ri, report)| ReplicaReport {
                mcm_name: self.replicas[ri].mcm.name().to_string(),
                routed: routed[ri],
                migrated_in: fab_migrations[ri],
                fabric_bytes: fab_bytes[ri],
                fabric_cost_s: fab_cost_s[ri],
                fabric_energy_j: fab_energy_j[ri],
                report,
            })
            .collect();
        drop(run_span);

        let completed: usize = replica_reports.iter().map(|r| r.report.completed).sum();
        let rejected: usize = replica_reports.iter().map(|r| r.report.rejected).sum();
        let cache = replica_reports.iter().fold(
            CacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
            },
            |acc, r| CacheStats {
                hits: acc.hits + r.report.cache.hits,
                misses: acc.misses + r.report.cache.misses,
                evictions: acc.evictions + r.report.cache.evictions,
            },
        );
        let report = FleetReport {
            mix_name: mix.name.clone(),
            dispatch: self.cfg.dispatch.name().to_string(),
            offered,
            completed,
            rejected,
            deadline_misses: replica_reports
                .iter()
                .map(|r| r.report.deadline_misses)
                .sum(),
            deadline_bound: replica_reports
                .iter()
                .map(|r| r.report.deadline_bound)
                .sum(),
            migrations,
            rehomed,
            // summed from the per-replica accumulators in replica order,
            // so `rollup == Σ replicas` holds exactly (bit-for-bit)
            fabric: fabric_label.map(|label| FabricRollup {
                fabric: label,
                migrations: fab_migrations.iter().sum(),
                bytes: fab_bytes.iter().sum(),
                cost_s: fab_cost_s.iter().sum(),
                energy_j: fab_energy_j.iter().sum(),
            }),
            cost_evaluations,
            makespan_s: replica_reports
                .iter()
                .map(|r| r.report.makespan_s)
                .fold(0.0, f64::max),
            cache,
            replicas: replica_reports,
        };
        debug_assert_eq!(
            report.offered,
            report.replicas.iter().map(|r| r.routed).sum::<usize>(),
            "routing conserves arrivals: every offered request lands on exactly one replica"
        );
        debug_assert_eq!(
            report.offered,
            report.completed + report.rejected,
            "fleet conservation: offered == Σ completed + rejected"
        );
        Ok(report)
    }

    /// Serves replica `ri`'s `share` on the calling thread through a
    /// fresh `SCAR` scheduler over `session`, and hands the session back.
    fn serve_replica(
        &self,
        ri: usize,
        mix: &TrafficMix,
        share: Vec<Request>,
        session: Session,
    ) -> (Result<ServeReport, ScheduleError>, Session) {
        let spec = &self.replicas[ri];
        let tel = &self.cfg.telemetry;
        let mut span = tel.span("fleet.replica");
        span.push_arg("replica", ri);
        span.push_arg("mcm", spec.mcm.name().to_string());
        span.push_arg("routed", share.len());
        let cfg = ServeConfig {
            telemetry: tel.clone(),
            ..spec.cfg.clone()
        };
        let scheduler = PolicyRegistry::with_builtins()
            .build("SCAR", &cfg)
            .expect("SCAR is a built-in policy");
        let mut sim = ServeSim::with_session(&spec.mcm, scheduler, cfg, session);
        let report = sim.run_arrivals(mix, share);
        if let Ok(report) = &report {
            span.push_arg("completed", report.completed);
            span.push_arg("rejected", report.rejected);
            span.push_arg("cache_hits", report.cache.hits);
        }
        (report, sim.into_session())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficShape;

    fn small_fleet(n: usize, dispatch: DispatchKind) -> FleetSim {
        FleetSim::new(
            ReplicaSpec::heterogeneous(n, Profile::ArVr, ServeConfig::default()),
            FleetConfig {
                dispatch,
                ..FleetConfig::default()
            },
        )
    }

    #[test]
    fn every_builtin_serves_and_conserves() {
        let mix = TrafficMix::arvr(11).reshaped(TrafficShape::Burst);
        for kind in DispatchKind::builtins() {
            let mut fleet = small_fleet(3, kind.clone());
            let report = fleet.run(&mix, 0.2).expect("mix fits each replica");
            assert_eq!(
                report.offered,
                report.completed + report.rejected,
                "{kind:?}"
            );
            assert_eq!(
                report.offered,
                report.replicas.iter().map(|r| r.routed).sum::<usize>(),
                "{kind:?}"
            );
            for r in &report.replicas {
                assert_eq!(r.routed, r.report.offered, "{kind:?}");
                assert_eq!(r.routed, r.report.completed + r.report.rejected, "{kind:?}");
            }
            assert!(report.completed > 0, "{kind:?}");
            assert!(report.makespan_s > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let mix = TrafficMix::arvr(5);
        let run = || {
            small_fleet(
                4,
                DispatchKind::CacheAffinity {
                    max_lag_s: DispatchKind::DEFAULT_MAX_LAG_S,
                    rehome_every: 0,
                },
            )
            .run(&mix, 0.1)
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn single_replica_fleet_matches_plain_serve_sim() {
        let mix = TrafficMix::arvr(3);
        for kind in DispatchKind::builtins() {
            let mcm = templates::het_sides_3x3(Profile::ArVr);
            let mut fleet = FleetSim::new(
                vec![ReplicaSpec {
                    mcm: mcm.clone(),
                    cfg: ServeConfig::default(),
                }],
                FleetConfig {
                    dispatch: kind,
                    ..FleetConfig::default()
                },
            );
            let fleet_report = fleet.run(&mix, 0.1).unwrap();
            let mut plain = ServeSim::new(&mcm, ServeConfig::default());
            let plain_report = plain.run(&mix, 0.1).unwrap();
            assert_eq!(fleet_report.replicas[0].report, plain_report);
        }
    }

    #[test]
    fn affinity_keeps_streams_home_without_overload() {
        // light load: no spills, so stream s is served only by replica
        // s % n, and idle spares see zero traffic
        let mix = TrafficMix::arvr(9);
        let mut fleet = small_fleet(4, DispatchKind::parse("affinity").unwrap());
        let report = fleet.run(&mix, 0.1).unwrap();
        assert_eq!(report.migrations, 0, "light load must not spill");
        assert_eq!(
            report.replicas[3].routed, 0,
            "3 streams on 4 replicas leave the last one idle"
        );
        assert!(report.utilization(3) == 0.0);
        assert!(report.utilization(0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_panics() {
        let _ = FleetSim::new(Vec::new(), FleetConfig::default());
    }
}

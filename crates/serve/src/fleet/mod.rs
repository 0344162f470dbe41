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
//! for arrivals `0..k`. Replicas then advance strictly in replica-index
//! order (the fixed merge order), each one a deterministic
//! [`ServeSim::run_arrivals`] call. Same seed + same dispatch policy ⇒
//! byte-identical [`FleetReport`] for any
//! [`Parallelism`](scar_core::Parallelism) setting, because per-replica
//! parallelism is already report-invariant and nothing else in the fleet
//! touches a thread.
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
use crate::sim::{ServeConfig, ServeSim};
use crate::traffic::{Request, TrafficMix};
use scar_core::{ScheduleError, Session};
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
    /// fleet threads its own sink through every replica so all spans and
    /// counters roll into one trace.
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

/// Fleet-level configuration: how to route, and where to record.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The dispatch policy (see [`DispatchKind`]; round-robin by
    /// default — the baseline the load- and cache-aware policies are
    /// measured against).
    pub dispatch: DispatchKind,
    /// Fleet-shared cost-database snapshot. When set, **one**
    /// [`Session`] backs every replica: it opens once
    /// ([`Session::open`]) before the dispatch probe, threads through the
    /// replicas in merge order (entries replica `k` evaluates serve
    /// replica `k+1` warm), and saves once after the last replica. A
    /// warm fleet then runs at **zero** cost-model evaluations
    /// ([`FleetReport::cost_evaluations`]). `None` (the default) gives
    /// every replica its own fresh session.
    pub cost_db_path: Option<PathBuf>,
    /// Telemetry sink for the whole fleet: the dispatch pass, every
    /// replica's serving loop, and the fleet-level counters all record
    /// into this one handle. Observational only.
    pub telemetry: Telemetry,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            dispatch: DispatchKind::RoundRobin,
            cost_db_path: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The fleet simulator: N replica specs plus a dispatch policy.
///
/// Each [`FleetSim::run`] constructs its replicas' serving loops fresh
/// (caches and per-replica sessions start cold), routes the mix's whole
/// arrival sequence, then advances the replicas in index order. See the
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
    /// Returns the first replica's [`ScheduleError`] (in merge order) if
    /// its scheduler cannot schedule a live scenario.
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
        let mut shared_session = self.cfg.cost_db_path.as_ref().map(|path| {
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
        let mut router = Router::new(&self.cfg.dispatch);
        let mut routed: Vec<Vec<Request>> = vec![Vec::new(); n];
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
                routed[target].push(*r);
            }
            dispatch_span.push_arg("migrations", router.migrations);
            dispatch_span.push_arg("rehomed", router.rehomed);
        }
        let (migrations, rehomed) = (router.migrations, router.rehomed);

        // Advance replicas strictly in index order — the fixed merge
        // order. Each share preserves global arrival order (the routing
        // pass appends in sequence), so it is a valid arrival list.
        let mut replica_reports = Vec::with_capacity(n);
        for (ri, (spec, share)) in self.replicas.iter().zip(routed).enumerate() {
            let mut span = tel.span("fleet.replica");
            span.push_arg("replica", ri);
            span.push_arg("mcm", spec.mcm.name().to_string());
            span.push_arg("routed", share.len());
            let cfg = ServeConfig {
                telemetry: tel.clone(),
                ..spec.cfg.clone()
            };
            let routed_count = share.len();
            let sharing = shared_session.is_some();
            let session = shared_session
                .take()
                .unwrap_or_else(|| Session::new().with_telemetry(tel.clone()));
            let scheduler = PolicyRegistry::with_builtins()
                .build("SCAR", &cfg)
                .expect("SCAR is a built-in policy");
            let mut sim = ServeSim::with_session(&spec.mcm, scheduler, cfg, session);
            let report = sim.run_arrivals(mix, share)?;
            if sharing {
                shared_session = Some(sim.into_session());
            }
            span.push_arg("completed", report.completed);
            span.push_arg("rejected", report.rejected);
            span.push_arg("cache_hits", report.cache.hits);
            cost_evaluations += report.cost_evaluations;
            replica_reports.push(ReplicaReport {
                mcm_name: spec.mcm.name().to_string(),
                routed: routed_count,
                migrated_in: fab_migrations[ri],
                fabric_bytes: fab_bytes[ri],
                fabric_cost_s: fab_cost_s[ri],
                fabric_energy_j: fab_energy_j[ri],
                report,
            });
        }
        if let (Some(session), Some(path)) = (&shared_session, &self.cfg.cost_db_path) {
            if let Err(e) = session.save_costs(path) {
                eprintln!("warning: failed to persist fleet cost database: {e}");
            }
        }
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
        tel.count("fleet.offered", offered as u64);
        tel.count("fleet.completed", completed as u64);
        tel.count("fleet.rejected", rejected as u64);
        tel.count("fleet.migrations", migrations);
        if rehomed > 0 {
            tel.count("fleet.rehomed", rehomed);
        }
        if let Some(fab) = &report.fabric {
            tel.count("fleet.fabric_migrations", fab.migrations);
            tel.count("fleet.fabric_bytes", fab.bytes);
        }
        Ok(report)
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

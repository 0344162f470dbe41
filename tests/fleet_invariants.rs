//! Fleet-tier invariants: seeded sweeps locking down the routing tier's
//! determinism and conservation contracts from `DESIGN.md` §12.
//!
//! * **Parallelism-independence** — the fleet routes every arrival in one
//!   pass off a virtual backlog model before any replica executes, then
//!   serves the replicas, possibly at once, and merges their reports in
//!   replica order; with per-replica reports already
//!   parallelism-invariant, the whole [`FleetReport`] must be
//!   byte-identical (struct equality *and* rendered form) between
//!   `Serial` and `Fixed(4)` candidate evaluation and replica fan-out,
//!   under every built-in dispatch policy, with preemption and admission
//!   active. A fleet whose replicas fail returns the lowest-index
//!   replica's error under either setting.
//! * **Conservation across replicas** — routing splits the arrival
//!   sequence, it never drops or duplicates: `offered == Σ routed` and
//!   `offered == completed + rejected` at the fleet level, with each
//!   replica's own report conserving its share.
//! * **No-regression** — a single-replica fleet is a plain [`ServeSim`]
//!   run wearing a router: its replica report reproduces
//!   `ServeSim::run` byte-for-byte under every policy.
//! * **Cache affinity pays** — sticky routing beats round-robin on the
//!   aggregate schedule-cache hit rate under every fabric.

use scar::core::{Parallelism, ScheduleError};
use scar::maestro::Dataflow;
use scar::mcm::templates::{het_sides_3x3, homogeneous, Profile};
use scar::mcm::InterconnectSpec;
use scar::serve::{
    DispatchKind, FleetConfig, FleetSim, ReplicaSpec, ServeConfig, ServeSim, TrafficMix,
    TrafficShape,
};

/// The fabric variants: unpriced, grounded SerDes, and the
/// wireless-interposer what-if.
fn fabrics() -> [Option<InterconnectSpec>; 3] {
    [
        None,
        Some(InterconnectSpec::nop()),
        Some(InterconnectSpec::wireless()),
    ]
}

/// `replicas` with every MCM carrying `fabric`.
fn with_fabric(replicas: Vec<ReplicaSpec>, fabric: Option<InterconnectSpec>) -> Vec<ReplicaSpec> {
    replicas
        .into_iter()
        .map(|mut r| {
            r.mcm = r.mcm.with_interconnect(fabric);
            r
        })
        .collect()
}

/// A replica config that exercises the serving machinery for real:
/// preemption on, multi-window rounds, deadline-feasibility admission.
fn busy_cfg(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        preemption: true,
        nsplits: 2,
        admission: scar::serve::AdmissionKind::DeadlineFeasible,
        parallelism,
        ..ServeConfig::default()
    }
}

/// A fleet whose replicas and whose replica fan-out both run at
/// `parallelism`.
fn fleet(
    n: usize,
    dispatch: DispatchKind,
    parallelism: Parallelism,
    fabric: Option<InterconnectSpec>,
) -> FleetSim {
    FleetSim::new(
        with_fabric(
            ReplicaSpec::heterogeneous(n, Profile::ArVr, busy_cfg(parallelism)),
            fabric,
        ),
        FleetConfig {
            dispatch,
            parallelism,
            ..FleetConfig::default()
        },
    )
}

/// (a) `Serial` and `Fixed(4)` — candidate evaluation and replica fan-out
/// together — produce byte-identical fleet reports for every built-in
/// dispatch policy, across seeds and fabrics, under burst traffic with
/// preemption and admission active.
#[test]
fn fleet_reports_are_parallelism_invariant_per_policy() {
    for seed in [1u64, 7, 42] {
        let mix = TrafficMix::arvr(seed).reshaped(TrafficShape::Burst);
        for fabric in fabrics() {
            for kind in DispatchKind::builtins() {
                let label = format!(
                    "seed {seed}, fabric {}, {kind:?}",
                    fabric.map_or("none", |f| f.label())
                );
                let serial = fleet(4, kind.clone(), Parallelism::Serial, fabric)
                    .run(&mix, 0.2)
                    .unwrap();
                let fixed = fleet(4, kind, Parallelism::Fixed(4), fabric)
                    .run(&mix, 0.2)
                    .unwrap();
                assert_eq!(serial, fixed, "{label}: struct equality");
                assert_eq!(
                    serial.to_string(),
                    fixed.to_string(),
                    "{label}: rendered byte-for-byte"
                );
            }
        }
    }
}

/// (b) Conservation across replicas: the router assigns every offered
/// arrival to exactly one replica, and completions plus rejections add
/// back up at both levels — even while preemption splices rounds apart
/// and admission sheds inside each replica.
#[test]
fn routing_conserves_arrivals_across_replicas() {
    for seed in [1u64, 7, 42] {
        let mix = TrafficMix::arvr(seed).reshaped(TrafficShape::Burst);
        let offered = mix.arrivals(0.2).len();
        for kind in DispatchKind::builtins() {
            let label = format!("seed {seed}, {kind:?}");
            let report = fleet(3, kind, Parallelism::Serial, None)
                .run(&mix, 0.2)
                .unwrap();
            assert_eq!(report.offered, offered, "{label}");
            assert_eq!(
                report.offered,
                report.replicas.iter().map(|r| r.routed).sum::<usize>(),
                "{label}: every arrival routed exactly once"
            );
            assert_eq!(
                report.offered,
                report.completed + report.rejected,
                "{label}: fleet conservation"
            );
            for (i, r) in report.replicas.iter().enumerate() {
                assert_eq!(r.routed, r.report.offered, "{label}: replica {i} offered");
                assert_eq!(
                    r.routed,
                    r.report.completed + r.report.rejected,
                    "{label}: replica {i} conservation"
                );
            }
            assert_eq!(
                report.completed,
                report
                    .replicas
                    .iter()
                    .map(|r| r.report.completed)
                    .sum::<usize>(),
                "{label}: completed rollup"
            );
            assert_eq!(
                report.deadline_misses,
                report
                    .replicas
                    .iter()
                    .map(|r| r.report.deadline_misses)
                    .sum::<usize>(),
                "{label}: miss rollup"
            );
        }
    }
}

/// (c) No-regression: a single-replica fleet reproduces a plain
/// `ServeSim` run byte-for-byte under every dispatch policy — the router
/// adds nothing but the split, and a 1-way split is the identity.
#[test]
fn single_replica_fleet_is_a_plain_serve_sim() {
    let mcm = het_sides_3x3(Profile::ArVr);
    for seed in [1u64, 7] {
        let mix = TrafficMix::arvr(seed).reshaped(TrafficShape::Burst);
        let plain = ServeSim::new(&mcm, busy_cfg(Parallelism::Serial))
            .run(&mix, 0.2)
            .unwrap();
        for kind in DispatchKind::builtins() {
            let label = format!("seed {seed}, {kind:?}");
            let mut one = FleetSim::new(
                vec![ReplicaSpec {
                    mcm: mcm.clone(),
                    cfg: busy_cfg(Parallelism::Serial),
                }],
                FleetConfig {
                    dispatch: kind,
                    ..FleetConfig::default()
                },
            );
            let fleet_report = one.run(&mix, 0.2).unwrap();
            assert_eq!(
                fleet_report.replicas[0].report, plain,
                "{label}: replica report ≡ plain run"
            );
            assert_eq!(
                fleet_report.replicas[0].report.to_string(),
                plain.to_string(),
                "{label}: rendered byte-for-byte"
            );
            assert_eq!(fleet_report.offered, plain.offered, "{label}");
            assert_eq!(fleet_report.completed, plain.completed, "{label}");
            assert_eq!(fleet_report.rejected, plain.rejected, "{label}");
            assert_eq!(fleet_report.cache, plain.cache, "{label}: cache rollup");
        }
    }
}

/// Identical fleets are deterministic run-to-run: two fresh fleets with
/// the same seed, policy, and replicas render the same report bytes.
#[test]
fn identical_fleet_runs_are_byte_identical() {
    let mix = TrafficMix::arvr(9).reshaped(TrafficShape::Diurnal);
    for kind in DispatchKind::builtins() {
        let a = fleet(4, kind.clone(), Parallelism::Serial, None)
            .run(&mix, 0.2)
            .unwrap();
        let b = fleet(4, kind.clone(), Parallelism::Serial, None)
            .run(&mix, 0.2)
            .unwrap();
        assert_eq!(a, b, "{kind:?}");
        assert_eq!(a.to_string(), b.to_string(), "{kind:?}");
    }
}

/// (d) Sticky routing keeps per-replica schedule caches warm: on the
/// heterogeneous 4-replica fleet under 75 s of burst AR/VR traffic,
/// cache-affinity's aggregate hit rate strictly beats round-robin's under
/// every fabric, and on the unpriced fleet affinity leaves at most half of
/// round-robin's misses. Both gates are relative, so they survive mix
/// tweaks that absolute hit counts would not. The horizon matters: the
/// half-miss gate holds at 75 s (0.0096 against 0.5 × 0.0201) but not at
/// 0.5–50 s, where cold misses weigh more in both policies' ratios.
#[test]
fn cache_affinity_beats_round_robin_under_every_fabric() {
    let mix = TrafficMix::arvr(0xF1EE7).reshaped(TrafficShape::Burst);
    for fabric in fabrics() {
        let label = fabric.map_or("none", |f| f.label());
        let hit_rate = |dispatch: DispatchKind| {
            FleetSim::new(
                with_fabric(
                    ReplicaSpec::heterogeneous(4, Profile::ArVr, ServeConfig::default()),
                    fabric,
                ),
                FleetConfig {
                    dispatch,
                    ..FleetConfig::default()
                },
            )
            .run(&mix, 75.0)
            .unwrap()
            .cache_hit_rate()
        };
        let rr = hit_rate(DispatchKind::RoundRobin);
        let affinity = hit_rate(DispatchKind::parse("affinity").unwrap());
        assert!(
            affinity > rr,
            "{label}: cache-affinity hit rate {affinity:.4} must strictly beat \
             round-robin {rr:.4}"
        );
        if fabric.is_none() {
            let (rr_miss, aff_miss) = (1.0 - rr, 1.0 - affinity);
            assert!(
                aff_miss <= 0.5 * rr_miss,
                "cache-affinity miss ratio {aff_miss:.6} must be ≤ half of round-robin's \
                 {rr_miss:.6}"
            );
        }
    }
}

/// (e) Replicas 1 and 3 cannot schedule the overloaded mix: a one-chiplet
/// replica fails on the first round with two live models, a two-chiplet
/// one on the first with three. Serial or fanned out over four threads
/// (where replica 3 may fail first), the fleet returns replica 1's error,
/// the first in replica order. Round-robin routing ignores the packages,
/// so replica 3 gets the same share in both fleets below.
#[test]
fn the_lowest_failing_replica_s_error_is_returned_under_any_fan_out() {
    let mix = TrafficMix::arvr(3).throttled(4.0);
    let spec = |mcm| ReplicaSpec {
        mcm,
        cfg: ServeConfig::default(),
    };
    let ok = || spec(het_sides_3x3(Profile::ArVr));
    let chiplets = |cols| spec(homogeneous(Profile::ArVr, Dataflow::NvdlaLike, 1, cols));
    let error = |replicas: Vec<ReplicaSpec>, parallelism| {
        FleetSim::new(
            replicas,
            FleetConfig {
                parallelism,
                ..FleetConfig::default()
            },
        )
        .run(&mix, 0.2)
        .expect_err("a replica cannot schedule the mix")
    };
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(4)] {
        let only_last = error(vec![ok(), ok(), ok(), chiplets(2)], parallelism);
        assert!(
            matches!(
                only_last,
                ScheduleError::InsufficientChiplets { available: 2, .. }
            ),
            "{parallelism:?}: {only_last}"
        );
        let both = error(vec![ok(), chiplets(1), ok(), chiplets(2)], parallelism);
        assert!(
            matches!(
                both,
                ScheduleError::InsufficientChiplets { available: 1, .. }
            ),
            "{parallelism:?}: {both}"
        );
    }
}

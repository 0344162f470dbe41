//! Fabric-tier invariants: the priced fabrics of `Lat_com` (DESIGN.md §13)
//! must leave the historical inline math as it was — identical numbers by
//! default — while the inter-MCM tier obeys conservation and determinism
//! at fleet scale.
//!
//! * **Pinned reference vectors** — `transfer` / `transfer_with_delta` on
//!   the datacenter 3×3 reproduce literal Table II floats that predate
//!   the fabric abstraction.
//! * **Electrical-fabric neutrality** — attaching `InterconnectSpec::nop()`
//!   changes *only* the inter-MCM tier: on-package and off-chip pricing
//!   stay bit-identical to the spec-less config.
//! * **Fabric-cost conservation** — a fleet's [`FabricRollup`] equals the
//!   per-replica migration accounting summed exactly, under the `nop` and
//!   `wireless` fabrics.
//! * **Re-homing** — cache-affinity with a re-homing epoch fires under
//!   imbalance and stays Serial ≡ Fixed(4) and run-to-run byte-identical.
//! * **No-regression** — a single-replica fleet over a wireless fabric is
//!   still a plain [`ServeSim`] run, and a warm fleet sharing one
//!   persisted cost DB evaluates MAESTRO exactly zero times; its replicas
//!   serve in replica order on one thread at any fan-out setting.

use scar::core::Parallelism;
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::mcm::{CommCost, InterconnectSpec, Loc};
use scar::serve::{
    DispatchKind, FleetConfig, FleetReport, FleetSim, ReplicaSpec, ServeConfig, ServeSim,
    TrafficMix, TrafficShape,
};
use scar::telemetry::Telemetry;
use serde::Value;

fn close(got: f64, want: f64, tol: f64, what: &str) {
    assert!((got - want).abs() < tol, "{what}: got {got}, want {want}");
}

/// Replica specs with every MCM carrying the given fabric.
fn priced_replicas(n: usize, spec: InterconnectSpec, cfg: ServeConfig) -> Vec<ReplicaSpec> {
    ReplicaSpec::heterogeneous(n, Profile::ArVr, cfg)
        .into_iter()
        .map(|mut r| {
            r.mcm = r.mcm.with_interconnect(Some(spec));
            r
        })
        .collect()
}

fn busy_cfg(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        preemption: true,
        nsplits: 2,
        parallelism,
        ..ServeConfig::default()
    }
}

/// Literal `Lat_com` values computed by hand from §III-E and Table II,
/// *before* the fabric tiers existed. The package's pricing must
/// reproduce them to the last representable bit worth of tolerance.
#[test]
fn lat_com_reference_vectors_are_pinned() {
    let m = het_sides_3x3(Profile::Datacenter);

    // corner→corner, 4 hops, 1 MB: b/100e9 + 4·35e-9
    let c = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), 1_000_000);
    close(c.time_s, 1.014e-5, 1e-16, "NoP 4-hop time");
    close(c.energy_j, 6.528e-5, 1e-16, "NoP 4-hop energy");

    // neighbours, 1 hop, 1 MB
    let c = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 1_000_000);
    close(c.time_s, 1.0035e-5, 1e-16, "NoP 1-hop time");
    close(c.energy_j, 1.632e-5, 1e-16, "NoP 1-hop energy");

    // DRAM → center chiplet (1 hop to its side interface), 64 kB:
    // b/64e9 + 1·35e-9 + 200e-9, energy b·(118.4 + 16.32) pJ/B
    let c = m.transfer(Loc::Offchip, Loc::Chiplet(4), 64_000);
    close(c.time_s, 1.235e-6, 1e-16, "off-chip time");
    close(c.energy_j, 8.62208e-6, 1e-16, "off-chip energy");

    // the δ congestion term is additive on time, invisible to energy
    let d = m.transfer_with_delta(Loc::Chiplet(0), Loc::Chiplet(8), 1_000_000, 3e-7);
    close(d.time_s, 1.044e-5, 1e-16, "NoP time + δ");
    close(d.energy_j, 6.528e-5, 1e-16, "δ leaves energy alone");

    // same chiplet and DRAM→DRAM stay free under every fabric
    assert_eq!(
        m.transfer(Loc::Chiplet(3), Loc::Chiplet(3), 1 << 30),
        CommCost::ZERO
    );
    assert_eq!(
        m.transfer(Loc::Offchip, Loc::Offchip, 1 << 30),
        CommCost::ZERO
    );
}

/// `InterconnectSpec::nop()` prices only the *new* tier: on-package and
/// off-chip transfers are bit-identical with and without the spec, while
/// inter-MCM transfers go from free to priced.
#[test]
fn nop_spec_changes_only_the_inter_mcm_tier() {
    let plain = het_sides_3x3(Profile::Datacenter);
    let priced =
        het_sides_3x3(Profile::Datacenter).with_interconnect(Some(InterconnectSpec::nop()));

    for bytes in [1u64, 4096, 1_000_000, 1 << 24] {
        for (src, dst) in [
            (Loc::Chiplet(0), Loc::Chiplet(8)),
            (Loc::Chiplet(2), Loc::Chiplet(3)),
            (Loc::Chiplet(7), Loc::Offchip),
            (Loc::Offchip, Loc::Chiplet(4)),
        ] {
            assert_eq!(
                plain.transfer(src, dst, bytes),
                priced.transfer(src, dst, bytes),
                "{src:?}→{dst:?} × {bytes} B must not change"
            );
            assert_eq!(
                plain.transfer_with_delta(src, dst, bytes, 1e-7),
                priced.transfer_with_delta(src, dst, bytes, 1e-7),
                "δ path must not change either"
            );
        }
        assert_eq!(plain.inter_mcm_transfer(bytes), CommCost::ZERO);
        let hop = priced.inter_mcm_transfer(bytes);
        assert!(
            hop.time_s > 0.0 && hop.energy_j > 0.0,
            "priced tier at {bytes} B"
        );
        // 2× DRAM SerDes crossings: b/64e9 + 400 ns, 236.8 pJ/B
        close(
            hop.time_s,
            bytes as f64 / 64e9 + 400e-9,
            1e-16,
            "inter-MCM time",
        );
        close(
            hop.energy_j,
            bytes as f64 * 236.8e-12,
            1e-18,
            "inter-MCM energy",
        );
    }
}

/// Conservation of fabric accounting: the fleet-level [`FabricRollup`] is
/// exactly the per-replica migration columns summed (same floats, not
/// approximately), and every priced migration shows up in both — over
/// grounded SerDes and over the wireless interposer alike.
#[test]
fn fabric_costs_conserve_across_replicas() {
    let mix = TrafficMix::arvr(7).reshaped(TrafficShape::Burst);
    for spec in [InterconnectSpec::nop(), InterconnectSpec::wireless()] {
        let label = spec.label();
        // round-robin deliberately ping-pongs streams between replicas, so
        // the fabric tier gets exercised hard
        let mut fleet = FleetSim::new(
            priced_replicas(3, spec, busy_cfg(Parallelism::Serial)),
            FleetConfig {
                dispatch: DispatchKind::RoundRobin,
                ..FleetConfig::default()
            },
        );
        let report = fleet.run(&mix, 0.2).unwrap();
        let fab = report.fabric.as_ref().expect("priced replicas → rollup");
        assert_eq!(fab.fabric, label);
        assert!(
            fab.migrations > 0,
            "{label}: round-robin must migrate streams"
        );
        assert!(
            fab.bytes > 0 && fab.cost_s > 0.0 && fab.energy_j > 0.0,
            "{label}"
        );

        let (mut mig, mut bytes, mut cost, mut energy) = (0u64, 0u64, 0.0f64, 0.0f64);
        for r in &report.replicas {
            mig += r.migrated_in;
            bytes += r.fabric_bytes;
            cost += r.fabric_cost_s;
            energy += r.fabric_energy_j;
        }
        assert_eq!(fab.migrations, mig, "{label}: migration count conserves");
        assert_eq!(fab.bytes, bytes, "{label}: byte count conserves");
        assert_eq!(
            fab.cost_s, cost,
            "{label}: backlog seconds conserve exactly"
        );
        assert_eq!(fab.energy_j, energy, "{label}: energy conserves exactly");

        // every migration priced a positive transfer through a replica fabric
        assert!(
            report
                .replicas
                .iter()
                .all(|r| (r.migrated_in == 0) == (r.fabric_bytes == 0)),
            "{label}: migrations and bytes appear together"
        );
    }
}

/// Load-driven re-homing keeps the routing tier's determinism contract:
/// Serial ≡ Fixed(4) byte-for-byte, and two identical runs agree — with a
/// fabric attached and the rebalancer live.
#[test]
fn rehoming_is_deterministic_and_parallelism_invariant() {
    let kind = DispatchKind::CacheAffinity {
        max_lag_s: 0.05,
        rehome_every: 64,
    };
    for seed in [3u64, 11] {
        let mix = TrafficMix::arvr(seed).reshaped(TrafficShape::Burst);
        let run = |parallelism: Parallelism| {
            FleetSim::new(
                priced_replicas(3, InterconnectSpec::nop(), busy_cfg(parallelism)),
                FleetConfig {
                    dispatch: kind.clone(),
                    ..FleetConfig::default()
                },
            )
            .run(&mix, 0.2)
            .unwrap()
        };
        let serial = run(Parallelism::Serial);
        let fixed = run(Parallelism::Fixed(4));
        let again = run(Parallelism::Serial);
        assert_eq!(serial, fixed, "seed {seed}: Serial ≡ Fixed(4)");
        assert_eq!(
            serial.to_string(),
            fixed.to_string(),
            "seed {seed}: rendered"
        );
        assert_eq!(serial, again, "seed {seed}: run-to-run");
    }
}

/// The rebalancer actually fires on sustained imbalance, in two regimes:
/// four streams hashed onto three replicas leave one home twice as
/// loaded; and on the heterogeneous 4-replica fleet, 75 s of burst
/// traffic at the default spill threshold leaves homes unevenly loaded.
/// In both the epoch rebalancer moves a stream off the busiest home.
#[test]
fn rehoming_fires_under_imbalance() {
    let burst = TrafficMix::arvr(0xF1EE7).reshaped(TrafficShape::Burst);
    // (replicas, serving config, mix, horizon s, spill threshold s, epoch)
    let cases = [
        (
            3,
            busy_cfg(Parallelism::Serial),
            TrafficMix::arvr(5),
            0.3,
            0.05,
            32,
        ),
        (
            4,
            ServeConfig::default(),
            burst,
            75.0,
            DispatchKind::DEFAULT_MAX_LAG_S,
            64,
        ),
    ];
    for (n, cfg, mix, horizon_s, max_lag_s, rehome_every) in cases {
        let mut fleet = FleetSim::new(
            priced_replicas(n, InterconnectSpec::nop(), cfg),
            FleetConfig {
                dispatch: DispatchKind::CacheAffinity {
                    max_lag_s,
                    rehome_every,
                },
                ..FleetConfig::default()
            },
        );
        let report = fleet.run(&mix, horizon_s).unwrap();
        assert!(
            report.rehomed > 0,
            "{n} replicas, epoch {rehome_every}: imbalance must trigger re-homing: {report}"
        );
    }
}

/// A single-replica fleet over a *wireless* fabric is still a plain
/// `ServeSim` run on the same wireless MCM — the fabric tier prices
/// migrations, and one replica never migrates.
#[test]
fn single_replica_wireless_fleet_is_a_plain_serve_sim() {
    let mcm = het_sides_3x3(Profile::ArVr).with_interconnect(Some(InterconnectSpec::wireless()));
    let mix = TrafficMix::arvr(7).reshaped(TrafficShape::Burst);
    let plain = ServeSim::new(&mcm, busy_cfg(Parallelism::Serial))
        .run(&mix, 0.2)
        .unwrap();
    for kind in DispatchKind::builtins() {
        let mut one = FleetSim::new(
            vec![ReplicaSpec {
                mcm: mcm.clone(),
                cfg: busy_cfg(Parallelism::Serial),
            }],
            FleetConfig {
                dispatch: kind.clone(),
                ..FleetConfig::default()
            },
        );
        let fleet_report = one.run(&mix, 0.2).unwrap();
        assert_eq!(
            fleet_report.replicas[0].report, plain,
            "{kind:?}: replica ≡ plain run under wireless fabric"
        );
        let fab = fleet_report.fabric.as_ref().expect("wireless rollup");
        assert_eq!(fab.fabric, "wireless");
        assert_eq!(fab.migrations, 0, "{kind:?}: one replica never migrates");
        assert_eq!(fab.bytes, 0);
        assert_eq!(fab.cost_s, 0.0);
    }
}

/// A fleet pointed at a persisted cost DB loads it once and serves the
/// dispatch probe and every replica from the shared session, one replica
/// at a time in replica order on the caller's thread, even at `Fixed(4)`:
/// so each replica's `cost_evaluations` counts what the replicas before
/// it left cold, exactly as in a `Serial` run. A *warm* fleet then runs at
/// exactly zero MAESTRO evaluations while reproducing the cold run's
/// rendered report.
#[test]
fn warm_fleet_shares_one_cost_db_at_zero_evaluations() {
    let path = std::env::temp_dir().join("scar_comm_model_fleet_costs.json");
    std::fs::remove_file(&path).ok();
    let mix = TrafficMix::arvr(7).reshaped(TrafficShape::Burst);
    let run = |parallelism: Parallelism, telemetry: Telemetry| {
        FleetSim::new(
            ReplicaSpec::heterogeneous(3, Profile::ArVr, busy_cfg(Parallelism::Serial)),
            FleetConfig {
                dispatch: DispatchKind::LeastLoaded,
                parallelism,
                cost_db_path: Some(path.clone()),
                telemetry,
            },
        )
        .run(&mix, 0.2)
        .unwrap()
    };
    let per_replica = |report: &FleetReport| -> Vec<u64> {
        report
            .replicas
            .iter()
            .map(|r| r.report.cost_evaluations)
            .collect()
    };

    let serial = run(Parallelism::Serial, Telemetry::disabled());
    std::fs::remove_file(&path).ok();
    let tel = Telemetry::enabled(true, false);
    let cold = run(Parallelism::Fixed(4), tel.clone());
    assert!(cold.cost_evaluations > 0, "cold fleet pays the cost model");
    assert!(path.exists(), "fleet persists one shared snapshot");
    assert_eq!(per_replica(&cold), per_replica(&serial));
    assert_eq!(cold, serial);
    let doc = serde::parse_value(&tel.trace_json().unwrap()).unwrap();
    let mut replicas: Vec<(f64, f64, f64)> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("fleet.replica"))
        .map(|e| {
            let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap();
            let replica = num(e.get("args").and_then(|a| a.get("replica")));
            (num(e.get("ts")), num(e.get("tid")), replica)
        })
        .collect();
    replicas.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(
        replicas
            .iter()
            .map(|&(_, tid, ri)| (tid, ri))
            .collect::<Vec<_>>(),
        [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)],
        "the caller's thread serves the replicas in order"
    );

    let warm = run(Parallelism::Fixed(4), Telemetry::disabled());
    assert_eq!(
        warm.cost_evaluations, 0,
        "warm fleet must not evaluate MAESTRO at all"
    );
    assert_eq!(
        cold.to_string(),
        warm.to_string(),
        "cost DB warmth changes evaluations, never results"
    );
    std::fs::remove_file(&path).ok();
}

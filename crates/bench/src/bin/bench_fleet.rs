//! Fleet serving at scale: one traffic mix sharded across four MCM
//! replicas under every built-in dispatch policy, with and without a
//! priced inter-MCM fabric.
//!
//! The paper schedules one MCM; a deployment runs many behind a router.
//! This benchmark drives the XRBench-style AR/VR frame mix — over a
//! horizon long enough for **≥1M arrivals** — through a heterogeneous
//! 4-replica fleet (the four 3×3 strategies of
//! [`scar_mcm::templates::all_3x3`]) under each [`DispatchKind`], and
//! reports the global deadline-miss rate, aggregate and per-replica
//! schedule-cache hit rates, per-replica utilization, rebalance
//! (migration) counts, and — when a fabric is attached — the inter-MCM
//! migration bytes/backlog/energy rollup: one [`FleetReport`] per policy
//! and fabric variant (`none`, then `nop`-priced), printed to stdout.
//!
//! Every policy runs twice — candidate evaluation and replica fan-out
//! both `Serial`, then both `Fixed(4)` — and the two [`FleetReport`]s are
//! asserted byte-identical (struct equality *and* rendered form): the
//! fleet's dispatch-then-merge loop keeps the whole report
//! parallelism-invariant, fabric or not. Both walls go to stderr, so
//! stdout is deterministic: it is pinned as `FLEET_RESULTS.txt`, which CI
//! diffs the way it diffs `PAPER_RESULTS.txt` (DESIGN.md §4).
//!
//! Acceptance gates:
//!
//! * conservation per policy: `offered == completed + rejected` and
//!   `offered == Σ routed` across replicas;
//! * identical offered traffic, at least 1M arrivals, under every policy
//!   and fabric variant;
//! * cache-affinity's aggregate schedule-cache hit rate is **strictly
//!   higher** than round-robin's under both fabrics, and in the unpriced
//!   (`none`) variant its *miss* ratio is at most **half** of
//!   round-robin's — a relative gate, robust to mix tweaks where absolute
//!   hit counts are not.
//!
//! The bin reads no environment variable and writes no file:
//!
//! ```sh
//! cargo run --release -p scar-bench --bin bench_fleet > /tmp/fleet_results.txt
//! diff -u FLEET_RESULTS.txt /tmp/fleet_results.txt
//! ```
//!
//! The short-horizon checks — the wireless fabric variant, re-homing, and
//! the affinity gates at 75 s — are tests (`tests/fleet_invariants.rs`,
//! `tests/comm_model.rs`).

use scar_core::Parallelism;
use scar_mcm::templates::Profile;
use scar_mcm::InterconnectSpec;
use scar_serve::{
    DispatchKind, FleetConfig, FleetReport, FleetSim, ReplicaSpec, ServeConfig, TrafficMix,
    TrafficShape,
};

/// 135 req/s of AR/VR frame traffic × 7500 s ≈ 1.01M arrivals — past the
/// 1M-arrival acceptance floor.
const HORIZON_S: f64 = 7500.0;

/// Replica count: one of each 3×3 strategy.
const FLEET_SIZE: usize = 4;

/// Fabric label used in headings.
fn fabric_label(fabric: &Option<InterconnectSpec>) -> &'static str {
    match fabric {
        None => "none",
        Some(spec) => spec.label(),
    }
}

fn main() {
    let kinds = DispatchKind::builtins();
    let fabrics = [None, Some(InterconnectSpec::nop())];

    // burst-reshaped AR/VR traffic (same mean rates, Markov-modulated
    // on/off arrivals, per-frame deadlines kept): queue shapes vary round
    // to round, so schedule-cache warmth is earned, not saturated — the
    // regime where routing policy actually moves the hit rate
    let mix = TrafficMix::arvr(0xF1EE7).reshaped(TrafficShape::Burst);
    let offered = mix.arrivals(HORIZON_S).len();
    assert!(
        offered >= 1_000_000,
        "scale floor: the horizon must offer ≥1M arrivals (got {offered})"
    );
    let make_replicas = |parallelism: Parallelism, fabric: &Option<InterconnectSpec>| {
        let base = ServeConfig {
            parallelism,
            ..ServeConfig::default()
        };
        ReplicaSpec::heterogeneous(FLEET_SIZE, Profile::ArVr, base)
            .into_iter()
            .map(|mut r| {
                r.mcm = r.mcm.with_interconnect(*fabric);
                r
            })
            .collect::<Vec<_>>()
    };
    let replica_names: Vec<String> = make_replicas(Parallelism::Serial, &None)
        .iter()
        .map(|r| r.mcm.name().to_string())
        .collect();
    println!(
        "fleet: {FLEET_SIZE} replicas [{}] | mix {} ({:.0} req/s, {offered} arrivals over {HORIZON_S} s) | fabrics [{}]",
        replica_names.join(", "),
        mix.name,
        mix.offered_rps(),
        fabrics.iter().map(fabric_label).collect::<Vec<_>>().join(", "),
    );
    let run_at = |kind: &DispatchKind, fabric: &Option<InterconnectSpec>, parallelism| {
        let mut fleet = FleetSim::new(
            make_replicas(parallelism, fabric),
            FleetConfig {
                dispatch: kind.clone(),
                parallelism,
                ..FleetConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let report = fleet.run(&mix, HORIZON_S).expect("mix fits each replica");
        (report, t0.elapsed())
    };

    // per fabric variant: every policy's run, then the variant's gates
    for fabric in &fabrics {
        let label = fabric_label(fabric);
        let mut runs = Vec::with_capacity(kinds.len());
        for kind in &kinds {
            let (report, serial_wall) = run_at(kind, fabric, Parallelism::Serial);
            let (fixed_report, fixed_wall) = run_at(kind, fabric, Parallelism::Fixed(4));
            println!("\n── dispatch: {} | fabric: {label}\n{report}", kind.name());
            // host timing stays off the pinned stdout
            eprintln!("wall: Serial {serial_wall:.1?}, Fixed(4) {fixed_wall:.1?}");
            let policy = &report.dispatch;
            assert_eq!(
                report, fixed_report,
                "{label}/{policy}: Serial and Fixed(4) reports must be byte-identical"
            );
            assert_eq!(
                report.to_string(),
                fixed_report.to_string(),
                "{label}/{policy}: rendered reports must match byte-for-byte"
            );
            assert_eq!(
                report.offered, offered,
                "{label}/{policy}: identical traffic under every policy and fabric"
            );
            assert_eq!(
                offered,
                report.completed + report.rejected,
                "{label}/{policy}: fleet conservation"
            );
            assert_eq!(
                offered,
                report.replicas.iter().map(|rep| rep.routed).sum::<usize>(),
                "{label}/{policy}: every arrival routed exactly once"
            );
            if let Some(fab) = &report.fabric {
                let per_replica: u64 = report.replicas.iter().map(|rep| rep.migrated_in).sum();
                assert_eq!(
                    fab.migrations, per_replica,
                    "{label}/{policy}: fabric rollup conserves"
                );
            }
            runs.push(report);
        }

        // the headline comparison: sticky routing keeps per-replica caches
        // warm. Relative gates only — absolute hit counts drift with every
        // mix tweak, ratios don't.
        let rate = |name: &str| {
            runs.iter()
                .find(|r| r.dispatch == name)
                .map(FleetReport::cache_hit_rate)
                .expect("the sweep runs every built-in")
        };
        let (rr, affinity) = (rate("round-robin"), rate("cache-affinity"));
        assert!(
            affinity > rr,
            "[{label}] cache-affinity hit rate {affinity:.4} must strictly beat round-robin {rr:.4}"
        );
        println!(
            "\nacceptance [{label}]: cache-affinity hit rate {:.2}% > round-robin {:.2}%: ok",
            affinity * 100.0,
            rr * 100.0
        );
        if fabric.is_none() {
            // the unpriced variant is the historical baseline regime;
            // there, affinity must leave at most half of RR's misses
            let (rr_miss, aff_miss) = (1.0 - rr, 1.0 - affinity);
            assert!(
                aff_miss <= 0.5 * rr_miss,
                "[{label}] cache-affinity miss ratio {aff_miss:.6} must be ≤ half of \
                 round-robin's {rr_miss:.6}"
            );
            println!(
                "acceptance [{label}]: affinity miss ratio {aff_miss:.4} ≤ 0.5 × round-robin {rr_miss:.4}: ok"
            );
        }
    }
    println!(
        "acceptance: Serial ≡ Fixed(4) and conservation hold for {} policies × {} fabrics at \
         {offered} arrivals: ok",
        kinds.len(),
        fabrics.len(),
    );
}

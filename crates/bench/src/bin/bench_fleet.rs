//! Fleet serving at scale: one traffic mix sharded across N MCM replicas
//! under every built-in dispatch policy, with and without a priced
//! inter-MCM fabric.
//!
//! The paper schedules one MCM; a deployment runs many behind a router.
//! This benchmark drives the XRBench-style AR/VR frame mix — over a
//! horizon long enough for **≥1M arrivals** — through a heterogeneous
//! 4-replica fleet (the four 3×3 strategies of
//! [`scar_mcm::templates::all_3x3`]) under each [`DispatchKind`], and
//! reports the global deadline-miss rate, aggregate and per-replica
//! schedule-cache hit rates, per-replica utilization, rebalance
//! (migration) counts, and — when a fabric is attached — the inter-MCM
//! migration bytes/backlog/energy rollup. Results land in
//! `BENCH_fleet.json`, one result block per fabric variant (the default
//! sweep runs `none`, then `nop`-priced).
//!
//! Every policy runs twice — candidate evaluation `Serial`, then
//! `Fixed(4)` — and the two [`FleetReport`]s are asserted byte-identical
//! (struct equality *and* rendered form): the fleet's dispatch-then-merge
//! loop keeps the whole report parallelism-invariant, fabric or not. The
//! smaller of the two walls is reported (least-interference estimate).
//!
//! Acceptance gates (always on):
//!
//! * conservation per policy: `offered == completed + rejected` and
//!   `offered == Σ routed` across replicas;
//! * identical offered traffic under every policy and fabric variant;
//! * cache-affinity's aggregate schedule-cache hit rate is **strictly
//!   higher** than round-robin's in every full-sweep variant, and in the
//!   unpriced (`none`) variant its *miss* ratio is at most **half** of
//!   round-robin's — a relative gate, robust to horizon and mix tweaks
//!   where absolute hit counts are not.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin bench_fleet
//! ```
//!
//! Environment knobs:
//!
//! * `SCAR_FLEET_SIZE` — replica count (default 4; `0` exits with code 2).
//! * `SCAR_FLEET_HET` — `0` makes the fleet homogeneous (all Het-Sides);
//!   default `1` cycles the four 3×3 strategies.
//! * `SCAR_DISPATCH` — run a single policy (`rr`, `least`, `deadline`,
//!   `affinity[:lag_s][:rehome_every]`) instead of the full sweep; the
//!   affinity-vs-RR gates only apply to the full sweep.
//! * `SCAR_FABRIC` — `none`, `nop`, or `wireless`: run that single
//!   fabric variant instead of the default `none` + `nop` sweep.
//! * `SCAR_REHOME` — cache-affinity re-homing epoch in routed arrivals
//!   (default 0 = static homes; applies to every variant's affinity run).
//! * `SCAR_FLEET_HORIZON_S` — override the traffic horizon (the ≥1M
//!   arrival floor is only asserted at the default horizon).
//! * `SCAR_FLEET_BASELINE` — path to a committed `BENCH_fleet.json`; the
//!   freshly written file must match it byte-for-byte once `wall_ms`
//!   lines are stripped from both (the CI drift gate).
//! * `SCAR_PERF_GATE` — `1` additionally asserts each policy's wall
//!   stays under [`WALL_CEILING_S`].
//! * `SCAR_TRACE` — record the span timeline (fleet.run → fleet.dispatch /
//!   fleet.migrate / fleet.replica → per-round serving spans) and write it
//!   to `TRACE_bench_fleet.json`. Trace runs drop to the `Serial` pass
//!   only so the timeline holds one run per policy.
//! * `SCAR_METRICS` — `1` records the metrics registry and prints the
//!   per-phase wall summary.
//!
//! Flags (`SCAR_FLEET_HET`, `SCAR_PERF_GATE`, `SCAR_TRACE`,
//! `SCAR_METRICS`) follow [`scar_bench::knobs`]: unset or empty is the
//! default, `0` off, `1` on, anything else exits with code 2.

use scar_bench::knobs;
use scar_core::Parallelism;
use scar_mcm::templates::Profile;
use scar_mcm::InterconnectSpec;
use scar_serve::{
    DispatchKind, FleetConfig, FleetReport, FleetSim, ReplicaSpec, ServeConfig, TrafficMix,
    TrafficShape,
};

/// Default horizon: 135 req/s of AR/VR frame traffic × 7500 s ≈ 1.01M
/// arrivals — past the 1M-arrival acceptance floor.
const DEFAULT_HORIZON_S: f64 = 7500.0;

/// Opt-in wall ceiling per policy (both parallelism passes together),
/// generous against CI jitter: the committed run finishes the full sweep
/// well under a quarter of this.
const WALL_CEILING_S: f64 = 300.0;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) if v.trim().is_empty() => default,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("{name}={v:?} is not a count");
            std::process::exit(2);
        }),
    }
}

/// Fabric label used in headings and the JSON artifact.
fn fabric_label(fabric: &Option<InterconnectSpec>) -> &'static str {
    match fabric {
        None => "none",
        Some(spec) => spec.label(),
    }
}

/// One policy's measurement under one fabric variant: the
/// (parallelism-invariant) report and the best-of-passes wall.
struct PolicyRun {
    kind: DispatchKind,
    report: FleetReport,
    wall: std::time::Duration,
}

fn policy_json(p: &PolicyRun, fabric: &Option<InterconnectSpec>) -> String {
    let r = &p.report;
    let replicas = r
        .replicas
        .iter()
        .enumerate()
        .map(|(i, rep)| {
            format!(
                "          {{ \"mcm\": \"{}\", \"routed\": {}, \"completed\": {}, \
                 \"utilization\": {:.4}, \"cache_hit_rate\": {:.4} }}",
                rep.mcm_name,
                rep.routed,
                rep.report.completed,
                r.utilization(i),
                rep.report.cache.hit_rate(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    // fabric columns are uniform across variants: zeros when unpriced,
    // so the artifact's schema never depends on the knob settings
    let (fab_migrations, fab_bytes, fab_cost_s, fab_energy_j) = match &r.fabric {
        Some(f) => (f.migrations, f.bytes, f.cost_s, f.energy_j),
        None => (0, 0, 0.0, 0.0),
    };
    format!(
        "      \"{}\": {{\n        \"fabric\": \"{}\",\n        \"completed\": {},\n        \
         \"rejected\": {},\n        \"deadline_miss_rate\": {:.6},\n        \
         \"cache_hit_rate\": {:.6},\n        \"migrations\": {},\n        \
         \"rehomed\": {},\n        \"fabric_migrations\": {fab_migrations},\n        \
         \"fabric_bytes\": {fab_bytes},\n        \"fabric_cost_s\": {fab_cost_s:.6},\n        \
         \"fabric_energy_j\": {fab_energy_j:.6},\n        \"makespan_s\": {:.3},\n        \
         \"wall_ms\": {:.1},\n        \"replicas\": [\n{replicas}\n        ]\n      }}",
        r.dispatch,
        fabric_label(fabric),
        r.completed,
        r.rejected,
        r.deadline_miss_rate(),
        r.cache_hit_rate(),
        r.migrations,
        r.rehomed,
        r.makespan_s,
        p.wall.as_secs_f64() * 1e3,
    )
}

fn main() {
    let fleet_size = env_usize("SCAR_FLEET_SIZE", 4);
    if fleet_size == 0 {
        eprintln!("SCAR_FLEET_SIZE=0: a fleet needs at least one replica");
        std::process::exit(2);
    }
    let heterogeneous = knobs::flag("SCAR_FLEET_HET", true);
    let perf_gate = knobs::flag("SCAR_PERF_GATE", false);
    let rehome_every = env_usize("SCAR_REHOME", 0);
    let (horizon_s, default_horizon) = match std::env::var("SCAR_FLEET_HORIZON_S") {
        Err(_) => (DEFAULT_HORIZON_S, true),
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(h) if h > 0.0 && h.is_finite() => (h, false),
            _ => {
                eprintln!("SCAR_FLEET_HORIZON_S={v:?} is not a positive horizon in seconds");
                std::process::exit(2);
            }
        },
    };
    let kinds: Vec<DispatchKind> = match std::env::var("SCAR_DISPATCH") {
        Err(_) => DispatchKind::builtins(),
        Ok(spec) => vec![DispatchKind::parse(&spec).unwrap_or_else(|e| {
            eprintln!("SCAR_DISPATCH: {e}");
            std::process::exit(2);
        })],
    }
    .into_iter()
    .map(|kind| match kind {
        // SCAR_REHOME upgrades affinity's default (static) homes; an
        // explicit `affinity:lag:epoch` spec already carries its own
        DispatchKind::CacheAffinity {
            max_lag_s,
            rehome_every: 0,
        } => DispatchKind::CacheAffinity {
            max_lag_s,
            rehome_every,
        },
        other => other,
    })
    .collect();
    let full_sweep = kinds.len() == DispatchKind::builtins().len();
    let fabrics: Vec<Option<InterconnectSpec>> = match std::env::var("SCAR_FABRIC") {
        Err(_) => vec![None, Some(InterconnectSpec::nop())],
        Ok(spec) => vec![InterconnectSpec::parse(&spec).unwrap_or_else(|e| {
            eprintln!("SCAR_FABRIC: {e}");
            std::process::exit(2);
        })],
    };

    let telemetry = knobs::telemetry();
    // burst-reshaped AR/VR traffic (same mean rates, Markov-modulated
    // on/off arrivals, per-frame deadlines kept): queue shapes vary round
    // to round, so schedule-cache warmth is earned, not saturated — the
    // regime where routing policy actually moves the hit rate
    let mix = TrafficMix::arvr(0xF1EE7).reshaped(TrafficShape::Burst);
    let make_replicas = |parallelism: Parallelism, fabric: &Option<InterconnectSpec>| {
        let base = ServeConfig {
            parallelism,
            ..ServeConfig::default()
        };
        let specs = if heterogeneous {
            ReplicaSpec::heterogeneous(fleet_size, Profile::ArVr, base)
        } else {
            ReplicaSpec::homogeneous(fleet_size, Profile::ArVr, base)
        };
        specs
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
        "fleet: {fleet_size} replicas [{}] | mix {} ({:.0} req/s offered, {horizon_s} s horizon) | fabrics [{}]",
        replica_names.join(", "),
        mix.name,
        mix.offered_rps(),
        fabrics.iter().map(fabric_label).collect::<Vec<_>>().join(", "),
    );

    let run_policy = |kind: &DispatchKind, fabric: &Option<InterconnectSpec>| {
        let run_at = |parallelism: Parallelism| {
            let mut fleet = FleetSim::new(
                make_replicas(parallelism, fabric),
                FleetConfig {
                    dispatch: kind.clone(),
                    telemetry: telemetry.clone(),
                    ..FleetConfig::default()
                },
            );
            let t0 = std::time::Instant::now();
            let report = fleet.run(&mix, horizon_s).expect("mix fits each replica");
            (report, t0.elapsed())
        };
        let (serial_report, serial_wall) = run_at(Parallelism::Serial);
        let (report, wall) = if telemetry.trace_enabled() {
            (serial_report, serial_wall)
        } else {
            let (fixed_report, fixed_wall) = run_at(Parallelism::Fixed(4));
            assert_eq!(
                serial_report, fixed_report,
                "fleet determinism: Serial and Fixed(4) reports must be byte-identical"
            );
            assert_eq!(
                serial_report.to_string(),
                fixed_report.to_string(),
                "fleet determinism: rendered reports must match byte-for-byte"
            );
            (serial_report, serial_wall.min(fixed_wall))
        };
        PolicyRun {
            kind: kind.clone(),
            report,
            wall,
        }
    };

    // variant sweeps: (fabric, per-policy runs)
    let mut sweeps: Vec<(Option<InterconnectSpec>, Vec<PolicyRun>)> = Vec::new();
    for fabric in &fabrics {
        let mut runs = Vec::with_capacity(kinds.len());
        for kind in &kinds {
            let run = run_policy(kind, fabric);
            println!(
                "\n── dispatch: {} | fabric: {}\n{}",
                kind.name(),
                fabric_label(fabric),
                run.report
            );
            println!("wall {:.1?} (best of the parallelism passes)", run.wall);
            runs.push(run);
        }
        sweeps.push((*fabric, runs));
    }
    let offered = sweeps[0].1[0].report.offered;

    // conservation + scale gates, across every variant
    for (fabric, runs) in &sweeps {
        let label = fabric_label(fabric);
        for run in runs {
            let r = &run.report;
            assert_eq!(
                r.offered,
                r.completed + r.rejected,
                "{label}/{}: fleet conservation",
                r.dispatch
            );
            assert_eq!(
                r.offered,
                r.replicas.iter().map(|rep| rep.routed).sum::<usize>(),
                "{label}/{}: every arrival routed exactly once",
                r.dispatch
            );
            assert_eq!(
                r.offered, offered,
                "identical traffic under every policy and fabric"
            );
            if let Some(fab) = &r.fabric {
                let per_replica: u64 = r.replicas.iter().map(|rep| rep.migrated_in).sum();
                assert_eq!(
                    fab.migrations, per_replica,
                    "{label}/{}: fabric rollup conserves",
                    r.dispatch
                );
            }
        }
    }
    if default_horizon {
        assert!(
            offered >= 1_000_000,
            "scale floor: the default horizon must offer ≥1M arrivals (got {offered})"
        );
    }
    println!(
        "\nacceptance: conservation holds across {} polic{} × {} fabric{} at {offered} arrivals: ok",
        kinds.len(),
        if kinds.len() == 1 { "y" } else { "ies" },
        sweeps.len(),
        if sweeps.len() == 1 { "" } else { "s" },
    );

    // the headline comparison: sticky routing keeps per-replica caches
    // warm. Relative gates only — absolute hit counts drift with every
    // horizon or mix tweak, ratios don't.
    if full_sweep {
        for (fabric, runs) in &sweeps {
            let label = fabric_label(fabric);
            let rate = |name: &str| {
                runs.iter()
                    .find(|r| r.report.dispatch == name)
                    .map(|r| r.report.cache_hit_rate())
                    .expect("full sweep includes it")
            };
            let (rr, affinity) = (rate("round-robin"), rate("cache-affinity"));
            assert!(
                affinity > rr,
                "[{label}] cache-affinity hit rate {affinity:.4} must strictly beat round-robin {rr:.4}"
            );
            println!(
                "acceptance [{label}]: cache-affinity hit rate {:.2}% > round-robin {:.2}%: ok",
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
                    "acceptance [{label}]: affinity miss ratio {:.4} ≤ 0.5 × round-robin {:.4}: ok",
                    aff_miss, rr_miss
                );
            }
        }
    }
    if perf_gate {
        for (fabric, runs) in &sweeps {
            for run in runs {
                assert!(
                    run.wall.as_secs_f64() <= WALL_CEILING_S,
                    "perf gate: [{}] {} wall {:.1} s exceeds the {WALL_CEILING_S} s ceiling",
                    fabric_label(fabric),
                    run.report.dispatch,
                    run.wall.as_secs_f64()
                );
            }
        }
        println!("perf gate: every policy under the {WALL_CEILING_S} s wall ceiling: ok");
    }

    let results = sweeps
        .iter()
        .map(|(fabric, runs)| {
            format!(
                "    \"{}\": {{\n{}\n    }}",
                fabric_label(fabric),
                runs.iter()
                    .map(|r| policy_json(r, fabric))
                    .collect::<Vec<_>>()
                    .join(",\n"),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"mix\": \"{}\",\n  \"horizon_s\": {horizon_s},\n  \"offered\": {offered},\n  \
         \"fleet_size\": {fleet_size},\n  \"heterogeneous\": {heterogeneous},\n  \
         \"replicas\": [{}],\n  \"fabrics\": [{}],\n  \"results\": {{\n{results}\n  }}\n}}\n",
        mix.name,
        replica_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        fabrics
            .iter()
            .map(|f| format!("\"{}\"", fabric_label(f)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");

    if let Ok(baseline) = std::env::var("SCAR_FLEET_BASELINE") {
        // wall-clock lines are machine noise; everything else must match
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"wall_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let want = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("SCAR_FLEET_BASELINE {baseline}: {e}"));
        assert_eq!(
            strip(&json),
            strip(&want),
            "BENCH_fleet.json drifted from the committed baseline {baseline}"
        );
        println!("acceptance: BENCH_fleet.json matches {baseline} (wall_ms stripped): ok");
    }

    // detail artifact: the rendered per-replica tables, gitignored
    let detail = sweeps
        .iter()
        .flat_map(|(fabric, runs)| {
            runs.iter().map(move |r| {
                format!(
                    "# {:?} | fabric {}\n{}",
                    r.kind,
                    fabric_label(fabric),
                    r.report
                )
            })
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write("ARTIFACT_fleet_reports.txt", detail).expect("write ARTIFACT_fleet_reports.txt");
    println!("wrote ARTIFACT_fleet_reports.txt");

    if let Some(summary) = telemetry.wall_summary() {
        println!("{summary}");
    }
    if telemetry
        .write_trace("TRACE_bench_fleet.json")
        .expect("write TRACE_bench_fleet.json")
    {
        println!("wrote TRACE_bench_fleet.json (Chrome trace_event; load in Perfetto)");
    }
}

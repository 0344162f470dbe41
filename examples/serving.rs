//! Dynamic serving: drive SCAR with live AR/VR frame traffic and watch the
//! schedule cache absorb the search cost of recurring frame shapes.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{PolicyRegistry, ServeConfig, ServeSim, TrafficMix};

fn main() {
    // XRBench-style social pipeline (paper Sc9): EyeCod gaze tracking at
    // 60 FPS, Hand-S/P at 45 FPS, Sp2Dense at 30 FPS — every frame due
    // within its frame period.
    let mix = TrafficMix::arvr(9);
    let mcm = het_sides_3x3(Profile::ArVr);
    println!(
        "serving {} ({:.0} req/s offered) on {}\n",
        mix.name,
        mix.offered_rps(),
        mcm
    );

    let mut sim = ServeSim::with_defaults(&mcm);
    let report = sim.run(&mix, 1.0).expect("three tenants fit a 3x3");
    println!("{report}");

    // the same pipeline at half frame rate: deadlines relax with the clock
    let relaxed = TrafficMix::arvr(9).throttled(0.5);
    let mut sim2 = ServeSim::with_defaults(&mcm);
    let r2 = sim2.run(&relaxed, 1.0).expect("lighter load still fits");
    println!(
        "at half rate: deadline misses {}/{} (was {}/{})\n",
        r2.deadline_misses, r2.deadline_bound, report.deadline_misses, report.deadline_bound
    );

    // policy comparison under identical traffic: every policy is a boxed
    // `Scheduler`, built by name from the registry, behind the same
    // serving loop
    let registry = PolicyRegistry::with_builtins();
    for policy in registry.names() {
        let cfg = ServeConfig::default();
        let scheduler = registry.build(policy, &cfg).expect("registered name");
        let mut sim = ServeSim::with_scheduler(&mcm, scheduler, cfg);
        let r = sim.run(&mix, 0.5).expect("every policy fits this mix");
        println!(
            "{:<12} throughput {:>6.1} req/s | p99 {:>8.2} ms | miss rate {:>5.1}% | energy {:.3} J",
            policy,
            r.throughput_rps,
            r.latency.p99_s * 1e3,
            r.deadline_miss_rate() * 100.0,
            r.energy_j
        );
    }
}

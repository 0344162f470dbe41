//! Property-style tests over the public API: the paper's structural
//! theorems (1 and 2), cost-model monotonicity, Pareto correctness, and
//! communication-model laws.
//!
//! Originally written with `proptest`; this environment has no crates.io
//! access, so the same properties are exercised by deterministic sweeps
//! over seeded pseudo-random samples (the vendored `rand` stub), which
//! keeps failures reproducible by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scar::core::{OptMetric, Scar, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar::maestro::{ChipletConfig, Dataflow};
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::mcm::{Loc, McmConfig, NopTopology};
use scar::workloads::{LayerKind, ModelBuilder, Scenario, ScenarioModel, UseCase};

fn tiny_budget(seed: u64) -> SearchBudget {
    SearchBudget {
        max_root_perms: 8,
        max_paths_per_model: 4,
        max_placements_per_window: 60,
        max_candidates_per_window: 120,
        seed,
        ..SearchBudget::default()
    }
}

/// A small random two-model scenario (conv net + GEMM net), drawn from the
/// same parameter space the original proptest strategy used.
fn random_scenario(rng: &mut StdRng) -> Scenario {
    let ch = rng.gen_range(2u64..32);
    let convs = rng.gen_range(1u64..9);
    let gemms = rng.gen_range(1u64..7);
    let ba = rng.gen_range(1u64..9);
    let bb = rng.gen_range(1u64..17);

    let mut a = ModelBuilder::new("conv-net");
    let mut hw = 64u64;
    let mut c = 3u64;
    for i in 0..convs {
        let out = ch * (i + 1);
        a = a.conv(
            format!("c{i}"),
            hw,
            c,
            out,
            3,
            if i % 2 == 1 { 2 } else { 1 },
        );
        if i % 2 == 1 {
            hw /= 2;
        }
        c = out;
    }
    let mut b = ModelBuilder::new("gemm-net");
    for i in 0..gemms {
        b = b.gemm(format!("g{i}"), 64 * (i + 1), 32 * (i + 1), 16);
    }
    Scenario::new(
        "prop",
        UseCase::Datacenter,
        vec![
            ScenarioModel {
                model: a.build(),
                batch: ba,
            },
            ScenarioModel {
                model: b.build(),
                batch: bb,
            },
        ],
    )
}

/// Theorems 1 & 2 end-to-end: any schedule SCAR emits for any random
/// scenario passes full structural validation (window partition covers
/// every model's layers in order; segments tile windows; no chiplet is
/// claimed twice in one window).
#[test]
fn emitted_schedules_are_always_valid() {
    let mut rng = StdRng::seed_from_u64(0xA11D);
    let mcm = het_sides_3x3(Profile::Datacenter);
    for case in 0..12 {
        let sc = random_scenario(&mut rng);
        let nsplits = rng.gen_range(0usize..5);
        let seed = rng.gen_range(0u64..1000);
        let r = Scar::builder()
            .nsplits(nsplits)
            .build()
            .schedule(
                &Session::new(),
                &ScheduleRequest::new(sc.clone(), mcm.clone()).budget(tiny_budget(seed)),
            )
            .expect("two models on nine chiplets is always feasible");
        r.schedule()
            .validate(&sc, mcm.num_chiplets())
            .unwrap_or_else(|e| panic!("case {case}: invalid schedule: {e}"));
        assert!(r.total().latency_s.is_finite() && r.total().latency_s > 0.0);
        assert!(r.total().energy_j.is_finite() && r.total().energy_j > 0.0);
    }
}

/// A chiplet clocked at 0 Hz makes every cost on it infinite, and the
/// expected-cost differences and scores built from those costs NaN. The
/// search must order such scores without panicking and still return a
/// schedule with finite, positive totals.
#[test]
fn a_zero_clock_chiplet_does_not_panic_the_search() {
    let template = het_sides_3x3(Profile::Datacenter);
    let mut chiplets = template.chiplets().to_vec();
    chiplets[0].freq_hz = 0.0;
    let mcm = McmConfig::new(
        "Het-Sides (chiplet 0 at 0 Hz)",
        chiplets,
        template.topology().clone(),
        template.offchip_interfaces().to_vec(),
    );
    let r = Scar::with_defaults()
        .schedule(
            &Session::new(),
            &ScheduleRequest::new(Scenario::datacenter(1), mcm),
        )
        .expect("the eight healthy chiplets can run Sc1");
    let total = r.total();
    assert!(
        total.latency_s.is_finite() && total.latency_s > 0.0,
        "{total:?}"
    );
    assert!(
        total.energy_j.is_finite() && total.energy_j > 0.0,
        "{total:?}"
    );
}

/// The winner minimizes its own metric over the candidate cloud.
#[test]
fn winner_is_optimal_within_candidates() {
    let mut rng = StdRng::seed_from_u64(0x0B7);
    let mcm = het_sides_3x3(Profile::Datacenter);
    for _ in 0..4 {
        let sc = random_scenario(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        for metric in [OptMetric::Latency, OptMetric::Energy, OptMetric::Edp] {
            let r = Scar::with_defaults()
                .schedule(
                    &Session::new(),
                    &ScheduleRequest::new(sc.clone(), mcm.clone())
                        .metric(metric.clone())
                        .budget(tiny_budget(seed)),
                )
                .unwrap();
            let best = metric.score(&r.total());
            for c in r.candidates() {
                let t = scar::core::EvalTotals {
                    latency_s: c.latency_s,
                    energy_j: c.energy_j,
                };
                assert!(
                    best <= metric.score(&t) * (1.0 + 1e-9),
                    "{}: best {best} beaten by {}",
                    metric.label(),
                    metric.score(&t)
                );
            }
        }
    }
}

/// The reported Pareto front is sorted, non-dominated, and a subset of
/// the candidate cloud.
#[test]
fn pareto_front_is_sound() {
    let mut rng = StdRng::seed_from_u64(0x9A6E);
    let mcm = het_sides_3x3(Profile::Datacenter);
    for _ in 0..8 {
        let sc = random_scenario(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let r = Scar::with_defaults()
            .schedule(
                &Session::new(),
                &ScheduleRequest::new(sc.clone(), mcm.clone()).budget(tiny_budget(seed)),
            )
            .unwrap();
        let front = r.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[1].latency_s >= w[0].latency_s);
            assert!(w[1].energy_j < w[0].energy_j);
        }
        for p in &front {
            assert!(r
                .candidates()
                .iter()
                .any(|c| (c.latency_s - p.latency_s).abs() < 1e-15
                    && (c.energy_j - p.energy_j).abs() < 1e-15));
        }
    }
}

/// Cost-model law: latency and energy grow monotonically with batch.
#[test]
fn layer_cost_monotone_in_batch() {
    let mut rng = StdRng::seed_from_u64(0xC057);
    for _ in 0..64 {
        let g = LayerKind::Gemm {
            m: rng.gen_range(1u64..512),
            k: rng.gen_range(1u64..512),
            n: rng.gen_range(1u64..64),
        };
        let b = rng.gen_range(1u64..16);
        for df in Dataflow::ALL {
            let ch = ChipletConfig::datacenter(df);
            let small = ch.evaluate(&g, b);
            let big = ch.evaluate(&g, b + 1);
            assert!(big.time_s >= small.time_s * 0.999);
            assert!(big.energy_j > small.energy_j * 0.999);
        }
    }
}

/// Communication law: cost is monotone in payload size and hop count
/// on arbitrary meshes.
#[test]
fn comm_cost_monotone() {
    let mut rng = StdRng::seed_from_u64(0xC033);
    for _ in 0..32 {
        let rows = rng.gen_range(2usize..5);
        let cols = rng.gen_range(2usize..5);
        let bytes = rng.gen_range(1u64..10_000_000);
        let mcm = scar::mcm::McmConfig::new(
            "prop-mesh",
            (0..rows * cols)
                .map(|_| ChipletConfig::datacenter(Dataflow::NvdlaLike))
                .collect(),
            NopTopology::mesh(rows, cols),
            vec![0],
        );
        let far = mcm.transfer(Loc::Chiplet(0), Loc::Chiplet(rows * cols - 1), bytes);
        let near = mcm.transfer(Loc::Chiplet(0), Loc::Chiplet(1), bytes);
        assert!(far.time_s >= near.time_s);
        assert!(far.energy_j >= near.energy_j);
        let double = mcm.transfer(Loc::Chiplet(0), Loc::Chiplet(1), bytes * 2);
        assert!(double.time_s >= near.time_s);
        assert!(double.energy_j >= near.energy_j * 1.999);
    }
}

/// Topology law: hop counts are a metric (symmetric, triangle inequality)
/// on meshes, and routes realize them.
#[test]
fn hops_form_a_metric() {
    for rows in 1usize..5 {
        for cols in 1usize..5 {
            let t = NopTopology::mesh(rows, cols);
            let n = t.num_nodes();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(t.hops(a, b), t.hops(b, a));
                    assert_eq!(t.route(a, b).len() as u32, t.hops(a, b) + 1);
                    for c in 0..n {
                        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
                    }
                }
            }
        }
    }
}

//! Scheduler-zoo invariants, swept over *every* policy in
//! [`PolicyRegistry::with_zoo`]: each one serves a short live mix with
//! Serial ≡ Fixed(4) bit-identity, each one's recorded artifact replays
//! exactly through the same registry it was built from, the NSGA-SCAR
//! candidate cloud's Pareto front is mutually non-dominated, and the
//! rendered catalog covers the registry one-to-one. This is the test the
//! CI `zoo-smoke` job runs: registering a policy without a doc card, or
//! one that drifts across thread counts, fails here.

use scar::core::{
    OptMetric, Parallelism, ScheduleArtifact, ScheduleRequest, SearchBudget, Session,
};
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{catalog, PolicyRegistry, ServeConfig, ServeSim, TrafficMix};
use scar::workloads::Scenario;

/// A trimmed search budget so the whole-zoo sweeps stay test-sized.
fn quick() -> SearchBudget {
    SearchBudget {
        max_root_perms: 8,
        max_paths_per_model: 4,
        max_placements_per_window: 60,
        max_candidates_per_window: 120,
        ..SearchBudget::default()
    }
}

fn offline_request() -> ScheduleRequest {
    ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
        .metric(OptMetric::Edp)
        .budget(quick())
}

/// Every registered policy serves the same short AR/VR mix, and its
/// report is bit-identical between serial and 4-thread candidate
/// evaluation — the zoo-wide extension of the engine's Serial ≡ Fixed(N)
/// guarantee (new schedulers that sneak in iteration-order or RNG
/// dependence fail here by name).
#[test]
fn every_zoo_policy_is_parallelism_independent_on_a_live_mix() {
    let registry = PolicyRegistry::with_zoo();
    let mcm = het_sides_3x3(Profile::ArVr);
    let mix = TrafficMix::arvr(11);
    for name in registry.names() {
        let run = |parallelism: Parallelism| {
            let cfg = ServeConfig {
                parallelism,
                ..ServeConfig::default()
            };
            let scheduler = registry.build(name, &cfg).expect("registered");
            ServeSim::with_scheduler(&mcm, scheduler, cfg)
                .run(&mix, 0.05)
                .expect("the AR/VR mix fits a 3x3")
        };
        let serial = run(Parallelism::Serial);
        assert!(serial.completed > 0, "{name}: the mix must serve requests");
        assert_eq!(
            serial.completed + serial.rejected,
            serial.offered,
            "{name}: conservation of arrivals"
        );
        let fixed4 = run(Parallelism::Fixed(4));
        assert_eq!(serial, fixed4, "{name}: Serial vs Fixed(4) report");
    }
}

/// Every policy's schedule, recorded as a [`ScheduleArtifact`] and pushed
/// through JSON, replays *exactly* when the scheduler is reconstructed by
/// recorded name + recorded configuration through the same registry — the
/// guarantee the `replay` binary's exactness gate stands on, extended to
/// the whole zoo.
#[test]
fn every_zoo_artifact_replays_exactly_via_the_registry() {
    let registry = PolicyRegistry::with_zoo();
    let session = Session::new();
    let req = offline_request();
    for name in registry.names() {
        let cfg = ServeConfig::default();
        let scheduler = registry.build(name, &cfg).expect("registered");
        let result = scheduler
            .schedule(&session, &req)
            .expect("Sc1 fits a 3x3 package");
        let artifact = ScheduleArtifact::of(
            format!("{name} zoo round"),
            &*scheduler,
            req.clone(),
            result,
        );
        let back = ScheduleArtifact::from_json(&artifact.to_json()).expect("round trip");
        assert_eq!(back, artifact, "{name}: artifact JSON round trip");

        // reconstruct by recorded name, overlaying the recorded knobs —
        // exactly the replay binary's path
        let mut replay_cfg = ServeConfig::default();
        if let Some(nsplits) = back.scheduler_config.nsplits {
            replay_cfg.nsplits = nsplits;
        }
        if let Some(search) = back.scheduler_config.search.clone() {
            replay_cfg.search = search;
        }
        let rebuilt = registry
            .build(&back.scheduler, &replay_cfg)
            .expect("recorded names resolve");
        let replayed = rebuilt
            .schedule(&session, &back.request)
            .expect("recorded requests schedule");
        assert_eq!(replayed, back.result, "{name}: exact replay");
    }
}

/// Merged-Pipeline is SCAR at `nsplits = 0`: one fused window, and a
/// splice must keep it fused. The splice search drops one split from
/// SCAR's count but never turns 0 into 1.
#[test]
fn merged_pipeline_splices_keep_one_fused_window() {
    let cfg = ServeConfig::default();
    let merged = PolicyRegistry::with_zoo()
        .build("Merged-Pipeline", &cfg)
        .expect("registered");
    let session = Session::new();
    let req = ScheduleRequest::new(Scenario::arvr(6), het_sides_3x3(Profile::ArVr))
        .budget(cfg.budget.clone());
    let cold = merged.schedule(&session, &req).expect("Sc6 fits a 3x3");
    assert_eq!(cold.schedule().windows.len(), 1, "cold: one fused window");
    let spliced = merged
        .preempt(&session, &req, cold.schedule())
        .expect("the splice answers");
    assert_eq!(
        spliced.schedule().windows.len(),
        1,
        "splice: still one fused window"
    );
}

/// The NSGA-SCAR result's candidate-cloud Pareto front is mutually
/// non-dominated and NaN-free — the front the multi-objective selection
/// reasons over is a real front.
#[test]
fn nsga_scar_front_is_mutually_nondominated() {
    let registry = PolicyRegistry::with_zoo();
    let session = Session::new();
    let scheduler = registry
        .build("NSGA-SCAR", &ServeConfig::default())
        .expect("registered");
    let result = scheduler
        .schedule(&session, &offline_request())
        .expect("Sc1 fits");
    let front = result.pareto_front();
    assert!(!front.is_empty(), "a scheduled round has a front");
    for p in &front {
        assert!(
            p.latency_s.is_finite() && p.energy_j.is_finite(),
            "front points are finite"
        );
    }
    for (i, a) in front.iter().enumerate() {
        for b in &front[i + 1..] {
            let dominates = (a.latency_s <= b.latency_s && a.energy_j < b.energy_j)
                || (a.latency_s < b.latency_s && a.energy_j <= b.energy_j);
            let dominated = (b.latency_s <= a.latency_s && b.energy_j < a.energy_j)
                || (b.latency_s < a.latency_s && b.energy_j <= a.energy_j);
            assert!(
                !dominates && !dominated,
                "front must be mutually non-dominated"
            );
        }
    }
}

/// The doc catalog and the registry cover each other exactly, in order:
/// a policy without a card (or a card without a policy) fails the zoo.
#[test]
fn catalog_and_registry_cover_each_other() {
    let registry = PolicyRegistry::with_zoo();
    let cards: Vec<&str> = catalog().iter().map(|c| c.name).collect();
    assert_eq!(registry.names(), cards, "catalog order == registry order");
    for card in catalog() {
        assert!(!card.optimizes.is_empty(), "{}: optimizes", card.name);
        assert!(!card.use_case.is_empty(), "{}: use case", card.name);
        assert!(
            !card.production_ready.is_empty(),
            "{}: production readiness",
            card.name
        );
    }
}

//! Integration tests for the `Scheduler` trait API: requests/results must
//! round-trip through JSON, recorded configurations must rebuild the
//! scheduler, and sharing a `Session` must never change results.

use scar::core::baselines::{NnBaton, Standalone};
use scar::core::{
    OptMetric, Parallelism, Scar, ScheduleArtifact, ScheduleRequest, ScheduleResult, Scheduler,
    SearchBudget, Session,
};
use scar::maestro::Dataflow;
use scar::mcm::templates::{het_sides_3x3, simba_3x3, Profile};
use scar::mcm::McmConfig;
use scar::workloads::Scenario;

fn quick() -> SearchBudget {
    SearchBudget {
        max_root_perms: 12,
        max_paths_per_model: 6,
        max_placements_per_window: 150,
        max_candidates_per_window: 300,
        parallelism: Parallelism::Serial,
        ..SearchBudget::default()
    }
}

fn request(sc: &Scenario, mcm: &McmConfig, metric: OptMetric) -> ScheduleRequest {
    ScheduleRequest::new(sc.clone(), mcm.clone())
        .metric(metric)
        .budget(quick())
}

/// One shared session across *different* schedulers and scenarios vs a
/// fresh session per call: results must be bit-identical (per-layer costs
/// are pure in (chiplet, layer, batch)), and the shared database must
/// actually accumulate.
#[test]
fn shared_session_is_equivalent_to_fresh_sessions() {
    let mcm = het_sides_3x3(Profile::Datacenter);
    let shared = Session::new();
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Scar::with_defaults()),
        Box::new(Standalone::new()),
        Box::new(NnBaton::new()),
    ];
    let mut sizes = Vec::new();
    for scn in [1usize, 2] {
        let sc = Scenario::datacenter(scn);
        let req = request(&sc, &mcm, OptMetric::Edp);
        for s in &schedulers {
            let warm = s.schedule(&shared, &req).unwrap();
            let cold = s.schedule(&Session::new(), &req).unwrap();
            assert_eq!(warm, cold, "Sc{scn} {}", s.name());
            sizes.push(shared.cached_costs());
        }
    }
    assert!(
        sizes.last().unwrap() > sizes.first().unwrap(),
        "the shared database must grow across scenarios: {sizes:?}"
    );
}

/// `ScheduleRequest` round-trips through JSON, and the deserialized
/// request schedules identically (the MCM's rebuilt topology caches
/// included).
#[test]
fn schedule_request_roundtrips_through_json() {
    let sc = Scenario::datacenter(1);
    let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
    let req = request(&sc, &mcm, OptMetric::ConstrainedEdp { max_latency_s: 2.0 });

    let json = serde_json::to_string(&req).unwrap();
    let back: ScheduleRequest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, req);

    let session = Session::new();
    let scar = Scar::with_defaults();
    let a = scar.schedule(&session, &req).unwrap();
    let b = scar.schedule(&session, &back).unwrap();
    assert_eq!(a, b, "a deserialized request must schedule identically");
}

/// `ScheduleResult` (and the full `ScheduleArtifact` bundle) serialized to
/// JSON deserializes back equal — the acceptance criterion of the
/// request/response redesign.
#[test]
fn schedule_result_roundtrips_through_json() {
    let sc = Scenario::datacenter(1);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let session = Session::new();
    let req = request(&sc, &mcm, OptMetric::Edp);

    for scheduler in [
        &Scar::with_defaults() as &dyn Scheduler,
        &Standalone,
        &NnBaton { start: 0 },
    ] {
        let result = scheduler.schedule(&session, &req).unwrap();
        let json = serde_json::to_string(&result).unwrap();
        let back: ScheduleResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result, "{}", scheduler.name());
        // report accessors survive the round trip
        assert_eq!(back.window_latencies(), result.window_latencies());
        assert_eq!(back.pareto_front(), result.pareto_front());
        assert_eq!(back.model_completion_s(0), result.model_completion_s(0));

        let artifact = ScheduleArtifact::of("integration", scheduler, req.clone(), result.clone());
        let back = ScheduleArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact, "{} artifact", scheduler.name());
    }
}

/// Scheduler *configuration* round-trips through artifacts: `of` records
/// the answering scheduler's structural knobs, they survive JSON, and the
/// registry rebuilds a scheduler that fingerprints identically to the
/// recorded one — the guarantee replay's exactness gate stands on.
#[test]
fn scheduler_config_roundtrips_through_artifacts() {
    use scar::core::{SchedulerConfig, SearchKind};
    use scar::serve::{fingerprint, PolicyRegistry, ServeConfig};

    let sc = Scenario::datacenter(1);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let session = Session::new();
    let req = request(&sc, &mcm, OptMetric::Edp);

    // a non-default SCAR: nsplits 2 (the registry default is 1)
    let scar = Scar::builder().nsplits(2).build();
    assert_eq!(
        scar.config(),
        SchedulerConfig {
            nsplits: Some(2),
            search: Some(SearchKind::BruteForce),
        }
    );
    let result = scar.schedule(&session, &req).unwrap();
    let artifact = ScheduleArtifact::of("roundtrip", &scar, req.clone(), result);
    assert_eq!(artifact.scheduler, "SCAR");
    assert_eq!(artifact.scheduler_config, scar.config());

    // JSON round trip preserves the configuration
    let back = ScheduleArtifact::from_json(&artifact.to_json()).unwrap();
    assert_eq!(back, artifact);
    assert_eq!(back.scheduler_config.nsplits, Some(2));

    // the registry reconstructs a scheduler with the recorded knobs that
    // fingerprints identically to the original (cache-interchangeable)
    let cfg = ServeConfig {
        nsplits: back.scheduler_config.nsplits.unwrap(),
        search: back.scheduler_config.search.clone().unwrap(),
        ..ServeConfig::default()
    };
    let rebuilt = PolicyRegistry::with_builtins()
        .build(&back.scheduler, &cfg)
        .unwrap();
    assert_eq!(
        fingerprint(&req, rebuilt.as_ref()),
        fingerprint(&req, &scar),
        "reconstructed configuration must fingerprint like the recorded one"
    );

    // baselines record the empty configuration
    assert_eq!(Standalone::new().config(), SchedulerConfig::default());
}

/// The serving loop's incremental path is exposed through the trait:
/// `reschedule` accepts a prior instance for a batch-resized request and
/// declines a structurally different one; the baselines always decline.
#[test]
fn reschedule_contract_across_schedulers() {
    let mcm = het_sides_3x3(Profile::Datacenter);
    let sc = Scenario::datacenter(1);
    let session = Session::new();
    let req = request(&sc, &mcm, OptMetric::Edp);

    let scar = Scar::with_defaults();
    assert!(scar.supports_reschedule());
    let first = scar.schedule(&session, &req).unwrap();

    // same models, doubled batches: the old placement still validates
    let resized = Scenario::new(
        "resized",
        sc.use_case(),
        sc.models()
            .iter()
            .map(|m| scar::workloads::ScenarioModel {
                model: m.model.clone(),
                batch: m.batch * 2,
            })
            .collect(),
    );
    let resized_req = request(&resized, &mcm, OptMetric::Edp);
    let seeded = scar
        .reschedule(&session, &resized_req, first.schedule())
        .expect("batch-only change reuses the placement");
    assert_eq!(seeded.schedule(), first.schedule());
    assert!(seeded.total().latency_s > 0.0);

    // a different scenario shape must be declined
    let other = Scenario::datacenter(4);
    let other_req = request(&other, &mcm, OptMetric::Edp);
    assert!(scar
        .reschedule(&session, &other_req, first.schedule())
        .is_none());

    // search-free baselines never reschedule
    for s in [&Standalone as &dyn Scheduler, &NnBaton { start: 0 }] {
        assert!(!s.supports_reschedule(), "{}", s.name());
        assert!(s
            .reschedule(&session, &resized_req, first.schedule())
            .is_none());
    }
}

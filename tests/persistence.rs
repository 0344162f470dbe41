//! Integration tests for cost-database persistence, the policy registry,
//! and artifact replay: the three layers that make a cold start free.
//!
//! * a cost snapshot saved by one session and loaded into a *fresh* one
//!   must schedule bit-identically at zero MAESTRO evaluations;
//! * corrupted / version-mismatched / wrong-model snapshots are rejected
//!   whole, with errors naming the mismatch;
//! * registry-built schedulers are stable: the same name under the same
//!   config fingerprints identically across constructions (the property
//!   persisted fingerprints rely on);
//! * a replayed artifact reproduces its recording exactly under the
//!   unchanged cost model.

use scar::core::{OptMetric, Scar, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::workloads::Scenario;
use std::path::PathBuf;

/// Hermetic temp path per test (tests run concurrently in one binary).
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scar_persistence_{name}.json"))
}

fn quick() -> SearchBudget {
    SearchBudget {
        max_root_perms: 8,
        max_paths_per_model: 4,
        max_placements_per_window: 60,
        max_candidates_per_window: 120,
        ..SearchBudget::default()
    }
}

fn request() -> ScheduleRequest {
    ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
        .metric(OptMetric::Edp)
        .budget(quick())
}

/// The headline acceptance path: save → fresh session → load → schedule.
/// The restored session must produce a bit-identical `ScheduleResult`
/// while performing zero cost-model evaluations.
#[test]
fn snapshot_roundtrip_is_bit_identical_and_free() {
    let path = temp("roundtrip");
    let scar = Scar::with_defaults();
    let req = request();

    let donor = Session::new();
    let recorded = scar.schedule(&donor, &req).expect("feasible");
    assert!(donor.cost_evaluations() > 0, "cold run pays the model");
    donor.save_costs(&path).expect("snapshot writes");

    let restored = Session::open(&path).expect("snapshot loads");
    assert_eq!(restored.cached_costs(), donor.cached_costs());
    assert_eq!(restored.cost_evaluations(), 0);
    let replayed = scar.schedule(&restored, &req).expect("still feasible");
    assert_eq!(replayed, recorded, "restored costs must change nothing");
    assert_eq!(
        restored.cost_evaluations(),
        0,
        "a covered schedule run must never invoke MAESTRO"
    );
    std::fs::remove_file(&path).ok();
}

/// Snapshot bytes are deterministic: two sessions that computed the same
/// entries save byte-identical files (diffable CI artifacts).
#[test]
fn snapshot_bytes_are_reproducible_across_sessions() {
    let (a, b) = (temp("bytes_a"), temp("bytes_b"));
    for (path, _) in [(&a, 0), (&b, 1)] {
        let session = Session::new();
        session.warm_up(&request());
        session.save_costs(path).unwrap();
    }
    let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(ba, bb);
}

#[test]
fn corrupted_and_mismatched_snapshots_are_rejected() {
    use scar::maestro::{SnapshotError, SNAPSHOT_FORMAT_VERSION};
    let path = temp("reject");

    // truncated / non-JSON file
    std::fs::write(&path, "{ \"format\": \"scar-maestro-cost-db\", ").unwrap();
    let err = Session::open(&path).expect_err("corrupt file must be rejected");
    assert!(
        matches!(err, SnapshotError::Malformed(_)),
        "got {err}: {err:?}"
    );

    // version bump
    let donor = Session::new();
    donor.warm_up(&request());
    donor.save_costs(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replace(
            &format!("\"format_version\": {SNAPSHOT_FORMAT_VERSION}"),
            "\"format_version\": 999",
        ),
    )
    .unwrap();
    let err = Session::open(&path).expect_err("future version must be rejected");
    match err {
        SnapshotError::VersionMismatch { found, expected } => {
            assert_eq!(found, 999);
            assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    assert!(
        err.to_string().contains("999"),
        "the error must name the found version"
    );

    // wrong cost model: flip a fingerprint bit
    let real = format!("{:#018x}", scar::maestro::cost_model_fingerprint());
    let fake = format!("{:#018x}", scar::maestro::cost_model_fingerprint() ^ 0xff);
    std::fs::write(&path, text.replace(&real, &fake)).unwrap();
    let err = Session::open(&path).expect_err("foreign model must be rejected");
    assert!(
        matches!(err, SnapshotError::CostModelMismatch { .. }),
        "got {err}"
    );
    // rejection is total: nothing was absorbed into a session that tried
    let partial = Session::new();
    assert!(partial.load_costs(&path).is_err());
    assert_eq!(partial.cached_costs(), 0);
    std::fs::remove_file(&path).ok();
}

/// Registry round-trip: name → scheduler → `fingerprint_config` stable.
/// Schedulers built twice from one name/config pair must be cache-key
/// interchangeable, and every registered name must actually schedule.
#[test]
fn registry_builds_stable_interchangeable_schedulers() {
    use scar::serve::{fingerprint, PolicyRegistry, ServeConfig};
    let registry = PolicyRegistry::with_builtins();
    let cfg = ServeConfig::default();
    let req = request();
    let session = Session::new();
    for name in registry.names() {
        let a = registry.build(name, &cfg).unwrap();
        let b = registry.build(name, &cfg).unwrap();
        assert_eq!(a.name(), b.name(), "{name}");
        assert_eq!(
            fingerprint(&req, a.as_ref()),
            fingerprint(&req, b.as_ref()),
            "{name}: rebuilt scheduler must fingerprint identically"
        );
        let ra = a.schedule(&session, &req).unwrap();
        let rb = b.schedule(&session, &req).unwrap();
        assert_eq!(
            ra, rb,
            "{name}: rebuilt scheduler must schedule identically"
        );
    }
}

/// Artifact → registry → replay: the recorded result reproduces exactly,
/// warm or cold — and a warm (snapshot-loaded) replay does it for free.
#[test]
fn replay_reproduces_recordings_at_zero_cost() {
    use scar::serve::{PolicyRegistry, ServeConfig};
    let registry = PolicyRegistry::with_builtins();
    let cfg = ServeConfig::default();
    let scheduler = registry.build("SCAR", &cfg).unwrap();
    let req = request();

    let donor = Session::new();
    let result = scheduler.schedule(&donor, &req).unwrap();
    let artifact = scar::core::ScheduleArtifact::of("round", scheduler.as_ref(), req, result);
    let artifact_path = temp("replay_artifact");
    let snapshot_path = temp("replay_costs");
    scar::core::ScheduleArtifact::save_all(&artifact_path, std::slice::from_ref(&artifact))
        .unwrap();
    donor.save_costs(&snapshot_path).unwrap();

    let warm = Session::open(&snapshot_path).unwrap();
    let loaded = scar::core::ScheduleArtifact::load_all(&artifact_path).unwrap();
    let rebuilt = registry.build(&loaded[0].scheduler, &cfg).unwrap();
    let replayed = rebuilt.schedule(&warm, &loaded[0].request).unwrap();
    std::fs::remove_file(&artifact_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
    assert_eq!(replayed, loaded[0].result, "replay must be exact");
    assert_eq!(warm.cost_evaluations(), 0, "and free under the snapshot");
}

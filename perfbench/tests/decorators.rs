//! The timing decorators must be invisible to the program they measure:
//! same cache keys, same decisions, byte-identical reports.

use scar_core::{ScheduleRequest, Scheduler};
use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_perfbench::decor::{TimedAdmission, TimedScheduler};
use scar_perfbench::workloads::{burst_mix, overload_config, serve, Logs};
use scar_serve::{fingerprint, AdmissionKind, AdmissionPolicy, PolicyRegistry};
use scar_workloads::Scenario;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Virtual seconds of the `serve_overload` prefix the tests serve.
const PREFIX_S: f64 = 1.5;

#[test]
fn decorated_overload_prefix_renders_an_identical_report() {
    let mcm = het_sides_3x3(Profile::ArVr);
    let mix = burst_mix(7);
    let arrivals = mix.arrivals(PREFIX_S);
    let offered = arrivals.len();

    let (plain, _, _) =
        serve(&mcm, &mix, arrivals.clone(), overload_config(), None).expect("serves");
    let logs = Logs::default();
    let (decorated, _, _) =
        serve(&mcm, &mix, arrivals, overload_config(), Some(&logs)).expect("serves");

    assert_eq!(decorated.to_string(), plain.to_string());
    assert_eq!(decorated, plain);

    // the prefix exercises every decorated entry point the sim uses
    let sched = logs.sched.borrow();
    assert!(plain.preemptions > 0, "the burst prefix must splice");
    // every round is a cache hit, a full search, an incremental
    // reschedule, or a splice answered by `Scheduler::preempt`
    let preempt_calls = plain.windows_scheduled as u64
        - plain.cache.hits
        - plain.full_searches
        - plain.incremental_reschedules;
    assert!(preempt_calls > 0);
    assert_eq!(sched.preempt_s.len() as u64, preempt_calls);
    assert_eq!(sched.full_s.len() as u64, plain.full_searches);
    let admission = logs.admission.borrow();
    assert_eq!(admission.decide_ns.len(), offered);
}

#[test]
fn decorated_scheduler_keeps_every_cache_key() {
    let cfg = overload_config();
    let registry = PolicyRegistry::with_builtins();
    let request = ScheduleRequest::new(Scenario::arvr(6), het_sides_3x3(Profile::ArVr));
    for name in ["SCAR", "Standalone", "NN-baton"] {
        let plain = registry.build(name, &cfg).expect("built-in");
        let timed =
            TimedScheduler::new(registry.build(name, &cfg).expect("built-in"), Rc::default());
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.config(), plain.config());
        assert_eq!(timed.supports_reschedule(), plain.supports_reschedule());
        assert_eq!(
            fingerprint(&request, &timed),
            fingerprint(&request, plain.as_ref())
        );
    }
}

#[test]
fn decorated_admission_keeps_its_fingerprint() {
    for kind in [
        AdmissionKind::AcceptAll,
        AdmissionKind::DeadlineFeasible,
        AdmissionKind::LoadShed { max_queue: 3 },
    ] {
        let plain = kind.policy();
        let timed = TimedAdmission::new(kind.policy(), Rc::default());
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.wants_cost_probe(), plain.wants_cost_probe());
        let key = |p: &dyn AdmissionPolicy| {
            let mut h = DefaultHasher::new();
            p.name().hash(&mut h);
            p.fingerprint_config(&mut h);
            h.finish()
        };
        assert_eq!(key(&timed), key(plain.as_ref()));
    }
}

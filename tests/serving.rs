//! Integration tests for the serving simulator: end-to-end determinism,
//! cache correctness against fresh scheduling, generated-scenario serving,
//! and cross-use-case behavior on real MCM templates.

use scar::core::{OptMetric, Scar, ScheduleRequest, Scheduler, Session};
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{fingerprint, PolicyRegistry, ServeConfig, ServeSim, TrafficMix};
use scar::workloads::scenario::generate;
use scar::workloads::UseCase;

/// Fixed seed → two fresh simulators produce byte-identical reports
/// (percentile metrics, energy, makespan, and cache counters included).
#[test]
fn serving_is_deterministic_end_to_end() {
    let mcm = het_sides_3x3(Profile::ArVr);
    let run = || {
        let mut sim = ServeSim::with_defaults(&mcm);
        sim.run(&TrafficMix::arvr(41), 0.4).expect("mix fits")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.cache.hits > 0, "recurring frames must hit: {:?}", a.cache);
    // and the report is internally consistent
    assert_eq!(a.completed, TrafficMix::arvr(41).arrivals(0.4).len());
    assert_eq!(
        a.per_stream.iter().map(|s| s.completed).sum::<usize>(),
        a.completed
    );
    assert_eq!(
        a.per_stream
            .iter()
            .map(|s| s.deadline_misses)
            .sum::<usize>(),
        a.deadline_misses
    );
}

/// The datacenter mix is deterministic too (Poisson arrivals are seeded).
#[test]
fn poisson_serving_is_deterministic() {
    let mcm = het_sides_3x3(Profile::Datacenter);
    let run = || {
        let mut sim = ServeSim::with_defaults(&mcm);
        sim.run(&TrafficMix::datacenter(7), 0.5).expect("mix fits")
    };
    assert_eq!(run(), run());
}

/// A cached schedule must be indistinguishable from a fresh
/// `Scar::schedule` of the same live scenario: identical totals, window
/// structure, and per-model completion offsets.
#[test]
fn cached_schedule_matches_fresh_schedule() {
    let mcm = het_sides_3x3(Profile::Datacenter);
    let cfg = ServeConfig::default();
    let sim = ServeSim::new(&mcm, cfg.clone());

    // live scenarios the serving loop would form
    for seed in [1u64, 2, 3] {
        let live = generate(seed, UseCase::Datacenter, 2);
        let via_sim = sim.schedule_fresh(&live).expect("schedulable");
        let fresh = Scar::builder()
            .nsplits(cfg.nsplits)
            .search(cfg.search.clone())
            .build()
            .schedule(
                &Session::new(),
                &ScheduleRequest::new(live.clone(), mcm.clone())
                    .metric(cfg.metric.clone())
                    .budget(cfg.budget.clone()),
            )
            .expect("schedulable");
        assert_eq!(via_sim.total(), fresh.total(), "seed {seed}");
        assert_eq!(via_sim.schedule(), fresh.schedule(), "seed {seed}");
        assert_eq!(via_sim.window_latencies(), fresh.window_latencies());
        for m in 0..live.models().len() {
            assert_eq!(via_sim.model_completion_s(m), fresh.model_completion_s(m));
        }
    }
}

/// Serving with the cache on and off yields identical metrics — the cache
/// changes cost, never outcomes.
///
/// Incremental rescheduling is disabled here to isolate the cache: the
/// incremental path is a deliberate quality/cost trade whose decisions are
/// keyed to the *previous* round, so combined with a cache (which
/// remembers rounds arbitrarily far back) the two features together do
/// not promise cache-on/off equality — only determinism (the same config
/// and mix always reproduce the same report).
#[test]
fn cache_does_not_change_serving_outcomes() {
    let mcm = het_sides_3x3(Profile::ArVr);
    let run = |use_cache: bool| {
        let mut sim = ServeSim::new(
            &mcm,
            ServeConfig {
                use_cache,
                incremental: false,
                ..ServeConfig::default()
            },
        );
        sim.run(&TrafficMix::arvr(5), 0.3).expect("mix fits")
    };
    let cached = run(true);
    let uncached = run(false);
    assert_eq!(cached.latency, uncached.latency);
    assert_eq!(cached.makespan_s, uncached.makespan_s);
    assert_eq!(cached.energy_j, uncached.energy_j);
    assert_eq!(cached.deadline_misses, uncached.deadline_misses);
    assert!(cached.cache.hits > 0);
    assert_eq!(uncached.cache.hits, 0);
    assert_eq!(uncached.cache.misses, 0);
}

/// Identical live scenarios fingerprint identically across construction
/// sites; different batches do not.
#[test]
fn fingerprints_agree_across_equal_scenarios() {
    let mcm = het_sides_3x3(Profile::Datacenter);
    let scar = Scar::builder().nsplits(1).build();
    let key = |sc: &scar::workloads::Scenario| {
        fingerprint(
            &ScheduleRequest::new(sc.clone(), mcm.clone()).metric(OptMetric::Edp),
            &scar,
        )
    };
    let a = generate(10, UseCase::Datacenter, 3);
    let b = generate(10, UseCase::Datacenter, 3);
    assert_eq!(key(&a), key(&b));
    let c = generate(11, UseCase::Datacenter, 3);
    assert_ne!(
        key(&a),
        key(&c),
        "different batches/models must not collide"
    );
}

/// Generated scenarios can be served, not just scheduled: wire a generated
/// scenario's models into streams and run the loop.
#[test]
fn generated_scenarios_serve() {
    use scar::serve::{ArrivalProcess, RequestStream};
    let mcm = het_sides_3x3(Profile::Datacenter);
    let sc = generate(99, UseCase::Datacenter, 3);
    let streams = sc
        .models()
        .iter()
        .map(|sm| RequestStream {
            model: sm.model.clone(),
            samples_per_request: sm.batch,
            arrivals: ArrivalProcess::Poisson { rate_hz: 20.0 },
            deadline_s: None,
        })
        .collect();
    let mix = TrafficMix::new("generated", UseCase::Datacenter, streams, 99);
    let mut sim = ServeSim::with_defaults(&mcm);
    let report = sim.run(&mix, 0.2).expect("three tenants fit");
    assert_eq!(report.completed, mix.arrivals(0.2).len());
    assert!(report.completed > 0);
    assert!(report.energy_j > 0.0);
}

/// All three serving policies drain the same traffic; SCAR never loses to
/// Standalone on deadline misses for the default AR/VR mix.
#[test]
fn policies_complete_identical_traffic() {
    let mcm = het_sides_3x3(Profile::ArVr);
    let mix = TrafficMix::arvr(6);
    let offered = mix.arrivals(0.2).len();
    let mut miss_rates = Vec::new();
    let registry = PolicyRegistry::with_builtins();
    for policy in ["SCAR", "Standalone", "NN-baton"] {
        let cfg = ServeConfig::default();
        let scheduler = registry.build(policy, &cfg).expect("built-in policy");
        let mut sim = ServeSim::with_scheduler(&mcm, scheduler, cfg);
        let r = sim.run(&mix, 0.2).expect("policy serves the mix");
        assert_eq!(r.completed, offered, "{policy} must drain the queue");
        miss_rates.push((policy, r.deadline_miss_rate()));
    }
    let scar_rate = miss_rates[0].1;
    let standalone_rate = miss_rates[1].1;
    assert!(
        scar_rate <= standalone_rate + 1e-12,
        "SCAR miss rate {scar_rate} vs Standalone {standalone_rate}"
    );
}

//! Serving-layer invariants: seeded sweeps locking down mid-window
//! preemption, admission control, and the burst/diurnal traffic shapes.
//!
//! The search engine has had determinism guarantees since the
//! generation/evaluation split (`tests/determinism.rs`); this suite gives
//! the *serving* layer the same treatment:
//!
//! * **Conservation of arrivals** — preemption splices rounds apart and
//!   resplices remainders, admission rejects at the front door; through
//!   all of it, every offered request is accounted exactly once:
//!   `offered == completed + rejected`, per stream and in total.
//! * **Parallelism-independence** — splice-then-reschedule decisions
//!   depend only on evaluated schedules and arrival times, so `Serial`
//!   and `Fixed(4)` candidate evaluation produce bit-identical reports
//!   even under preemption.
//! * **No-regression** — the accept-all/no-preemption defaults reproduce
//!   the pre-overload serving loop: nothing rejected, nothing spliced,
//!   and a default-configured simulator reports byte-for-byte what an
//!   explicitly accept-all one does on the existing mixes.
//! * **Overload acceptance** — on the burst AR/VR mix, preemption
//!   strictly reduces deadline misses and stays within the committed
//!   miss budget.
//! * **Traffic envelopes** — the burst and diurnal generators are
//!   deterministic per seed, distinct across seeds, in-horizon, and
//!   respect their configured rate envelopes.

use scar::core::{ScheduleError, ScheduleRequest, ScheduleResult, Scheduler, Session};
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{AdmissionKind, ServeConfig, ServeSim, TrafficMix, TrafficShape};
use scar::workloads::UseCase;

fn arvr_mcm() -> scar::mcm::McmConfig {
    het_sides_3x3(Profile::ArVr)
}

/// A config that actually exercises the splice machinery: preemption on,
/// multi-window rounds (nsplits = 2).
fn preempt_cfg() -> ServeConfig {
    ServeConfig {
        preemption: true,
        nsplits: 2,
        ..ServeConfig::default()
    }
}

/// (a) Conservation of arrivals under preemption and admission, swept
/// over seeds and policies: no request is ever lost or duplicated, no
/// matter how many rounds are spliced apart or arrivals shed.
#[test]
fn preemption_and_admission_conserve_requests() {
    let mcm = arvr_mcm();
    let mut preemptions_total = 0u64;
    let mut rejections_total = 0usize;
    for seed in [1u64, 7, 42] {
        let mix = TrafficMix::arvr(seed).reshaped(TrafficShape::Burst);
        let offered = mix.arrivals(0.2).len();
        for admission in [
            AdmissionKind::AcceptAll,
            AdmissionKind::DeadlineFeasible,
            AdmissionKind::LoadShed { max_queue: 2 },
        ] {
            let cfg = ServeConfig {
                admission,
                ..preempt_cfg()
            };
            let mut sim = ServeSim::new(&mcm, cfg);
            let r = sim.run(&mix, 0.2).unwrap();
            let label = format!("seed {seed}, {admission:?}");
            assert_eq!(r.offered, offered, "{label}");
            assert_eq!(
                r.completed + r.rejected,
                r.offered,
                "{label}: conservation of arrivals"
            );
            assert_eq!(
                r.per_stream
                    .iter()
                    .map(|s| s.completed + s.rejected)
                    .sum::<usize>(),
                r.offered,
                "{label}: per-stream conservation"
            );
            assert_eq!(r.latency.count, r.completed, "{label}: one latency each");
            preemptions_total += r.preemptions;
            rejections_total += r.rejected;
        }
    }
    // the sweep must actually exercise both mechanisms, or it proves nothing
    assert!(preemptions_total > 0, "no sweep case ever spliced");
    assert!(rejections_total > 0, "no sweep case ever rejected");
}

/// (b) Splice-then-reschedule is bit-identical across candidate-evaluation
/// parallelism: the engine merges in generation order, and splice points
/// are pure functions of (schedule, arrivals).
#[test]
fn preemptive_serving_is_parallelism_independent() {
    use scar::core::Parallelism;
    let mcm = arvr_mcm();
    let mix = TrafficMix::arvr(9).reshaped(TrafficShape::Burst);
    let run = |parallelism: Parallelism| {
        let cfg = ServeConfig {
            parallelism,
            ..preempt_cfg()
        };
        ServeSim::new(&mcm, cfg).run(&mix, 0.2).unwrap()
    };
    let serial = run(Parallelism::Serial);
    assert!(
        serial.preemptions > 0,
        "the mix must splice to test anything"
    );
    let fixed4 = run(Parallelism::Fixed(4));
    assert_eq!(serial, fixed4, "Serial vs Fixed(4) under preemption");
}

/// (c) The no-regression gate: the default configuration *is* the
/// pre-overload serving loop. Accept-all admission with preemption off is
/// the default, rejects nothing, splices nothing, and a default-config
/// simulator reproduces an explicitly-configured one byte-for-byte on
/// both existing mixes.
#[test]
fn accept_all_defaults_reproduce_the_pre_overload_loop() {
    let default = ServeConfig::default();
    assert_eq!(default.admission, AdmissionKind::AcceptAll);
    assert!(!default.preemption, "preemption must be opt-in");

    for (profile, mix, horizon) in [
        (Profile::ArVr, TrafficMix::arvr(5), 0.15),
        (Profile::Datacenter, TrafficMix::datacenter(5), 0.15),
    ] {
        let mcm = het_sides_3x3(profile);
        let mut plain = ServeSim::with_defaults(&mcm);
        let r = plain.run(&mix, horizon).unwrap();
        assert_eq!(r.rejected, 0, "{}: accept-all rejects nothing", mix.name);
        assert_eq!(r.preemptions, 0, "{}: nothing splices", mix.name);
        assert_eq!(
            r.completed, r.offered,
            "{}: every offered request completes",
            mix.name
        );
        // explicit accept-all + preemption off ≡ the default, bit for bit
        let explicit_cfg = ServeConfig {
            admission: AdmissionKind::AcceptAll,
            preemption: false,
            ..ServeConfig::default()
        };
        let mut explicit = ServeSim::new(&mcm, explicit_cfg);
        let e = explicit.run(&mix, horizon).unwrap();
        assert_eq!(r, e, "{}: defaults must be byte-identical", mix.name);
    }
}

/// The serving loop routes post-splice rounds through the
/// `Scheduler::preempt` trait entry (not plain `schedule`): a wrapper
/// scheduler observes exactly one preempt call per counted splice (the
/// preempt-result cache can only elide *repeat* splices, and every splice
/// in this mix is distinct), and delegating to the inner scheduler's
/// preempt keeps the wrapper bit-identical to SCAR's splice-aware
/// fast path.
#[test]
fn splices_route_through_the_preempt_trait_entry() {
    use std::cell::Cell;
    use std::rc::Rc;

    struct CountingScar {
        inner: scar::core::Scar,
        preempts: Rc<Cell<u64>>,
    }
    impl Scheduler for CountingScar {
        fn name(&self) -> &str {
            // the inner name keeps fingerprints/cache behavior identical
            self.inner.name()
        }
        fn schedule(
            &self,
            session: &Session,
            request: &ScheduleRequest,
        ) -> Result<ScheduleResult, ScheduleError> {
            self.inner.schedule(session, request)
        }
        fn supports_reschedule(&self) -> bool {
            self.inner.supports_reschedule()
        }
        fn reschedule(
            &self,
            session: &Session,
            request: &ScheduleRequest,
            seed: &scar::core::ScheduleInstance,
        ) -> Option<ScheduleResult> {
            self.inner.reschedule(session, request, seed)
        }
        fn preempt(
            &self,
            session: &Session,
            request: &ScheduleRequest,
            in_flight: &scar::core::ScheduleInstance,
        ) -> Result<ScheduleResult, ScheduleError> {
            self.preempts.set(self.preempts.get() + 1);
            self.inner.preempt(session, request, in_flight)
        }
        fn fingerprint_config(&self, state: &mut dyn std::hash::Hasher) {
            self.inner.fingerprint_config(state);
        }
    }

    let mcm = arvr_mcm();
    let mix = TrafficMix::arvr(7).reshaped(TrafficShape::Burst);
    let preempts = Rc::new(Cell::new(0u64));
    let wrapper = CountingScar {
        inner: scar::core::Scar::builder().nsplits(2).build(),
        preempts: Rc::clone(&preempts),
    };
    let mut sim = ServeSim::with_scheduler(&mcm, Box::new(wrapper), preempt_cfg());
    let report = sim.run(&mix, 0.2).unwrap();
    assert!(report.preemptions > 0, "the mix must splice");
    assert_eq!(
        preempts.get(),
        report.preemptions,
        "every counted splice issues exactly one Scheduler::preempt call"
    );

    // and the wrapper (whose preempt delegates to SCAR's) serves
    // bit-identically to bare SCAR under the same config
    let mut bare = ServeSim::new(&mcm, preempt_cfg());
    let b = bare.run(&mix, 0.2).unwrap();
    assert_eq!(report, b, "delegating wrapper ≡ bare SCAR");
}

/// Requests offered by the burst-overload configuration below (pinned by
/// its seed) and the committed preemption-on miss budget: 241 of 356
/// (miss rate 0.676966) at the time the splice fast path landed.
const BURST_OVERLOAD_OFFERED: usize = 356;
const BURST_OVERLOAD_MISS_BUDGET: usize = 241;

/// The overload acceptance: on a Markov-modulated burst reshaping of the
/// AR/VR frame mix (every request deadline-bound at its frame period),
/// served for 2 s on Het-Sides with two window splits and accept-all
/// admission, mid-window preemption splices rounds, conserves requests,
/// *strictly* reduces deadline misses against boundary-only rescheduling,
/// and stays within the committed miss budget. Virtual time makes the
/// counts exact, so a regression in the splice fast path shows up as a
/// higher count, not as noise.
#[test]
fn preemption_strictly_reduces_misses_on_the_burst_overload_mix() {
    let mcm = arvr_mcm();
    let mix = TrafficMix::arvr(0x0B57).reshaped(TrafficShape::Burst);
    let run = |preemption: bool| {
        let cfg = ServeConfig {
            preemption,
            ..preempt_cfg()
        };
        ServeSim::new(&mcm, cfg).run(&mix, 2.0).unwrap()
    };
    let off = run(false);
    let on = run(true);

    for r in [&off, &on] {
        assert_eq!(r.offered, BURST_OVERLOAD_OFFERED, "the mix is pinned");
        assert_eq!(r.completed + r.rejected, r.offered, "conservation");
    }
    assert_eq!(off.preemptions, 0, "preemption off must not splice");
    assert!(on.preemptions > 0, "burst traffic must trigger splices");
    assert!(
        on.deadline_misses < off.deadline_misses,
        "preemption must strictly reduce deadline misses ({} vs {})",
        on.deadline_misses,
        off.deadline_misses
    );
    assert!(
        on.deadline_misses <= BURST_OVERLOAD_MISS_BUDGET,
        "preemption misses {} of {} regressed past the committed {BURST_OVERLOAD_MISS_BUDGET}",
        on.deadline_misses,
        on.offered
    );
}

/// (d) Burst generators: deterministic per seed, distinct across seeds,
/// in-horizon, and inside the rate envelope (never below zero offered,
/// never above the on-rate ceiling; near the duty-cycled mean over a
/// long horizon).
#[test]
fn burst_arrivals_are_deterministic_and_rate_enveloped() {
    let horizon = 20.0;
    let mix = |seed: u64| {
        TrafficMix::new(
            "burst-envelope",
            UseCase::Datacenter,
            vec![scar::serve::RequestStream {
                model: scar::workloads::zoo::resnet50(),
                samples_per_request: 1,
                arrivals: scar::serve::ArrivalProcess::Burst {
                    burst_rate_hz: 120.0,
                    mean_on_s: 0.05,
                    mean_off_s: 0.15,
                },
                deadline_s: None,
            }],
            seed,
        )
    };
    // determinism per seed
    let a = mix(3).arrivals(horizon);
    let b = mix(3).arrivals(horizon);
    assert_eq!(a.len(), b.len());
    assert!(a
        .iter()
        .zip(&b)
        .all(|(x, y)| x.arrival_s == y.arrival_s && x.id == y.id));
    // distinct across seeds
    let c = mix(4).arrivals(horizon);
    assert!(a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.arrival_s != y.arrival_s));
    // in-horizon, sorted, sequentially identified
    for (i, r) in a.iter().enumerate() {
        assert!((0.0..horizon).contains(&r.arrival_s));
        assert_eq!(r.id, i as u64);
    }
    // rate envelope: mean = 120 * 0.05/0.20 = 30 req/s; the ceiling is
    // the on-rate itself. Long-horizon count must sit well inside.
    let mean = mix(3).offered_rps();
    assert!((mean - 30.0).abs() < 1e-9);
    let n = a.len() as f64;
    assert!(n < 120.0 * horizon, "cannot exceed the on-rate ceiling");
    assert!(
        (0.5..=1.8).contains(&(n / (mean * horizon))),
        "empirical rate {} vs mean envelope {}",
        n / horizon,
        mean
    );
}

/// (d) Diurnal generators: deterministic per seed, in-horizon, rate near
/// the base over whole periods, and actually *modulated* — peak-phase
/// windows strictly busier than trough-phase windows.
#[test]
fn diurnal_arrivals_are_deterministic_and_modulated() {
    let horizon = 20.0;
    let period = 2.0;
    let mix = |seed: u64| {
        TrafficMix::new(
            "diurnal-envelope",
            UseCase::Datacenter,
            vec![scar::serve::RequestStream {
                model: scar::workloads::zoo::resnet50(),
                samples_per_request: 1,
                arrivals: scar::serve::ArrivalProcess::Diurnal {
                    base_hz: 40.0,
                    amplitude: 0.9,
                    period_s: period,
                },
                deadline_s: None,
            }],
            seed,
        )
    };
    let a = mix(11).arrivals(horizon);
    let b = mix(11).arrivals(horizon);
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.arrival_s == y.arrival_s));
    for r in &a {
        assert!((0.0..horizon).contains(&r.arrival_s));
    }
    // whole-period mean: λ averages to base_hz over [0, 20] = 10 periods
    let n = a.len() as f64;
    assert!(
        (0.6..=1.4).contains(&(n / (40.0 * horizon))),
        "empirical rate {} vs base 40",
        n / horizon
    );
    // modulation: sin > 0 half-periods (peaks) must out-arrive sin < 0
    // half-periods (troughs) decisively at amplitude 0.9
    let (mut peak, mut trough) = (0usize, 0usize);
    for r in &a {
        let phase = (r.arrival_s / period).fract();
        if phase < 0.5 {
            peak += 1;
        } else {
            trough += 1;
        }
    }
    assert!(
        peak > trough * 2,
        "peak halves ({peak}) must dominate trough halves ({trough})"
    );
    // amplitude 0 degenerates to plain Poisson determinism
    let flat = TrafficMix::new(
        "flat",
        UseCase::Datacenter,
        vec![scar::serve::RequestStream {
            model: scar::workloads::zoo::resnet50(),
            samples_per_request: 1,
            arrivals: scar::serve::ArrivalProcess::Diurnal {
                base_hz: 40.0,
                amplitude: 0.0,
                period_s: period,
            },
            deadline_s: None,
        }],
        11,
    );
    let f = flat.arrivals(horizon);
    assert!((0.7..=1.3).contains(&(f.len() as f64 / (40.0 * horizon))));
}

/// Reshaping preserves the mean offered load and the deadlines while
/// changing only the arrival shape — the contract the burst-overload
/// acceptance above, perfbench's `serve_overload` workload, and the
/// serve-cache context rely on.
#[test]
fn reshaping_preserves_mean_rate_and_deadlines() {
    let native = TrafficMix::arvr(1);
    for shape in [
        TrafficShape::Poisson,
        TrafficShape::Burst,
        TrafficShape::Diurnal,
    ] {
        let reshaped = TrafficMix::arvr(1).reshaped(shape);
        assert!(
            (reshaped.offered_rps() - native.offered_rps()).abs() < 1e-9,
            "{shape}: mean offered load must be preserved"
        );
        for (n, r) in native.streams.iter().zip(&reshaped.streams) {
            assert_eq!(n.deadline_s, r.deadline_s, "{shape}: deadlines untouched");
        }
        // distinct shape fingerprints per family, stable across seeds
        assert_ne!(
            reshaped.shape_fingerprint(),
            native.shape_fingerprint(),
            "{shape} must not alias the native shape"
        );
        assert_eq!(
            reshaped.shape_fingerprint(),
            TrafficMix::arvr(999).reshaped(shape).shape_fingerprint(),
            "{shape}: seeds do not change the shape"
        );
    }
}

/// Golden pins on whole serving reports: a stable hash of each report's
/// `Debug` and `Display` text for five configurations that between them
/// take every path of the serving loop — cache hits, incremental and full
/// searches, splices through `Scheduler::preempt`, deadline admission,
/// load shedding, and the fleet. A refactor of the loop must leave all
/// ten values where they are; a deliberate change to what a report holds
/// or prints re-pins them and says so in the changelog.
#[test]
fn serving_reports_are_pinned() {
    use scar::hash::StableHasher;
    use scar::mcm::InterconnectSpec;
    use scar::serve::fleet::{DispatchKind, FleetConfig, FleetSim, ReplicaSpec};
    use std::hash::Hasher;

    fn pin(label: &str, kind: &str, text: &str, want: u64) {
        let mut h = StableHasher::new();
        h.write(text.as_bytes());
        let got = h.finish();
        assert_eq!(
            got, want,
            "{label}: {kind} hash moved to {got:#018x}; the text was:\n{text}"
        );
    }

    let arvr = arvr_mcm();
    let serve = |mcm: &scar::mcm::McmConfig, cfg: ServeConfig, mix: &TrafficMix, horizon: f64| {
        ServeSim::new(mcm, cfg).run(mix, horizon).unwrap()
    };
    let datacenter = het_sides_3x3(Profile::Datacenter);
    let cases = [
        (
            "1: arvr(1), defaults",
            serve(&arvr, ServeConfig::default(), &TrafficMix::arvr(1), 0.25),
            0xdac21935bf34f3df_u64,
            0x32ff6afe51293031_u64,
        ),
        (
            "2: burst arvr(7), preemption, deadline admission",
            serve(
                &arvr,
                ServeConfig {
                    admission: AdmissionKind::DeadlineFeasible,
                    ..preempt_cfg()
                },
                &TrafficMix::arvr(7).reshaped(TrafficShape::Burst),
                0.25,
            ),
            0xb60e714487e3ad74,
            0x3f0f9bdc6b1822bc,
        ),
        (
            "3: throttled arvr(3), load shedding",
            serve(
                &arvr,
                ServeConfig {
                    admission: AdmissionKind::LoadShed { max_queue: 1 },
                    ..ServeConfig::default()
                },
                &TrafficMix::arvr(3).throttled(3.0),
                0.1,
            ),
            0xde795c7a0e850eec,
            0xa667c16f8f586a50,
        ),
        (
            "4: datacenter(0x5CA2), cache off",
            serve(
                &datacenter,
                ServeConfig {
                    use_cache: false,
                    ..ServeConfig::default()
                },
                &TrafficMix::datacenter(0x5CA2),
                0.5,
            ),
            0x83dc4be01a80bd94,
            0x49a08414bee22d14,
        ),
    ];
    // the pins only guard the paths they actually take
    assert!(cases[1].1.preemptions > 0, "case 2 must splice");
    assert!(cases[2].1.rejected > 0, "case 3 must shed");
    assert!(
        cases[3].1.incremental_reschedules > 0 && cases[3].1.full_searches > 0,
        "case 4 must take both search paths"
    );
    for (label, report, debug, display) in &cases {
        pin(label, "Debug", &format!("{report:?}"), *debug);
        pin(label, "Display", &report.to_string(), *display);
    }

    let replicas = ReplicaSpec::heterogeneous(4, Profile::ArVr, ServeConfig::default())
        .into_iter()
        .map(|mut r| {
            r.mcm = r.mcm.with_interconnect(Some(InterconnectSpec::nop()));
            r
        })
        .collect();
    let fleet = FleetSim::new(
        replicas,
        FleetConfig {
            dispatch: DispatchKind::parse("affinity").unwrap(),
            ..FleetConfig::default()
        },
    )
    .run(&TrafficMix::arvr(11).reshaped(TrafficShape::Burst), 0.2)
    .unwrap();
    let label = "5: 4-replica affinity fleet on the nop fabric";
    pin(label, "Debug", &format!("{fleet:?}"), 0x7a5f6e22cfa5ef6a);
    pin(label, "Display", &fleet.to_string(), 0x60248f3e61992dd7);
}

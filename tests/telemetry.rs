//! Telemetry neutrality and trace-structure tests: tracing must observe
//! the serving loop without perturbing it.
//!
//! The contracts locked down here:
//!
//! * a traced run's [`ServeReport`] is identical — `PartialEq` and
//!   rendered bytes — to an untraced run's,
//! * tracing does not interact with evaluation parallelism: Serial and
//!   `Fixed(4)` traced runs report identically,
//! * the disabled handle is a true no-op (zero spans and events
//!   recorded), and a walls-only sink keeps phase walls but no timeline,
//! * an exported trace parses as Chrome `trace_event` JSON, carries the
//!   required phase spans, and attributes ≥95% of the root wall time.

use scar::core::Parallelism;
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{ServeConfig, ServeReport, ServeSim, TrafficMix, TrafficShape};
use scar::telemetry::{analyze_trace, Telemetry};

fn run_with(telemetry: Telemetry, parallelism: Parallelism) -> ServeReport {
    let mcm = het_sides_3x3(Profile::ArVr);
    let cfg = ServeConfig {
        telemetry,
        parallelism,
        preemption: true,
        nsplits: 2,
        ..ServeConfig::default()
    };
    let mut sim = ServeSim::new(&mcm, cfg);
    let mix = TrafficMix::arvr(41).reshaped(TrafficShape::Burst);
    sim.run(&mix, 0.4).expect("mix fits the 3x3")
}

/// Tracing on vs off: the report (struct and rendered bytes) must not
/// move by a single bit — telemetry is observational only.
#[test]
fn traced_report_is_byte_identical_to_untraced() {
    let untraced = run_with(Telemetry::disabled(), Parallelism::Auto);
    let traced = run_with(Telemetry::enabled(true, true), Parallelism::Auto);
    assert_eq!(untraced, traced);
    assert_eq!(untraced.to_string(), traced.to_string());
}

/// Tracing must not couple to the worker-pool size: spans are recorded
/// on the coordinating thread only, so Serial and Fixed(4) traced runs
/// stay bit-identical (the pre-telemetry determinism contract).
#[test]
fn traced_serial_and_fixed_parallelism_agree() {
    let serial = run_with(Telemetry::enabled(true, true), Parallelism::Serial);
    let fixed = run_with(Telemetry::enabled(true, true), Parallelism::Fixed(4));
    assert_eq!(serial, fixed);
    assert_eq!(serial.to_string(), fixed.to_string());
}

/// The disabled handle records nothing anywhere — the zero-cost claim,
/// asserted through the recorder counters.
#[test]
fn disabled_sink_records_nothing() {
    let tel = Telemetry::disabled();
    let report = run_with(tel.clone(), Parallelism::Auto);
    assert!(report.windows_scheduled > 0, "the run did real work");
    assert_eq!(tel.spans_recorded(), 0);
    assert!(!tel.is_enabled());
    assert_eq!(tel.trace_json(), None);
    assert_eq!(tel.wall_summary(), None);
}

/// A walls-only sink on the same run does record — the control for the
/// no-op test above: every span lands in the per-phase wall table, and
/// no timeline is kept.
#[test]
fn walls_only_sink_records_phase_walls_and_no_trace() {
    let tel = Telemetry::enabled(false, true);
    run_with(tel.clone(), Parallelism::Auto);
    assert!(tel.spans_recorded() > 0);
    let walls = tel.phase_wall();
    for phase in ["generation", "evaluation", "cache", "admission"] {
        let (_, w) = walls.iter().find(|(p, _)| *p == phase).unwrap();
        assert!(w.count > 0 && w.total_s > 0.0, "{phase}: {w:?}");
    }
    assert_eq!(tel.trace_json(), None);
    assert!(tel.wall_summary().unwrap().starts_with("phase wall: "));
}

/// The exported timeline is valid Chrome trace_event JSON with every
/// serving phase present, and ≥95% of the `serve.run` root wall time is
/// attributed to named phases — the acceptance bar for the trace being
/// useful, not decorative.
#[test]
fn trace_covers_the_serving_phases() {
    let tel = Telemetry::enabled(true, false);
    let report = run_with(tel.clone(), Parallelism::Auto);
    assert!(report.preemptions > 0, "burst mix must splice");
    let json = tel.trace_json().expect("tracing is on");
    let doc = serde::parse_value(&json).expect("trace is valid JSON");
    let analysis = analyze_trace(&doc, "serve.run").expect("trace analyzes");
    assert_eq!(analysis.roots, 1);
    assert!(
        analysis.missing_phases().is_empty(),
        "missing phases: {:?}",
        analysis.missing_phases()
    );
    assert!(
        analysis.coverage() >= 0.95,
        "only {:.1}% of root wall attributed",
        analysis.coverage() * 100.0
    );
}

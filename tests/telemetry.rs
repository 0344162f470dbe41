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
//!   required phase spans, and attributes ≥95% of the root wall time,
//! * a fleet serving replicas on several threads reports what a serial,
//!   untraced fleet reports, and its trace puts each thread's spans on a
//!   track of their own, where any two nest or are disjoint.

use scar::core::Parallelism;
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{
    DispatchKind, FleetConfig, FleetReport, FleetSim, ReplicaSpec, ServeConfig, ServeReport,
    ServeSim, TrafficMix, TrafficShape,
};
use scar::telemetry::{analyze_trace, Telemetry};
use serde::Value;

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

fn fleet_with(telemetry: Telemetry, parallelism: Parallelism) -> FleetReport {
    let replicas = ReplicaSpec::heterogeneous(4, Profile::ArVr, ServeConfig::default());
    let mut fleet = FleetSim::new(
        replicas,
        FleetConfig {
            dispatch: DispatchKind::parse("affinity").unwrap(),
            parallelism,
            telemetry,
            ..FleetConfig::default()
        },
    );
    let mix = TrafficMix::arvr(41).reshaped(TrafficShape::Burst);
    fleet.run(&mix, 0.4).expect("mix fits each 3x3")
}

/// Two threads serve a traced 4-replica fleet: the caller's (track 0,
/// which also routed) serves replicas 0 and 1, one worker (track 1)
/// serves 2 and 3. The report is exactly an untraced `Serial` fleet's,
/// and on each track any two spans nest or are disjoint, which is what
/// Perfetto needs to draw the track.
#[test]
fn a_traced_concurrent_fleet_reports_like_a_serial_one_on_nesting_tracks() {
    let serial = fleet_with(Telemetry::disabled(), Parallelism::Serial);
    let tel = Telemetry::enabled(true, false);
    let traced = fleet_with(tel.clone(), Parallelism::Fixed(2));
    assert_eq!(serial, traced);
    assert_eq!(serial.to_string(), traced.to_string());

    let doc = serde::parse_value(&tel.trace_json().unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let num = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).unwrap();
    let mut replica_tracks = [f64::NAN; 4];
    for e in events {
        if e.get("name").and_then(Value::as_str) == Some("fleet.replica") {
            let replica = num(e.get("args").unwrap(), "replica") as usize;
            replica_tracks[replica] = num(e, "tid");
        }
    }
    assert_eq!(replica_tracks, [0.0, 0.0, 1.0, 1.0]);

    // per track: sort by start, the longer span first on a tie; a span
    // starting before the innermost open one ends must end inside it
    let mut spans: Vec<(f64, f64, f64)> = events
        .iter()
        .map(|e| (num(e, "tid"), num(e, "ts"), num(e, "ts") + num(e, "dur")))
        .collect();
    spans.sort_by(|a, b| {
        (a.0.total_cmp(&b.0))
            .then(a.1.total_cmp(&b.1))
            .then(b.2.total_cmp(&a.2))
    });
    // timestamps are whole nanoseconds, in µs: 1e-3 absorbs the rounding
    // of `ts + dur`
    const EPS_US: f64 = 1e-3;
    let mut open: Vec<(f64, f64)> = Vec::new();
    for &(tid, start, end) in &spans {
        while open
            .last()
            .is_some_and(|&(t, e)| t != tid || e <= start + EPS_US)
        {
            open.pop();
        }
        if let Some(&(_, outer_end)) = open.last() {
            assert!(
                end <= outer_end + EPS_US,
                "track {tid}: [{start}, {end}] overlaps a span ending at {outer_end}"
            );
        }
        open.push((tid, end));
    }
}

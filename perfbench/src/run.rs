//! The measurement loop: set-up, measured passes, the traced run, and
//! the metric table the one-line JSON result is printed from.

use crate::args::Args;
use crate::decor::{AdmissionLog, SchedLog};
use crate::stats::{mean, median, pct};
use crate::workloads::{paper_requests, setup, Bench, Pass};
use scar_telemetry::{analyze_trace, Telemetry};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), with units, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("arrivals_per_s", "1/s"),
    ("schedules_per_s", "1/s"),
    ("edp_geomean", "J.s"),
    ("on_time_rate", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in output order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("maestro.warm_up_ms", "ms"),
    ("maestro.get_hit_ns_p50", "ns"),
    ("maestro.evaluations", "count"),
    ("seg.top_k_us_p50", "us"),
    ("seg.top_k_us_p99", "us"),
    ("seg.calls", "count"),
    ("tree.placements_us_p50", "us"),
    ("tree.placements", "count"),
    ("eval.schedule_us_p50", "us"),
    ("eval.schedule_us_p99", "us"),
    ("eval.windows", "count"),
    ("sched.full_ms_p50", "ms"),
    ("sched.full_ms_p99", "ms"),
    ("sched.full_calls", "count"),
    ("sched.preempt_ms_p50", "ms"),
    ("sched.preempt_ms_p99", "ms"),
    ("sched.preempt_calls", "count"),
    ("sched.reschedule_us_p50", "us"),
    ("sched.reschedule_calls", "count"),
    ("sched.candidates_per_call", "count"),
    ("serve.rounds", "count"),
    ("serve.round_self_us", "us"),
    ("serve.deadline_miss_rate", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.fingerprint_us_p50", "us"),
    ("admission.decide_ns_p50", "ns"),
    ("admission.rejected", "count"),
    ("fleet.dispatch_ns_per_arrival", "ns"),
    ("fleet.replica_ms", "ms"),
    ("fleet.migrations", "count"),
    ("trace.generation_ms", "ms"),
    ("trace.evaluation_ms", "ms"),
    ("trace.splice_ms", "ms"),
    ("trace.cache_ms", "ms"),
    ("trace.admission_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted across every pass.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// Measured metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host wall of every measured pass, seconds, in run order.
    pub pass_walls: Vec<f64>,
    /// Least-disturbed host time of a pass, seconds (see [`best_pass_s`]).
    pub best_pass_s: f64,
}

impl Outcome {
    /// The metric table this invocation reports.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The value of metric `name` (0 when not measured).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Correct when nothing failed and every reported value is finite.
    pub fn correct(&self, trace: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && Self::table(trace)
                .iter()
                .all(|(n, _)| self.get(n).is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric of the table with its unit.
    pub fn to_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::table(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one invocation: set-up, then the end-to-end passes or the traced
/// run, for `args.seconds` of measurement.
pub fn run(args: &Args) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let b = setup(args.workload, args.seed, args.trace);
        setup_times.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    if args.trace {
        traced(bench.as_mut(), args, start + budget / 2, start + budget)
    } else {
        // the high-water mark of set-up plus one pass: later passes redo
        // the same work, and only add allocator noise to the peak
        let mut passes = vec![bench.pass(&Telemetry::disabled())];
        let rss_mib = peak_rss_mib();
        while Instant::now() < start + budget {
            passes.push(bench.pass(&Telemetry::disabled()));
        }
        let mut out = totals(&passes);
        let per_pass = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let rate = |n: u64| n as f64 / out.best_pass_s;
        out.metrics = vec![
            ("arrivals_per_s", rate(passes[0].requests)),
            ("schedules_per_s", rate(passes[0].schedules)),
            ("edp_geomean", per_pass(|p| p.edp_geomean)),
            ("on_time_rate", per_pass(|p| p.on_time_rate)),
            ("latency_p50_ms", per_pass(|p| p.latency_p50_ms)),
            ("latency_p99_ms", per_pass(|p| p.latency_p99_ms)),
            ("setup_s", median(&setup_times)),
            ("peak_rss_mb", rss_mib),
        ];
        out
    }
}

/// Runs passes until `until`, at least one.
fn measure(bench: &mut dyn Bench, tel: &dyn Fn() -> Telemetry, until: Instant) -> Vec<Pass> {
    let mut passes = Vec::new();
    loop {
        passes.push(bench.pass(&tel()));
        if Instant::now() >= until {
            return passes;
        }
    }
}

/// The least-disturbed host time of one pass: every pass repeats the same
/// segments of work, so each segment's least time in any pass is the
/// run's best measurement of it, and their sum is the pass's. A neighbour
/// that takes the host's cores away for a while slows the segments it
/// lands on in one pass, not the same segments in every pass.
fn best_pass_s(passes: &[Pass]) -> f64 {
    let segments = passes.iter().map(|p| p.segment_s.len()).max().unwrap_or(0);
    (0..segments)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.segment_s.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn totals(passes: &[Pass]) -> Outcome {
    Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: Vec::new(),
        pass_walls: passes.iter().map(|p| p.wall_s).collect(),
        best_pass_s: best_pass_s(passes),
    }
}

/// What one traced pass recorded.
struct TracedPass {
    pass: Pass,
    phase_ms: Vec<(&'static str, f64)>,
    dispatch_s: f64,
    replica_s: f64,
    serve_run_s: f64,
    serve_schedule_s: f64,
    coverage: Option<f64>,
    spans: (SchedLog, AdmissionLog),
}

/// The traced run: untraced passes until `half`, the same passes with
/// `Telemetry::enabled(true, true)` until `until`, then the layer probes.
fn traced(bench: &mut dyn Bench, args: &Args, half: Instant, until: Instant) -> Outcome {
    let untraced = measure(bench, &Telemetry::disabled, half);
    let sched = std::mem::take(&mut *bench.logs().sched.borrow_mut());
    let admission = std::mem::take(&mut *bench.logs().admission.borrow_mut());
    let root = bench.trace_root();
    let mut traced: Vec<TracedPass> = Vec::new();
    loop {
        let tel = Telemetry::enabled(true, true);
        let pass = bench.pass(&tel);
        let wall = |name: &str| tel.span_wall(name).map_or(0.0, |w| w.total_s);
        let doc = tel.trace_json().and_then(|json| parse_trace(&json));
        traced.push(TracedPass {
            phase_ms: tel
                .phase_wall()
                .into_iter()
                .map(|(p, w)| (p, w.total_s * 1e3))
                .collect(),
            dispatch_s: wall("fleet.dispatch"),
            replica_s: wall("fleet.replica"),
            serve_run_s: wall("serve.run"),
            serve_schedule_s: wall("serve.schedule"),
            coverage: doc
                .as_ref()
                .and_then(|d| analyze_trace(d, root).ok())
                .map(|a| a.coverage()),
            spans: doc.as_ref().map(spans_by_kind).unwrap_or_default(),
            pass,
        });
        if Instant::now() >= until {
            break;
        }
    }
    let probes = crate::probes::run(&paper_requests(args.seed), args.seed);

    let mut out = totals(&untraced);
    let traced_totals = totals(&traced.iter().map(|t| t.pass.clone()).collect::<Vec<_>>());
    out.attempted += traced_totals.attempted;
    out.failed += traced_totals.failed;
    // a trace that does not parse or has no root is a wrong output
    out.failed += traced.iter().filter(|t| t.coverage.is_none()).count() as u64;

    let first = &untraced[0];
    let n = untraced.len() as f64;
    let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    // schedulers built inside the fleet cannot be decorated: their calls
    // are read off the first traced pass's `serve.schedule` spans instead
    let from_trace = sched.full_s.is_empty() && first.rounds > 0;
    let (sched, admission, calls_per) = if from_trace {
        let (s, a) = std::mem::take(&mut traced[0].spans);
        (s, a, 1.0)
    } else {
        (sched, admission, n)
    };
    let over_traced =
        |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let round_self_us = if first.rounds == 0 {
        0.0
    } else if from_trace {
        over_traced(&|t| (t.serve_run_s - t.serve_schedule_s) / t.pass.rounds as f64 * 1e6)
    } else {
        let serving: f64 = untraced.iter().map(|p| p.wall_s).sum();
        let rounds: u64 = untraced.iter().map(|p| p.rounds).sum();
        (serving - sched.total_s()) / rounds as f64 * 1e6
    };
    let logs = bench.logs();
    let ms = |v: &[f64], q: f64| pct(v, q) * 1e3;
    let us = |v: &[f64], q: f64| pct(v, q) * 1e6;
    let phase = |name: &str| {
        over_traced(&|t: &TracedPass| {
            t.phase_ms
                .iter()
                .find(|(p, _)| *p == name)
                .map_or(0.0, |(_, v)| *v)
        })
    };
    out.metrics = vec![
        ("maestro.warm_up_ms", median(&probes.warm_up_ms)),
        ("maestro.get_hit_ns_p50", median(&probes.get_hit_ns)),
        ("maestro.evaluations", first.cost_evaluations as f64),
        ("seg.top_k_us_p50", pct(&probes.top_k_us, 50.0)),
        ("seg.top_k_us_p99", pct(&probes.top_k_us, 99.0)),
        ("seg.calls", probes.top_k_us.len() as f64),
        ("tree.placements_us_p50", median(&probes.placements_us)),
        ("tree.placements", probes.placements as f64),
        ("eval.schedule_us_p50", pct(&logs.eval_us, 50.0)),
        ("eval.schedule_us_p99", pct(&logs.eval_us, 99.0)),
        ("eval.windows", logs.eval_windows as f64),
        ("sched.full_ms_p50", ms(&sched.full_s, 50.0)),
        ("sched.full_ms_p99", ms(&sched.full_s, 99.0)),
        ("sched.full_calls", sched.full_s.len() as f64 / calls_per),
        ("sched.preempt_ms_p50", ms(&sched.preempt_s, 50.0)),
        ("sched.preempt_ms_p99", ms(&sched.preempt_s, 99.0)),
        (
            "sched.preempt_calls",
            sched.preempt_s.len() as f64 / calls_per,
        ),
        ("sched.reschedule_us_p50", us(&sched.reschedule_s, 50.0)),
        (
            "sched.reschedule_calls",
            sched.reschedule_s.len() as f64 / calls_per,
        ),
        (
            "sched.candidates_per_call",
            mean(
                &sched
                    .candidates
                    .iter()
                    .map(|&c| c as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("serve.rounds", first.rounds as f64),
        ("serve.round_self_us", round_self_us),
        ("serve.deadline_miss_rate", 1.0 - first.on_time_rate),
        ("cache.hit_rate", first.cache_hit_rate()),
        ("cache.fingerprint_us_p50", median(&probes.fingerprint_us)),
        ("admission.decide_ns_p50", pct(&admission.decide_ns, 50.0)),
        ("admission.rejected", first.rejected as f64),
        (
            "fleet.dispatch_ns_per_arrival",
            over_traced(&|t| t.dispatch_s * 1e9 / t.pass.requests as f64),
        ),
        ("fleet.replica_ms", over_traced(&|t| t.replica_s * 1e3)),
        ("fleet.migrations", first.migrations as f64),
        ("trace.generation_ms", phase("generation")),
        ("trace.evaluation_ms", phase("evaluation")),
        ("trace.splice_ms", phase("splice")),
        ("trace.cache_ms", phase("cache")),
        ("trace.admission_ms", phase("admission")),
        (
            "trace.coverage",
            over_traced(&|t| t.coverage.unwrap_or(0.0)),
        ),
        (
            "trace.overhead",
            over_traced(&|t| t.pass.wall_s) / untraced_wall,
        ),
    ];
    out
}

/// Parses a `Telemetry::trace_json` document one event at a time.
///
/// The vendored JSON parser re-validates the whole rest of its input for
/// every string character it reads, so parsing a large trace in one call
/// is quadratic; splitting the `traceEvents` array into its objects first
/// keeps the total linear. `None` when the document or an event does not
/// parse.
fn parse_trace(json: &str) -> Option<serde::Value> {
    let body = json.get(json.find('[')? + 1..)?;
    let mut events = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    events.push(serde::parse_value(&body[start..=i]).ok()?);
                }
            }
            b']' if depth == 0 => {
                return Some(serde::Value::Object(vec![(
                    "traceEvents".to_string(),
                    serde::Value::Array(events),
                )]));
            }
            _ => {}
        }
    }
    None
}

/// Scheduler-call and admission-decision times read off a trace's
/// `serve.schedule` (by its `kind` argument) and `serve.admission` spans.
fn spans_by_kind(doc: &serde::Value) -> (SchedLog, AdmissionLog) {
    let mut sched = SchedLog::default();
    let mut admission = AdmissionLog::default();
    let events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .unwrap_or_default();
    for ev in events {
        let dur_us = ev.get("dur").and_then(serde::Value::as_f64).unwrap_or(0.0);
        match ev.get("name").and_then(serde::Value::as_str) {
            Some("serve.schedule") => {
                let kind = ev.get("args").and_then(|a| a.get("kind"));
                let slot = match kind.and_then(serde::Value::as_str) {
                    Some("preempt") => &mut sched.preempt_s,
                    Some("incremental") => &mut sched.reschedule_s,
                    _ => &mut sched.full_s,
                };
                slot.push(dur_us * 1e-6);
            }
            Some("serve.admission") => admission.decide_ns.push(dur_us * 1e3),
            _ => {}
        }
    }
    (sched, admission)
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

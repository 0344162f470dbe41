//! CI gate over an exported telemetry trace: parses a Chrome
//! `trace_event` JSON file (as written by `SCAR_TRACE=1 serve_sim`),
//! checks the required phase spans are present, and enforces a wall-time
//! coverage floor — the fraction of `serve.run` root wall time attributed
//! to named phases (generation / evaluation / splice / cache / admission).
//!
//! ```sh
//! trace_check TRACE_serve_sim.json                     # ≥95% coverage
//! trace_check TRACE_serve_sim.json --min-coverage 0.8  # custom floor
//! trace_check TRACE_serve_sim.json --require-splice    # preemption ran
//! ```
//!
//! Exit codes: 0 pass, 1 gate failure (low coverage / missing phase),
//! 2 usage or parse error, including a `--min-coverage` outside [0, 1].
//! Splice spans only exist when mid-window preemption actually cut a
//! round, so the splice phase is optional unless `--require-splice` is
//! given.

use scar_telemetry::analyze_trace;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut min_coverage = 0.95f64;
    let mut require_splice = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-coverage" => {
                // a NaN floor would pass every trace, so only a fraction
                // in [0, 1] is a floor
                let value = args.next().unwrap_or_default();
                match value.parse::<f64>() {
                    Ok(v) if (0.0..=1.0).contains(&v) => min_coverage = v,
                    _ => {
                        eprintln!("--min-coverage needs a fraction in [0, 1], got {value:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--require-splice" => require_splice = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(a),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: trace_check <TRACE_*.json> [--min-coverage F] [--require-splice]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_check <TRACE_*.json> [--min-coverage F] [--require-splice]");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match serde::parse_value(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze_trace(&doc, "serve.run") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{path}: {} complete events, {} serve.run root(s), {:.1} ms root wall",
        analysis.complete_events,
        analysis.roots,
        analysis.root_total_us / 1e3
    );
    for (phase, us) in &analysis.phase_us {
        println!("  {phase:<12} {:>10.1} ms", us / 1e3);
    }
    let coverage = analysis.coverage();
    println!(
        "coverage: {:.1}% of root wall attributed to named phases (floor {:.1}%)",
        coverage * 100.0,
        min_coverage * 100.0
    );

    let missing = analysis.missing_phases();
    // splice spans require an actual preemption; every other phase must
    // appear in any serve_sim trace
    let hard_missing: Vec<&str> = missing
        .iter()
        .copied()
        .filter(|p| *p != "splice" || require_splice)
        .collect();
    let mut failed = false;
    if !hard_missing.is_empty() {
        eprintln!(
            "missing required phase span(s): {}",
            hard_missing.join(", ")
        );
        failed = true;
    }
    if coverage < min_coverage {
        eprintln!(
            "coverage {:.3} below the {min_coverage} floor — a serving phase is \
             running untraced",
            coverage
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("trace ok");
    ExitCode::SUCCESS
}

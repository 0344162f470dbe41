//! `trace_check` argument handling, driven through the built binary.

use std::process::Command;

/// One `serve.run` root fully covered by one span of each phase, so the
/// trace's coverage is exactly 1.
const FULL_COVERAGE_TRACE: &str = r#"{"traceEvents": [
    {"name": "serve.run", "ph": "X", "ts": 0, "dur": 1000},
    {"name": "search.generation", "ph": "X", "ts": 0, "dur": 200},
    {"name": "search.evaluation", "ph": "X", "ts": 200, "dur": 200},
    {"name": "serve.splice", "ph": "X", "ts": 400, "dur": 200},
    {"name": "serve.cache.probe", "ph": "X", "ts": 600, "dur": 200},
    {"name": "serve.admission", "ph": "X", "ts": 800, "dur": 200}
]}"#;

/// A floor outside [0, 1], or not a number at all, is a usage error
/// (exit 2) — a NaN floor would otherwise pass every trace. Floors inside
/// the interval, ends included, gate normally: this trace covers all of
/// its root, so each passes.
#[test]
fn min_coverage_must_be_a_fraction_in_the_unit_interval() {
    let trace = std::env::temp_dir().join(format!("scar_trace_check_{}.json", std::process::id()));
    std::fs::write(&trace, FULL_COVERAGE_TRACE).expect("write trace");
    let exit_code = |min_coverage: &str| {
        Command::new(env!("CARGO_BIN_EXE_trace_check"))
            .arg(&trace)
            .args(["--min-coverage", min_coverage])
            .output()
            .expect("launch trace_check")
            .status
            .code()
    };
    for bad in ["nan", "NaN", "inf", "-inf", "-0.1", "1.5", "x", ""] {
        assert_eq!(exit_code(bad), Some(2), "--min-coverage {bad:?}");
    }
    for good in ["0", "0.95", "1"] {
        assert_eq!(exit_code(good), Some(0), "--min-coverage {good:?}");
    }
    std::fs::remove_file(&trace).ok();
}

//! `serve_sim` driven through the built binary, each case in its own temp
//! dir (the bin writes its reports and artifacts to its working
//! directory) with every `SCAR_*` variable of this process's environment
//! removed: warm starts, overload preemption, the telemetry knobs, and
//! the inputs it cannot serve.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory for one test's `serve_sim` runs, removed
/// when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("scar_serve_sim_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.0.join(name), contents).expect("write input file");
    }

    fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.0.join(name)).expect("read output file")
    }

    /// Runs `serve_sim` here with exactly the `SCAR_*` variables in `env`.
    fn run(&self, env: &[(&str, &str)]) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve_sim"));
        cmd.current_dir(&self.0);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SCAR_") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(env.iter().copied())
            .output()
            .expect("launch serve_sim")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs `serve_sim` on a policy file holding `json`.
fn serve_sim_with_policy_file(tag: &str, json: &str) -> Output {
    let dir = Scratch::new(tag);
    dir.write("policy.json", json);
    dir.run(&[("SCAR_POLICY_FILE", "policy.json")])
}

/// Stdout of a run that must succeed.
fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "serve_sim failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("UTF-8 stdout")
}

/// The first number after `label` on each stdout line that mentions it
/// (`maestro cost evaluations this run: 192` → 192).
fn counts_after(stdout: &str, label: &str) -> Vec<u64> {
    stdout
        .lines()
        .filter_map(|line| line.split_once(label))
        .map(|(_, rest)| {
            let digits = rest
                .split(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty());
            digits
                .and_then(|d| d.parse().ok())
                .expect("a count follows the label")
        })
        .collect()
}

/// Two processes share one cost snapshot: the first evaluates the cost
/// model, the second serves all four simulators (two mixes × the primary
/// policy and the Standalone baseline) with zero evaluations, and both
/// write the same steady-state reports.
#[test]
fn a_warm_process_evaluates_nothing_and_reports_identically() {
    let dir = Scratch::new("warm");
    let env = [("SCAR_COST_DB", "costdb.json")];
    let cold = stdout_of(&dir.run(&env));
    let cold_report = dir.read("REPORT_serve_sim.txt");
    let warm = stdout_of(&dir.run(&env));
    let warm_report = dir.read("REPORT_serve_sim.txt");

    let cold_evals = counts_after(&cold, "maestro cost evaluations");
    assert_eq!(cold_evals.len(), 4, "{cold}");
    assert!(cold_evals.iter().any(|&n| n > 0), "{cold}");
    assert_eq!(
        counts_after(&warm, "maestro cost evaluations"),
        [0; 4],
        "{warm}"
    );
    assert_eq!(cold_report, warm_report);
}

/// Burst traffic under deadline admission with preemption on cuts
/// in-flight schedules mid-window.
#[test]
fn burst_overload_preempts_mid_window() {
    let dir = Scratch::new("overload");
    let out = dir.run(&[
        ("SCAR_TRAFFIC_SHAPE", "burst"),
        ("SCAR_ADMISSION", "deadline"),
        ("SCAR_PREEMPT", "1"),
    ]);
    let stdout = stdout_of(&out);
    let preemptions = counts_after(&stdout, "mid-window preemptions");
    assert_eq!(preemptions.len(), 2, "{stdout}");
    assert!(preemptions.iter().any(|&n| n > 0), "{stdout}");
}

/// A policy name the registry does not know is a configuration error
/// (exit 2) that lists every zoo policy.
#[test]
fn an_unknown_policy_lists_the_zoo() {
    let out = serve_sim_with_policy_file("unknown", r#"{"policy": "nope"}"#);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("SCAR_POLICY_FILE"), "{stderr}");
    let zoo = scar_serve::PolicyRegistry::with_zoo();
    assert_eq!(zoo.names().len(), 6);
    for name in zoo.names() {
        assert!(stderr.contains(name), "{name}: {stderr}");
    }
}

/// A cost snapshot that does not load is a configuration error (exit 2)
/// naming the variable, not a silent cold start.
#[test]
fn a_corrupt_snapshot_is_a_configuration_error() {
    let dir = Scratch::new("corrupt");
    dir.write("costdb.json", "{ definitely not a snapshot");
    let out = dir.run(&[("SCAR_COST_DB", "costdb.json")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("SCAR_COST_DB="), "{stderr}");
}

/// One individual and no generations is a valid search that never
/// scores a candidate: the run exits 1 with the scheduling error, naming
/// the mix and the policy, instead of panicking.
#[test]
fn an_infeasible_search_exits_1_without_a_panic() {
    let out = serve_sim_with_policy_file(
        "infeasible",
        r#"{"policy":"SCAR","search":{"Evolutionary":{"population":1,"generations":0}}}"#,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("policy SCAR"), "{stderr}");
    assert!(stderr.contains("datacenter"), "{stderr}");
    assert!(stderr.contains("no feasible schedule"), "{stderr}");
}

/// An empty population, or a mutation rate that is no probability, is
/// rejected where the file is parsed: a configuration error (exit 2) that
/// names the field.
#[test]
fn out_of_range_search_parameters_are_configuration_errors() {
    for (tag, field, json) in [
        (
            "population0",
            "\"population\"",
            r#"{"policy":"SCAR","search":{"Evolutionary":{"population":0}}}"#,
        ),
        (
            "mutation5",
            "\"mutation_rate\"",
            r#"{"policy":"SCAR","search":{"Evolutionary":{"mutation_rate":5}}}"#,
        ),
    ] {
        let out = serve_sim_with_policy_file(tag, json);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        assert!(stderr.contains(field), "{tag}: {stderr}");
    }
}

/// A load-shed queue bound of 0 would shed every arrival; it is a
/// configuration error (exit 2) naming the variable, not a panic on the
/// empty warm replay.
#[test]
fn a_zero_shed_bound_is_a_configuration_error() {
    let dir = Scratch::new("shed0");
    let out = dir.run(&[("SCAR_ADMISSION", "shed:0")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("SCAR_ADMISSION"), "{stderr}");
}

/// `SCAR_METRICS=1` prints the per-phase wall line and writes no file;
/// `SCAR_TRACE=1` writes a Chrome trace the analyzer accepts.
#[test]
fn telemetry_knobs_print_walls_and_write_only_the_trace() {
    let dir = Scratch::new("telemetry");
    let walls = stdout_of(&dir.run(&[("SCAR_METRICS", "1")]));
    assert!(
        walls.lines().any(|l| l.starts_with("phase wall: ")),
        "{walls}"
    );
    assert!(!dir.0.join("METRICS_serve_sim.json").exists());
    assert!(!dir.0.join("TRACE_serve_sim.json").exists());

    stdout_of(&dir.run(&[("SCAR_TRACE", "1")]));
    let doc = serde::parse_value(&dir.read("TRACE_serve_sim.json")).expect("trace is JSON");
    let analysis = scar_telemetry::analyze_trace(&doc, "serve.run").expect("trace analyzes");
    assert!(
        analysis.roots > 0 && analysis.coverage() > 0.0,
        "{analysis:?}"
    );
}

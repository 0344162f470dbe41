//! `serve_sim` on policy files it cannot serve, driven through the built
//! binary in a temp dir (the bin writes its reports and artifacts to its
//! working directory).

use std::process::{Command, Output};

/// Runs `serve_sim` in a fresh temp dir on a policy file holding `json`.
fn serve_sim_with_policy_file(tag: &str, json: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("scar_serve_sim_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("policy.json"), json).expect("write policy file");
    let out = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .current_dir(&dir)
        .env("SCAR_POLICY_FILE", "policy.json")
        .env_remove("SCAR_POLICY")
        .env_remove("SCAR_COST_DB")
        .output()
        .expect("launch serve_sim");
    std::fs::remove_dir_all(&dir).ok();
    out
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

/// An empty population is rejected where the file is parsed: a
/// configuration error (exit 2) that names the field.
#[test]
fn a_zero_population_is_a_configuration_error() {
    let out = serve_sim_with_policy_file(
        "population0",
        r#"{"policy":"SCAR","search":{"Evolutionary":{"population":0}}}"#,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("population"), "{stderr}");
}

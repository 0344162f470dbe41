//! Runs every experiment binary in DESIGN.md §4's index, in order, then
//! the fleet-serving benchmark (DESIGN.md §12).
//!
//! A failing experiment does not stop the run: the rest still run, and
//! `run_all` then exits with code 1 naming every experiment that failed.

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let experiments = [
        "fig02_motivation",
        "table04_datacenter",
        "fig07_normalized_grid",
        "fig08_pareto_datacenter",
        "fig09_table06_window_breakdown",
        "table05_fig10_arvr",
        "fig11_pareto_arvr",
        "fig12_triangular",
        "fig13_6x6_evolutionary",
        "ablation_nsplits",
        "ablation_prov",
        "ablation_packing",
        "bench_fleet",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("target dir");
    let mut failed = Vec::new();
    for name in experiments {
        println!("\n################ {name} ################\n");
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            eprintln!("{name} exited with {status}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("failed experiments: {}", failed.join(", "));
    ExitCode::FAILURE
}

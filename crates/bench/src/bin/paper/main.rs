//! Runs the paper's twelve experiments (DESIGN.md §4) over one shared
//! [`Session`] and prints their tables to stdout, each under a
//! `################ <name> ################` banner.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin paper                   # all twelve
//! cargo run --release -p scar-bench --bin paper -- fig02_motivation
//! ```
//!
//! The only arguments are experiment names; none runs all twelve in the
//! index order, and an unknown name exits with code 2 and lists them. The
//! full output is pinned in `PAPER_RESULTS.txt`. An experiment that
//! panics does not stop the run: the rest still run, and `paper` then
//! exits with code 1 naming every experiment that failed.

mod ablation_nsplits;
mod ablation_packing;
mod ablation_prov;
mod fig02_motivation;
mod fig07_normalized_grid;
mod fig08_pareto_datacenter;
mod fig09_table06_window_breakdown;
mod fig11_pareto_arvr;
mod fig12_triangular;
mod fig13_6x6_evolutionary;
mod table04_datacenter;
mod table05_fig10_arvr;

use scar_core::Session;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

/// An experiment's name and entry point.
type Experiment = (&'static str, fn(&Session));

/// The experiment index, in DESIGN.md §4 order.
const EXPERIMENTS: [Experiment; 12] = [
    ("fig02_motivation", fig02_motivation::run),
    ("table04_datacenter", table04_datacenter::run),
    ("fig07_normalized_grid", fig07_normalized_grid::run),
    ("fig08_pareto_datacenter", fig08_pareto_datacenter::run),
    (
        "fig09_table06_window_breakdown",
        fig09_table06_window_breakdown::run,
    ),
    ("table05_fig10_arvr", table05_fig10_arvr::run),
    ("fig11_pareto_arvr", fig11_pareto_arvr::run),
    ("fig12_triangular", fig12_triangular::run),
    ("fig13_6x6_evolutionary", fig13_6x6_evolutionary::run),
    ("ablation_nsplits", ablation_nsplits::run),
    ("ablation_prov", ablation_prov::run),
    ("ablation_packing", ablation_packing::run),
];

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
            Some(experiment) => selected.push(*experiment),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "{arg:?} is not an experiment; the experiments are:\n  {}",
                    names.join("\n  ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.to_vec();
    }
    let session = Session::new();
    let mut failed = Vec::new();
    for (name, run) in selected {
        println!("\n################ {name} ################\n");
        if catch_unwind(AssertUnwindSafe(|| run(&session))).is_err() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("failed experiments: {}", failed.join(", "));
    ExitCode::FAILURE
}

//! Renders the scheduler-zoo catalog: one doc card per policy of
//! [`PolicyRegistry::with_zoo`](scar_serve::PolicyRegistry::with_zoo), in
//! its order, in the style of sched-ext's example-scheduler README (what
//! each scheduler optimizes, its typical use case, and whether it is
//! production ready). The registry reads its names from these cards, so
//! the catalog and the policies it describes cannot drift.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin zoo            # full catalog
//! cargo run --release -p scar-bench --bin zoo -- --names # names only
//! ```
//!
//! Any policy named here can be selected in the serving simulator with
//! `SCAR_POLICY=<name>` or a `SCAR_POLICY_FILE` JSON file, and every
//! serving artifact it records replays exactly through the same registry
//! (`--bin replay`). The rendered table also lives in DESIGN.md §14.

use scar_serve::{catalog, render_catalog};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => print!("{}", render_catalog()),
        Some("--names") => {
            for card in catalog() {
                println!("{}", card.name);
            }
        }
        Some(other) => {
            eprintln!("unknown flag {other:?} (try --names, or no flags for the catalog)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

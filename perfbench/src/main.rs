//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human summary on stderr and the one-line JSON result as the
//! last line of stdout. Bad arguments exit with code 2.

use scar_perfbench::args::parse_args;
use scar_perfbench::run::{peak_rss_mib, run, Outcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}): {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    let walls: Vec<String> = outcome
        .pass_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    eprintln!(
        "  pass walls (s): {} | least-disturbed pass {:.3} s | peak RSS {:.1} MiB",
        walls.join(" "),
        outcome.best_pass_s,
        peak_rss_mib()
    );
    for (name, unit) in Outcome::table(args.trace) {
        eprintln!("  {name:<32} {:>16.6} {unit}", outcome.get(name));
    }
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}

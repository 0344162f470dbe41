//! Argument parsing: every malformed input is a typed error, and the
//! binary turns it into exit code 2 without printing a result.

use scar_perfbench::args::{parse_args, ArgError, Args, Workload};
use std::process::Command;

fn parse(args: &[&str]) -> Result<Args, ArgError> {
    parse_args(args.iter().map(|s| s.to_string()))
}

#[test]
fn well_formed_arguments_parse() {
    let args = parse(&[
        "--workload",
        "fleet_affinity",
        "--seed",
        "42",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        args,
        Args {
            workload: Workload::FleetAffinity,
            seed: 42,
            seconds: 3,
            trace: true,
        }
    );
    let defaults = parse(&["--workload=paper_search"]).unwrap();
    assert_eq!(defaults.seed, Workload::PaperSearch.default_seed());
    assert_eq!((defaults.seconds, defaults.trace), (10, false));
    assert_eq!(
        parse(&[
            "--seed=18446744073709551615",
            "--workload",
            "serve_overload"
        ])
        .unwrap()
        .seed,
        u64::MAX
    );
}

#[test]
fn malformed_arguments_are_typed_errors() {
    let cases: &[(&[&str], ArgError)] = &[
        (&[], ArgError::MissingWorkload),
        (
            &["--workload", "nope"],
            ArgError::UnknownWorkload("nope".into()),
        ),
        (
            &["--workload", "paper_search", "--seed", "-1"],
            ArgError::BadSeed("-1".into()),
        ),
        (
            &["--workload", "paper_search", "--seed", "abc"],
            ArgError::BadSeed("abc".into()),
        ),
        (
            &[
                "--workload",
                "paper_search",
                "--seed",
                "18446744073709551616",
            ],
            ArgError::BadSeed("18446744073709551616".into()),
        ),
        (
            &["--workload", "paper_search", "--seed="],
            ArgError::BadSeed(String::new()),
        ),
        (
            &["--workload", "paper_search", "--seconds", "0"],
            ArgError::BadSeconds("0".into()),
        ),
        (
            &["--workload", "paper_search", "--seconds", "1.5"],
            ArgError::BadSeconds("1.5".into()),
        ),
        (
            &["--workload", "paper_search", "--trace", "2"],
            ArgError::BadTrace("2".into()),
        ),
        (
            &["--workload", "paper_search", "--seed"],
            ArgError::MissingValue("--seed".into()),
        ),
        (
            &["--workload", "a", "--workload", "b"],
            ArgError::Duplicate("--workload".into()),
        ),
        (
            &["--workload", "paper_search", "extra"],
            ArgError::UnknownFlag("extra".into()),
        ),
    ];
    for (args, want) in cases {
        assert_eq!(parse(args).as_ref(), Err(want), "{args:?}");
    }
}

#[test]
fn the_binary_exits_2_on_bad_arguments() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "paper_search", "--seed", "x1"][..],
        &["--workload", "serve_overload", "--trace", "yes"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result on bad arguments");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("perfbench: "));
    }
}

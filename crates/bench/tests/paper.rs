//! `paper` argument handling against its pinned output
//! (`PAPER_RESULTS.txt`), driven through the built binary.

use std::process::{Command, Output};

/// The pinned stdout of `paper` with no arguments.
fn pinned() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.txt");
    std::fs::read_to_string(path).expect("read PAPER_RESULTS.txt")
}

/// The experiment names in the order of their banners.
fn banner_names(out: &str) -> Vec<&str> {
    out.lines()
        .filter_map(|l| {
            l.strip_prefix("################ ")?
                .strip_suffix(" ################")
        })
        .collect()
}

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("launch paper")
}

/// Every argument is checked before anything runs; an unknown one exits
/// 2 and lists the twelve names in the pinned order.
#[test]
fn an_unknown_name_exits_2_and_lists_the_experiments() {
    let pinned = pinned();
    let names = banner_names(&pinned);
    assert_eq!(names.len(), 12, "{names:?}");
    let out = paper(&["fig02_motivation", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let listed: Vec<&str> = stderr.lines().skip(1).map(str::trim).collect();
    assert_eq!(listed, names, "{stderr}");
}

/// A named experiment prints exactly its section of the pinned output,
/// banner included.
#[test]
fn one_name_prints_its_pinned_section() {
    let pinned = pinned();
    let start = pinned.find("\n################ fig02_motivation ").unwrap();
    let end = pinned
        .find("\n################ table04_datacenter ")
        .unwrap();
    let out = paper(&["fig02_motivation"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), pinned[start..end]);
}

//! The one on/off rule for the bins' boolean `SCAR_*` knobs.
//!
//! Every flag reads the same way: unset or empty gives the knob's
//! default, `0` means off, `1` means on. Anything else (`false`, ` 0`,
//! `2`, …) is a configuration error: the bin exits with code 2 and names
//! the variable instead of guessing what the value meant.

use scar_telemetry::Telemetry;

/// Parses one flag's raw value (`None` = unset) under the module rule.
/// The error names the variable and the rejected value.
fn parse_flag(name: &str, value: Option<&str>, default: bool) -> Result<bool, String> {
    match value {
        None | Some("") => Ok(default),
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!(
            "{name}={other:?} is not a flag: use 1 (on) or 0 (off), or leave it unset"
        )),
    }
}

/// Reads flag `name` from the environment under the module rule; an
/// invalid value exits the process with code 2.
pub fn flag(name: &str, default: bool) -> bool {
    // a non-UTF-8 value converts lossily, so it is rejected like any
    // other unknown spelling rather than read as unset
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_flag(name, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The bins' telemetry sink: `SCAR_TRACE` records the span timeline and
/// the per-phase wall table, `SCAR_METRICS` the wall table alone (both
/// default off).
pub fn telemetry() -> Telemetry {
    Telemetry::enabled(flag("SCAR_TRACE", false), flag("SCAR_METRICS", false))
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    #[test]
    fn one_rule_for_every_flag() {
        for default in [false, true] {
            for (value, want) in [
                (None, default),
                (Some(""), default),
                (Some("0"), false),
                (Some("1"), true),
            ] {
                assert_eq!(parse_flag("SCAR_X", value, default), Ok(want), "{value:?}");
            }
            for bad in [" 0", "false", "2"] {
                let err = parse_flag("SCAR_X", Some(bad), default).unwrap_err();
                assert!(err.starts_with("SCAR_X="), "names the variable: {err}");
                assert!(err.contains(&format!("{bad:?}")), "names the value: {err}");
            }
        }
    }
}
